package fsx

import (
	"bytes"
	"encoding/json"

	"funcytuner/internal/xrand"
)

// A sealed record is one line: {"v":1,"sum":"<16 hex>","body":<body>}
// and a newline. The body is compact JSON stored verbatim, and sum is
// Checksum over exactly those bytes, so a reader gets back the bytes the
// writer sealed or nothing. The layout is fixed byte for byte; the
// reader checks it without parsing JSON, and v is the only version any
// file format carries.
const (
	recordHead = `{"v":1,"sum":"`
	recordMid  = `","body":`
	recordTail = "}\n"
	bodyStart  = len(recordHead) + 16 + len(recordMid)
)

// AppendRecord appends body, sealed, to dst and returns the extended
// slice. body must be non-empty compact JSON: the record stores it
// verbatim, so a newline inside it would tear the record.
func AppendRecord(dst, body []byte) []byte {
	dst = append(dst, recordHead...)
	dst = appendSum(dst, body)
	dst = append(dst, recordMid...)
	dst = append(dst, body...)
	return append(dst, recordTail...)
}

// ReadRecords replays the sealed records at the start of data in order,
// handing each body to apply, and stops at the first record that has no
// newline, breaks the layout, fails its checksum or that apply rejects.
// It returns the number of records applied and the byte length of that
// valid prefix. The bodies alias data.
func ReadRecords(data []byte, apply func(body []byte) bool) (records, good int) {
	for good < len(data) {
		nl := bytes.IndexByte(data[good:], '\n')
		if nl < 0 {
			break
		}
		body, ok := openRecord(data[good : good+nl])
		if !ok || !apply(body) {
			break
		}
		good += nl + 1
		records++
	}
	return records, good
}

// AppendEntry appends an entry to dst: two sealed records, a header
// saying what the entry is filed as and then body, followed by tail
// verbatim. header must be compact JSON; body must be valid JSON and is
// compacted first, because a record holds its body verbatim on one line.
// tail is any bytes, stored raw so that a reader that does not want them
// never parses them; no record seals them, so the header must account
// for them (the results repository's names the tail's length and
// checksum). The results repository and the compile-cache spill tier
// store one entry per file; only repository entries have a tail.
func AppendEntry(dst, header, body, tail []byte) ([]byte, error) {
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil {
		return dst, err
	}
	return append(AppendRecord(AppendRecord(dst, header), compact.Bytes()), tail...), nil
}

// ReadEntry returns the header, body and tail of data when data starts
// with two intact sealed records. The tail is every byte after them (nil
// when there are none), bytes that would open as a third record
// included. Checking the header, and checking the tail against it or
// refusing one, is the caller's part. All three slices alias data.
func ReadEntry(data []byte) (header, body, tail []byte, ok bool) {
	records, good := ReadRecords(data, func(rec []byte) bool {
		if header != nil {
			return false // the tail starts here
		}
		header, body = body, rec
		return true
	})
	if records != 2 {
		return nil, nil, nil, false
	}
	if good < len(data) {
		tail = data[good:]
	}
	return header, body, tail, true
}

// openRecord returns the body of one sealed line (newline stripped), or
// false if the line is not a record this package sealed.
func openRecord(line []byte) ([]byte, bool) {
	if len(line) <= bodyStart+1 || line[len(line)-1] != '}' ||
		!bytes.HasPrefix(line, []byte(recordHead)) ||
		!bytes.Equal(line[bodyStart-len(recordMid):bodyStart], []byte(recordMid)) {
		return nil, false
	}
	body := line[bodyStart : len(line)-1]
	var sum [16]byte
	if !bytes.Equal(line[len(recordHead):bodyStart-len(recordMid)], appendSum(sum[:0], body)) {
		return nil, false
	}
	return body, true
}

// appendSum appends Checksum(body) to dst.
func appendSum(dst, body []byte) []byte {
	const hex = "0123456789abcdef"
	h := xrand.HashBytes(body)
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hex[h>>uint(shift)&0xf])
	}
	return dst
}

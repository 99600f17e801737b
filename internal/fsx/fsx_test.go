package fsx

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	for _, fn := range []struct {
		name  string
		write func(string, []byte, os.FileMode) error
	}{
		{"sync", WriteFileAtomic},
		{"fast", WriteFileAtomicFast},
	} {
		t.Run(fn.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "nested", "dir", "out.json")
			if err := fn.write(path, []byte("first"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := fn.write(path, []byte("second"), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "second" {
				t.Fatalf("read %q, want %q", got, "second")
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("temp file left behind: %v", err)
			}
		})
	}
}

func TestWriteFileAtomicLeavesOldOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Make the temp path a directory so the O_CREATE open fails; the
	// committed file must be untouched.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("torn"), 0o644); err == nil {
		t.Fatal("write over a blocked temp path succeeded")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "committed" {
		t.Fatalf("committed file corrupted: %q", got)
	}
}

// TestChecksumPinned pins Checksum to the bytes already on disk: every
// results-repository entry, spill entry and fleet journal record written
// before the three record formats shared this function carries these
// values, and a changed construction would turn them all into misses.
func TestChecksumPinned(t *testing.T) {
	for body, want := range map[string]string{
		"": "c3817c016ba4ff30",
		`{"seq":1,"op":"worker","worker":"w1","losses":2}`: "d6f6c90a32ac3393",
	} {
		if got := Checksum([]byte(body)); got != want {
			t.Errorf("Checksum(%q) = %s, want %s", body, got, want)
		}
	}
}

// The sealed-record layout is what the fleet journal has always written,
// so every journal already on disk replays through ReadRecords.
func TestAppendRecordPinned(t *testing.T) {
	body := `{"seq":1,"op":"worker","worker":"w1","losses":2}`
	want := `{"v":1,"sum":"d6f6c90a32ac3393","body":` + body + "}\n"
	if got := string(AppendRecord(nil, []byte(body))); got != want {
		t.Fatalf("AppendRecord = %q, want %q", got, want)
	}
}

// An entry is two intact records and a tail: AppendEntry seals the
// header and the compacted body and appends the tail, ReadEntry returns
// all three, and data without two intact records — one record, a torn
// second one — is not an entry. Whatever follows the records, a third
// record or stray bytes included, comes back as the tail, which the
// entry's header must account for.
func TestEntryRoundTrip(t *testing.T) {
	head := []byte(`{"key":"00000000000000ff"}`)
	data, err := AppendEntry(nil, head, []byte("{\n  \"a\": [1, 2]\n}"), nil)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"a":[1,2]}`
	if want := AppendRecord(AppendRecord(nil, head), []byte(body)); !bytes.Equal(data, want) {
		t.Fatalf("AppendEntry = %q, want %q", data, want)
	}
	if h, b, tail, ok := ReadEntry(data); !ok || string(h) != string(head) || string(b) != body || tail != nil {
		t.Fatalf("ReadEntry = %q, %q, %q, %v", h, b, tail, ok)
	}
	if _, err := AppendEntry(nil, head, []byte("not json"), nil); err == nil {
		t.Error("AppendEntry accepted a body that is not JSON")
	}
	for name, bad := range map[string][]byte{
		"one record": AppendRecord(nil, head),
		"torn":       data[:len(data)-1],
	} {
		if _, _, _, ok := ReadEntry(bad); ok {
			t.Errorf("%s read as an entry", name)
		}
	}
	for name, tail := range map[string][]byte{
		"raw lines":      []byte("{\"k\":\"x\"}\n{\"k\":\"y\"}\n"),
		"a third record": AppendRecord(nil, head),
		"trailing bytes": []byte("x"),
	} {
		withTail, err := AppendEntry(nil, head, []byte(body), tail)
		if err != nil {
			t.Fatal(err)
		}
		if want := append(bytes.Clone(data), tail...); !bytes.Equal(withTail, want) {
			t.Fatalf("%s: AppendEntry = %q, want %q", name, withTail, want)
		}
		if h, b, got, ok := ReadEntry(withTail); !ok || string(h) != string(head) || string(b) != body || !bytes.Equal(got, tail) {
			t.Errorf("%s: ReadEntry = %q, %q, %q, %v", name, h, b, got, ok)
		}
	}
}

// ReadRecords returns every record of an intact log, verbatim and in
// order, and stops at the first torn, damaged or rejected one with the
// valid prefix's length.
func TestReadRecordsStopsAtDamage(t *testing.T) {
	bodies := []string{`{"a":1}`, `{"note":"a<b &  "}`, `[1,2,3]`}
	var log []byte
	var ends []int
	for _, b := range bodies {
		log = AppendRecord(log, []byte(b))
		ends = append(ends, len(log))
	}
	read := func(data []byte, reject string) (got []string, records, good int) {
		records, good = ReadRecords(data, func(body []byte) bool {
			if string(body) == reject {
				return false
			}
			got = append(got, string(body))
			return true
		})
		return got, records, good
	}
	got, n, good := read(log, "")
	if n != 3 || good != len(log) || len(got) != 3 {
		t.Fatalf("intact log: %d records, %d of %d bytes", n, good, len(log))
	}
	for i := range bodies {
		if got[i] != bodies[i] {
			t.Fatalf("record %d = %q, want %q", i, got[i], bodies[i])
		}
	}

	second := func(mutate func(rec []byte) []byte) []byte {
		out := append([]byte{}, log[:ends[0]]...)
		out = append(out, mutate(append([]byte{}, log[ends[0]:ends[1]]...))...)
		return append(out, log[ends[1]:]...)
	}
	for _, tc := range []struct {
		name   string
		data   []byte
		reject string
	}{
		{"bad checksum", second(func(r []byte) []byte {
			copy(r[len(`{"v":1,"sum":"`):], "0000000000000000")
			return r
		}), ""},
		{"bad version", second(func(r []byte) []byte {
			return bytes.Replace(r, []byte(`{"v":1,`), []byte(`{"v":99,`), 1)
		}), ""},
		{"flipped body byte", second(func(r []byte) []byte {
			r[len(r)-5] ^= 0x01
			return r
		}), ""},
		{"reformatted envelope", second(func(r []byte) []byte {
			return bytes.Replace(r, []byte(`"body":`), []byte(`"body": `), 1)
		}), ""},
		{"empty body", second(func([]byte) []byte { return AppendRecord(nil, nil) }), ""},
		{"torn", log[:ends[1]-1], ""},
		{"rejected", log, bodies[1]},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, n, good := read(tc.data, tc.reject)
			if n != 1 || good != ends[0] || len(got) != 1 || got[0] != bodies[0] {
				t.Fatalf("replay kept %d records (%q), %d bytes; want the first record, %d bytes", n, got, good, ends[0])
			}
		})
	}
	if n, good := ReadRecords([]byte("garbage\n"), func([]byte) bool { return true }); n != 0 || good != 0 {
		t.Fatalf("garbage replayed as %d records, %d bytes", n, good)
	}
}

// Sealing into a buffer with room and replaying allocate nothing: the
// checkpoint appends one record per evaluation.
func TestRecordCodecAllocationFree(t *testing.T) {
	body := []byte(`{"phase":"search","k":7,"time":"0x1.8p+03"}`)
	buf := AppendRecord(nil, body)
	if n := testing.AllocsPerRun(100, func() { buf = AppendRecord(buf[:0], body) }); n != 0 {
		t.Errorf("AppendRecord allocated %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { ReadRecords(buf, func([]byte) bool { return true }) }); n != 0 {
		t.Errorf("ReadRecords allocated %v times per call", n)
	}
}

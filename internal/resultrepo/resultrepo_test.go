package resultrepo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"funcytuner/internal/fsx"
)

// testKey is an arbitrary entry key: the repository treats keys as
// opaque (the funcytuner facade derives them from a run identity).
const testKey uint64 = 0xda9767e162871fb0

// Every valid JSON body Put accepts reads back byte for byte, before
// and after a reopen. The HTML-sensitive characters and U+2028 are the
// bodies a re-escaping envelope would store under a checksum that no
// longer matches.
func TestPutGetSurvivesReopen(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"plain", `{"fingerprint":"00deadbeef001234","speedup":"0x1.8p+00"}`},
		{"less-than", `{"note":"a<b"}`},
		{"ampersand", `{"note":"x&y"}`},
		{"line-separator", "{\"note\":\"p\u2028q\"}"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := testKey
			body := []byte(tc.body)
			if _, ok := r.Get(key); ok {
				t.Fatal("hit on empty repo")
			}
			if err := r.Put(key, body); err != nil {
				t.Fatal(err)
			}
			got, ok := r.Get(key)
			if !ok || !bytes.Equal(got, body) {
				t.Fatalf("Get = %q, %v; want stored body (stats %+v)", got, ok, r.Stats())
			}

			r2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if r2.Len() != 1 {
				t.Fatalf("reopened index has %d entries, want 1", r2.Len())
			}
			got, ok = r2.Get(key)
			if !ok || !bytes.Equal(got, body) {
				t.Fatalf("reopened Get = %q, %v; want stored body", got, ok)
			}
			st := r2.Stats()
			if st.Hits != 1 || st.Corrupt != 0 {
				t.Fatalf("stats = %+v, want 1 hit, 0 corrupt", st)
			}
		})
	}
}

func TestPutRejectsInvalidJSON(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put(1, []byte("not json")); err == nil {
		t.Fatal("Put accepted invalid JSON")
	}
}

// testEntry is an entry with a body and a multi-line trace.
func testEntry() Entry {
	return Entry{
		Body:  []byte(`{"fingerprint":"00deadbeef001234","best":"0x1.91eb851eb851fp+01"}`),
		Trace: []byte("{\"kind\":\"session\",\"name\":\"tune\"}\n{\"kind\":\"eval\",\"index\":1}\n"),
	}
}

// TestCorruptionTolerance is the satellite table test: every way an
// entry can be damaged on disk — truncation, bit flips in its header,
// body or trace, garbage, an entry in a layout older builds wrote, a key
// mismatch, a writer crash mid-rename — must read as a counted corrupt
// miss, never an error and never a wrong entry.
func TestCorruptionTolerance(t *testing.T) {
	key := testKey
	entry := testEntry()
	body := entry.Body
	// lineEnd is the offset just past the n-th line of data.
	lineEnd := func(t *testing.T, data []byte, n int) int {
		end := 0
		for i := 0; i < n; i++ {
			nl := bytes.IndexByte(data[end:], '\n')
			if nl < 0 {
				t.Fatalf("entry has fewer than %d lines", n)
			}
			end += nl + 1
		}
		return end
	}

	cases := []struct {
		name    string
		mangle  func(t *testing.T, path string)
		corrupt bool // expect the corrupt counter to move
	}{
		{"truncated-half", func(t *testing.T, path string) {
			data := mustRead(t, path)
			mustWrite(t, path, data[:len(data)/2])
		}, true},
		{"truncated-empty", func(t *testing.T, path string) {
			mustWrite(t, path, nil)
		}, true},
		{"flipped-byte-in-body", func(t *testing.T, path string) {
			data := mustRead(t, path)
			i := bytes.Index(data, []byte("deadbeef"))
			if i < 0 {
				t.Fatal("body marker not found")
			}
			data[i] ^= 0x01
			mustWrite(t, path, data)
		}, true},
		{"flipped-byte-in-checksum", func(t *testing.T, path string) {
			// The body record's checksum, after the header's line.
			data := mustRead(t, path)
			i := bytes.Index(data[lineEnd(t, data, 1):], []byte(`"sum":"`))
			if i < 0 {
				t.Fatal("checksum marker not found")
			}
			i += lineEnd(t, data, 1) + len(`"sum":"`)
			if data[i] == '0' {
				data[i] = '1'
			} else {
				data[i] = '0'
			}
			mustWrite(t, path, data)
		}, true},
		{"flipped-byte-in-trace", func(t *testing.T, path string) {
			data := mustRead(t, path)
			i := bytes.LastIndex(data, []byte("eval"))
			if i < lineEnd(t, data, 2) {
				t.Fatal("trace marker not found")
			}
			data[i] ^= 0x01
			mustWrite(t, path, data)
		}, true},
		{"truncated-trace", func(t *testing.T, path string) {
			data := mustRead(t, path)
			mustWrite(t, path, data[:len(data)-5])
		}, true},
		{"trace-length-mismatch", func(t *testing.T, path string) {
			// A sealed header whose trace checksum still covers the
			// trace's exact bytes; only the length it gives is one short.
			n := len(entry.Trace)
			old := fmt.Sprintf(`"trace_len":%d,`, n)
			head := header(key, entry.Trace)
			if !bytes.Contains(head, []byte(old)) {
				t.Fatal("trace length not found in the header")
			}
			head = bytes.Replace(head, []byte(old), []byte(fmt.Sprintf(`"trace_len":%d,`, n-1)), 1)
			data, err := fsx.AppendEntry(nil, head, body, entry.Trace)
			if err != nil {
				t.Fatal(err)
			}
			mustWrite(t, path, data)
		}, true},
		{"garbage", func(t *testing.T, path string) {
			mustWrite(t, path, []byte("\x00\xff\x00\xffnot even json"))
		}, true},
		{"wrong-version", func(t *testing.T, path string) {
			// The one-document layout older builds wrote, intact.
			mustWrite(t, path, []byte(fmt.Sprintf(`{"version":1,"key":"%016x","checksum":"%s","body":%s}`,
				key, fsx.Checksum(body), body)))
		}, true},
		{"two-record-layout", func(t *testing.T, path string) {
			// The layout before raw traces, intact: a header naming the
			// key alone, then a body embedding the trace as one escaped
			// string.
			old, err := fsx.AppendEntry(nil, fmt.Appendf(nil, `{"key":"%016x"}`, key),
				fmt.Appendf(nil, `{"fingerprint":"00deadbeef001234","trace_jsonl":%q}`, entry.Trace), nil)
			if err != nil {
				t.Fatal(err)
			}
			mustWrite(t, path, old)
		}, true},
		{"wrong-key", func(t *testing.T, path string) {
			mustWrite(t, path, fsx.AppendRecord(fsx.AppendRecord(nil, header(1, nil)), body))
		}, true},
		{"header-under-other-key", func(t *testing.T, path string) {
			// The same entry filed under another key: every part is
			// intact and checksummed, only the key it names is wrong.
			other, err := encode(key^1, entry)
			if err != nil {
				t.Fatal(err)
			}
			mustWrite(t, path, other)
		}, true},
		{"extra-record", func(t *testing.T, path string) {
			mustWrite(t, path, fsx.AppendRecord(mustRead(t, path), body))
		}, true},
		{"missing-body", func(t *testing.T, path string) {
			mustWrite(t, path, fsx.AppendRecord(nil, header(key, nil)))
		}, true},
		{"deleted-file", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"crash-mid-rename", func(t *testing.T, path string) {
			// A writer that died between writing the temp file and the
			// rename leaves <path>.tmp next to a deleted destination.
			data := mustRead(t, path)
			mustWrite(t, path+".tmp", data[:len(data)-7])
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.PutEntry(key, entry); err != nil {
				t.Fatal(err)
			}
			tc.mangle(t, r.path(key))

			got, ok := r.GetEntry(key)
			if ok {
				t.Fatalf("Get returned %q for a damaged entry", got)
			}
			st := r.Stats()
			if tc.corrupt && st.Corrupt == 0 {
				t.Fatalf("corrupt counter did not move: %+v", st)
			}
			if st.Misses == 0 {
				t.Fatalf("damaged entry not counted as a miss: %+v", st)
			}
			// A second Get is a clean (non-corrupt) miss: the entry was
			// de-indexed.
			if _, ok := r.GetEntry(key); ok {
				t.Fatal("damaged entry resurrected")
			}
			if st2 := r.Stats(); st2.Corrupt != st.Corrupt {
				t.Fatalf("corrupt counter moved again on a de-indexed key: %+v", st2)
			}

			// A fresh Open of the damaged directory must also degrade to
			// a miss, then accept a clean re-Put.
			r2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := r2.GetEntry(key); ok {
				t.Fatalf("reopened Get returned %q for a damaged entry", got)
			}
			if err := r2.PutEntry(key, entry); err != nil {
				t.Fatal(err)
			}
			got, ok = r2.GetEntry(key)
			if !ok || !reflect.DeepEqual(got, entry) {
				t.Fatalf("re-Put after damage: Get = %q, %v", got, ok)
			}
		})
	}
}

func TestOpenIgnoresJunk(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey
	if err := r.Put(key, []byte(`{"x":1}`)); err != nil {
		t.Fatal(err)
	}
	sh := filepath.Join(dir, shard(key))
	mustWrite(t, filepath.Join(sh, "README"), []byte("junk"))
	mustWrite(t, filepath.Join(sh, "0000000000000000.json.tmp"), []byte("torn"))
	mustWrite(t, filepath.Join(dir, "stray.json"), []byte("{}"))
	// A well-formed name filed under the wrong shard directory.
	wrong := filepath.Join(dir, "zz")
	if err := os.MkdirAll(wrong, 0o755); err != nil {
		t.Fatal(err)
	}
	mustWrite(t, filepath.Join(wrong, "0000000000000abc.json"), []byte("{}"))

	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 1 {
		t.Fatalf("index has %d entries, want 1 (junk indexed)", r2.Len())
	}
}

func TestConcurrentPutGet(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const keys = 8
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := uint64(i % keys)
				body := []byte(fmt.Sprintf(`{"k":%d}`, k))
				if err := r.Put(k, body); err != nil {
					t.Error(err)
					return
				}
				if got, ok := r.Get(k); ok && !bytes.Equal(got, body) {
					t.Errorf("key %d: got %q want %q", k, got, body)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.Corrupt != 0 {
		t.Fatalf("concurrent use produced corrupt entries: %+v", st)
	}
}

// FuzzDecode drives the entry validator with arbitrary bytes: it must
// never panic, and whatever it accepts is exactly the entry Put writes
// for the body and trace it returns, header and checksums included.
func FuzzDecode(f *testing.F) {
	key := testKey
	seed, err := encode(key, testEntry())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte("{}"))
	f.Add([]byte(""))
	f.Add(seed[:len(seed)/2])
	untraced := testEntry()
	untraced.Trace = nil
	if seed, err = encode(key, untraced); err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(fsx.AppendRecord(fsx.AppendRecord(nil, fmt.Appendf(nil, `{"key":"%016x"}`, key)), []byte(`{"x":1}`)))
	f.Fuzz(func(t *testing.T, data []byte) {
		e, ok := decode(data, key)
		if !ok {
			return
		}
		resealed, err := encode(key, e)
		if err != nil || !bytes.Equal(resealed, data) {
			t.Fatalf("decode accepted %q, which is not the entry of its parts %q (%v)", data, e, err)
		}
	})
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func mustWrite(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

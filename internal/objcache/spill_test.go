package objcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"funcytuner/internal/fsx"
)

// jsonCodec round-trips string values as JSON — enough to exercise the
// spill machinery without the compiler layer.
type jsonCodec struct{}

func (jsonCodec) Encode(key uint64, val any) ([]byte, bool) {
	s, ok := val.(string)
	if !ok {
		return nil, false
	}
	data, err := json.Marshal(s)
	if err != nil {
		return nil, false
	}
	return data, true
}

func (jsonCodec) Decode(key uint64, data []byte) (any, bool) {
	var s string
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, false
	}
	return s, true
}

func newSpilled(t *testing.T, capacity int, dir string) *Cache {
	t.Helper()
	c := New(capacity)
	if err := c.AttachSpill(dir, jsonCodec{}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSpillEvictionRoundTrip(t *testing.T) {
	dir := t.TempDir()
	// Capacity 16 = one entry per shard: a second insert into a shard
	// evicts the first, which must land on disk and read back through.
	c := newSpilled(t, 16, dir)
	computes := 0
	get := func(key uint64) any {
		return c.Get(key, func() (any, int64) {
			computes++
			return fmt.Sprintf("val-%d", key), 7
		})
	}
	// Keys 0 and 16 share shard 0; inserting 16 evicts 0.
	get(0)
	get(16)
	if computes != 2 {
		t.Fatalf("computes = %d, want 2", computes)
	}
	st := c.Stats()
	if st.Evictions != 1 || st.SpillWrites != 1 {
		t.Fatalf("stats = %+v, want 1 eviction spilled", st)
	}
	// Key 0 is gone from memory but must come back from disk without
	// computing (evicting 16, which spills in turn).
	if got := get(0); got != "val-0" {
		t.Fatalf("spill-served Get = %v", got)
	}
	if computes != 2 {
		t.Fatalf("spill hit ran compute (computes = %d)", computes)
	}
	st = c.Stats()
	if st.SpillHits != 1 {
		t.Fatalf("stats = %+v, want 1 spill hit", st)
	}
	if st.WorkSaved != 7 {
		t.Fatalf("WorkSaved = %d, want 7 (spill hit credits work)", st.WorkSaved)
	}
}

func TestSpillAllSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	c := newSpilled(t, 1024, dir)
	for k := uint64(0); k < 40; k++ {
		k := k
		c.Get(k, func() (any, int64) { return fmt.Sprintf("val-%d", k), 3 })
	}
	c.SpillAll()
	if st := c.Stats(); st.SpillWrites != 40 {
		t.Fatalf("SpillAll wrote %d entries, want 40", st.SpillWrites)
	}

	// "Restart": a fresh cache over the same directory serves every key
	// from disk without running compute.
	c2 := newSpilled(t, 1024, dir)
	for k := uint64(0); k < 40; k++ {
		k := k
		got := c2.Get(k, func() (any, int64) {
			t.Errorf("key %d recomputed after restart", k)
			return nil, 0
		})
		if got != fmt.Sprintf("val-%d", k) {
			t.Fatalf("key %d = %v after restart", k, got)
		}
	}
	st := c2.Stats()
	if st.SpillHits != 40 || st.Misses != 0 {
		t.Fatalf("restart stats = %+v, want 40 spill hits, 0 misses", st)
	}
}

func TestSpillObserverSeesSpillHits(t *testing.T) {
	dir := t.TempDir()
	c := newSpilled(t, 1024, dir)
	c.Get(5, func() (any, int64) { return "v", 1 })
	c.SpillAll()

	c2 := newSpilled(t, 1024, dir)
	var outcomes []Outcome
	c2.SetObserver(func(o Outcome) { outcomes = append(outcomes, o) })
	c2.Get(5, func() (any, int64) { t.Error("computed"); return nil, 0 })
	c2.Get(5, func() (any, int64) { t.Error("computed"); return nil, 0 })
	want := []Outcome{OutcomeSpillHit, OutcomeHit}
	if len(outcomes) != len(want) || outcomes[0] != want[0] || outcomes[1] != want[1] {
		t.Fatalf("outcomes = %v, want %v", outcomes, want)
	}
	if OutcomeSpillHit.String() != "spill_hit" {
		t.Fatalf("OutcomeSpillHit.String() = %q", OutcomeSpillHit.String())
	}
}

// TestSpillCorruptionTolerance is the satellite table test for the
// spill tier: damaged spill files degrade to ordinary misses (compute
// runs, the Get succeeds) with the corruption counted — never an error
// and never a wrong value.
func TestSpillCorruptionTolerance(t *testing.T) {
	key := uint64(9)
	cases := []struct {
		name   string
		mangle func(t *testing.T, path string)
	}{
		{"truncated-half", func(t *testing.T, path string) {
			data := mustRead(t, path)
			mustWrite(t, path, data[:len(data)/2])
		}},
		{"truncated-empty", func(t *testing.T, path string) {
			mustWrite(t, path, nil)
		}},
		{"flipped-byte-in-body", func(t *testing.T, path string) {
			// Flip inside the body payload, which stays valid JSON, so
			// only the checksum can catch the damage.
			data := mustRead(t, path)
			i := bytes.LastIndex(data, []byte(`"good"`))
			if i < 0 {
				t.Fatal("body not found")
			}
			data[i+2] ^= 0x04
			mustWrite(t, path, data)
		}},
		{"garbage", func(t *testing.T, path string) {
			mustWrite(t, path, []byte("\xde\xad\xbe\xef"))
		}},
		{"wrong-version", func(t *testing.T, path string) {
			// The one-document layout older builds wrote, intact.
			mustWrite(t, path, []byte(fmt.Sprintf(`{"version":1,"key":"%016x","work":1,"checksum":"%s","body":"good"}`,
				key, fsx.Checksum([]byte(`"good"`)))))
		}},
		{"wrong-key", func(t *testing.T, path string) {
			mustWrite(t, path, fsx.AppendRecord(fsx.AppendRecord(nil, spillHeader(0xff, 1)), []byte(`"good"`)))
		}},
		{"undecodable-body", func(t *testing.T, path string) {
			mustWrite(t, path, fsx.AppendRecord(fsx.AppendRecord(nil, spillHeader(key, 1)), []byte(`{"not":"a string"}`)))
		}},
		{"crash-mid-rename", func(t *testing.T, path string) {
			data := mustRead(t, path)
			mustWrite(t, path+".tmp", data[:len(data)-3])
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			c := newSpilled(t, 1024, dir)
			c.Get(key, func() (any, int64) { return "good", 1 })
			c.SpillAll()
			tc.mangle(t, c.spill.path(key))

			c2 := newSpilled(t, 1024, dir)
			computed := false
			got := c2.Get(key, func() (any, int64) {
				computed = true
				return "good", 1
			})
			if got != "good" {
				t.Fatalf("Get = %v, want recomputed value", got)
			}
			if !computed {
				t.Fatal("damaged spill entry served without recompute")
			}
			st := c2.Stats()
			if tc.name != "crash-mid-rename" && st.SpillCorrupt == 0 {
				t.Fatalf("spill_corrupt did not move: %+v", st)
			}
			if st.SpillHits != 0 {
				t.Fatalf("damaged entry counted as spill hit: %+v", st)
			}
			// The recompute rewrote nothing (no eviction), but a fresh
			// SpillAll must recover the tier.
			c2.SpillAll()
			c3 := newSpilled(t, 1024, dir)
			if got := c3.Get(key, func() (any, int64) {
				t.Error("recomputed after recovery")
				return nil, 0
			}); got != "good" {
				t.Fatalf("post-recovery Get = %v", got)
			}
		})
	}
}

// A spill file is two records and nothing more: an entry with a tail,
// which only results-repository entries carry, is a counted corrupt miss.
func TestSpillRefusesTail(t *testing.T) {
	key := uint64(9)
	for name, tail := range map[string][]byte{
		"trailing bytes": []byte("x"),
		"a third record": fsx.AppendRecord(nil, []byte(`"good"`)),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c := newSpilled(t, 1024, dir)
			c.Get(key, func() (any, int64) { return "good", 1 })
			c.SpillAll()
			path := c.spill.path(key)
			mustWrite(t, path, append(mustRead(t, path), tail...))

			c2 := newSpilled(t, 1024, dir)
			computed := false
			if got := c2.Get(key, func() (any, int64) { computed = true; return "good", 1 }); got != "good" || !computed {
				t.Fatalf("Get = %v, computed %v; want a recompute", got, computed)
			}
			if st := c2.Stats(); st.SpillCorrupt != 1 || st.SpillHits != 0 {
				t.Fatalf("a spill file with a tail was not one corrupt miss: %+v", st)
			}
		})
	}
}

func TestSpillDeclinedValuesStayMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	c := newSpilled(t, 1024, dir)
	c.Get(3, func() (any, int64) { return 12345, 1 }) // int: codec declines
	c.SpillAll()
	st := c.Stats()
	if st.SpillWrites != 0 || st.SpillErrors != 0 {
		t.Fatalf("declined value was spilled or errored: %+v", st)
	}
}

func TestSpillConcurrentGets(t *testing.T) {
	dir := t.TempDir()
	c := newSpilled(t, 1024, dir)
	for k := uint64(0); k < 16; k++ {
		k := k
		c.Get(k, func() (any, int64) { return strconv.FormatUint(k, 10), 1 })
	}
	c.SpillAll()

	c2 := newSpilled(t, 1024, dir)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := uint64(i % 16)
				got := c2.Get(k, func() (any, int64) {
					t.Errorf("key %d recomputed", k)
					return nil, 0
				})
				if got != strconv.FormatUint(k, 10) {
					t.Errorf("key %d = %v", k, got)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := c2.Stats()
	if st.SpillCorrupt != 0 || st.Misses != 0 {
		t.Fatalf("concurrent spill reads went wrong: %+v", st)
	}
	// Singleflight dedups the disk read: exactly one spill hit per key,
	// everything else hits memory or coalesces.
	if st.SpillHits != 16 {
		t.Fatalf("SpillHits = %d, want 16", st.SpillHits)
	}
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
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

package funcytuner

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"funcytuner/internal/core"
	"funcytuner/internal/fsx"
)

// FuzzLoadTuning: arbitrary JSON must never panic the loader, and
// accepted documents must yield CVs consistent with their module count.
func FuzzLoadTuning(f *testing.F) {
	f.Add(`{"flavor":"icc","modules":[]}`)
	f.Add(`{"flavor":"gcc"}`)
	f.Add(`{"program":"CL","flavor":"icc","speedup":1.2,"baseline_seconds":80,"modules":[{"name":"m","flags":"` +
		ICCSpace().Baseline().String() + `"}]}`)
	f.Add(`{"flavor":"icc","speedup":-1,"baseline_seconds":1,"modules":[{"name":"m","flags":""}]}`)
	f.Add(`not json at all`)
	f.Add(`{"flavor":"icc","modules":[{"flags":"-O=9"}]}`)
	f.Fuzz(func(t *testing.T, input string) {
		st, cvs, err := LoadTuning(strings.NewReader(input))
		if err != nil {
			return
		}
		if len(cvs) != len(st.Modules) {
			t.Fatalf("accepted document yields %d CVs for %d modules", len(cvs), len(st.Modules))
		}
		if len(cvs) == 0 {
			t.Fatal("accepted document has no modules")
		}
		if !(st.Speedup > 0) || !(st.Baseline > 0) {
			t.Fatalf("accepted document has implausible outcome (speedup=%v, baseline=%v)", st.Speedup, st.Baseline)
		}
		for _, cv := range cvs {
			_ = cv.Knobs() // must be materializable
		}
	})
}

// FuzzDecodeCheckpoint feeds arbitrary bytes — torn, bit-flipped,
// duplicated and forged records — through checkpoint replay and holds
// FuzzJournalReplay's contract: never panic, always deterministic, and
// a torn record appended to the input changing nothing. Whatever replay
// accepts must survive Resume → Flush → LoadCheckpointFile unchanged:
// header, done samples in order with bit-equal times, quarantine and
// cost.
func FuzzDecodeCheckpoint(f *testing.F) {
	seal := func(bodies ...string) []byte {
		var log []byte
		for _, b := range bodies {
			log = fsx.AppendRecord(log, []byte(b))
		}
		return log
	}
	header := `{"version":3,"program":"CL","machine":"broadwell","flavor":"icc","seed":"s","samples":3,"topx":1,"modules":2}`
	collect := `{"phase":"collect","k":0,"time":"0x1.8p+02","modules":["0x1p+02","-0x0p+00"],"cost":{"compiles":2,"runs":1,"sim_micros":7},"quarantine":["a3"]}`
	search := `{"phase":"search","k":2,"time":"+Inf","cost":{"runs":1,"timeouts":1}}`
	resumed := `{"phase":"resumed","cost":{"compiles":3,"flakes":2},"quarantine":["FFFFFFFFFFFFFFFF","00a3"]}`
	random := `{"phase":"random","k":1,"time":"0x1.4p+02","cost":{"compiles":2,"runs":1,"compile_fails":1},"quarantine":["a3"]}`
	fr := `{"phase":"fr","k":2,"time":"-Inf","cost":{"runs":2,"flakes":1,"retries":1}}`
	greedy := `{"phase":"greedy","k":0,"time":"0x1.2p+02","cost":{"compiles":2,"runs":1}}`

	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		f.Fatal(err)
	}
	path := filepath.Join(f.TempDir(), "run.ckpt")
	// A small real log: the fuzzer minimizes every input that finds new
	// coverage, and each accepted input costs a synced write.
	opts := Options{Machine: m, Samples: 4, TopX: 2, Seed: "fuzz-seed", Faults: DefaultFaultRates(),
		Checkpoint: path, CheckpointEvery: 2, KillAfterEvals: 6}
	if _, err := NewTuner(opts).Tune(prog, TuningInput(CloverLeaf, m)); !errors.Is(err, ErrKilled) {
		f.Fatalf("expected ErrKilled, got %v", err)
	}
	real, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(seal(header, collect, search, resumed))
	f.Add(seal(header, random, collect, fr, greedy, search))
	f.Add(seal(header, random, random, fr, `{"phase":"greedy","k":0,"time":"0x1p+00","modules":["0x1p+02","0x1p+02"]}`))
	// The shape an older build's resume wrote: zero-cost samples, then the
	// cost and quarantine they inherited.
	f.Add(seal(header, `{"phase":"collect","k":0,"time":"0x1.8p+02","modules":["0x1p+02","-0x0p+00"]}`,
		`{"phase":"search","k":2,"time":"+Inf"}`, resumed, search))
	f.Add(seal(header, collect, collect, search))
	flipped := seal(header, collect, search)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(flipped)
	f.Add(real[:len(real)-9])
	f.Add([]byte(`{"version":1,"program":"CL","machine":"broadwell","flavor":"icc","seed":"s","samples":2,"topx":1,"modules":1,` +
		`"times":[["0x1p+02",""]],"totals":["0x1.8p+02",""],"cfr_times":["",""],"collect_done":[0],"quarantine":["a3"],"cost":{"runs":1}}`))
	f.Add(seal(`{"version":3,"program":"C\"L\\","machine":"<b>&amp;</b>","flavor":"\u2028\u0001","seed":"\t\ud800 s\u00e9ed",`+
		`"technique":"bo\u0000","samples":3,"topx":1,"modules":2}`, search))
	f.Add([]byte("not json"))
	// A version-2 header, as builds before the run identity wrote it.
	f.Add(seal(strings.Replace(header, `"version":3`, `"version":2`, 1), collect))

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := core.DecodeCheckpoint(bytes.NewReader(data))
		again, err2 := core.DecodeCheckpoint(bytes.NewReader(data))
		if (err == nil) != (err2 == nil) || !sameProgress(ck, again) {
			t.Fatal("replay is not deterministic")
		}
		torn, err3 := core.DecodeCheckpoint(bytes.NewReader(append(data[:len(data):len(data)], `{"v":1,"sum":"beef`...)))
		if (err == nil) != (err3 == nil) || !sameProgress(ck, torn) {
			t.Fatal("a torn tail changed the replayed checkpoint")
		}
		if err != nil {
			return
		}
		path := filepath.Join(t.TempDir(), "checkpoint.json")
		c := core.NewCheckpointer(path, 0)
		c.Resume(ck)
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := core.LoadCheckpointFile(path)
		if err != nil {
			t.Fatalf("flushed checkpoint does not load: %v", err)
		}
		if !sameProgress(ck, got) {
			t.Fatalf("progress changed across Resume, Flush and load:\n%+v\n%+v", ck, got)
		}
	})
}

// sameProgress reports whether two replayed checkpoints hold the same
// header and progress, with every time equal bit for bit.
func sameProgress(a, b *core.Checkpoint) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Done) != len(b.Done) {
		return false
	}
	bits := func(s core.Sample) []uint64 {
		out := []uint64{math.Float64bits(s.Time)}
		for _, v := range s.Modules {
			out = append(out, math.Float64bits(v))
		}
		return out
	}
	for i, s := range a.Done {
		if !slices.Equal(bits(s), bits(b.Done[i])) {
			return false
		}
	}
	strip := func(c core.Checkpoint) core.Checkpoint {
		c.Done = slices.Clone(c.Done)
		for i := range c.Done {
			c.Done[i].Time, c.Done[i].Modules = 0, nil
		}
		return c
	}
	return reflect.DeepEqual(strip(*a), strip(*b))
}

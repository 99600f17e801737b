package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/fsx"
	"funcytuner/internal/outline"
)

// newCkptSession builds a CloverLeaf/Broadwell session with the given
// kill point, checkpointing to path (resuming from it if it exists).
func newCkptSession(t *testing.T, path string, killAfter, workers int) *Session {
	t.Helper()
	return ckptSession(t, path, Config{Samples: 50, TopX: 8, Seed: "ckpt-test", Noisy: true,
		Workers: workers, Faults: faults.Default(), KillAfterEvals: killAfter})
}

// ckptSession builds a CloverLeaf/Broadwell session of cfg,
// checkpointing to path (resuming from it if it exists) unless path is
// empty.
func ckptSession(t *testing.T, path string, cfg Config) *Session {
	t.Helper()
	tc := compiler.NewToolchain(flagspec.ICC())
	p := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.CloverLeaf, m)
	res, err := outline.AutoOutline(tc, p, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(tc, p, res.Partition, m, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if path != "" {
		ckpt := NewCheckpointer(path, 5)
		if _, err := os.Stat(path); err == nil {
			ck, err := LoadCheckpointFile(path)
			if err != nil {
				t.Fatal(err)
			}
			ckpt.Resume(ck)
		}
		if err := s.AttachCheckpointer(ckpt); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

type runOutcome struct {
	col  *Collection
	cfr  *Result
	cost CostSnapshot
}

func snapshot(s *Session) CostSnapshot {
	return CostSnapshot{
		Compiles: s.Cost.Compiles(), Runs: s.Cost.Runs(),
		SimMicros: int64(s.Cost.SimulatedHours() * 3600 * 1e6),
		Retries:   s.Cost.Retries(), WastedCompiles: s.Cost.WastedCompiles(),
		FaultMicros:  int64(s.Cost.FaultHours() * 3600 * 1e6),
		CompileFails: s.Cost.CompileFailures(), RunCrashes: s.Cost.RunCrashes(),
		Timeouts: s.Cost.Timeouts(), Flakes: s.Cost.Flakes(),
	}
}

// A run killed mid-campaign and resumed must produce results and costs
// bit-identical to an uninterrupted run, for kill points in either phase.
func TestKillResumeEquality(t *testing.T) {
	uninterrupted := newCkptSession(t, "", 0, 4)
	col, err := uninterrupted.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfr, err := uninterrupted.CFR(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	want := runOutcome{col, cfr, snapshot(uninterrupted)}

	// Kill points: during the collection phase (17 < 50) and during the
	// CFR search phase (50 < 63 < 100).
	for _, killAt := range []int{17, 63} {
		path := filepath.Join(t.TempDir(), "run.ckpt")
		dying := newCkptSession(t, path, killAt, 4)
		_, err := dying.Collect(context.Background())
		if err == nil {
			var cfrErr error
			_, cfrErr = dying.CFR(context.Background(), col)
			err = cfrErr
		}
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("kill@%d: expected ErrKilled, got %v", killAt, err)
		}
		if _, statErr := os.Stat(path); statErr != nil {
			t.Fatalf("kill@%d: no checkpoint on disk: %v", killAt, statErr)
		}

		resumed := newCkptSession(t, path, 0, 4)
		rcol, err := resumed.Collect(context.Background())
		if err != nil {
			t.Fatalf("kill@%d: resumed collect: %v", killAt, err)
		}
		rcfr, err := resumed.CFR(context.Background(), rcol)
		if err != nil {
			t.Fatalf("kill@%d: resumed CFR: %v", killAt, err)
		}

		for k := range want.col.Totals {
			if rcol.Totals[k] != want.col.Totals[k] {
				t.Fatalf("kill@%d: total[%d] %v != %v", killAt, k, rcol.Totals[k], want.col.Totals[k])
			}
			for mi := range want.col.Times {
				if rcol.Times[mi][k] != want.col.Times[mi][k] {
					t.Fatalf("kill@%d: times[%d][%d] differ", killAt, mi, k)
				}
			}
		}
		if rcfr.BestMeasured != want.cfr.BestMeasured || rcfr.Speedup != want.cfr.Speedup {
			t.Fatalf("kill@%d: CFR outcome differs: (%v, %v) != (%v, %v)", killAt,
				rcfr.BestMeasured, rcfr.Speedup, want.cfr.BestMeasured, want.cfr.Speedup)
		}
		for i := range want.cfr.Trace {
			if rcfr.Trace[i] != want.cfr.Trace[i] {
				t.Fatalf("kill@%d: trace[%d] differs", killAt, i)
			}
		}
		if got := snapshot(resumed); got != want.cost {
			t.Fatalf("kill@%d: resumed cost %+v != uninterrupted %+v", killAt, got, want.cost)
		}
	}
}

// The adaptive search replays checkpointed evaluations through the same
// stopping logic, so a killed+resumed adaptive run matches exactly.
func TestKillResumeAdaptiveEquality(t *testing.T) {
	session := func(path string, killAfter int) *Session {
		return ckptSession(t, path, Config{Samples: 50, TopX: 8, Seed: "ckpt-test", Noisy: true,
			Workers: 1, Faults: faults.Default(), KillAfterEvals: killAfter,
			Stop: &StopRule{MinEvaluations: 5, Patience: 10}})
	}
	uninterrupted := session("", 0)
	col, err := uninterrupted.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := uninterrupted.Search(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	dying := session(path, 55)
	_, err = dying.Collect(context.Background())
	if err == nil {
		_, err = dying.Search(context.Background(), col)
	}
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("expected ErrKilled, got %v", err)
	}
	resumed := session(path, 0)
	rcol, err := resumed.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Search(context.Background(), rcol)
	if err != nil {
		t.Fatal(err)
	}
	if got.BestMeasured != want.BestMeasured || got.Evaluations != want.Evaluations {
		t.Fatalf("resumed adaptive (%v, %d evals) != uninterrupted (%v, %d evals)",
			got.BestMeasured, got.Evaluations, want.BestMeasured, want.Evaluations)
	}
}

// Attaching a checkpoint from a different run must be rejected, naming
// the first identity field that differs.
func TestAttachMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	s := newCkptSession(t, path, 0, 1)
	if _, err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	ck, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}

	attach := func(mutate func(*Checkpoint), cfg Config) error {
		cp := *ck
		if mutate != nil {
			mutate(&cp)
		}
		c := NewCheckpointer(filepath.Join(t.TempDir(), "x.ckpt"), 0)
		c.Resume(&cp)
		return ckptSession(t, "", cfg).AttachCheckpointer(c)
	}
	good := Config{Samples: 50, TopX: 8, Seed: "ckpt-test", Noisy: true, Faults: faults.Default()}
	with := func(mut func(*Config)) Config {
		cfg := good
		mut(&cfg)
		return cfg
	}
	// Scheduling and the resilience defaults spelled out are the same run.
	for _, cfg := range []Config{good,
		with(func(c *Config) { c.Workers, c.KillAfterEvals = 4, 9 }),
		with(func(c *Config) {
			c.MaxRetries, c.BackoffSeconds, c.BackoffCapSeconds = DefaultMaxRetries, DefaultBackoffSeconds, DefaultBackoffCapSeconds
		}),
	} {
		if err := attach(nil, cfg); err != nil {
			t.Fatalf("matching checkpoint rejected: %v", err)
		}
	}
	cases := []struct {
		name, field string
		mutate      func(*Checkpoint)
		cfg         Config
	}{
		{"program", "program", func(c *Checkpoint) { c.Program = "swim" }, good},
		{"machine", "machine", func(c *Checkpoint) { c.Machine = "opteron" }, good},
		{"flavor", "flavor", func(c *Checkpoint) { c.Flavor = "gcc" }, good},
		{"seed", "seed", nil, with(func(c *Config) { c.Seed = "other" })},
		{"budget", "samples", nil, with(func(c *Config) { c.Samples = 40 })},
		{"faults", "faults", nil, with(func(c *Config) { c.Faults = faults.Rates{} })},
		{"stop rule", "stop", nil, with(func(c *Config) { c.Stop = &StopRule{Patience: 10} })},
	}
	for _, tc := range cases {
		err := attach(tc.mutate, tc.cfg)
		if err == nil || !strings.Contains(err.Error(), "checkpoint "+tc.field+" ") {
			t.Errorf("%s mismatch: error %v, want one naming %q", tc.name, err, tc.field)
		}
	}
}

// Hex-float serialization must round-trip every legitimate measurement,
// including the ±Inf of failed evaluations.
func TestTimeRoundTrip(t *testing.T) {
	format := func(v float64) string { return strings.Trim(string(appendTime(nil, v)), `"`) }
	for _, v := range []float64{0, 1.5, 1e-300, 123.456789012345678, math.Inf(1), math.Inf(-1), 5772.25} {
		got, err := parseTime(format(v))
		if err != nil {
			t.Fatalf("parseTime(%s): %v", format(v), err)
		}
		if got != v {
			t.Fatalf("round-trip %v -> %v", v, got)
		}
	}
	if _, err := parseTime(format(math.NaN())); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := parseTime("bogus"); err == nil {
		t.Error("garbage accepted")
	}
}

// sealed builds a checkpoint log from record bodies.
func sealed(bodies ...string) []byte {
	var log []byte
	for _, b := range bodies {
		log = fsx.AppendRecord(log, []byte(b))
	}
	return log
}

const testHeader = `{"version":3,"program":"CL","machine":"broadwell","flavor":"icc","seed":"s","samples":4,"topx":2,"modules":2}`

// DecodeCheckpoint rejects a log without a valid header, naming the
// version of a document from another format version, and replay stops
// at the first record that does not fit the header or the records
// before it.
func TestDecodeCheckpointRejects(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"empty", "no valid header", nil},
		{"not a log", "no valid header", []byte("not json")},
		{"version-1 document", "unsupported checkpoint version 1 ", []byte(`{"version":1,"program":"CL","samples":4,"topx":2,"modules":1,
		  "collect_done":[0],"times":[["0x1p+00","","",""]],"totals":["0x1p+00","","",""],"cfr_done":[],"cfr_times":["","","",""]}`)},
		{"cut header", "no valid header", sealed(testHeader)[:40]},
		{"header not JSON", "decoding checkpoint header", sealed(`[1]`)},
		{"header version 2", "unsupported checkpoint version 2 ", sealed(strings.Replace(testHeader, `"version":3`, `"version":2`, 1))},
		{"header version 99", "unsupported checkpoint version 99", sealed(strings.Replace(testHeader, `"version":3`, `"version":99`, 1))},
		{"no samples", "implausible budget", sealed(strings.Replace(testHeader, `"samples":4`, `"samples":0`, 1))},
		{"topx above samples", "implausible budget", sealed(strings.Replace(testHeader, `"topx":2`, `"topx":5`, 1))},
		{"no modules", "0 modules", sealed(strings.Replace(testHeader, `"modules":2`, `"modules":0`, 1))},
	} {
		if _, err := DecodeCheckpoint(bytes.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}

	good := []string{
		testHeader,
		`{"phase":"collect","k":1,"time":"0x1.8p+01","modules":["0x1p+00","+Inf"],"cost":{"compiles":2,"runs":1},"quarantine":["a3"]}`,
		`{"phase":"search","k":1,"time":"-Inf","cost":{"runs":1,"sim_micros":7}}`,
	}
	for _, bad := range []string{
		`{"phase":"collect","k":4,"time":"0x1p+00","modules":["0x1p+00","0x1p+00"]}`,
		`{"phase":"collect","k":-1,"time":"0x1p+00","modules":["0x1p+00","0x1p+00"]}`,
		`{"phase":"collect","k":1,"time":"0x1p+00","modules":["0x1p+00","0x1p+00"]}`,
		`{"phase":"search","k":1,"time":"0x1p+00"}`,
		`{"phase":"collect","k":2,"time":"0x1p+00","modules":["0x1p+00"]}`,
		`{"phase":"collect","k":2,"time":"0x1p+00","modules":["0x1p+00","NaN"]}`,
		`{"phase":"search","k":2,"time":"soon"}`,
		`{"phase":"search","k":2}`,
		`{"phase":"search","k":2,"time":"0x1p+00","modules":["0x1p+00","0x1p+00"]}`,
		`{"phase":"search","k":2,"time":"0x1p+00","cost":{"runs":-1}}`,
		`{"phase":"search","k":2,"time":"0x1p+00","cost":{"runs":9223372036854775807}}`,
		`{"phase":"search","k":2,"time":"0x1p+00","quarantine":["zz"]}`,
		`{"phase":"greedy","k":2,"time":"0x1p+00"}`,
		`{"k":2,"time":"0x1p+00"}`,
		`not json`,
	} {
		ck, err := DecodeCheckpoint(bytes.NewReader(sealed(append(good[:len(good):len(good)], bad, good[2])...)))
		if err != nil {
			t.Fatalf("record %s: %v", bad, err)
		}
		if !slices.Equal(ck.CollectDone, []int{1}) || !slices.Equal(ck.CFRDone, []int{1}) ||
			!slices.Equal(ck.Quarantine, []uint64{0xa3}) || ck.Cost != (CostSnapshot{Compiles: 2, Runs: 2, SimMicros: 7}) {
			t.Errorf("record %s: replay did not stop before it: %+v", bad, ck)
		}
	}
}

// A failed write must never corrupt the previously committed file:
// fsx.WriteFileAtomic, which creates every checkpoint log, stages into a
// temp file and only renames a fully synced image over the destination.
// This is the torn-write regression test for the durability fix (fsync
// before rename).
func TestAtomicWriteFailureKeepsCommitted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	if err := fsx.WriteFileAtomic(path, []byte("committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Sabotage the staging path: a directory squatting on <path>.tmp
	// makes the next write fail before it can touch the destination.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := fsx.WriteFileAtomic(path, []byte("torn"), 0o644); err == nil {
		t.Fatal("write through a blocked temp path should fail")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "committed" {
		t.Fatalf("committed file corrupted by failed write: %q", got)
	}
	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := fsx.WriteFileAtomic(path, []byte("recovered"), 0o644); err != nil {
		t.Fatalf("write after clearing temp path: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "recovered" {
		t.Fatalf("recovery write lost: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after successful commit")
	}
}

// recordEnds returns the byte offset just past each whole record of log.
func recordEnds(log []byte) []int {
	var ends []int
	end := 0
	fsx.ReadRecords(log, func([]byte) bool {
		end += bytes.IndexByte(log[end:], '\n') + 1
		ends = append(ends, end)
		return true
	})
	return ends
}

// progress counts the samples a checkpoint holds.
func progress(ck *Checkpoint) int { return len(ck.CollectDone) + len(ck.CFRDone) }

// A checkpoint log torn at any byte — as a crash mid-append leaves it —
// loads as its valid prefix; only a log torn inside its header is
// rejected. Resuming from a torn log still reproduces the uninterrupted
// run.
func TestTruncatedCheckpointRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	full := newCkptSession(t, path, 0, 1)
	col, err := full.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.CFR(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ends := recordEnds(data)
	if len(ends) != 101 || ends[100] != len(data) {
		t.Fatalf("finished log has %d records over %d of %d bytes, want a header and 100 samples", len(ends), ends[len(ends)-1], len(data))
	}
	// Every byte of the first records, then around every later record
	// boundary and mid-record.
	cuts := make([]int, 0, ends[2]+4*len(ends))
	for n := 0; n <= ends[2]; n++ {
		cuts = append(cuts, n)
	}
	for i := 3; i < len(ends); i++ {
		cuts = append(cuts, ends[i-1]+1, (ends[i-1]+ends[i])/2, ends[i]-1, ends[i])
	}
	for _, n := range cuts {
		ck, err := DecodeCheckpoint(bytes.NewReader(data[:n]))
		whole := sort.SearchInts(ends, n+1) // records entirely within data[:n]
		if whole == 0 {
			if err == nil {
				t.Fatalf("log torn inside its header (%d of %d bytes) accepted", n, ends[0])
			}
			continue
		}
		if err != nil {
			t.Fatalf("log torn at %d bytes: %v", n, err)
		}
		if progress(ck) != whole-1 {
			t.Fatalf("log torn at %d bytes loads %d samples, want the %d complete records", n, progress(ck), whole-1)
		}
	}

	for _, cut := range []int{ends[20] + 9, ends[70] - 1} {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		resumed := newCkptSession(t, path, 0, 4)
		rcol, err := resumed.Collect(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		got, err := resumed.CFR(context.Background(), rcol)
		if err != nil {
			t.Fatal(err)
		}
		if got.BestMeasured != want.BestMeasured || !slices.Equal(got.Trace, want.Trace) || snapshot(resumed) != snapshot(full) {
			t.Fatalf("resumed from a log torn at %d bytes: best %v, cost %+v; uninterrupted %v, %+v",
				cut, got.BestMeasured, snapshot(resumed), want.BestMeasured, snapshot(full))
		}
	}
}

// A write that fails part-way must leave the previous log loadable, and
// the next write must persist every mark and its cost over whatever the
// failed write left behind.
func TestFlushFailureLeavesResumableCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s := newCLSession(t, 10, 2, true)
	c := NewCheckpointer(path, 100)
	if err := s.AttachCheckpointer(c); err != nil {
		t.Fatal(err)
	}
	per := make([]float64, len(s.Part.Modules))
	c.record(phaseCollect, 0, EvalOutcome{PerModule: per, Total: 1.5, Cost: CostSnapshot{Runs: 1, SimMicros: 10}})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	write := c.log.Write
	c.log.Write = func(off int64, data []byte) error {
		if err := write(off, data[:len(data)/2]); err != nil {
			return err
		}
		return errors.New("disk full")
	}
	c.record(phaseCollect, 1, EvalOutcome{PerModule: per, Total: 2.5, Cost: CostSnapshot{Runs: 1, SimMicros: 20},
		Quarantined: []uint64{0x7}})
	c.record(phaseSearch, 0, EvalOutcome{Total: 3.5, Cost: CostSnapshot{Runs: 1, SimMicros: 30}})
	if err := c.Flush(); err == nil {
		t.Fatal("a write that failed part-way reported success")
	}
	torn, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(torn, before) || len(torn) == len(before) {
		t.Fatalf("the failed write did not leave a torn append after the previous log (%d -> %d bytes)", len(before), len(torn))
	}
	if ck, err := LoadCheckpointFile(path); err != nil || ck.CollectDone[0] != 0 {
		t.Fatalf("previous log unreadable after a failed write: %v", err)
	}

	c.log.Write = write
	if err := c.Flush(); err != nil {
		t.Fatalf("write after the failure: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if ends := recordEnds(data); len(ends) != 4 || ends[3] != len(data) {
		t.Fatalf("log after the retry has %d whole records over %d bytes, want 4 and nothing else", len(ends), len(data))
	}
	ck, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ck.CollectDone, []int{0, 1}) || !slices.Equal(ck.Totals, []float64{1.5, 2.5}) ||
		!slices.Equal(ck.CFRDone, []int{0}) || !slices.Equal(ck.CFRTimes, []float64{3.5}) ||
		!slices.Equal(ck.Quarantine, []uint64{0x7}) || ck.Cost != (CostSnapshot{Runs: 3, SimMicros: 60}) {
		t.Fatalf("retried log lost marks: %+v", ck)
	}
}

// A mark seals its record into the checkpointer's reused buffers: once
// they have grown, marking an evaluation allocates nothing.
func TestMarkAllocatesNothing(t *testing.T) {
	s := newCLSession(t, 10, 2, true)
	c := NewCheckpointer(filepath.Join(t.TempDir(), "ck.json"), 1<<30)
	if err := s.AttachCheckpointer(c); err != nil {
		t.Fatal(err)
	}
	per := make([]float64, len(s.Part.Modules))
	for mi := range per {
		per[mi] = 1.0 / float64(mi+3)
	}
	cost := CostSnapshot{Compiles: int64(len(per)), Runs: 1, SimMicros: 20123, Flakes: 1}
	q := []uint64{0xfeedc0de}
	mark := func() {
		c.record(phaseCollect, 3, EvalOutcome{PerModule: per, Total: 1.5, Cost: cost, Quarantined: q})
		c.record(phaseSearch, 4, EvalOutcome{Total: math.Inf(1), Cost: cost, Quarantined: q})
	}
	// No write comes due at this cadence, so the log's queue grows by
	// every mark. Grow both buffers the log alternates between past what
	// AllocsPerRun's 101 calls need.
	for range 2 {
		for range 150 {
			mark()
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(100, mark); n != 0 {
		t.Fatalf("two marks allocated %v times", n)
	}
}

// The log's bytes are pinned: the header line, one collection record
// (with a +Inf total, a cost and a quarantine key) and one search
// record, each decoded back to what was marked.
func TestCheckpointLogPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s := newCkptSession(t, "", 0, 1)
	c := NewCheckpointer(path, 100)
	if err := s.AttachCheckpointer(c); err != nil {
		t.Fatal(err)
	}
	per := make([]float64, len(s.Part.Modules))
	for mi := range per {
		per[mi] = 0.75 * float64(mi+1)
	}
	c.record(phaseCollect, 3, EvalOutcome{PerModule: per, Total: math.Inf(1),
		Cost: CostSnapshot{Compiles: int64(len(per)), Runs: 1, SimMicros: 100,
			WastedCompiles: int64(len(per)), CompileFails: 1},
		Quarantined: []uint64{0xfeedc0de}})
	c.record(phaseSearch, 7, EvalOutcome{Total: 12.25,
		Cost: CostSnapshot{Compiles: 2, Runs: 2, SimMicros: 12250000, Flakes: 1, Retries: 1}})
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"v":1,"sum":"1de99c9d8a0d57d5","body":{"version":3,"program":"CL","program_seed":11576950749656252587,"input":"train","input_size":2000,"input_steps":60,"machine":"broadwell","machine_id":50675,"flavor":"icc","seed":"ckpt-test","samples":50,"topx":8,"noisy":true,"faults":{"compile_fail":0.02,"run_crash":0.01,"timeout":0.005,"flake":0.04},"max_retries":0,"backoff_seconds":0,"backoff_cap_seconds":0,"timeout_budget":0,"stop":{"min_evaluations":0,"patience":0,"max_evaluations":0},"modules":12}}
{"v":1,"sum":"9a3ce7d0c9a9abc6","body":{"phase":"collect","k":3,"time":"+Inf","modules":["0x1.8p-01","0x1.8p+00","0x1.2p+01","0x1.8p+01","0x1.ep+01","0x1.2p+02","0x1.5p+02","0x1.8p+02","0x1.bp+02","0x1.ep+02","0x1.08p+03","0x1.2p+03"],"cost":{"compiles":12,"runs":1,"sim_micros":100,"wasted_compiles":12,"compile_fails":1},"quarantine":["feedc0de"]}}
{"v":1,"sum":"c06d9807f7f90107","body":{"phase":"search","k":7,"time":"0x1.88p+03","cost":{"compiles":2,"runs":2,"sim_micros":12250000,"retries":1,"flakes":1}}}
`
	if string(data) != want {
		t.Errorf("checkpoint log changed:\n got %s\nwant %s", data, want)
	}
	ck, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ck.CollectDone, []int{3}) || !math.IsInf(ck.Totals[0], 1) || !slices.Equal(ck.Times[0], per) ||
		!slices.Equal(ck.CFRDone, []int{7}) || !slices.Equal(ck.CFRTimes, []float64{12.25}) ||
		!slices.Equal(ck.Quarantine, []uint64{0xfeedc0de}) {
		t.Fatalf("decoded progress differs from the marks: %+v", ck)
	}
	wantCost := CostSnapshot{Compiles: int64(len(per)) + 2, Runs: 3, SimMicros: 12250100, Retries: 1,
		WastedCompiles: int64(len(per)), CompileFails: 1, Flakes: 1}
	if ck.Cost != wantCost {
		t.Fatalf("decoded cost %+v, want %+v", ck.Cost, wantCost)
	}
}

// The cadence writer runs behind the evaluation workers. With eight
// workers marking at every evaluation and Flush racing the marks, the
// file after the final Flush must replay to exactly the collection and
// search the session measured, each write must append only the records
// marked since the previous one, and no temp file may remain. A Flush
// issued while a cadence write is in flight must wait for that write and
// still return its own write's error.
func TestCheckpointWriteBehind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	s := newCLSession(t, 60, 8, true)
	s.Config.Workers = 8
	s.Config.Faults = faults.Default()
	c := NewCheckpointer(path, 1)
	if err := s.AttachCheckpointer(c); err != nil {
		t.Fatal(err)
	}
	var wmu sync.Mutex
	var writes [][2]int64 // offset and length of every write
	write := c.log.Write
	c.log.Write = func(off int64, data []byte) error {
		wmu.Lock()
		writes = append(writes, [2]int64{off, int64(len(data))})
		wmu.Unlock()
		return write(off, data)
	}
	stop := make(chan struct{})
	flushErr := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stop:
				flushErr <- nil
				return
			default:
			}
			if err := c.Flush(); err != nil {
				flushErr <- err
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	col, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CFR(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	if err := <-flushErr; err != nil {
		t.Fatalf("interleaved Flush: %v", err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wmu.Lock()
	var end int64
	for i, w := range writes {
		if w[0] != end {
			t.Fatalf("write %d lands at offset %d, not where the previous write ended (%d)", i, w[0], end)
		}
		end += w[1]
	}
	nwrites := len(writes)
	wmu.Unlock()
	if end != int64(len(got)) || len(recordEnds(got)) != 121 {
		t.Fatalf("%d writes of %d bytes left a %d-byte file of %d records, want the header and 120 samples once each",
			nwrites, end, len(got), len(recordEnds(got)))
	}
	ck, err := DecodeCheckpoint(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if len(ck.CollectDone) != 60 || len(ck.CFRDone) != 60 {
		t.Fatalf("final checkpoint has %d collect and %d search samples, want 60 each", len(ck.CollectDone), len(ck.CFRDone))
	}
	for i, k := range ck.CollectDone {
		if ck.Totals[i] != col.Totals[k] {
			t.Fatalf("total %d: file has %v, collection measured %v", k, ck.Totals[i], col.Totals[k])
		}
		for mi := range col.Times {
			if ck.Times[i][mi] != col.Times[mi][k] {
				t.Fatalf("time %d/%d: file has %v, collection measured %v", mi, k, ck.Times[i][mi], col.Times[mi][k])
			}
		}
	}
	best := math.Inf(1)
	for _, v := range ck.CFRTimes {
		best = math.Min(best, v)
	}
	if best != res.BestMeasured || ck.Cost != snapshot(s) || !slices.Equal(ck.Quarantine, s.Quarantined()) {
		t.Fatalf("file replays to best %v, cost %+v, %d quarantined; session measured %v, %+v, %d",
			best, ck.Cost, len(ck.Quarantine), res.BestMeasured, snapshot(s), len(s.Quarantined()))
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}

	// Hold a cadence write in flight, then block the temp path.
	path = filepath.Join(t.TempDir(), "ck.json")
	s = newCLSession(t, 10, 2, true)
	c = NewCheckpointer(path, 1)
	if err := s.AttachCheckpointer(c); err != nil {
		t.Fatal(err)
	}
	entered, release := make(chan struct{}), make(chan struct{})
	var held, returned atomic.Bool
	write = c.log.Write
	c.log.Write = func(off int64, data []byte) error {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
			defer returned.Store(true)
		}
		return write(off, data)
	}
	c.record(phaseCollect, 0, EvalOutcome{PerModule: make([]float64, len(s.Part.Modules)), Total: 1.5,
		Cost: CostSnapshot{Runs: 1}})
	<-entered
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- c.Flush() }()
	select {
	case err := <-done:
		t.Fatalf("Flush returned (%v) while a cadence write was in flight", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if err := <-done; err == nil {
		t.Fatal("Flush through a blocked temp path should fail")
	}
	if !returned.Load() {
		t.Fatal("Flush returned before the cadence write did")
	}
	if err := os.Remove(path + ".tmp"); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("Flush after clearing the temp path: %v", err)
	}
	if ck, err := LoadCheckpointFile(path); err != nil || len(ck.CollectDone) != 1 {
		t.Fatalf("recovered checkpoint: %v (%+v)", err, ck)
	}
}

// BenchmarkCheckpointFlush measures one paper-scale cadence write: the
// DefaultCheckpointEvery marks of a K=1000 CloverLeaf/Broadwell session
// that bring a write due, then the Flush that waits for it. Each op
// appends and fsyncs those records, so ns/op depends on the disk; B/op
// counts what a cadence write allocates, and CI ratchets it.
func BenchmarkCheckpointFlush(b *testing.B) {
	tc := compiler.NewToolchain(flagspec.ICC())
	tc.AttachCache(compiler.NewCompileCache(0))
	p := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.CloverLeaf, m)
	res, err := outline.AutoOutline(tc, p, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSession(tc, p, res.Partition, m, in, DefaultConfig("bench-cfr"))
	if err != nil {
		b.Fatal(err)
	}
	col, err := s.Collect(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	per := make([][]float64, len(col.Totals))
	for k := range per {
		per[k] = make([]float64, len(col.Times))
		for mi := range col.Times {
			per[k][mi] = col.Times[mi][k]
		}
	}
	c := NewCheckpointer(filepath.Join(b.TempDir(), "checkpoint.json"), 0)
	if err := s.AttachCheckpointer(c); err != nil {
		b.Fatal(err)
	}
	write := func(i int) {
		for j := 0; j < DefaultCheckpointEvery; j++ {
			k := (i*DefaultCheckpointEvery + j) % len(per)
			c.record(phaseCollect, k, EvalOutcome{PerModule: per[k], Total: col.Totals[k],
				Cost: CostSnapshot{Compiles: int64(len(col.Times)), Runs: 1, SimMicros: int64(col.Totals[k] * 1e6)}})
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	// The first write creates the file and later ones append; the first
	// two also grow both buffers the writer alternates between.
	write(0)
	write(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 2; i < b.N+2; i++ {
		write(i)
	}
}

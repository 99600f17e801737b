package core

import (
	"context"

	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/outline"
)

// newCkptSession builds a CloverLeaf/Broadwell session with the given
// kill point, checkpointing to path (resuming from it if it exists).
func newCkptSession(t *testing.T, path string, killAfter, workers int) *Session {
	t.Helper()
	tc := compiler.NewToolchain(flagspec.ICC())
	p := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.CloverLeaf, m)
	res, err := outline.AutoOutline(tc, p, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Samples: 50, TopX: 8, Seed: "ckpt-test", Noisy: true,
		Workers: workers, Faults: faults.Default(), KillAfterEvals: killAfter}
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
			if err := ckpt.Resume(ck); err != nil {
				t.Fatal(err)
			}
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
	rule := StopRule{MinEvaluations: 5, Patience: 10}
	uninterrupted := newCkptSession(t, "", 0, 1)
	col, err := uninterrupted.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, err := uninterrupted.SearchAdaptive(context.Background(), col, rule)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "run.ckpt")
	dying := newCkptSession(t, path, 55, 1)
	_, err = dying.Collect(context.Background())
	if err == nil {
		_, err = dying.SearchAdaptive(context.Background(), col, rule)
	}
	if !errors.Is(err, ErrKilled) {
		t.Fatalf("expected ErrKilled, got %v", err)
	}
	resumed := newCkptSession(t, path, 0, 1)
	rcol, err := resumed.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got, err := resumed.SearchAdaptive(context.Background(), rcol, rule)
	if err != nil {
		t.Fatal(err)
	}
	if got.BestMeasured != want.BestMeasured || got.Evaluations != want.Evaluations {
		t.Fatalf("resumed adaptive (%v, %d evals) != uninterrupted (%v, %d evals)",
			got.BestMeasured, got.Evaluations, want.BestMeasured, want.Evaluations)
	}
}

// Attaching a checkpoint from a different experiment must be rejected.
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
		tc := compiler.NewToolchain(flagspec.ICC())
		p := apps.MustGet(apps.CloverLeaf)
		m := arch.Broadwell()
		in := apps.TuningInput(apps.CloverLeaf, m)
		res, err := outline.AutoOutline(tc, p, m, in, outline.HotThreshold, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		sess, err := NewSession(tc, p, res.Partition, m, in, cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := NewCheckpointer(filepath.Join(t.TempDir(), "x.ckpt"), 0)
		if err := c.Resume(&cp); err != nil {
			return err
		}
		return sess.AttachCheckpointer(c)
	}
	good := Config{Samples: 50, TopX: 8, Seed: "ckpt-test", Noisy: true}
	if err := attach(nil, good); err != nil {
		t.Fatalf("matching checkpoint rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Checkpoint)
		cfg    Config
	}{
		{"program", func(c *Checkpoint) { c.Program = "swim" }, good},
		{"machine", func(c *Checkpoint) { c.Machine = "opteron" }, good},
		{"flavor", func(c *Checkpoint) { c.Flavor = "gcc" }, good},
		{"seed", nil, Config{Samples: 50, TopX: 8, Seed: "other", Noisy: true}},
		{"budget", nil, Config{Samples: 40, TopX: 8, Seed: "ckpt-test", Noisy: true}},
	}
	for _, tc := range cases {
		if err := attach(tc.mutate, tc.cfg); err == nil {
			t.Errorf("%s mismatch accepted", tc.name)
		}
	}
}

// Hex-float serialization must round-trip every legitimate measurement,
// including the ±Inf of failed evaluations.
func TestTimeRoundTrip(t *testing.T) {
	for _, v := range []float64{0, 1.5, 1e-300, 123.456789012345678, math.Inf(1), math.Inf(-1), 5772.25} {
		got, err := parseTime(formatTime(v))
		if err != nil {
			t.Fatalf("parseTime(formatTime(%v)): %v", v, err)
		}
		if got != v {
			t.Fatalf("round-trip %v -> %v", v, got)
		}
	}
	if _, err := parseTime(formatTime(math.NaN())); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := parseTime("bogus"); err == nil {
		t.Error("garbage accepted")
	}
}

// DecodeCheckpoint rejects structurally broken documents.
func TestDecodeCheckpointRejects(t *testing.T) {
	bad := []string{
		`not json`,
		`{"version":99}`,
		`{"version":1,"samples":0,"topx":0,"modules":1}`,
		`{"version":1,"samples":4,"topx":2,"modules":1,"times":[[]],"totals":[],"cfr_times":[]}`,
		`{"version":1,"samples":2,"topx":1,"modules":1,
		  "times":[["",""]],"totals":["",""],"cfr_times":["",""],
		  "collect_done":[5]}`,
		`{"version":1,"samples":2,"topx":1,"modules":1,
		  "times":[["",""]],"totals":["",""],"cfr_times":["",""],
		  "cfr_done":[0,0]}`,
		`{"version":1,"samples":2,"topx":1,"modules":1,
		  "times":[["",""]],"totals":["",""],"cfr_times":["",""],
		  "quarantine":["zzz"]}`,
		`{"version":1,"samples":2,"topx":1,"modules":1,
		  "times":[["",""]],"totals":["",""],"cfr_times":["",""],
		  "cost":{"runs":-1}}`,
	}
	for i, doc := range bad {
		if _, err := DecodeCheckpoint(strings.NewReader(doc)); err == nil {
			t.Errorf("bad checkpoint %d accepted", i)
		}
	}
}

// A failed flush must never corrupt the previously committed
// checkpoint: atomicWriteFile stages into a temp file and only renames
// a fully synced image over the destination. This is the torn-write
// regression test for the durability fix (fsync before rename).
func TestAtomicWriteFailureKeepsCommitted(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	if err := atomicWriteFile(path, []byte("committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Sabotage the staging path: a directory squatting on <path>.tmp
	// makes the next write fail before it can touch the destination.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := atomicWriteFile(path, []byte("torn"), 0o644); err == nil {
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
	if err := atomicWriteFile(path, []byte("recovered"), 0o644); err != nil {
		t.Fatalf("write after clearing temp path: %v", err)
	}
	if got, _ := os.ReadFile(path); string(got) != "recovered" {
		t.Fatalf("recovery write lost: %q", got)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after successful commit")
	}
}

// A checkpoint torn mid-file (as a crash between write and fsync could
// leave it without the durability ordering) must be rejected on load,
// never half-resumed.
func TestTruncatedCheckpointRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	s := newCkptSession(t, path, 0, 1)
	if err := s.ckpt.Flush(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointFile(path); err != nil {
		t.Fatalf("full checkpoint should load: %v", err)
	}
	for _, frac := range []float64{0.25, 0.5, 0.9} {
		torn := data[:int(float64(len(data))*frac)]
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpointFile(path); err == nil {
			t.Errorf("torn checkpoint (%d/%d bytes) accepted", len(torn), len(data))
		}
	}
}

// A flush that fails on cadence mid-run must leave the previous
// checkpoint loadable and resumable.
func TestFlushFailureLeavesResumableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	s := newCkptSession(t, path, 0, 1)
	if err := s.ckpt.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.ckpt.Flush(); err == nil {
		t.Fatal("flush through a blocked temp path should fail")
	}
	ck, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatalf("previous checkpoint unreadable after failed flush: %v", err)
	}
	if err := ck.Validate(); err != nil {
		t.Fatalf("previous checkpoint invalid after failed flush: %v", err)
	}
}

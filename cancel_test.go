package funcytuner

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// cancelAfterGate is a WorkerGate that cancels the run's context on its
// n-th slot acquisition and refuses that acquisition. With Workers: 1
// this cancels the run at a deterministic evaluation boundary: exactly
// n-1 evaluations complete.
type cancelAfterGate struct {
	cancel context.CancelFunc
	after  int32
	calls  atomic.Int32
}

func (g *cancelAfterGate) Acquire(ctx context.Context) error {
	if g.calls.Add(1) >= g.after {
		g.cancel()
	}
	return ctx.Err()
}

func (g *cancelAfterGate) Release() {}

// A run cancelled at an arbitrary evaluation boundary and resumed from
// its checkpoint must produce a Report bit-identical (by Fingerprint,
// which covers results, traces, costs and fault tallies) to an
// uninterrupted run — the tentpole cancellation contract.
func TestCancelResumeReportEquality(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	base := Options{
		Machine: m, Samples: 40, TopX: 8, Seed: "cancel-equality",
		Faults: DefaultFaultRates(), Workers: 1, CheckpointEvery: 1,
	}
	want, err := NewTuner(base).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}

	// Cancellation points in the collection phase (1, 12), and in the
	// CFR search phase (55).
	for _, after := range []int32{1, 12, 55} {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("cancel-%d.ckpt", after))
		ctx, cancel := context.WithCancel(context.Background())
		opts := base
		opts.Checkpoint = path
		opts.Gate = &cancelAfterGate{cancel: cancel, after: after}
		_, err := NewTuner(opts).TuneContext(ctx, prog, in)
		cancel()
		if err == nil {
			t.Fatalf("after=%d: cancelled run reported success", after)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("after=%d: error %v does not unwrap to context.Canceled", after, err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("after=%d: cancelled run left no checkpoint: %v", after, err)
		}

		resume := base
		resume.Resume = path
		got, err := NewTuner(resume).Tune(prog, in)
		if err != nil {
			t.Fatalf("after=%d: resume failed: %v", after, err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("after=%d: cancel+resume fingerprint %016x != uninterrupted %016x",
				after, got.Fingerprint(), want.Fingerprint())
		}
	}
}

// Cancellation must be observationally equivalent to a simulated node
// failure (-kill-after) at the same evaluation index: with one worker
// and per-evaluation flushing, the two leave byte-identical checkpoints.
func TestCancelCheckpointMatchesKill(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	base := Options{
		Machine: m, Samples: 30, TopX: 6, Seed: "cancel-vs-kill",
		Faults: DefaultFaultRates(), Workers: 1, CheckpointEvery: 1,
	}
	// A tune's collection and search are 30 evaluations each. Compare's
	// Random, collection and FR are too, then greedy is one (the 91st)
	// and CFR 30 more: its rows cancel in Random, the collection, FR,
	// greedy (the cancel refuses the 91st evaluation; the kill lands at
	// the end of FR), after greedy, and in CFR.
	for _, tc := range []struct {
		compare bool
		n       int
	}{{false, 7}, {false, 45}, {true, 7}, {true, 45}, {true, 75}, {true, 90}, {true, 91}, {true, 100}} {
		run := func(ctx context.Context, o Options) error {
			var err error
			if tc.compare {
				_, err = NewTuner(o).CompareContext(ctx, prog, in)
			} else {
				_, err = NewTuner(o).TuneContext(ctx, prog, in)
			}
			return err
		}
		dir := t.TempDir()

		killPath := filepath.Join(dir, "kill.ckpt")
		kOpts := base
		kOpts.Checkpoint = killPath
		kOpts.KillAfterEvals = tc.n
		if err := run(context.Background(), kOpts); !errors.Is(err, ErrKilled) {
			t.Fatalf("%+v: expected ErrKilled, got %v", tc, err)
		}

		cancelPath := filepath.Join(dir, "cancel.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		cOpts := base
		cOpts.Checkpoint = cancelPath
		cOpts.Gate = &cancelAfterGate{cancel: cancel, after: int32(tc.n + 1)}
		err := run(ctx, cOpts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: expected context.Canceled, got %v", tc, err)
		}

		killed, err := os.ReadFile(killPath)
		if err != nil {
			t.Fatal(err)
		}
		cancelled, err := os.ReadFile(cancelPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(killed, cancelled) {
			t.Fatalf("%+v: cancel checkpoint differs from kill checkpoint\nkill:   %d bytes\ncancel: %d bytes",
				tc, len(killed), len(cancelled))
		}
		ck, err := LoadCheckpoint(killPath)
		if err != nil {
			t.Fatal(err)
		}
		if len(ck.Done) != tc.n {
			t.Fatalf("%+v: the checkpoint holds %d evaluations", tc, len(ck.Done))
		}
	}
}

// A context cancelled before the run starts must fail fast with the
// context error, before consuming any evaluation budget.
func TestCancelBeforeStart(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rep, err := NewTuner(Options{Machine: m, Samples: 20, TopX: 5, Seed: "pre-cancel"}).
		TuneContext(ctx, prog, in)
	if rep != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: rep=%v err=%v", rep, err)
	}
}

// TuneAdaptiveContext and CompareContext honour cancellation the same
// way TuneContext does.
func TestCancelAdaptiveAndCompare(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	base := Options{Machine: m, Samples: 20, TopX: 5, Seed: "cancel-variants", Workers: 1}

	ctx, cancel := context.WithCancel(context.Background())
	opts := base
	opts.Gate = &cancelAfterGate{cancel: cancel, after: 6}
	_, err = NewTuner(opts).TuneAdaptiveContext(ctx, prog, in, DefaultStopRule())
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("adaptive: expected context.Canceled, got %v", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	opts = base
	opts.Gate = &cancelAfterGate{cancel: cancel, after: 6}
	_, err = NewTuner(opts).CompareContext(ctx, prog, in)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("compare: expected context.Canceled, got %v", err)
	}
}

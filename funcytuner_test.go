package funcytuner

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"runtime"
	"testing"

	"funcytuner/internal/compiler"
)

func testTuner(t *testing.T) *Tuner {
	t.Helper()
	m, err := MachineByName("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	return NewTuner(Options{Machine: m, Samples: 200, TopX: 20, Seed: "facade-test"})
}

func TestBenchmarkLookup(t *testing.T) {
	if len(Benchmarks()) != 7 {
		t.Fatalf("suite size %d", len(Benchmarks()))
	}
	prog, err := Benchmark(CloverLeaf)
	if err != nil || prog.Name != CloverLeaf {
		t.Fatalf("Benchmark(CL) = %v, %v", prog, err)
	}
	if _, err := Benchmark("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestMachines(t *testing.T) {
	if len(Machines()) != 3 {
		t.Fatal("expect three platforms")
	}
	if _, err := MachineByName("knl"); err == nil {
		t.Error("unknown machine accepted")
	}
}

func TestSpaces(t *testing.T) {
	if ICCSpace().NumFlags() != 33 {
		t.Error("ICC space should expose 33 flags")
	}
	if GCCSpace().NumFlags() < 20 {
		t.Error("GCC space too small")
	}
}

func TestTunePipeline(t *testing.T) {
	tuner := testTuner(t)
	prog, _ := Benchmark(Swim)
	m, _ := MachineByName("broadwell")
	rep, err := tuner.Tune(prog, TuningInput(Swim, m))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Best == nil || rep.Best.Algorithm != "CFR" {
		t.Fatal("Tune should return a CFR result")
	}
	if rep.Best.Speedup <= 0.9 || rep.Best.Speedup > 1.5 {
		t.Errorf("implausible speedup %v", rep.Best.Speedup)
	}
	if rep.Modules < 5 || rep.Modules > 33 {
		t.Errorf("J = %d outside the paper's range", rep.Modules)
	}
	if len(rep.HotLoops) == 0 {
		t.Error("no hot loops reported")
	}
	if rep.Runs == 0 || rep.Compiles == 0 || rep.SimulatedHours <= 0 {
		t.Error("cost accounting empty")
	}
	if len(rep.Best.ModuleCVs) != rep.Modules {
		t.Error("ModuleCVs does not match module count")
	}
}

// Report.Evaluate applies the crash model TrueTime does (§3.2): a
// crashing assembly reports +Inf and no per-loop times, with its notes.
func TestEvaluateCrashingAssembly(t *testing.T) {
	prog, _ := Benchmark(CloverLeaf)
	m, _ := MachineByName("broadwell")
	in := TuningInput(CloverLeaf, m)
	rep, err := NewTuner(Options{Machine: m, Samples: 20, TopX: 4, Seed: "crash-eval"}).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	crash := compiler.CrashProbe(ICCSpace(), prog.Seed, m.ID, 50000)
	if crash.IsZero() {
		t.Fatal("no crashing CV found")
	}
	cvs := make([]CV, rep.Modules)
	for i := range cvs {
		cvs[i] = crash
	}
	ev, err := rep.Evaluate(cvs, in)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(ev.Total, 1) || ev.PerLoop != nil || len(ev.Notes) != prog.NumLoops() {
		t.Errorf("crashing assembly evaluated to Total %v, %d per-loop times, %d notes; want +Inf, none, %d",
			ev.Total, len(ev.PerLoop), len(ev.Notes), prog.NumLoops())
	}
}

func TestComparePipeline(t *testing.T) {
	tuner := testTuner(t)
	prog, _ := Benchmark(CloverLeaf)
	m, _ := MachineByName("broadwell")
	rep, err := tuner.Compare(prog, TuningInput(CloverLeaf, m))
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []string{"Random", "FR", "G.realized", "G.Independent", "CFR"} {
		if rep.All[alg] == nil {
			t.Errorf("missing %s", alg)
		}
	}
	if rep.All["G.Independent"].Speedup < rep.All["G.realized"].Speedup {
		t.Error("independence bound below realized greedy")
	}
}

func TestDefaultsApplied(t *testing.T) {
	tuner := NewTuner(Options{})
	if tuner.opts.Machine.Name != "broadwell" {
		t.Error("default machine should be Broadwell")
	}
	if tuner.opts.Samples != 1000 || tuner.opts.TopX != 50 {
		t.Error("paper defaults not applied")
	}
	if !*tuner.opts.Noisy {
		t.Error("noise should default on")
	}
}

func TestProfileBaseline(t *testing.T) {
	prog, _ := Benchmark(CloverLeaf)
	m, _ := MachineByName("broadwell")
	prof, err := ProfileBaseline(prog, m, TuningInput(CloverLeaf, m), 3)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Total <= 0 || len(prof.PerLoop) != prog.NumLoops() {
		t.Fatal("malformed profile")
	}
	dt := prog.LoopIndex("dt")
	if s := prof.Share(dt); math.Abs(s-0.063) > 0.02 {
		t.Errorf("dt share %.3f, want ≈ 0.063 (Table 3)", s)
	}
}

func TestValidate(t *testing.T) {
	if err := Validate(nil); err == nil {
		t.Error("nil program accepted")
	}
	prog, _ := Benchmark(AMG)
	if err := Validate(prog); err != nil {
		t.Errorf("calibrated benchmark invalid: %v", err)
	}
}

func TestDeterministicTuning(t *testing.T) {
	prog, _ := Benchmark(Swim)
	m, _ := MachineByName("broadwell")
	in := TuningInput(Swim, m)
	a, err := testTuner(t).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := testTuner(t).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if a.Best.Speedup != b.Best.Speedup {
		t.Error("same-seed tuning runs differ")
	}
}

// TestReportHeapBounded keeps six paper-scale CloverLeaf Reports alive
// and bounds the live heap each one holds. A Report keeps its results
// and its provenance, not the session or the private compile cache that
// produced it, so a caller that keeps Reports (a study over many
// program-machine pairs, the examples, the CLI) does not pin megabytes
// per Report that it can never use again.
func TestReportHeapBounded(t *testing.T) {
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := MachineByName("broadwell")
	in := TuningInput(CloverLeaf, m)
	tune := func(seed string) *Report {
		t.Helper()
		rep, err := NewTuner(Options{Machine: m, Seed: seed}).Tune(prog, in)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	tune("heap-warmup")
	before := liveHeap()
	reps := make([]*Report, 6)
	for i := range reps {
		reps[i] = tune(fmt.Sprintf("heap-%d", i))
	}
	after := liveHeap()
	runtime.KeepAlive(reps)
	const budget = 256 << 10
	perReport := (float64(after) - float64(before)) / float64(len(reps))
	t.Logf("live heap %.2f → %.2f MB over %d kept Reports: %.3f MB per Report",
		float64(before)/(1<<20), float64(after)/(1<<20), len(reps), perReport/(1<<20))
	if perReport > budget {
		t.Errorf("live heap grew %.0f KB per kept Report, budget %d KB", perReport/(1<<10), budget>>10)
	}
}

// A Report that no Tuner built has no provenance: every method that
// needs it returns an error rather than measuring or saving nothing.
func TestReportWithoutProvenance(t *testing.T) {
	var r Report
	if _, err := r.Evaluate(nil, Input{}); err == nil {
		t.Error("Evaluate accepted a report without provenance")
	}
	if _, err := r.EvaluateBaseline(Input{}); err == nil {
		t.Error("EvaluateBaseline accepted a report without provenance")
	}
	if _, err := r.CriticalFlags(0); err == nil {
		t.Error("CriticalFlags accepted a report without provenance")
	}
	if _, err := r.Attribution(); err == nil {
		t.Error("Attribution accepted a report without provenance")
	}
	if err := r.Save(io.Discard); err == nil {
		t.Error("Save accepted a report without provenance")
	}
}

// Content-equal programs share compile-cache entries, so a run of the
// second one profiles the baseline executable compiled for the first.
// Its Report must still name, evaluate and explain the program it tuned.
func TestReportEvaluatesOverSharedCache(t *testing.T) {
	m, _ := MachineByName("broadwell")
	swim, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveProgram(&buf, swim); err != nil {
		t.Fatal(err)
	}
	opts := Options{Machine: m, Samples: 20, TopX: 4, Seed: "shared-cache-copy", SharedCache: NewCompileCache(0)}
	in := TuningInput(Swim, m)
	var prog *Program
	var rep *Report
	for i := 0; i < 2; i++ {
		if prog, err = LoadProgram(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if rep, err = NewTuner(opts).Tune(prog, in); err != nil {
			t.Fatal(err)
		}
	}
	if rep.Profile.Program != prog {
		t.Error("the Report's profile names a copy of the program it tuned")
	}
	if _, err := rep.Attribution(); err != nil {
		t.Fatal(err)
	}
	ev, err := rep.Evaluate(rep.Best.ModuleCVs, in)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Total != rep.Best.TrueTime {
		t.Errorf("Evaluate = %v, tuned true time %v", ev.Total, rep.Best.TrueTime)
	}
}

package funcytuner

import (
	"math"
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

package core

import (
	"context"

	"math"
	"testing"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
	"funcytuner/internal/outline"
)

// newCLSession builds a CloverLeaf/Broadwell session with a reduced sample
// budget to keep tests fast. Noise off unless asked.
func newCLSession(t *testing.T, samples, topx int, noisy bool) *Session {
	t.Helper()
	tc := compiler.NewToolchain(flagspec.ICC())
	p := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.CloverLeaf, m)
	res, err := outline.AutoOutline(tc, p, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Samples: samples, TopX: topx, Seed: "core-test", Noisy: noisy}
	s, err := NewSession(tc, p, res.Partition, m, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewSessionValidation(t *testing.T) {
	tc := compiler.NewToolchain(flagspec.ICC())
	p := apps.MustGet(apps.Swim)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.Swim, m)
	part := ir.WholeProgram(p)
	if _, err := NewSession(tc, p, part, m, in, Config{Samples: 0, TopX: 1}); err == nil {
		t.Error("Samples=0 accepted")
	}
	if _, err := NewSession(tc, p, part, m, in, Config{Samples: 10, TopX: 0}); err == nil {
		t.Error("TopX=0 accepted")
	}
	if _, err := NewSession(tc, p, part, m, in, Config{Samples: 10, TopX: 11}); err == nil {
		t.Error("TopX>Samples accepted")
	}
	other := ir.WholeProgram(apps.MustGet(apps.AMG))
	if _, err := NewSession(tc, p, other, m, in, Config{Samples: 10, TopX: 2}); err == nil {
		t.Error("foreign partition accepted")
	}
}

func TestPreSampleDeterministic(t *testing.T) {
	a := newCLSession(t, 50, 10, false)
	b := newCLSession(t, 50, 10, false)
	ca, cb := a.PreSample(), b.PreSample()
	if len(ca) != 50 {
		t.Fatalf("PreSample returned %d CVs", len(ca))
	}
	for i := range ca {
		if !ca[i].Equal(cb[i]) {
			t.Fatal("same-seed sessions pre-sample different CVs")
		}
	}
}

func TestCollectShape(t *testing.T) {
	s := newCLSession(t, 40, 10, false)
	col, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(col.CVs) != 40 || len(col.Totals) != 40 {
		t.Fatalf("collection has %d CVs / %d totals", len(col.CVs), len(col.Totals))
	}
	if len(col.Times) != len(s.Part.Modules) {
		t.Fatalf("collection has %d module rows, want %d", len(col.Times), len(s.Part.Modules))
	}
	// Per-module times must roughly decompose the totals (instrumented,
	// noise-free): sum ≈ total within instrumentation overhead.
	for k := range col.Totals {
		var sum float64
		for mi := range col.Times {
			sum += col.Times[mi][k]
		}
		if sum > col.Totals[k]*(1+1e-9) || sum < 0.90*col.Totals[k] {
			t.Fatalf("variant %d: module sum %.3f vs total %.3f", k, sum, col.Totals[k])
		}
	}
}

func TestCollectParallelMatchesSerial(t *testing.T) {
	a := newCLSession(t, 30, 5, true)
	a.Config.Workers = 1
	colA, err := a.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b := newCLSession(t, 30, 5, true)
	b.Config.Workers = 8
	colB, err := b.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for mi := range colA.Times {
		for k := range colA.Times[mi] {
			if colA.Times[mi][k] != colB.Times[mi][k] {
				t.Fatalf("parallel collection differs at module %d sample %d", mi, k)
			}
		}
	}
}

func TestRandomResult(t *testing.T) {
	s := newCLSession(t, 60, 10, false)
	r, err := s.Random(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if r.Algorithm != "Random" {
		t.Errorf("Algorithm = %q", r.Algorithm)
	}
	if len(r.ModuleCVs) != len(s.Part.Modules) {
		t.Fatalf("ModuleCVs len %d", len(r.ModuleCVs))
	}
	for _, cv := range r.ModuleCVs[1:] {
		if !cv.Equal(r.ModuleCVs[0]) {
			t.Error("Random must assign a single CV to every module")
		}
	}
	if r.Evaluations != 60 {
		t.Errorf("Evaluations = %d", r.Evaluations)
	}
	if r.Speedup <= 0 || math.IsNaN(r.Speedup) {
		t.Errorf("Speedup = %v", r.Speedup)
	}
	if len(r.Trace) != 60 {
		t.Errorf("Trace len %d", len(r.Trace))
	}
	for i := 1; i < len(r.Trace); i++ {
		if r.Trace[i] > r.Trace[i-1] {
			t.Fatal("trace not non-increasing")
		}
	}
}

func TestGreedyAndCFR(t *testing.T) {
	s := newCLSession(t, 80, 16, false)
	col, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gr, gi, err := s.Greedy(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	if gi.Algorithm != "G.Independent" || gr.Algorithm != "G.realized" {
		t.Error("greedy labels wrong")
	}
	if !math.IsNaN(gi.TrueTime) {
		t.Error("G.Independent has no executable; TrueTime should be NaN")
	}
	// The hypothetical bound must dominate the realized assembly (§3.4).
	if gi.Speedup < gr.Speedup {
		t.Errorf("G.Independent (%.3f) below G.realized (%.3f)", gi.Speedup, gr.Speedup)
	}
	cfr, err := s.CFR(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	if cfr.Speedup <= 0 {
		t.Error("CFR speedup non-positive")
	}
	// CFR is bounded above by the independence hypothesis.
	if cfr.Speedup > gi.Speedup*1.02 {
		t.Errorf("CFR (%.3f) exceeds G.Independent (%.3f)", cfr.Speedup, gi.Speedup)
	}
}

func TestCFRUsesOnlyPrunedCVs(t *testing.T) {
	s := newCLSession(t, 50, 5, false)
	col, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfr, err := s.CFR(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	// Every chosen module CV must be among that module's top-5 by
	// collected time.
	for mi := range s.Part.Modules {
		allowed := map[uint64]bool{}
		idx := topK(col.Times[mi], 5)
		for _, k := range idx {
			allowed[col.CVs[k].Key()] = true
		}
		if !allowed[cfr.ModuleCVs[mi].Key()] {
			t.Errorf("module %d: CFR chose a CV outside its pruned pool", mi)
		}
	}
}

// topK mirrors stats.TopKSmallest for the test's independence.
func topK(xs []float64, k int) []int {
	idx := make([]int, 0, k)
	used := make([]bool, len(xs))
	for n := 0; n < k && n < len(xs); n++ {
		best, bi := math.Inf(1), -1
		for i, x := range xs {
			if !used[i] && x < best {
				best, bi = x, i
			}
		}
		used[bi] = true
		idx = append(idx, bi)
	}
	return idx
}

func TestRunAllProducesFiveResults(t *testing.T) {
	s := newCLSession(t, 40, 8, true)
	out, err := s.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"Random", "FR", "G.realized", "G.Independent", "CFR"} {
		if out[name] == nil {
			t.Errorf("missing result %s", name)
		}
	}
	if s.Cost.Runs() == 0 || s.Cost.Compiles() == 0 {
		t.Error("cost accounting empty")
	}
	if s.Cost.SimulatedHours() <= 0 {
		t.Error("simulated hours should be positive")
	}
}

func TestGreedyChecksCollection(t *testing.T) {
	s := newCLSession(t, 20, 5, false)
	if _, _, err := s.Greedy(context.Background(), nil); err == nil {
		t.Error("nil collection accepted")
	}
	if _, err := s.CFR(context.Background(), &Collection{}); err == nil {
		t.Error("empty collection accepted")
	}
}

func TestConvergedAt(t *testing.T) {
	r := &Result{Trace: []float64{10, 10, 8, 8, 7.5, 7.5}}
	if got := r.ConvergedAt(0.0); got != 5 {
		t.Errorf("ConvergedAt(0) = %d, want 5", got)
	}
	if got := r.ConvergedAt(0.1); got != 3 {
		t.Errorf("ConvergedAt(0.1) = %d, want 3", got)
	}
	empty := &Result{}
	if empty.ConvergedAt(0.1) != 0 {
		t.Error("empty trace should converge at 0")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	a := newCLSession(t, 30, 6, true)
	b := newCLSession(t, 30, 6, true)
	ra, err := a.Random(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Random(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ra.Speedup != rb.Speedup || ra.BestMeasured != rb.BestMeasured {
		t.Error("same-seed Random runs differ")
	}
}

func TestTrueTimeOnDifferentInput(t *testing.T) {
	s := newCLSession(t, 10, 2, false)
	cvs := make([]flagspec.CV, len(s.Part.Modules))
	for i := range cvs {
		cvs[i] = s.Toolchain.Space.Baseline()
	}
	small := apps.SmallInput(apps.CloverLeaf)
	tSmall, err := s.TrueTimeOn(cvs, small)
	if err != nil {
		t.Fatal(err)
	}
	tTrain, err := s.TrueTime(cvs)
	if err != nil {
		t.Fatal(err)
	}
	if tSmall >= tTrain {
		t.Errorf("small input (%.2fs) not faster than train (%.2fs)", tSmall, tTrain)
	}
	bSmall, err := s.BaselineTimeOn(small)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(bSmall-tSmall) > 1e-9 {
		t.Error("baseline CVs via TrueTimeOn should equal BaselineTimeOn")
	}
}

// A crashing assembly (§3.2) scores +Inf on every noise-free path, on
// the tuning input and on any other.
func TestTrueTimeCrashingAssembly(t *testing.T) {
	s := newCLSession(t, 10, 2, false)
	crash := compiler.CrashProbe(s.Toolchain.Space, s.Prog.Seed, s.Machine.ID, 50000)
	if crash.IsZero() {
		t.Fatal("no crashing CV found")
	}
	cvs := make([]flagspec.CV, len(s.Part.Modules))
	for i := range cvs {
		cvs[i] = crash
	}
	for _, tc := range []struct {
		name    string
		measure func() (float64, error)
	}{
		{"TrueTime", func() (float64, error) { return s.TrueTime(cvs) }},
		{"TrueTimeOn/tuning", func() (float64, error) { return s.TrueTimeOn(cvs, s.Input) }},
		{"TrueTimeOn/small", func() (float64, error) { return s.TrueTimeOn(cvs, apps.SmallInput(apps.CloverLeaf)) }},
	} {
		got, err := tc.measure()
		if err != nil {
			t.Fatal(err)
		}
		if !math.IsInf(got, 1) {
			t.Errorf("%s of a crashing assembly = %v, want +Inf", tc.name, got)
		}
	}
}

func TestDefaultConfigs(t *testing.T) {
	cfg := DefaultConfig("x")
	if cfg.Samples != 1000 || cfg.TopX != 50 || !cfg.Noisy {
		t.Errorf("DefaultConfig = %+v", cfg)
	}
	rule := DefaultStopRule()
	if rule.MinEvaluations != 50 || rule.Patience != 150 {
		t.Errorf("DefaultStopRule = %+v", rule)
	}
}

func TestCriticalFlagsCore(t *testing.T) {
	s := newCLSession(t, 120, 15, false)
	col, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfr, err := s.CFR(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	// dt's module: the chosen CV reduces to a small critical set; the
	// reduced configuration must not run slower than the full one.
	mi := s.Part.ModuleOf(s.Prog.LoopIndex("dt"))
	flags, err := s.CriticalFlags(cfr.ModuleCVs, mi, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	nonDefault := 0
	for fi, f := range s.Toolchain.Space.Flags {
		if cfr.ModuleCVs[mi].Value(fi) != f.Default {
			nonDefault++
		}
	}
	if len(flags) > nonDefault {
		t.Errorf("elimination grew the flag set: %d -> %d", nonDefault, len(flags))
	}
	if _, err := s.CriticalFlags(cfr.ModuleCVs, -1, 0); err == nil {
		t.Error("negative module index accepted")
	}
}

func TestAttributionCore(t *testing.T) {
	s := newCLSession(t, 120, 15, false)
	col, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfr, err := s.CFR(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	attr, err := s.Attribution(cfr.ModuleCVs)
	if err != nil {
		t.Fatal(err)
	}
	if len(attr) != len(s.Part.Modules) {
		t.Fatalf("attribution length %d", len(attr))
	}
	for _, a := range attr {
		if a.Module == "" || a.Marginal <= 0 {
			t.Errorf("bad attribution %+v", a)
		}
	}
	if _, err := s.Attribution(cfr.ModuleCVs[:1]); err == nil {
		t.Error("length mismatch accepted")
	}
}

package core

import (
	"context"

	"math"
	"testing"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/outline"
)

// newFaultySession builds a CloverLeaf/Broadwell session with fault
// injection enabled and the given worker count.
func newFaultySession(t *testing.T, samples, topx, workers int, rates faults.Rates) *Session {
	t.Helper()
	tc := compiler.NewToolchain(flagspec.ICC())
	p := apps.MustGet(apps.CloverLeaf)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.CloverLeaf, m)
	res, err := outline.AutoOutline(tc, p, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Samples: samples, TopX: topx, Seed: "resilience-test", Noisy: true,
		Workers: workers, Faults: rates}
	s, err := NewSession(tc, p, res.Partition, m, in, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func runCollectCFR(t *testing.T, s *Session) (*Collection, *Result) {
	t.Helper()
	col, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CFR(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	return col, res
}

// Fault-injected runs must be bit-identical at any worker count: every
// fault draw is a pure function of (seed, CV/assembly, attempt), never of
// scheduling order.
func TestFaultyRunWorkerInvariance(t *testing.T) {
	rates := faults.Default()
	s1 := newFaultySession(t, 80, 12, 1, rates)
	s8 := newFaultySession(t, 80, 12, 8, rates)
	col1, res1 := runCollectCFR(t, s1)
	col8, res8 := runCollectCFR(t, s8)

	for k := range col1.Totals {
		if col1.Totals[k] != col8.Totals[k] {
			t.Fatalf("sample %d total differs: W=1 %v, W=8 %v", k, col1.Totals[k], col8.Totals[k])
		}
		for mi := range col1.Times {
			if col1.Times[mi][k] != col8.Times[mi][k] {
				t.Fatalf("module %d sample %d differs across worker counts", mi, k)
			}
		}
	}
	if res1.BestMeasured != res8.BestMeasured || res1.Speedup != res8.Speedup {
		t.Fatalf("CFR outcome differs: W=1 (%v, %v), W=8 (%v, %v)",
			res1.BestMeasured, res1.Speedup, res8.BestMeasured, res8.Speedup)
	}
	for i := range res1.Trace {
		if res1.Trace[i] != res8.Trace[i] {
			t.Fatalf("trace[%d] differs across worker counts", i)
		}
	}
	type tally struct{ c, r, re, wc, cf, rc, to, fl int64 }
	get := func(s *Session) tally {
		return tally{s.Cost.Compiles(), s.Cost.Runs(), s.Cost.Retries(), s.Cost.WastedCompiles(),
			s.Cost.CompileFailures(), s.Cost.RunCrashes(), s.Cost.Timeouts(), s.Cost.Flakes()}
	}
	if get(s1) != get(s8) {
		t.Fatalf("cost tallies differ: W=1 %+v, W=8 %+v", get(s1), get(s8))
	}
	q1, q8 := s1.Quarantined(), s8.Quarantined()
	if len(q1) != len(q8) {
		t.Fatalf("quarantine sets differ in size: %d vs %d", len(q1), len(q8))
	}
	for i := range q1 {
		if q1[i] != q8[i] {
			t.Fatal("quarantine sets differ across worker counts")
		}
	}
}

// Quarantined CVs must never re-enter a pruned pool, and a default-rate
// campaign must actually exercise the machinery (nonzero tallies).
func TestQuarantineExcludedFromPools(t *testing.T) {
	// An elevated ICE rate guarantees quarantined CVs at this budget.
	s := newFaultySession(t, 60, 10, 4, faults.Rates{CompileFail: 0.2, Flake: 0.3})
	col, _ := runCollectCFR(t, s)
	q := s.Quarantined()
	if len(q) == 0 {
		t.Fatal("no CVs quarantined at a 20% ICE rate")
	}
	poison := make(map[uint64]bool, len(q))
	for _, k := range q {
		poison[k] = true
	}
	pools, _ := s.prunedPools(col)
	for mi, pool := range pools {
		if len(pool) == 0 {
			t.Fatalf("module %d has an empty pool", mi)
		}
		for _, cv := range pool {
			if poison[cv.Key()] {
				t.Fatalf("module %d pool contains quarantined CV %x", mi, cv.Key())
			}
		}
	}
	if s.Cost.WastedCompiles() == 0 || s.Cost.CompileFailures() == 0 {
		t.Error("ICE injection produced no wasted compiles")
	}
	if s.Cost.Flakes() == 0 || s.Cost.Retries() == 0 {
		t.Error("flake injection produced no retries")
	}
	if s.Cost.FaultHours() <= 0 {
		t.Error("faults cost no simulated time")
	}
}

// Under catastrophic rates every module degrades to the baseline CV and
// the search still completes.
func TestCatastrophicDegradation(t *testing.T) {
	s := newFaultySession(t, 40, 8, 2, faults.Rates{CompileFail: 0.9, RunCrash: 0.9})
	col, res := runCollectCFR(t, s)
	if len(res.DegradedModules) == 0 {
		t.Fatal("no modules degraded under 90% compile/run failure")
	}
	pools, degraded := s.prunedPools(col)
	baseline := s.Toolchain.Space.Baseline()
	for _, mi := range degraded {
		if len(pools[mi]) != 1 || !pools[mi][0].Equal(baseline) {
			t.Fatalf("degraded module %d's pool is not the baseline singleton", mi)
		}
	}
	// The baseline fallback keeps the result usable: baseline-only
	// assemblies are exempt from permanent faults.
	if math.IsInf(res.TrueTime, 1) || !(res.Speedup > 0) {
		t.Fatalf("degraded run produced unusable result: true=%v speedup=%v", res.TrueTime, res.Speedup)
	}
}

// A TimeoutBudget alone (no fault injection) kills pathological variants
// deterministically.
func TestTimeoutBudgetStandalone(t *testing.T) {
	tc := compiler.NewToolchain(flagspec.ICC())
	p := apps.MustGet(apps.Swim)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.Swim, m)
	res, err := outline.AutoOutline(tc, p, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(tc, p, res.Partition, m, in,
		Config{Samples: 20, TopX: 5, Seed: "deadline", Noisy: true, TimeoutBudget: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	col, cfr := runCollectCFR(t, s)
	for k := range col.Totals {
		if !math.IsInf(col.Totals[k], 1) {
			t.Fatalf("sample %d survived a 1ms deadline: %v", k, col.Totals[k])
		}
	}
	if s.Cost.Timeouts() == 0 {
		t.Fatal("no timeouts recorded")
	}
	if cfr == nil || len(cfr.ModuleCVs) == 0 {
		t.Fatal("CFR did not complete under a universal deadline")
	}
}

// Zero rates leave the resilience machinery dormant: no fault model, no
// quarantine, zeroed fault tallies.
func TestCleanPathDormant(t *testing.T) {
	s := newCLSession(t, 30, 8, true)
	runCollectCFR(t, s)
	if s.faults != nil {
		t.Error("zero rates built a fault model")
	}
	if len(s.Quarantined()) != 0 {
		t.Error("clean run quarantined CVs")
	}
	if s.Cost.Retries() != 0 || s.Cost.WastedCompiles() != 0 || s.Cost.FaultHours() != 0 ||
		s.Cost.CompileFailures() != 0 || s.Cost.RunCrashes() != 0 ||
		s.Cost.Timeouts() != 0 || s.Cost.Flakes() != 0 {
		t.Error("clean run charged fault costs")
	}
}

// Config validation rejects the new resilience knobs' invalid values.
func TestConfigResilienceValidation(t *testing.T) {
	bad := []Config{
		{Samples: 10, TopX: 2, MaxRetries: -1},
		{Samples: 10, TopX: 2, BackoffSeconds: -1},
		{Samples: 10, TopX: 2, BackoffCapSeconds: -1},
		{Samples: 10, TopX: 2, TimeoutBudget: -1},
		{Samples: 10, TopX: 2, TimeoutBudget: math.Inf(1)},
		{Samples: 10, TopX: 2, KillAfterEvals: -1},
		{Samples: 10, TopX: 2, Faults: faults.Rates{Flake: 1.5}},
		{Samples: 10, TopX: 2, Faults: faults.Rates{CompileFail: math.NaN()}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	if err := (Config{Samples: 10, TopX: 2, Faults: faults.Default()}).Validate(); err != nil {
		t.Errorf("default fault rates rejected: %v", err)
	}
}

// Backoff doubles from the base and respects the cap.
func TestBackoffSchedule(t *testing.T) {
	c := Config{BackoffSeconds: 2, BackoffCapSeconds: 9}
	want := []float64{2, 4, 8, 9, 9}
	for attempt, w := range want {
		if got := c.backoff(attempt); got != w {
			t.Errorf("backoff(%d) = %v, want %v", attempt, got, w)
		}
	}
}

package core

import (
	"context"

	"math"
	"sync/atomic"
	"testing"
	"testing/quick"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/outline"
	"funcytuner/internal/stats"
)

// TestPropertyGreedyPicksColumnMinima: for any collection, G's chosen CV
// per module is exactly the argmin of that module's collected times, and
// G.Independent equals the sum of the minima.
func TestPropertyGreedyPicksColumnMinima(t *testing.T) {
	s := newCLSession(t, 60, 10, true)
	col, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	gr, gi, err := s.Greedy(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	var wantSum float64
	for mi := range s.Part.Modules {
		best, bestK := stats.Min(col.Times[mi])
		wantSum += best
		if !gr.ModuleCVs[mi].Equal(col.CVs[bestK]) {
			t.Fatalf("module %d: greedy CV is not the collected argmin", mi)
		}
	}
	if math.Abs(gi.BestMeasured-wantSum) > 1e-9 {
		t.Fatalf("G.Independent %v != sum of minima %v", gi.BestMeasured, wantSum)
	}
}

// TestPropertyBestMeasuredIsTraceMin: every algorithm's reported best
// equals the final value of its convergence trace.
func TestPropertyBestMeasuredIsTraceMin(t *testing.T) {
	s := newCLSession(t, 50, 10, true)
	random, err := s.Random(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	fr, err := s.FR(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	col, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cfr, err := s.CFR(context.Background(), col)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Result{random, fr, cfr} {
		if got := r.Trace[len(r.Trace)-1]; got != r.BestMeasured {
			t.Errorf("%s: trace end %v != best %v", r.Algorithm, got, r.BestMeasured)
		}
	}
}

// TestPropertyCFRAdaptivePrefixConsistency: for every technique and any
// patience, the adaptive run's measured assemblies form a prefix of the
// full run's, so its best can never beat the full run's.
func TestPropertyCFRAdaptivePrefixConsistency(t *testing.T) {
	for _, tech := range Techniques() {
		t.Run(tech, func(t *testing.T) {
			session := func() *Session {
				s := newCLSession(t, 120, 20, true)
				s.Config.Technique = tech
				return s
			}
			s := session()
			col, err := s.Collect(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			full, err := s.Search(context.Background(), col)
			if err != nil {
				t.Fatal(err)
			}
			f := func(p uint8) bool {
				patience := 10 + int(p%100)
				adaptive, err := session().SearchAdaptive(context.Background(), col, StopRule{MinEvaluations: 5, Patience: patience})
				if err != nil {
					return false
				}
				if adaptive.Evaluations > full.Evaluations {
					return false
				}
				// Prefix property: the adaptive trace equals the head of the
				// full run's trace.
				for i, v := range adaptive.Trace {
					if v != full.Trace[i] {
						return false
					}
				}
				return adaptive.BestMeasured >= full.BestMeasured
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
				t.Error(err)
			}
		})
	}
}

// countingGate counts Acquire calls and never blocks.
type countingGate struct{ acquired atomic.Int64 }

func (g *countingGate) Acquire(ctx context.Context) error {
	g.acquired.Add(1)
	return ctx.Err()
}

func (g *countingGate) Release() {}

// The adaptive search phase holds a WorkerGate slot per evaluation like
// every other phase, so a daemon's global worker bound covers it too.
func TestTechniqueAdaptiveAcquiresGatePerEvaluation(t *testing.T) {
	s := newCLSession(t, 60, 10, true)
	gate := &countingGate{}
	s.Config.Gate = gate
	col, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	before := gate.acquired.Load()
	res, err := s.SearchAdaptive(context.Background(), col, StopRule{MinEvaluations: 5, Patience: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got := gate.acquired.Load() - before; got != int64(res.Evaluations) {
		t.Fatalf("%d gate acquisitions for %d search evaluations", got, res.Evaluations)
	}
}

func TestCFRAdaptiveValidation(t *testing.T) {
	s := newCLSession(t, 30, 5, false)
	col, err := s.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.SearchAdaptive(context.Background(), col, StopRule{Patience: 0}); err == nil {
		t.Error("zero patience accepted")
	}
	res, err := s.SearchAdaptive(context.Background(), col, StopRule{MinEvaluations: 0, Patience: 5, MaxEvaluations: 99999})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations > s.Config.Samples {
		t.Error("MaxEvaluations not clamped to Samples")
	}
}

// TestPropertyCostMonotone: cost counters only grow, and every run adds
// simulated time.
func TestPropertyCostMonotone(t *testing.T) {
	tc := compiler.NewToolchain(flagspec.ICC())
	p := apps.MustGet(apps.Swim)
	m := arch.Broadwell()
	in := apps.TuningInput(apps.Swim, m)
	res, err := outline.AutoOutline(tc, p, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(tc, p, res.Partition, m, in, Config{Samples: 10, TopX: 3, Seed: "cost", Noisy: true})
	if err != nil {
		t.Fatal(err)
	}
	prevRuns, prevHours := s.Cost.Runs(), s.Cost.SimulatedHours()
	for i := 0; i < 5; i++ {
		if _, err := s.Random(context.Background()); err != nil {
			t.Fatal(err)
		}
		runs, hours := s.Cost.Runs(), s.Cost.SimulatedHours()
		if runs <= prevRuns || hours <= prevHours {
			t.Fatalf("cost not monotone: runs %d→%d hours %v→%v", prevRuns, runs, prevHours, hours)
		}
		prevRuns, prevHours = runs, hours
	}
}

package core

import (
	"context"
	"fmt"
	"math"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/search"
	"funcytuner/internal/stats"
	"funcytuner/internal/xrand"
)

// Result reports one algorithm's outcome on a session.
type Result struct {
	// Algorithm is "Random", "FR", "G.realized", "G.Independent" or the
	// search technique's name ("CFR", "BO", "GA"), suffixed ".adaptive"
	// when the search stopped early.
	Algorithm string
	// ModuleCVs is the chosen CV per partition module (all equal for
	// Random). Empty for G.Independent, which never assembles a binary.
	ModuleCVs []flagspec.CV
	// BestMeasured is the (noisy) measured time of the winning variant.
	BestMeasured float64
	// TrueTime is the noise-free time of the winning configuration
	// (NaN for G.Independent, which is a sum of per-module times).
	TrueTime float64
	// Baseline is the noise-free O3 end-to-end time (TO3).
	Baseline float64
	// Speedup is Baseline / final time — the paper's reporting metric.
	Speedup float64
	// Evaluations is the number of end-to-end program runs consumed.
	Evaluations int
	// Trace[k] is the best measured time after k+1 evaluations of the
	// algorithm's own search phase (convergence behaviour, §4.3).
	Trace []float64
	// DegradedModules lists modules (by partition index) that fell back
	// to the baseline CV because their measurements kept failing under
	// fault injection (CFR variants only; nil on clean runs).
	DegradedModules []int
}

// Collection is the output of FuncyTuner's per-loop runtime collection
// (Fig. 4): per-module times for each of the K uniformly compiled
// variants, plus the end-to-end totals.
type Collection struct {
	// CVs are the K pre-sampled compilation vectors.
	CVs []flagspec.CV
	// Times[m][k] is module m's measured time under variant k; the base
	// module's entry is the derived non-loop time.
	Times [][]float64
	// Totals[k] is the end-to-end measured time of variant k.
	Totals []float64
}

// Collect runs the per-loop data-collection phase: every pre-sampled CV
// compiles all modules uniformly, runs once with Caliper instrumentation,
// and records per-module times. Like every phase it measures through
// measure, which checkpoints it, and flushes the checkpoint at its end.
// Cancelling ctx stops the phase at an evaluation boundary with the
// checkpoint flushed; the error satisfies errors.Is(err, context.Canceled).
func (s *Session) Collect(ctx context.Context) (*Collection, error) {
	s.tr.Phase(phaseCollect)
	cvs := s.PreSample()
	col := &Collection{
		CVs:    cvs,
		Times:  make([][]float64, len(s.Part.Modules)),
		Totals: make([]float64, len(cvs)),
	}
	for mi := range col.Times {
		col.Times[mi] = make([]float64, len(cvs))
	}
	reqs := make([]EvalRequest, len(cvs))
	for k := range cvs {
		reqs[k] = EvalRequest{Phase: phaseCollect, Sample: k, CVs: cvs[k : k+1 : k+1]}
	}
	err := s.measure(ctx, reqs, func(k int, out EvalOutcome) {
		for mi, t := range out.PerModule {
			col.Times[mi][k] = t
		}
		col.Totals[k] = out.Total
	})
	if err == nil {
		err = s.ckpt.Flush()
	}
	if err != nil {
		return nil, err
	}
	return col, nil
}

// Random is classical per-program random search (§2.2.1): K single-CV
// variants of the original program, minimum measured runtime wins. It is
// evaluated on the un-outlined program; construct the session with
// ir.WholeProgram for strict fidelity (outlining is a no-op for uniform
// compilation in this model, but the paper draws the distinction). It
// runs through Run.
func (s *Session) Random(ctx context.Context) (*Result, error) {
	tech, err := search.NewRandom(s.presampleConfig("search/random"))
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, tech)
}

// FR is per-function random search (§2.2.2): for each of K rounds, every
// module independently draws one CV from the K pre-sampled CVs (with
// replacement); the assembled executable is measured end-to-end.
func (s *Session) FR(ctx context.Context) (*Result, error) {
	tech, err := search.NewFR(s.presampleConfig("fr-assign"))
	if err != nil {
		return nil, err
	}
	return s.Run(ctx, tech)
}

// Run runs tech on the search driver for Config.Samples evaluations,
// with no stop rule, and answers its least-measured assembly. It is the
// entry for searches the session's Config does not select: Random, FR,
// and the per-program baselines of §4.2 and Fig. 1 (OpenTuner, COBAYN,
// CE), which run on a whole-program session. Random and FR are
// checkpointed and resume by replay like the configured search; a
// baseline's evaluations are not recorded.
func (s *Session) Run(ctx context.Context, tech search.Technique) (*Result, error) {
	return s.runTechnique(ctx, tech, nil, nil)
}

// Rand returns the session's private random stream named key, for a
// technique built outside the session. Streams are pure functions of the
// seed, program, machine and key, so drawing from one cannot perturb the
// sampling, noise or fault streams.
func (s *Session) Rand(key string) *xrand.Rand { return s.rng.Split(key, 0) }

// presampleConfig is the search space of the §2.2 baselines: every
// module's pool is the full, unpruned set of K pre-sampled CVs, and the
// technique's stream is split off under key.
func (s *Session) presampleConfig(key string) search.Config {
	cvs := s.PreSample()
	pools := make([][]flagspec.CV, len(s.Part.Modules))
	for mi := range pools {
		pools[mi] = cvs
	}
	return search.Config{Pools: pools, Budget: s.Config.Samples, Rng: s.Rand(key)}
}

// Greedy implements greedy combination (§2.2.3) on a completed collection:
// each module takes the CV that minimized its own measured time
// (i = argmin_k T[j][k]), the modules are linked, and the result measured.
// It returns both G.realized (the measured assembly) and G.Independent
// (§3.4's hypothetical bound: the sum of the per-module minima).
func (s *Session) Greedy(ctx context.Context, col *Collection) (realized, independent *Result, err error) {
	if err := s.checkCollection(col); err != nil {
		return nil, nil, err
	}
	s.tr.Phase(phaseGreedy)
	chosen := make([]flagspec.CV, len(s.Part.Modules))
	indepSum := 0.0
	for mi := range s.Part.Modules {
		best, bestK := stats.Min(col.Times[mi])
		chosen[mi] = col.CVs[bestK]
		indepSum += best
	}
	var out EvalOutcome
	err = s.measure(ctx, []EvalRequest{{Phase: phaseGreedy, CVs: chosen}}, func(_ int, o EvalOutcome) { out = o })
	if err == nil {
		err = s.ckpt.Flush()
	}
	if err != nil {
		return nil, nil, err
	}
	realized, err = s.finish("G.realized", chosen, out.Total, []float64{out.Total})
	if err != nil {
		return nil, nil, err
	}
	baseline, err := s.BaselineTime()
	if err != nil {
		return nil, nil, err
	}
	independent = &Result{
		Algorithm:    "G.Independent",
		BestMeasured: indepSum,
		TrueTime:     math.NaN(),
		Baseline:     baseline,
		Speedup:      baseline / indepSum,
		Evaluations:  0, // reuses the collection's runs
	}
	return realized, independent, nil
}

// CFR is Caliper-guided random search — Algorithm 1. Per module, the K
// pre-sampled CVs are pruned to the TopX with the smallest measured
// per-module times (lines 10–11); K assemblies are then drawn by
// sampling each module's CV uniformly from its pruned pool (lines
// 12–18), and each assembly is measured end-to-end — the minimum wins
// (lines 22–25). Since the search interface refactor it runs as the CFR
// technique behind the generic suggest/observe driver (see search.go),
// which reproduces the original loop step-for-step: the same
// "cfr-assign" stream drawn in the same order, so CFR Reports and
// canonical traces are byte-identical to the pre-interface code. Like
// Search, it stops early under Config.Stop.
func (s *Session) CFR(ctx context.Context, col *Collection) (*Result, error) {
	return s.searchWith(ctx, col, "")
}

// RunAll executes the full §4.1 protocol on the session: Random, then the
// collection phase, then FR, G (both variants) and CFR.
func (s *Session) RunAll(ctx context.Context) (map[string]*Result, error) {
	out := make(map[string]*Result)
	random, err := s.Random(ctx)
	if err != nil {
		return nil, err
	}
	out["Random"] = random
	col, err := s.Collect(ctx)
	if err != nil {
		return nil, err
	}
	fr, err := s.FR(ctx)
	if err != nil {
		return nil, err
	}
	out["FR"] = fr
	gr, gi, err := s.Greedy(ctx, col)
	if err != nil {
		return nil, err
	}
	out["G.realized"], out["G.Independent"] = gr, gi
	cfr, err := s.CFR(ctx, col)
	if err != nil {
		return nil, err
	}
	out["CFR"] = cfr
	return out, nil
}

func (s *Session) checkCollection(col *Collection) error {
	if col == nil {
		return fmt.Errorf("core: nil collection")
	}
	if len(col.Times) != len(s.Part.Modules) {
		return fmt.Errorf("core: collection has %d modules, session has %d", len(col.Times), len(s.Part.Modules))
	}
	if len(col.CVs) == 0 {
		return fmt.Errorf("core: empty collection")
	}
	return nil
}

// finish re-measures the winner noise-free and assembles the Result.
func (s *Session) finish(name string, cvs []flagspec.CV, bestMeasured float64, times []float64) (*Result, error) {
	trueTime, err := s.TrueTime(cvs)
	if err != nil {
		return nil, err
	}
	baseline, err := s.BaselineTime()
	if err != nil {
		return nil, err
	}
	return &Result{
		Algorithm:    name,
		ModuleCVs:    cvs,
		BestMeasured: bestMeasured,
		TrueTime:     trueTime,
		Baseline:     baseline,
		Speedup:      baseline / trueTime,
		Evaluations:  len(times),
		Trace:        bestSoFar(times),
	}, nil
}

// bestSoFar converts a sequence of measured times into a running-minimum
// convergence trace.
func bestSoFar(times []float64) []float64 {
	out := make([]float64, len(times))
	best := math.Inf(1)
	for i, t := range times {
		if t < best {
			best = t
		}
		out[i] = best
	}
	return out
}

// ConvergedAt returns the 1-based evaluation index at which the trace
// first comes within frac of its final best (§4.3: "CFR finds the best
// code variant in tens or several hundreds of evaluations").
func (r *Result) ConvergedAt(frac float64) int {
	if len(r.Trace) == 0 {
		return 0
	}
	final := r.Trace[len(r.Trace)-1]
	for i, v := range r.Trace {
		if v <= final*(1+frac) {
			return i + 1
		}
	}
	return len(r.Trace)
}

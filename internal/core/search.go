package core

import (
	"context"
	"fmt"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/search"
	"funcytuner/internal/search/bo"
	"funcytuner/internal/search/ga"
	"funcytuner/internal/stats"
)

// Technique names accepted by Config.Technique. The empty string and
// "cfr" both select CFR — the paper's Algorithm 1 — and are
// indistinguishable everywhere (checkpoints, repository keys, reports).
const (
	TechniqueCFR = "cfr"
	TechniqueBO  = "bo"
	TechniqueGA  = "ga"
)

// Techniques lists the accepted Config.Technique values (the canonical
// spellings; "" is an alias for "cfr").
func Techniques() []string { return []string{TechniqueCFR, TechniqueBO, TechniqueGA} }

// ValidTechnique reports whether name is an accepted technique selector.
func ValidTechnique(name string) bool {
	switch name {
	case "", TechniqueCFR, TechniqueBO, TechniqueGA:
		return true
	}
	return false
}

// TechniqueTag canonicalizes a technique selector: CFR — the default —
// maps to "", so pre-technique checkpoints and repository keys stay
// byte-identical; bo/ga map to themselves.
func TechniqueTag(name string) string {
	if name == TechniqueCFR {
		return ""
	}
	return name
}

// Search runs the session's configured search technique (Config.
// Technique) on a completed collection: CFR by default, or the
// analytical-surrogate Bayesian optimizer / FOGA-style genetic
// algorithm behind the same suggest/observe interface. All techniques
// share the engine's evaluation spine — parallel workers, fault
// injection, checkpoint/resume, remote dispatch, tracing — and are
// deterministic per seed. With Config.Stop set, the search stops early
// under that rule.
func (s *Session) Search(ctx context.Context, col *Collection) (*Result, error) {
	return s.searchWith(ctx, col, TechniqueTag(s.Config.Technique))
}

// searchWith runs one named technique ("" selects CFR) on col, stopping
// early under Config.Stop when it is set.
func (s *Session) searchWith(ctx context.Context, col *Collection, tag string) (*Result, error) {
	if err := s.checkCollection(col); err != nil {
		return nil, err
	}
	tech, degraded, err := s.newTechnique(col, tag)
	if err != nil {
		return nil, err
	}
	return s.runTechnique(ctx, tech, degraded, s.Config.Stop, s.ckpt)
}

// newTechnique prunes the collection into per-module pools (Algorithm
// 1's top-X, quarantine-aware) and constructs the named technique over
// them. Each technique draws from its own Split of the session RNG:
// Split is a pure function of the parent's seed material, so deriving a
// new technique stream cannot perturb the presample, noise or fault
// streams — enabling bo/ga leaves every other draw in the run
// untouched. CFR keeps its historical "cfr-assign" stream so its
// assemblies stay draw-for-draw identical to the pre-interface code.
func (s *Session) newTechnique(col *Collection, tag string) (search.Technique, []int, error) {
	pruned, degraded := s.prunedPools(col)
	cfg := search.Config{Pools: pruned, Budget: s.Config.Samples}
	var (
		tech search.Technique
		err  error
	)
	switch tag {
	case "":
		cfg.Rng = s.rng.Split("cfr-assign", 0)
		tech, err = search.NewCFR(cfg)
	case TechniqueBO:
		cfg.Rng = s.rng.Split("search/bo", 0)
		cfg.Seeds = s.adaptWarmSeeds()
		tech, err = bo.New(cfg)
	case TechniqueGA:
		cfg.Rng = s.rng.Split("search/ga", 0)
		cfg.Seeds = s.adaptWarmSeeds()
		tech, err = ga.New(cfg)
	default:
		return nil, nil, fmt.Errorf("core: unknown technique %q (want one of cfr, bo, ga)", tag)
	}
	if err != nil {
		return nil, nil, err
	}
	if n := len(cfg.Seeds); n > 0 {
		s.met.searchWarmSeeds.Add(int64(n))
	}
	return tech, degraded, nil
}

// adaptWarmSeeds fits the configured warm-start assemblies to the
// session's partition: stored entries may come from programs with a
// different module count, so extra modules are dropped and missing ones
// filled with the baseline CV.
func (s *Session) adaptWarmSeeds() [][]flagspec.CV {
	if len(s.Config.WarmSeeds) == 0 {
		return nil
	}
	baseline := s.Toolchain.Space.Baseline()
	out := make([][]flagspec.CV, len(s.Config.WarmSeeds))
	for si, seed := range s.Config.WarmSeeds {
		a := make([]flagspec.CV, len(s.Part.Modules))
		for mi := range a {
			if mi < len(seed) {
				a[mi] = seed[mi]
			} else {
				a[mi] = baseline
			}
		}
		out[si] = a
	}
	return out
}

// runTechnique is the one suggest/evaluate/observe driver every search
// runs on. Each Suggest batch is evaluated on the session's worker pool
// (or fleet), checkpointed per sample under the batch's global indices
// when ckpt is set, and fed back through Observe in index order before
// the next Suggest. For CFR — a single Suggest of the whole budget — the
// loop body is step-for-step the pre-interface implementation, which is
// what keeps the default technique's Report and canonical trace
// byte-identical.
//
// A non-nil rule evaluates each batch one index at a time, still through
// parFor so the gate, cancellation and panic recovery apply, and stops
// mid-batch as soon as the rule fires. The unused suggestions are
// dropped: they came from the technique's private stream, so an
// early-stopped run is an exact prefix of the full one.
//
// Checkpoint replay works for every technique without serializing any
// technique state: a resumed run replays the same Suggest/Observe
// sequence (techniques are deterministic functions of their RNG and the
// observations), with persisted samples substituting their recorded
// times for re-evaluation. Techniques started through Run have a nil
// ckpt: they are not checkpointed, and their times must not land in the
// search slots.
func (s *Session) runTechnique(ctx context.Context, tech search.Technique, degraded []int, rule *StopRule, ckpt *Checkpointer) (*Result, error) {
	s.tr.Phase(tech.Phase())
	budget := s.Config.Samples
	ckTimes := make([]float64, budget)
	ckDone := make([]bool, budget)
	if ckpt != nil {
		ckpt.restoreCFR(ckTimes, ckDone)
	}
	name := tech.Name()
	var stop *stopper
	if rule != nil {
		norm, err := rule.Normalize(budget)
		if err != nil {
			return nil, err
		}
		name += ".adaptive"
		stop = &stopper{rule: norm}
	}
	assemblies := make([][]flagspec.CV, 0, budget)
	times := make([]float64, 0, budget)
	phase := tech.Phase()
	stopped := false
	for !stopped && len(times) < budget {
		batch := tech.Suggest(budget - len(times))
		if len(batch) == 0 {
			break
		}
		if len(batch) > budget-len(times) {
			return nil, fmt.Errorf("core: technique %s suggested %d assemblies with only %d evaluations left",
				tech.Name(), len(batch), budget-len(times))
		}
		k0 := len(times)
		batchTimes := make([]float64, len(batch))
		errs := make([]error, len(batch))
		eval := func(i int) {
			k := k0 + i
			if ckDone[k] {
				batchTimes[i] = ckTimes[k]
				return
			}
			out, err := s.evaluate(ctx, EvalRequest{Phase: phase, Sample: k, CVs: batch[i]})
			if err != nil {
				errs[i] = err
				return
			}
			batchTimes[i] = out.Total
			if ckpt != nil {
				ckpt.record(phaseSearch, k, out)
			}
		}
		// Without a rule the whole batch is one parallel step. With one,
		// every index is its own step, so the rule sees each time in
		// index order and the search can stop mid-batch.
		step := len(batch)
		if stop != nil {
			step = 1
		}
		n := 0
		for n < len(batch) && !stopped {
			lo := n
			s.parFor(ctx, step, func(i int) { eval(lo + i) })
			n += step
			// An error or cancellation also ends the loop; both surface below.
			stopped = stop != nil && (errs[lo] != nil || ctx.Err() != nil || stop.done(batchTimes[lo]))
		}
		if ckpt != nil {
			if err := ckpt.Flush(); err != nil {
				return nil, err
			}
		}
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		if err := s.checkCancelled(ctx); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			tech.Observe(k0+i, batch[i], batchTimes[i])
		}
		assemblies = append(assemblies, batch[:n]...)
		times = append(times, batchTimes[:n]...)
		s.met.searchBatch(n)
	}
	if len(times) == 0 {
		return nil, fmt.Errorf("core: technique %s suggested no assemblies", tech.Name())
	}
	_, bestK := stats.Min(times)
	res, err := s.finish(name, assemblies[bestK], times[bestK], times)
	if err != nil {
		return nil, err
	}
	res.DegradedModules = degraded
	return res, nil
}

// Package search defines the pluggable search-technique interface the
// core engine drives: a technique proposes per-module CV assemblies
// (Suggest) and learns from their measured end-to-end times (Observe).
// The engine owns everything else — evaluation, parallelism, noise,
// fault injection, checkpointing, tracing — so a technique is a pure
// decision procedure over (candidate pools, its own seeded RNG, the
// observations so far).
//
// Determinism contract. A technique must be a deterministic function of
// its Config and the observation multiset: all randomness comes from
// Config.Rng (a stream the caller domain-separates from every other
// stream in the run), and Observe must only record — every decision is
// taken inside Suggest, reading observations in evaluation-index order.
// That construction makes Observe order-insensitive by design (the
// engine's workers complete evaluations in scheduling order, which must
// never leak into results) and makes kill/resume trivial: replaying the
// same Suggest/Observe sequence with checkpointed times reproduces the
// uninterrupted run bit-for-bit, with no technique state to serialize.
//
// The built-in techniques are CFR (this package — Algorithm 1's pruned
// re-sampling, kept byte-identical to the pre-interface implementation),
// an analytical-surrogate Bayesian optimizer (package bo) and a
// FOGA-style genetic algorithm (package ga). FR and Random (§2.2) are
// techniques of this package too, and OpenTuner, COBAYN and CE (§4.2)
// of internal/baselines: every search goes through the same driver.
package search

import (
	"fmt"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/xrand"
)

// Config parameterizes a technique over one session's search phase.
type Config struct {
	// Pools holds, per partition module, the candidate CVs the collection
	// phase pruned to (Algorithm 1's top-X; quarantined CVs excluded).
	// Techniques may propose CVs outside the pools (mutation, warm
	// starts) — the pools are the informed starting set, not a fence.
	Pools [][]flagspec.CV
	// Budget is the total number of evaluations the technique may issue
	// across all Suggest calls (the session's K).
	Budget int
	// Rng is the technique's private random stream. The caller derives it
	// from the session RNG under a technique-specific key, so drawing
	// from it cannot perturb sampling, noise or fault streams.
	Rng *xrand.Rand
	// Seeds are warm-start assemblies (from the results repository's
	// nearest entries) injected into the technique's initial design or
	// population. May be empty; assemblies are already adapted to the
	// session's module count.
	Seeds [][]flagspec.CV
}

// Validate rejects configurations no technique can run on.
func (c Config) Validate() error {
	if len(c.Pools) == 0 {
		return fmt.Errorf("search: no module pools")
	}
	for mi, pool := range c.Pools {
		if len(pool) == 0 {
			return fmt.Errorf("search: module %d has an empty pool", mi)
		}
	}
	if c.Budget < 1 {
		return fmt.Errorf("search: Budget must be >= 1, got %d", c.Budget)
	}
	if c.Rng == nil {
		return fmt.Errorf("search: nil Rng")
	}
	for si, seed := range c.Seeds {
		if len(seed) != len(c.Pools) {
			return fmt.Errorf("search: seed %d has %d modules, want %d", si, len(seed), len(c.Pools))
		}
	}
	return nil
}

// Technique is one pluggable search strategy over the per-module CV
// space. The engine alternates Suggest and Observe: each Suggest batch
// is evaluated (possibly in parallel, possibly remotely), then every
// result is fed back through Observe in evaluation-index order before
// the next Suggest.
type Technique interface {
	// Name is the algorithm label reported in Result.Algorithm
	// ("CFR", "BO", "GA", "FR", "Random", "OpenTuner", "CE", ...).
	Name() string
	// Phase is the evaluation-phase tag ("cfr", "bo", "ga", "fr",
	// "random"). It keys the per-phase measurement-noise streams and
	// trace spans, so distinct techniques draw independent noise by
	// construction.
	Phase() string
	// Suggest returns the next batch of at most n per-module assemblies
	// (each len(Config.Pools) CVs). The technique chooses its own batch
	// size up to n; an empty batch ends the search. The total across all
	// calls never exceeds Config.Budget.
	Suggest(n int) [][]flagspec.CV
	// Observe records the measured end-to-end time of the assembly
	// issued at global evaluation index k. Crashed or abandoned
	// evaluations report +Inf. Observe must only record: decisions
	// happen in Suggest, which reads observations in index order.
	Observe(k int, assembly []flagspec.CV, t float64)
}

// sampler is the family of non-learning techniques: each assembly takes,
// per module, one candidate of that module's pool, chosen by pick from
// the pool size and the assembly's index. Config.Seeds are ignored.
type sampler struct {
	cfg         Config
	name, phase string
	pick        func(n, k int) int
	issued      int
}

// NewCFR builds Caliper-guided random search (Algorithm 1): every
// assembly draws each module's CV uniformly from its pruned pool. It is
// deliberately draw-for-draw identical to the pre-interface
// implementation — one Suggest(Budget) call consumes the "cfr-assign"
// stream in exactly the historical k-then-module order, which the
// facade's pinned-fingerprint regression test enforces.
func NewCFR(cfg Config) (Technique, error) {
	return newSampler(cfg, "CFR", "cfr", func(n, _ int) int { return cfg.Rng.Intn(n) })
}

// NewFR builds per-function random search (§2.2.2): CFR's uniform draw
// over unpruned pools. The engine passes the K pre-sampled CVs as every
// module's pool and its "fr-assign" stream, so the draws are exactly
// those of the historical FR loop.
func NewFR(cfg Config) (Technique, error) {
	return newSampler(cfg, "FR", "fr", func(n, _ int) int { return cfg.Rng.Intn(n) })
}

// NewRandom builds per-program random search (§2.2.1): assembly k takes
// candidate k of every pool, wrapping at the pool's end, and draws
// nothing from Config.Rng. The engine passes the K pre-sampled CVs as
// every module's pool, so assembly k is the uniform variant of CV k.
func NewRandom(cfg Config) (Technique, error) {
	return newSampler(cfg, "Random", "random", func(n, k int) int { return k % n })
}

func newSampler(cfg Config, name, phase string, pick func(n, k int) int) (Technique, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &sampler{cfg: cfg, name: name, phase: phase, pick: pick}, nil
}

func (s *sampler) Name() string  { return s.name }
func (s *sampler) Phase() string { return s.phase }

func (s *sampler) Suggest(n int) [][]flagspec.CV {
	n = min(n, s.cfg.Budget-s.issued)
	if n <= 0 {
		return nil
	}
	out := make([][]flagspec.CV, n)
	for k := range out {
		a := make([]flagspec.CV, len(s.cfg.Pools))
		for mi, pool := range s.cfg.Pools {
			a[mi] = pool[s.pick(len(pool), s.issued+k)]
		}
		out[k] = a
	}
	s.issued += n
	return out
}

func (s *sampler) Observe(int, []flagspec.CV, float64) {}

package funcytuner

import (
	"context"
	"fmt"

	"funcytuner/internal/core"
)

// Spec is everything that decides a tuning job's outcome: the paper's
// inputs (program, machine, Algorithm 1's budget K and pruning width
// top-X, seed, fault mix), the search technique, and the protocol — a
// plain tune, the early-stopped §4.3 run or the §4.1 Compare. The rest
// (workers, gates, caches, checkpoints, tracing, where evaluations run)
// cannot change a Report. The CLI, the job service and the fleet carry
// one Spec end to end. Zero fields take the facade defaults: CL on
// broadwell, and Options' defaults for the rest.
type Spec struct {
	// Benchmark names a built-in program (LULESH, CL, AMG, ...).
	Benchmark string `json:"benchmark"`
	// Machine is the platform model (opteron, sandybridge, broadwell).
	Machine string `json:"machine"`
	// Samples is the evaluation budget K; TopX the CFR pruning width.
	Samples int `json:"samples,omitempty"`
	TopX    int `json:"topx,omitempty"`
	// Seed names the run; equal seeds reproduce bit-identically.
	Seed string `json:"seed"`
	// FaultRate scales the default injected fault mix (0 = clean).
	FaultRate float64 `json:"fault_rate,omitempty"`
	// Technique selects the search algorithm (see Options.Technique).
	Technique string `json:"technique,omitempty"`
	// Adaptive stops the search early under DefaultStopRule, as
	// TuneAdaptive does; Compare runs the §4.1 protocol. At most one is
	// set, and neither is a plain Tune.
	Adaptive bool `json:"adaptive,omitempty"`
	Compare  bool `json:"compare,omitempty"`
	// WarmStart seeds the technique from the results repository (see
	// Options.WarmStart).
	WarmStart bool `json:"warm_start,omitempty"`
}

// checkMode holds the rules that tie the technique, the warm start and
// the protocol together. Options validation, Spec.Validate and every
// entry point check them here and nowhere else.
func checkMode(technique string, warm, adaptive, compare bool) error {
	tag := core.TechniqueTag(technique)
	switch {
	case !core.ValidTechnique(technique):
		return fmt.Errorf("funcytuner: unknown Technique %q (want cfr, bo, or ga)", technique)
	case adaptive && compare:
		return fmt.Errorf("funcytuner: Adaptive and Compare are mutually exclusive")
	case compare && tag != "":
		return fmt.Errorf("funcytuner: Compare supports only the default CFR technique, got %q", technique)
	case warm && (adaptive || compare):
		return fmt.Errorf("funcytuner: WarmStart applies only to Tune, not TuneAdaptive or Compare")
	case warm && tag != core.TechniqueBO && tag != core.TechniqueGA:
		return fmt.Errorf("funcytuner: WarmStart requires Technique \"bo\" or \"ga\" (CFR has no initial design to seed)")
	}
	return nil
}

// Validate reports whether a tuner would run the spec, with the facade's
// defaults applied to its zero fields: the checks a Tuner built from it
// and its entry point would otherwise make only once the job started.
// WarmStart's need for a repository is left to the caller, which knows
// whether it has one.
func (s Spec) Validate() error {
	_, err := s.Key()
	return err
}

// Tuner builds the tuner that runs the spec, and returns it with the
// program and the tuning input the spec names. o supplies what the spec
// does not decide (workers, caches, the repository, checkpoints,
// tracing, an evaluator); the spec's fields replace their counterparts
// in o. The error is the tuner's option error, reported now.
func (s Spec) Tuner(o Options) (*Tuner, *Program, Input, error) {
	prog, in, o, err := s.resolve(o)
	if err != nil {
		return nil, nil, Input{}, err
	}
	t := NewTuner(o)
	return t, prog, in, t.err
}

// resolve returns the program and tuning input the spec names, and o
// with the spec's fields in place of their counterparts and the facade
// defaults applied.
func (s Spec) resolve(o Options) (*Program, Input, Options, error) {
	bench := s.Benchmark
	if bench == "" {
		bench = CloverLeaf
	}
	prog, err := Benchmark(bench)
	if err != nil {
		return nil, Input{}, o, err
	}
	o.Machine = nil
	if s.Machine != "" {
		if o.Machine, err = MachineByName(s.Machine); err != nil {
			return nil, Input{}, o, err
		}
	}
	o.Samples, o.TopX, o.Seed, o.Technique, o.WarmStart = s.Samples, s.TopX, s.Seed, s.Technique, s.WarmStart
	o.Faults = DefaultFaultRates().Scale(s.FaultRate)
	o = o.withDefaults()
	return prog, TuningInput(bench, o.Machine), o, nil
}

// Key is the results-repository key of the spec's run, cold and with
// default options. Two specs share it exactly when they are the same
// run, however each spells its defaults, so the job service
// deduplicates in-flight submissions on it. A spec Validate rejects has
// no key, and Key returns the same error.
func (s Spec) Key() (uint64, error) {
	// Checked here because FaultRates.Scale clamps a negative rate to 0.
	if s.FaultRate < 0 {
		return 0, fmt.Errorf("funcytuner: FaultRate must be >= 0, got %v", s.FaultRate)
	}
	if err := checkMode(s.Technique, s.WarmStart, s.Adaptive, s.Compare); err != nil {
		return 0, err
	}
	s.WarmStart = false
	prog, in, o, err := s.resolve(Options{})
	if err != nil {
		return 0, err
	}
	if err := o.validate(); err != nil {
		return 0, err
	}
	id := core.NewRunIdentity(prog, o.Machine, in, o.Space, o.config(nil, s.stopRule()))
	return repoKey(id, s.Compare), nil
}

// stopRule is the early-stop rule of an adaptive spec; nil otherwise.
func (s Spec) stopRule() *StopRule {
	if !s.Adaptive {
		return nil
	}
	rule := DefaultStopRule()
	return &rule
}

// Run executes the spec's protocol on prog with in. It is the one
// dispatch from a Spec to an entry point. The tuner should come from
// spec.Tuner, so that its options carry the spec's other fields.
func (t *Tuner) Run(ctx context.Context, prog *Program, in Input, spec Spec) (*Report, error) {
	return t.run(ctx, prog, in, spec.stopRule(), spec.Compare)
}

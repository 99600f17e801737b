package funcytuner

import (
	"context"
	"fmt"
	"io"

	"funcytuner/internal/apps"
	"funcytuner/internal/baselines"
	"funcytuner/internal/baselines/ce"
	"funcytuner/internal/baselines/cobayn"
	"funcytuner/internal/baselines/opentuner"
	"funcytuner/internal/baselines/pgo"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/ir"
	"funcytuner/internal/search"
)

// BaselineResult is a prior-work tuner's outcome (§4.2 / Fig. 1).
type BaselineResult = baselines.Result

// COBAYNModel is a trained COBAYN instance (Bayesian network over
// binarized flags + corpus features).
type COBAYNModel = cobayn.Model

// COBAYNKind selects COBAYN's feature model: static (Milepost-like),
// dynamic (MICA-like, serial), or hybrid.
type COBAYNKind = cobayn.Kind

// COBAYN feature-model kinds.
const (
	COBAYNStatic  = cobayn.Static
	COBAYNDynamic = cobayn.Dynamic
	COBAYNHybrid  = cobayn.Hybrid
)

// baseline runs the technique newTech builds on a whole-program session
// of prog: the tuner's seed, budget, workers, noise, faults, gate,
// compile cache and trace, with no checkpointer, results repository or
// remote evaluator. The answer is the least-measured CV.
func (t *Tuner) baseline(prog *Program, in Input, newTech func(*core.Session) (search.Technique, error)) (*BaselineResult, error) {
	if t.err != nil {
		return nil, t.err
	}
	cfg := t.opts.config(nil, nil)
	cfg.Remote = nil
	sess, err := core.NewSession(t.tc, prog, ir.WholeProgram(prog), t.opts.Machine, in, cfg)
	if err != nil {
		return nil, err
	}
	sess.AttachTrace(t.opts.Trace)
	tech, err := newTech(sess)
	if err != nil {
		return nil, err
	}
	res, err := sess.Run(context.Background(), tech)
	if err != nil {
		return nil, err
	}
	return &BaselineResult{
		Name:        tech.Name(),
		CV:          res.ModuleCVs[0],
		TrueTime:    res.TrueTime,
		Baseline:    res.Baseline,
		Speedup:     res.Speedup,
		Evaluations: res.Evaluations,
	}, nil
}

// TuneOpenTuner runs the OpenTuner baseline (ensemble of DE, Nelder–Mead,
// Torczon pattern search, GA, simulated annealing, PSO and uniform random
// under an AUC bandit) for the tuner's sample budget.
func (t *Tuner) TuneOpenTuner(prog *Program, in Input) (*BaselineResult, error) {
	return t.baseline(prog, in, func(sess *core.Session) (search.Technique, error) {
		return opentuner.New(sess), nil
	})
}

// TunePGO runs the Intel-PGO baseline: an instrumented profile run plus a
// profile-guided recompilation. Result.Failed reports the §4.2.2
// instrumentation failures (LULESH, Optewe), which fall back to plain O3.
func (t *Tuner) TunePGO(prog *Program, in Input) (*BaselineResult, error) {
	if t.err != nil {
		return nil, t.err
	}
	return pgo.Tune(t.tc, prog, t.opts.Machine, in)
}

// TuneCE runs Combined Elimination (Fig. 1): start from the most
// aggressive configuration and greedily eliminate harmful flags, within
// the tuner's sample budget.
func (t *Tuner) TuneCE(prog *Program, in Input) (*BaselineResult, error) {
	return t.baseline(prog, in, func(*core.Session) (search.Technique, error) {
		return ce.New(t.tc.Space, ce.DefaultOptions()), nil
	})
}

// TrainCOBAYN characterizes a cBench-like corpus (corpusSize programs,
// 1000 random CVs each, top 100 kept) and trains the hybrid COBAYN model;
// derive the static/dynamic variants with Model.WithKind. This is the
// expensive phase (the paper reports ~1 week per benchmark for COBAYN);
// persist the result with COBAYNModel.Save and reload it with LoadCOBAYN.
func (t *Tuner) TrainCOBAYN(corpusSize int) (*COBAYNModel, error) {
	if t.err != nil {
		return nil, t.err
	}
	cfg := cobayn.DefaultTrainConfig(t.opts.Seed)
	cfg.SamplesPerProgram = t.opts.Samples
	cfg.TopPerProgram = t.opts.Samples / 10
	if cfg.TopPerProgram < 1 {
		cfg.TopPerProgram = 1
	}
	return cobayn.Train(t.tc, apps.Corpus(corpusSize), apps.CorpusInput(),
		t.opts.Machine, cobayn.Hybrid, cfg)
}

// TuneCOBAYN samples the tuner's budget of CVs from a trained model and
// evaluates them on prog.
func (t *Tuner) TuneCOBAYN(model *COBAYNModel, prog *Program, in Input) (*BaselineResult, error) {
	return t.baseline(prog, in, func(sess *core.Session) (search.Technique, error) {
		if model == nil {
			return nil, fmt.Errorf("funcytuner: nil COBAYN model (train or load one first)")
		}
		return model.Infer(sess)
	})
}

// LoadCOBAYN reloads a model saved with COBAYNModel.Save. The tuner must
// use the flag-space flavor the model was trained on.
func (t *Tuner) LoadCOBAYN(r io.Reader) (*COBAYNModel, error) {
	return cobayn.Load(r, t.tc)
}

// Toolchain exposes the tuner's compiler toolchain for advanced use.
func (t *Tuner) Toolchain() *compiler.Toolchain { return t.tc }

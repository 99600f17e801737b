package experiments

import (
	"context"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/baselines/cobayn"
	"funcytuner/internal/baselines/opentuner"
	"funcytuner/internal/baselines/pgo"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/exec"
	"funcytuner/internal/ir"
	"funcytuner/internal/search"
)

// fig7Columns is the technique set of Figs. 7 and 8.
var fig7Columns = []string{"Random", "G.realized", "COBAYN", "PGO", "OpenTuner", "CFR"}

// tunedApp holds one benchmark's configurations, tuned once on the
// Table 2 tuning input, ready to be re-evaluated on other inputs (the
// §4.3 protocol: "use the same input as both tuning and test inputs" for
// tuning, then test generalization on small/large/step-scaled inputs).
type tunedApp struct {
	// base is the whole-program session the single-CV techniques tuned
	// on; it measures the O3 reference.
	base *core.Session
	// evalFns maps technique → (input → tuned runtime).
	evalFns map[string]func(in ir.Input) (float64, error)
}

// tuneAllTechniques tunes the Fig. 7 technique set on the tuning input.
// The COBAYN model must be pre-trained (static variant, per §4.4.1's
// choice of the best-performing COBAYN model).
func tuneAllTechniques(cfg Config, tc *compiler.Toolchain, app string, m *arch.Machine, model *cobayn.Model) (*tunedApp, error) {
	prog, err := apps.Get(app)
	if err != nil {
		return nil, err
	}
	in := apps.TuningInput(app, m)
	base, err := core.NewSession(tc, prog, ir.WholeProgram(prog), m, in, cfg.session())
	if err != nil {
		return nil, err
	}
	ta := &tunedApp{base: base, evalFns: map[string]func(ir.Input) (float64, error){}}

	// Per-loop techniques: Random, G.realized, CFR via the core session.
	sess, err := coreSession(cfg, tc, app, m)
	if err != nil {
		return nil, err
	}
	random, err := sess.Random(context.Background())
	if err != nil {
		return nil, err
	}
	col, err := sess.Collect(context.Background())
	if err != nil {
		return nil, err
	}
	gReal, _, err := sess.Greedy(context.Background(), col)
	if err != nil {
		return nil, err
	}
	cfr, err := sess.CFR(context.Background(), col)
	if err != nil {
		return nil, err
	}
	for name, res := range map[string]*core.Result{
		"Random": random, "G.realized": gReal, "CFR": cfr,
	} {
		cvs := res.ModuleCVs
		ta.evalFns[name] = func(in ir.Input) (float64, error) {
			return sess.TrueTimeOn(cvs, in)
		}
	}

	// Single-CV techniques: COBAYN (static) and OpenTuner.
	cobaynTech, err := model.Infer(base)
	if err != nil {
		return nil, err
	}
	for name, tech := range map[string]search.Technique{
		"COBAYN": cobaynTech, "OpenTuner": opentuner.New(base),
	} {
		res, err := base.Run(context.Background(), tech)
		if err != nil {
			return nil, err
		}
		cvs := res.ModuleCVs
		ta.evalFns[name] = func(in ir.Input) (float64, error) {
			return base.TrueTimeOn(cvs, in)
		}
	}

	// PGO: the profiled binary (profile collected on the tuning input).
	pgoExe, _, err := pgo.Build(tc, prog, m, in)
	if err != nil {
		return nil, err
	}
	ta.evalFns["PGO"] = func(in ir.Input) (float64, error) {
		return exec.Run(pgoExe, m, in, exec.Options{}).Total, nil
	}

	return ta, nil
}

// speedupOn evaluates every tuned technique on input in, normalized to
// the O3 baseline *on that input*.
func (ta *tunedApp) speedupOn(in ir.Input) (map[string]float64, error) {
	baseline, err := ta.base.BaselineTimeOn(in)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for name, fn := range ta.evalFns {
		t, err := fn(in)
		if err != nil {
			return nil, err
		}
		out[name] = baseline / t
	}
	return out, nil
}

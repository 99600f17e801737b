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
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
	"funcytuner/internal/search"
)

// fig6Columns is the paper's Fig. 6 legend order.
var fig6Columns = []string{
	"COBAYN-static", "COBAYN-dynamic", "COBAYN-hybrid", "PGO", "OpenTuner", "CFR",
}

// Fig6 reproduces Fig. 6: FuncyTuner CFR against the state of the art on
// Broadwell — COBAYN's three models (trained on the cBench-like corpus),
// Intel PGO, and OpenTuner with 1000 iterations.
func Fig6(cfg Config) (*Output, error) {
	out := &Output{Name: "fig6"}
	m := arch.Broadwell()
	tc := compiler.NewToolchain(flagspec.ICC())
	t := newReportTable("Fig. 6: state-of-the-art comparison (Broadwell), speedup over O3",
		"benchmark", fig6Columns...)

	// One corpus characterization run trains all three COBAYN models.
	trainCfg := cobayn.DefaultTrainConfig(cfg.Seed)
	trainCfg.SamplesPerProgram = cfg.Samples
	trainCfg.TopPerProgram = cfg.Samples / 10
	hybrid, err := cobayn.Train(tc, apps.Corpus(cfg.CorpusSize), apps.CorpusInput(), m, cobayn.Hybrid, trainCfg)
	if err != nil {
		return nil, err
	}
	models := map[string]*cobayn.Model{
		"COBAYN-static":  hybrid.WithKind(cobayn.Static),
		"COBAYN-dynamic": hybrid.WithKind(cobayn.Dynamic),
		"COBAYN-hybrid":  hybrid,
	}

	for _, app := range apps.Names() {
		prog, err := apps.Get(app)
		if err != nil {
			return nil, err
		}
		in := apps.TuningInput(app, m)

		// Each baseline has its own phase, so one whole-program session
		// gives each its own noise and draws.
		base, err := core.NewSession(tc, prog, ir.WholeProgram(prog), m, in, cfg.session())
		if err != nil {
			return nil, err
		}
		techs := map[string]search.Technique{"OpenTuner": opentuner.New(base)}
		for name, model := range models {
			if techs[name], err = model.Infer(base); err != nil {
				return nil, err
			}
		}
		for name, tech := range techs {
			res, err := base.Run(context.Background(), tech)
			if err != nil {
				return nil, err
			}
			t.Set(app, name, res.Speedup)
		}

		pgoRes, err := pgo.Tune(tc, prog, m, in)
		if err != nil {
			return nil, err
		}
		t.Set(app, "PGO", pgoRes.Speedup)

		// CFR under the §4.1 protocol (same numbers as Fig. 5c).
		sess, err := coreSession(cfg, tc, app, m)
		if err != nil {
			return nil, err
		}
		col, err := sess.Collect(context.Background())
		if err != nil {
			return nil, err
		}
		cfr, err := sess.CFR(context.Background(), col)
		if err != nil {
			return nil, err
		}
		t.Set(app, "CFR", cfr.Speedup)
	}
	geoMeanRow(t)
	t.AddNote("paper geomeans: OpenTuner %.3f, COBAYN-static %.3f, PGO %.3f, CFR %.3f",
		paperFig6GM["OpenTuner"], paperFig6GM["COBAYN-static"], paperFig6GM["PGO"], paperFig6GM["CFR"])
	out.Tables = append(out.Tables, t)
	out.Deviations = checkFig6(t)
	return out, nil
}

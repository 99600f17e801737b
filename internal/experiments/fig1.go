package experiments

import (
	"context"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/baselines/ce"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
)

// Fig1 reproduces Fig. 1: Combined Elimination on LULESH, CloverLeaf and
// AMG (Broadwell) for both the GCC-like and ICC-like toolchains, showing
// that CE "does not improve performance significantly" over O3.
func Fig1(cfg Config) (*Output, error) {
	out := &Output{Name: "fig1"}
	t := newReportTable("Fig. 1: Combined Elimination speedup over O3 (Broadwell)",
		"benchmark", "GCC", "ICC")
	m := arch.Broadwell()
	for _, app := range []string{apps.LULESH, apps.CloverLeaf, apps.AMG} {
		prog, err := apps.Get(app)
		if err != nil {
			return nil, err
		}
		for col, space := range map[string]*flagspec.Space{
			"GCC": flagspec.GCC(),
			"ICC": flagspec.ICC(),
		} {
			sess, err := core.NewSession(compiler.NewToolchain(space), prog, ir.WholeProgram(prog), m, apps.TuningInput(app, m), cfg.session())
			if err != nil {
				return nil, err
			}
			res, err := sess.Run(context.Background(), ce.New(space, ce.DefaultOptions()))
			if err != nil {
				return nil, err
			}
			t.Set(app, col, res.Speedup)
		}
	}
	t.AddNote("paper: CE shows no significant improvement over O3 (≈1.00); " +
		"in this reproduction CE moves O3 by a few percent either way but stays far below CFR's ~1.10")
	out.Tables = append(out.Tables, t)
	out.Deviations = checkFig1(t)
	return out, nil
}

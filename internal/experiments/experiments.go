// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): Fig. 1 (Combined Elimination vs O3), Fig. 5 (the four
// search algorithms across three machines), Fig. 6 (state-of-the-art
// comparison on Broadwell), Fig. 7 (small/large input generalization),
// Fig. 8 (CloverLeaf time-step scaling), Fig. 9 and Table 3 (the
// CloverLeaf deep dive). Each runner returns rendered tables whose rows
// and series mirror the paper's axes; expected.go records the paper's
// numbers and the shape checks EXPERIMENTS.md reports against.
package experiments

import (
	"fmt"
	"sort"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/outline"
	"funcytuner/internal/report"
	"funcytuner/internal/stats"
)

// Config parameterizes all experiment runners.
type Config struct {
	// Samples is K, the evaluation budget per algorithm (paper: 1000).
	Samples int
	// TopX is CFR's pruning width (paper-scale: 50).
	TopX int
	// Seed names the reproduction run.
	Seed string
	// Noisy enables measurement noise (the paper's setting).
	Noisy bool
	// Workers bounds parallelism (0 = GOMAXPROCS).
	Workers int
	// CorpusSize is the COBAYN training corpus size.
	CorpusSize int
}

// DefaultConfig mirrors the paper's experimental setup.
func DefaultConfig(seed string) Config {
	return Config{Samples: 1000, TopX: 50, Seed: seed, Noisy: true, CorpusSize: 32}
}

// Output is one experiment's rendered result.
type Output struct {
	// Name is the experiment id ("fig5", "table3", ...).
	Name string
	// Tables holds the numeric tables (one per sub-figure).
	Tables []*report.Table
	// Texts holds qualitative tables (Table 3).
	Texts []*report.TextTable
	// Deviations lists shape-check violations against the paper.
	Deviations []string
}

// Runner regenerates one experiment.
type Runner func(cfg Config) (*Output, error)

// Runners returns the registry of experiment runners keyed by id.
func Runners() map[string]Runner {
	return map[string]Runner{
		"fig1":   Fig1,
		"fig5":   Fig5,
		"fig6":   Fig6,
		"fig7":   Fig7,
		"fig8":   Fig8,
		"fig9":   Fig9,
		"table3": Table3,
		// Extensions beyond the paper (see ablation.go, ltoablation.go).
		"ablation":     AblationTopX,
		"convergence":  Convergence,
		"overhead":     Overhead,
		"lto":          LTOAblation,
		"significance": Significance,
	}
}

// Names returns the experiment ids in presentation order.
func Names() []string {
	names := make([]string, 0, len(Runners()))
	for n := range Runners() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by id.
func Run(name string, cfg Config) (*Output, error) {
	r, ok := Runners()[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", name, Names())
	}
	return r(cfg)
}

// coreSession builds the outlined tuning session for (app, machine).
func coreSession(cfg Config, tc *compiler.Toolchain, app string, m *arch.Machine) (*core.Session, error) {
	prog, err := apps.Get(app)
	if err != nil {
		return nil, err
	}
	in := apps.TuningInput(app, m)
	res, err := outline.AutoOutline(tc, prog, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		return nil, err
	}
	return core.NewSession(tc, prog, res.Partition, m, in, cfg.session())
}

// session is the core configuration every experiment session runs under.
func (cfg Config) session() core.Config {
	return core.Config{
		Samples: cfg.Samples,
		TopX:    cfg.TopX,
		Seed:    cfg.Seed,
		Workers: cfg.Workers,
		Noisy:   cfg.Noisy,
	}
}

// geoMeanRow appends a geometric-mean row ("GM", as the paper's figures
// label it) across the table's existing rows for each column.
func geoMeanRow(t *report.Table) {
	rows := t.Rows()
	for _, c := range t.Cols {
		var vals []float64
		for _, r := range rows {
			if v, ok := t.Get(r, c); ok {
				vals = append(vals, v)
			}
		}
		if len(vals) > 0 {
			t.Set("GM", c, stats.GeoMean(vals))
		}
	}
}

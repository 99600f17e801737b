// Package baselines holds the outcome type of the prior-work tuners the
// paper compares against in §4.2: OpenTuner (ensemble search), COBAYN
// (Bayesian networks), Intel PGO, and Combined Elimination (Fig. 1). All
// of them tune on a per-program basis: one CV for the whole program.
// OpenTuner, COBAYN's inference and CE are search techniques that a
// whole-program core.Session runs (core.Session.Run); PGO compiles twice
// and measures once.
package baselines

import "funcytuner/internal/flagspec"

// Result is the common outcome type for per-program baselines.
type Result struct {
	// Name identifies the technique ("OpenTuner", "COBAYN-static", ...).
	Name string
	// CV is the winning compilation vector: the least-measured one, or
	// the O3 baseline for PGO.
	CV flagspec.CV
	// TrueTime is the noise-free time of the winner on the tuning input
	// (+Inf when every measured CV crashed).
	TrueTime float64
	// Baseline is the noise-free O3 time.
	Baseline float64
	// Speedup = Baseline / TrueTime.
	Speedup float64
	// Evaluations is the number of measured suggestions.
	Evaluations int
	// Failed marks techniques that could not run (PGO on LULESH/Optewe).
	Failed bool
	// Note carries failure or convergence details.
	Note string
}

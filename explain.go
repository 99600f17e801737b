package funcytuner

import (
	"slices"

	"funcytuner/internal/core"
	"funcytuner/internal/ir"
	"funcytuner/internal/outline"
)

// ModuleAttribution is a leave-one-out marginal: how much slower the
// tuned executable gets when one module reverts to the O3 baseline CV.
type ModuleAttribution = core.ModuleAttribution

// CriticalFlags runs the paper's §4.4.1 greedy flag elimination on one
// module of the report's best configuration: non-default flags are reset
// to their defaults whenever doing so does not degrade end-to-end
// performance; the survivors are that module's critical flags, in
// command-line form. Module indices follow Report.Best.ModuleCVs. A
// served report returns ErrServed.
func (r *Report) CriticalFlags(module int) ([]string, error) {
	if r.sess == nil {
		return nil, ErrServed
	}
	return r.sess.CriticalFlags(r.Best.ModuleCVs, module, 1e-3)
}

// Attribution computes every module's leave-one-out marginal for the
// report's best configuration. Marginals need not sum to the end-to-end
// win — the residual is exactly the inter-module interaction (§3.4's
// failed independence assumption) that per-loop greedy tuning trips over.
// A served report returns ErrServed.
func (r *Report) Attribution() ([]ModuleAttribution, error) {
	if r.sess == nil {
		return nil, ErrServed
	}
	return r.sess.Attribution(r.Best.ModuleCVs)
}

// ModuleName returns the partition module name for an index of
// Report.Best.ModuleCVs ("loop:dt", "base", ...).
func (r *Report) ModuleName(module int) string {
	return r.partition().Modules[module].Name
}

// ModuleLoops returns the program loop indices compiled in a module.
func (r *Report) ModuleLoops(module int) []int {
	return append([]int(nil), r.partition().Modules[module].LoopIdx...)
}

// partition is the report's module layout. A served report has no
// session, but its session outlined the hot loops in program order, so
// outlining them again rebuilds the same partition.
func (r *Report) partition() ir.Partition {
	if r.sess != nil {
		return r.sess.Part
	}
	hot := slices.Clone(r.HotLoops)
	slices.Sort(hot)
	part, _ := outline.Outline(r.Profile.Program, hot)
	return part
}

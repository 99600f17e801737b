package funcytuner

import (
	"encoding/json"
	"fmt"
	"io"
	"math"

	"funcytuner/internal/apps"
	"funcytuner/internal/flagspec"
)

// SavedTuning is the portable, JSON-serializable form of a tuning result:
// everything a build system needs to reproduce the tuned executable —
// which compiler flag vector compiles which module — plus provenance.
type SavedTuning struct {
	// Program, Machine and Input identify the tuning context.
	Program string `json:"program"`
	Machine string `json:"machine"`
	Input   Input  `json:"input"`
	// Algorithm that produced the configuration (normally "CFR").
	Algorithm string `json:"algorithm"`
	// Flavor is the flag-space flavor ("icc" or "gcc").
	Flavor string `json:"flavor"`
	// Speedup and Baseline record the measured outcome.
	Speedup  float64 `json:"speedup"`
	Baseline float64 `json:"baseline_seconds"`
	// Modules maps each compilation module to its command-line flags.
	Modules []SavedModule `json:"modules"`
}

// SavedModule is one module's tuned compilation command line.
type SavedModule struct {
	Name  string `json:"name"`
	Flags string `json:"flags"`
}

// Save serializes the report's best (CFR) configuration as JSON, from
// the report's own provenance, so a repository-served report saves the
// same document as the run it replaces.
func (r *Report) Save(w io.Writer) error {
	if r.space == nil {
		return errNoProvenance
	}
	st := SavedTuning{
		Program:   r.Profile.Program.Name,
		Machine:   r.Profile.Machine.Name,
		Input:     r.Profile.Input,
		Algorithm: r.Best.Algorithm,
		Flavor:    r.space.Flavor.String(),
		Speedup:   r.Best.Speedup,
		Baseline:  r.Best.Baseline,
	}
	for mi, cv := range r.Best.ModuleCVs {
		st.Modules = append(st.Modules, SavedModule{
			Name:  r.part.Modules[mi].Name,
			Flags: cv.String(),
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// LoadTuning parses a SavedTuning and re-materializes its CVs against the
// matching flag space. Documents that could not have come from a real run
// are rejected: unknown flag-space flavors, non-finite or non-positive
// measured outcomes, no modules at all, and — when Program names a known
// benchmark — more modules than the benchmark has coupling units
// (hot loops + the base module).
func LoadTuning(rd io.Reader) (*SavedTuning, []CV, error) {
	var st SavedTuning
	if err := json.NewDecoder(rd).Decode(&st); err != nil {
		return nil, nil, fmt.Errorf("funcytuner: decoding saved tuning: %w", err)
	}
	var space *Space
	switch st.Flavor {
	case flagspec.FlavorICC.String():
		space = flagspec.ICC()
	case flagspec.FlavorGCC.String():
		space = flagspec.GCC()
	default:
		return nil, nil, fmt.Errorf("funcytuner: unknown flavor %q", st.Flavor)
	}
	if !(st.Speedup > 0) || math.IsInf(st.Speedup, 0) {
		return nil, nil, fmt.Errorf("funcytuner: saved tuning has implausible speedup %v", st.Speedup)
	}
	if !(st.Baseline > 0) || math.IsInf(st.Baseline, 0) {
		return nil, nil, fmt.Errorf("funcytuner: saved tuning has implausible baseline %v", st.Baseline)
	}
	if len(st.Modules) == 0 {
		return nil, nil, fmt.Errorf("funcytuner: saved tuning has no modules")
	}
	if prog, err := apps.Get(st.Program); err == nil {
		if max := len(prog.Loops) + 1; len(st.Modules) > max {
			return nil, nil, fmt.Errorf("funcytuner: saved tuning has %d modules, but %s has at most %d coupling units",
				len(st.Modules), st.Program, max)
		}
	}
	cvs := make([]CV, 0, len(st.Modules))
	for _, m := range st.Modules {
		cv, err := space.Parse(m.Flags)
		if err != nil {
			return nil, nil, fmt.Errorf("funcytuner: module %q: %w", m.Name, err)
		}
		cvs = append(cvs, cv)
	}
	return &st, cvs, nil
}

package core

import (
	"context"
	"fmt"
)

// StopRule configures early stopping for any search technique. §4.3
// observes that "the tuning overhead may be dramatically reduced ... by
// exploiting program-specific CFR convergence trends, i.e., CFR finds the
// best code variant in tens or several hundreds of evaluations" —
// SearchAdaptive turns that observation into a budget policy.
type StopRule struct {
	// MinEvaluations always run before early stopping is considered.
	MinEvaluations int
	// Patience stops the search after this many consecutive evaluations
	// without a new best.
	Patience int
	// MaxEvaluations caps the search (defaults to the session's Samples).
	MaxEvaluations int
}

// DefaultStopRule mirrors the convergence study: a floor of 50
// evaluations, patience of 150.
func DefaultStopRule() StopRule {
	return StopRule{MinEvaluations: 50, Patience: 150}
}

// Normalize returns the rule as a search over a budget of samples
// evaluations applies it: MaxEvaluations clamped to [1, samples] (zero
// selects samples) and MinEvaluations raised to at least 1. A
// non-positive Patience is an error.
func (r StopRule) Normalize(samples int) (StopRule, error) {
	if r.Patience <= 0 {
		return r, fmt.Errorf("core: StopRule.Patience must be positive")
	}
	if r.MaxEvaluations <= 0 || r.MaxEvaluations > samples {
		r.MaxEvaluations = samples
	}
	if r.MinEvaluations < 1 {
		r.MinEvaluations = 1
	}
	return r, nil
}

// SearchAdaptive is Search with early stopping: the configured technique
// runs on the same driver, which halts as soon as rule fires. The
// measured assemblies are an exact prefix of the full search's, and the
// result, named after the technique plus ".adaptive", reports how many
// evaluations were actually spent.
func (s *Session) SearchAdaptive(ctx context.Context, col *Collection, rule StopRule) (*Result, error) {
	rule, err := rule.Normalize(s.Config.Samples)
	if err != nil {
		return nil, err
	}
	return s.searchWith(ctx, col, TechniqueTag(s.Config.Technique), &rule)
}

// stopper applies a normalized StopRule to a search's measured times in
// evaluation-index order.
type stopper struct {
	rule   StopRule
	n, dry int
	best   float64
}

// done records the next evaluation's time and reports whether the rule
// fires.
func (st *stopper) done(t float64) bool {
	if st.n == 0 || t < st.best {
		st.best, st.dry = t, 0
	} else {
		st.dry++
	}
	st.n++
	return st.n >= st.rule.MaxEvaluations ||
		(st.n >= st.rule.MinEvaluations && st.dry >= st.rule.Patience)
}

// Package ce implements Combined Elimination (Pan & Eigenmann, PEAK /
// CGO'06 line of work) — the per-program flag-selection baseline of the
// paper's Fig. 1. CE starts from the most aggressive configuration (every
// optimization enabled) and iteratively eliminates flags whose removal
// improves runtime, re-examining the survivors after every elimination to
// account for flag interactions. Its weakness, which Fig. 1 demonstrates
// on LULESH/CloverLeaf/AMG for both GCC and ICC, is convergence to local
// minima near the O3 baseline. New returns it as a search technique that
// a whole-program core.Session runs.
package ce

import (
	"math"
	"sort"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/search"
)

// Options parameterize a CE run.
type Options struct {
	// MaxRounds bounds the outer elimination loop (a safety valve; CE
	// normally converges in a handful of rounds).
	MaxRounds int
	// Epsilon is the relative-improvement threshold below which a flag's
	// effect counts as noise.
	Epsilon float64
}

// DefaultOptions mirrors the published setup: CE converges within a few
// elimination rounds, and improvements below the run-to-run noise floor
// (§4.1: ~0.5–1.5%) are not trusted.
func DefaultOptions() Options { return Options{MaxRounds: 4, Epsilon: 0.004} }

// elimination is combined elimination as a technique on a whole-program
// session: every assembly is one CV. It keeps only the measured times;
// Suggest replays the algorithm over them.
type elimination struct {
	space *flagspec.Space
	opts  Options
	times []float64 // measured times, by evaluation index
}

// New builds combined elimination over space. It draws no randomness.
func New(space *flagspec.Space, opts Options) search.Technique {
	return &elimination{space: space, opts: opts}
}

func (e *elimination) Name() string  { return "CE" }
func (e *elimination) Phase() string { return "ce" }

// Suggest returns, cut to n, the batch CE waits on: a round's
// single-flag eliminations, or one CV of its combine walk. It returns
// nothing once CE has converged.
func (e *elimination) Suggest(n int) [][]flagspec.CV {
	next := e.replay()
	out := make([][]flagspec.CV, max(0, min(n, len(next))))
	for i := range out {
		out[i] = []flagspec.CV{next[i]}
	}
	return out
}

// Observe records a time; the driver observes in index order.
func (e *elimination) Observe(_ int, _ []flagspec.CV, t float64) { e.times = append(e.times, t) }

// replay runs CE over the measured times and returns the unmeasured part
// of the first batch it has no times for, or nil once it has converged.
func (e *elimination) replay() []flagspec.CV {
	space, opts := e.space, e.opts
	n := space.NumFlags()
	var next []flagspec.CV
	k := 0
	measured := func(batch ...flagspec.CV) ([]float64, bool) {
		if k+len(batch) > len(e.times) {
			next = batch[len(e.times)-k:]
			return nil, false
		}
		k += len(batch)
		return e.times[k-len(batch) : k], true
	}

	// B: the aggressive starting point — every flag at its alternative.
	base := space.Baseline()
	for i := 0; i < n; i++ {
		base = base.With(i, space.AltValue(i))
	}
	ts, ok := measured(base)
	if !ok {
		return next
	}
	baseTime := ts[0]

	eliminated := make([]bool, n) // flags reset to their default

	// rip computes the relative improvement of a candidate time over the
	// current base. A crashed base (the aggressive start can fault, §3.2)
	// makes any runnable candidate a full improvement.
	rip := func(t float64) float64 {
		if math.IsInf(baseTime, 1) {
			if math.IsInf(t, 1) {
				return 0
			}
			return -1
		}
		return (t - baseTime) / baseTime
	}

	for round := 0; round < opts.MaxRounds; round++ {
		// RIP_i: relative improvement from eliminating flag i alone,
		// measured for every remaining flag as one batch.
		var flags []int
		var scan []flagspec.CV
		for i := 0; i < n; i++ {
			if !eliminated[i] {
				flags = append(flags, i)
				scan = append(scan, base.With(i, space.Flags[i].Default))
			}
		}
		ts, ok := measured(scan...)
		if !ok {
			return next
		}
		type ripEntry struct {
			flag int
			v, t float64
		}
		var negatives []ripEntry
		for j, t := range ts {
			if r := rip(t); r < -opts.Epsilon {
				negatives = append(negatives, ripEntry{flag: flags[j], v: r, t: t})
			}
		}
		if len(negatives) == 0 {
			break
		}
		sort.SliceStable(negatives, func(a, b int) bool { return negatives[a].v < negatives[b].v })

		// Eliminate the most harmful flag unconditionally (its time is
		// the scan's), then walk the remaining negatives in order, one
		// CV at a time, keeping each elimination only if it still
		// improves on the updated baseline (the "combined" part).
		first := negatives[0].flag
		base = base.With(first, space.Flags[first].Default)
		eliminated[first] = true
		baseTime = negatives[0].t
		for _, cand := range negatives[1:] {
			trial := base.With(cand.flag, space.Flags[cand.flag].Default)
			ts, ok := measured(trial)
			if !ok {
				return next
			}
			if rip(ts[0]) < -opts.Epsilon {
				base = trial
				baseTime = ts[0]
				eliminated[cand.flag] = true
			}
		}
	}
	return nil
}

// Eliminated reports which flags a final CV has at default relative to
// the all-alternatives start (diagnostic helper for the Fig. 1 analysis).
func Eliminated(space *flagspec.Space, cv flagspec.CV) []string {
	var out []string
	for i, f := range space.Flags {
		if cv.Value(i) == f.Default && space.AltValue(i) != f.Default {
			out = append(out, f.Name)
		}
	}
	return out
}

package opentuner

import (
	"math"
	"sort"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/xrand"
)

type individual struct {
	x    []float64
	cost float64
}

// ---- differential evolution ----

type diffEvolution struct {
	space   *flagspec.Space
	pop     []individual
	pending int // population index the last proposal targets
	f, cr   float64
}

func newDiffEvolution(s *flagspec.Space, popSize int, r *xrand.Rand) *diffEvolution {
	de := &diffEvolution{space: s, f: 0.5, cr: 0.8}
	for i := 0; i < popSize; i++ {
		de.pop = append(de.pop, individual{x: s.Random(r).Encode(), cost: math.Inf(1)})
	}
	return de
}

func (de *diffEvolution) propose(r *xrand.Rand) flagspec.CV {
	n := len(de.pop)
	de.pending = r.Intn(n)
	a, b, c := r.Intn(n), r.Intn(n), r.Intn(n)
	target := de.pop[de.pending].x
	mutant := make([]float64, len(target))
	forced := r.Intn(len(target)) // at least one mutated coordinate
	for i := range mutant {
		if i == forced || r.Bool(de.cr) {
			mutant[i] = de.pop[a].x[i] + de.f*(de.pop[b].x[i]-de.pop[c].x[i])
		} else {
			mutant[i] = target[i]
		}
	}
	return de.space.Decode(mutant)
}

func (de *diffEvolution) tell(cv flagspec.CV, cost float64) {
	if cost < de.pop[de.pending].cost {
		de.pop[de.pending] = individual{x: cv.Encode(), cost: cost}
	}
}

// ---- Nelder–Mead simplex (ask/tell state machine) ----

type nmPhase int

const (
	nmInit nmPhase = iota
	nmReflect
	nmExpand
	nmContract
	nmShrink
)

type nelderMead struct {
	space   *flagspec.Space
	simplex []individual
	filled  int
	phase   nmPhase
	shrinkI int
	// scratch for the in-flight proposal
	reflected individual
	proposal  []float64
}

func newNelderMead(s *flagspec.Space, r *xrand.Rand) *nelderMead {
	nm := &nelderMead{space: s, phase: nmInit}
	for i := 0; i <= s.NumFlags(); i++ {
		nm.simplex = append(nm.simplex, individual{x: s.Random(r).Encode(), cost: math.Inf(1)})
	}
	return nm
}

func (nm *nelderMead) sortSimplex() {
	sort.SliceStable(nm.simplex, func(a, b int) bool { return nm.simplex[a].cost < nm.simplex[b].cost })
}

func (nm *nelderMead) centroid() []float64 {
	n := len(nm.simplex) - 1
	c := make([]float64, len(nm.simplex[0].x))
	for _, ind := range nm.simplex[:n] {
		for i, v := range ind.x {
			c[i] += v / float64(n)
		}
	}
	return c
}

func blend(a, b []float64, t float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + t*(b[i]-a[i])
	}
	return out
}

func (nm *nelderMead) propose(r *xrand.Rand) flagspec.CV {
	switch nm.phase {
	case nmInit:
		nm.proposal = nm.simplex[nm.filled].x
	case nmReflect:
		nm.sortSimplex()
		worst := nm.simplex[len(nm.simplex)-1]
		nm.proposal = blend(nm.centroid(), worst.x, -1.0) // reflection
	case nmExpand:
		worst := nm.simplex[len(nm.simplex)-1]
		nm.proposal = blend(nm.centroid(), worst.x, -2.0)
	case nmContract:
		worst := nm.simplex[len(nm.simplex)-1]
		nm.proposal = blend(nm.centroid(), worst.x, 0.5)
	case nmShrink:
		best := nm.simplex[0]
		nm.proposal = blend(best.x, nm.simplex[nm.shrinkI].x, 0.5)
	}
	return nm.space.Decode(nm.proposal)
}

func (nm *nelderMead) tell(cv flagspec.CV, cost float64) {
	point := individual{x: nm.proposal, cost: cost}
	last := len(nm.simplex) - 1
	switch nm.phase {
	case nmInit:
		nm.simplex[nm.filled].cost = cost
		nm.filled++
		if nm.filled > last {
			nm.phase = nmReflect
		}
	case nmReflect:
		nm.reflected = point
		switch {
		case cost < nm.simplex[0].cost:
			nm.phase = nmExpand
		case cost < nm.simplex[last-1].cost:
			nm.simplex[last] = point
			nm.phase = nmReflect
		default:
			nm.phase = nmContract
		}
	case nmExpand:
		if cost < nm.reflected.cost {
			nm.simplex[last] = point
		} else {
			nm.simplex[last] = nm.reflected
		}
		nm.phase = nmReflect
	case nmContract:
		if cost < nm.simplex[last].cost {
			nm.simplex[last] = point
			nm.phase = nmReflect
		} else {
			nm.phase = nmShrink
			nm.shrinkI = 1
		}
	case nmShrink:
		nm.simplex[nm.shrinkI] = point
		nm.shrinkI++
		if nm.shrinkI > last {
			nm.phase = nmReflect
		}
	}
}

// ---- Torczon-style pattern search ----

type torczon struct {
	space  *flagspec.Space
	center individual
	step   float64
	dim    int
	sign   float64
	moved  bool
	probe  []float64
}

func newTorczon(s *flagspec.Space, r *xrand.Rand) *torczon {
	return &torczon{
		space:  s,
		center: individual{x: s.Random(r).Encode(), cost: math.Inf(1)},
		step:   0.25,
		sign:   1,
	}
}

func (t *torczon) propose(r *xrand.Rand) flagspec.CV {
	x := append([]float64(nil), t.center.x...)
	x[t.dim] += t.sign * t.step
	t.probe = x
	return t.space.Decode(x)
}

func (t *torczon) tell(cv flagspec.CV, cost float64) {
	if cost < t.center.cost {
		t.center = individual{x: t.probe, cost: cost}
		t.moved = true
	}
	// Advance the pattern: +dim, -dim, next dim...
	if t.sign > 0 {
		t.sign = -1
		return
	}
	t.sign = 1
	t.dim++
	if t.dim >= len(t.center.x) {
		t.dim = 0
		if !t.moved {
			t.step /= 2 // full sweep without improvement: refine
			if t.step < 0.01 {
				t.step = 0.25 // restart the pattern
			}
		}
		t.moved = false
	}
}

// ---- genetic algorithm ----

type genetic struct {
	space *flagspec.Space
	pop   []individual
	last  flagspec.CV
}

func newGenetic(s *flagspec.Space, popSize int, r *xrand.Rand) *genetic {
	g := &genetic{space: s}
	for i := 0; i < popSize; i++ {
		g.pop = append(g.pop, individual{x: s.Random(r).Encode(), cost: math.Inf(1)})
	}
	return g
}

func (g *genetic) tournament(r *xrand.Rand) individual {
	a, b := g.pop[r.Intn(len(g.pop))], g.pop[r.Intn(len(g.pop))]
	if a.cost <= b.cost {
		return a
	}
	return b
}

func (g *genetic) propose(r *xrand.Rand) flagspec.CV {
	p1 := g.space.Decode(g.tournament(r).x)
	p2 := g.space.Decode(g.tournament(r).x)
	child := p1.Crossover(r, p2).Mutate(r, 2)
	g.last = child
	return child
}

func (g *genetic) tell(cv flagspec.CV, cost float64) {
	// Replace the current worst if the child improves on it.
	worst, wi := -math.MaxFloat64, 0
	for i, ind := range g.pop {
		if ind.cost > worst {
			worst, wi = ind.cost, i
		}
	}
	if cost < worst {
		g.pop[wi] = individual{x: cv.Encode(), cost: cost}
	}
}

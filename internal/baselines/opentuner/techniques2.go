package opentuner

import (
	"math"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/xrand"
)

// Additional ensemble members. OpenTuner ships "differential evolution,
// Torczon hillclimbers, Nelder-Mead and many others" (§4.2.1) — these two
// round out the "many others": a simulated annealer over the discrete
// space and a particle-swarm optimizer over the continuous relaxation.

// ---- simulated annealing ----

type annealer struct {
	space   *flagspec.Space
	current flagspec.CV
	cost    float64
	temp    float64
	cool    float64
	last    flagspec.CV
}

func newAnnealer(s *flagspec.Space, r *xrand.Rand) *annealer {
	return &annealer{
		space:   s,
		current: s.Random(r),
		cost:    math.Inf(1),
		temp:    0.10, // accept ~10% relative regressions initially
		cool:    0.995,
	}
}

func (a *annealer) propose(r *xrand.Rand) flagspec.CV {
	// Neighborhood: one to three flags re-sampled.
	a.last = a.current.Mutate(r, 1+r.Intn(3))
	return a.last
}

func (a *annealer) tell(cv flagspec.CV, cost float64) {
	accept := cost < a.cost
	if !accept && !math.IsInf(cost, 1) && !math.IsInf(a.cost, 1) {
		rel := (cost - a.cost) / a.cost
		// Deterministic Metropolis-style gate: hash the pair of costs so
		// tell() needs no RNG plumbing yet stays reproducible.
		u := float64(xrand.Combine(math.Float64bits(cost), math.Float64bits(a.cost))>>11) / (1 << 53)
		accept = u < math.Exp(-rel/a.temp)
	}
	if accept {
		a.current, a.cost = cv, cost
	}
	a.temp *= a.cool
	if a.temp < 0.001 {
		a.temp = 0.001
	}
}

// ---- particle swarm ----

type particle struct {
	pos, vel, best []float64
	bestCost       float64
}

type swarm struct {
	space      *flagspec.Space
	particles  []particle
	globalBest []float64
	globalCost float64
	next       int
	inFlight   int
}

func newSwarm(s *flagspec.Space, size int, r *xrand.Rand) *swarm {
	sw := &swarm{space: s, globalCost: math.Inf(1)}
	for i := 0; i < size; i++ {
		pos := s.Random(r).Encode()
		vel := make([]float64, len(pos))
		for d := range vel {
			vel[d] = r.Range(-0.2, 0.2)
		}
		sw.particles = append(sw.particles, particle{
			pos: pos, vel: vel,
			best:     append([]float64(nil), pos...),
			bestCost: math.Inf(1),
		})
	}
	sw.globalBest = append([]float64(nil), sw.particles[0].pos...)
	return sw
}

func (sw *swarm) propose(r *xrand.Rand) flagspec.CV {
	sw.inFlight = sw.next
	p := &sw.particles[sw.next]
	sw.next = (sw.next + 1) % len(sw.particles)
	const (
		inertia   = 0.7
		cognitive = 1.4
		social    = 1.4
	)
	for d := range p.pos {
		p.vel[d] = inertia*p.vel[d] +
			cognitive*r.Float64()*(p.best[d]-p.pos[d]) +
			social*r.Float64()*(sw.globalBest[d]-p.pos[d])
		if p.vel[d] > 0.5 {
			p.vel[d] = 0.5
		}
		if p.vel[d] < -0.5 {
			p.vel[d] = -0.5
		}
		p.pos[d] += p.vel[d]
		// Reflect at the unit box.
		if p.pos[d] < 0 {
			p.pos[d] = -p.pos[d]
		}
		if p.pos[d] > 0.999999 {
			p.pos[d] = 2*0.999999 - p.pos[d]
		}
	}
	return sw.space.Decode(p.pos)
}

func (sw *swarm) tell(cv flagspec.CV, cost float64) {
	p := &sw.particles[sw.inFlight]
	if cost < p.bestCost {
		p.bestCost = cost
		p.best = append(p.best[:0], p.pos...)
	}
	if cost < sw.globalCost {
		sw.globalCost = cost
		sw.globalBest = append(sw.globalBest[:0], p.pos...)
	}
}

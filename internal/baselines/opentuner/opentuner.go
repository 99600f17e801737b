// Package opentuner reimplements the slice of OpenTuner (Ansel et al.,
// PACT'14) that the paper compares against in §4.2: an ensemble of search
// techniques — differential evolution, Nelder–Mead, a Torczon-style
// pattern search, a genetic algorithm, and uniform random — coordinated by
// the multi-armed-bandit meta-technique ("AUC Bandit") that allocates each
// evaluation to the technique with the best recent record of producing new
// global bests. The paper runs it for 1000 test iterations on the same CV
// space as FuncyTuner; here it is a search technique that a whole-program
// core.Session runs, one evaluation per Suggest.
package opentuner

import (
	"math"

	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/search"
	"funcytuner/internal/xrand"
)

// member is the ask/tell interface every ensemble member implements.
type member interface {
	// propose returns the next CV this member wants evaluated.
	propose(r *xrand.Rand) flagspec.CV
	// tell reports the measured cost of a proposed CV.
	tell(cv flagspec.CV, cost float64)
}

// ensemble is OpenTuner's search as a technique on a whole-program
// session: every assembly is one CV.
type ensemble struct {
	r       *xrand.Rand
	members []member
	bandit  *aucBandit
	best    float64

	issued int
	arm    int         // member that proposed the newest suggestion
	cv     flagspec.CV // the newest suggestion
	t      float64     // its measured time
}

// New builds the ensemble for sess's flag space on the session's
// "search/opentuner" stream.
func New(sess *core.Session) search.Technique {
	space := sess.Toolchain.Space
	r := sess.Rand("search/opentuner")
	members := []member{
		&randomTech{space},
		newDiffEvolution(space, 20, r.Split("de-init", 0)),
		newNelderMead(space, r.Split("nm-init", 0)),
		newTorczon(space, r.Split("pt-init", 0)),
		newGenetic(space, 20, r.Split("ga-init", 0)),
		newAnnealer(space, r.Split("sa-init", 0)),
		newSwarm(space, 12, r.Split("ps-init", 0)),
	}
	return &ensemble{r: r, members: members, bandit: newAUCBandit(len(members), 50, 0.05), best: math.Inf(1)}
}

func (e *ensemble) Name() string  { return "OpenTuner" }
func (e *ensemble) Phase() string { return "opentuner" }

// Suggest replays the newest observation into the member that proposed
// it and into the bandit, then returns one proposal: the bandit's next
// choice depends on every earlier time, so the ensemble is sequential.
func (e *ensemble) Suggest(n int) [][]flagspec.CV {
	if n < 1 {
		return nil
	}
	if e.issued > 0 {
		e.members[e.arm].tell(e.cv, e.t)
		improved := e.t < e.best
		if improved {
			e.best = e.t
		}
		e.bandit.reward(e.arm, improved)
	}
	e.arm = e.bandit.choose(e.r)
	e.cv = e.members[e.arm].propose(e.r.Split("propose", e.issued))
	e.issued++
	return [][]flagspec.CV{{e.cv}}
}

// Observe records the newest suggestion's time; Suggest replays it.
func (e *ensemble) Observe(_ int, _ []flagspec.CV, t float64) { e.t = t }

// ---- AUC bandit meta-technique ----

// aucBandit keeps a sliding window of "produced a new global best" events
// per technique and scores each arm by area-under-curve credit (recent
// successes weigh more) plus an exploration bonus.
type aucBandit struct {
	window  int
	c       float64
	history [][]bool
	uses    []int
	t       int
}

func newAUCBandit(arms, window int, c float64) *aucBandit {
	return &aucBandit{
		window:  window,
		c:       c,
		history: make([][]bool, arms),
		uses:    make([]int, arms),
	}
}

func (b *aucBandit) choose(r *xrand.Rand) int {
	b.t++
	bestScore, best := math.Inf(-1), 0
	order := r.Perm(len(b.history)) // random tie-breaking
	for _, i := range order {
		if b.uses[i] == 0 {
			return i // try every arm once
		}
		score := b.auc(i) + b.c*math.Sqrt(2*math.Log(float64(b.t))/float64(b.uses[i]))
		if score > bestScore {
			bestScore, best = score, i
		}
	}
	return best
}

// auc computes the rank-weighted success rate over the window: a success
// at the most recent slot counts len(window) times more than the oldest.
func (b *aucBandit) auc(arm int) float64 {
	h := b.history[arm]
	if len(h) == 0 {
		return 0
	}
	var num, den float64
	for i, ok := range h {
		w := float64(i + 1)
		den += w
		if ok {
			num += w
		}
	}
	return num / den
}

func (b *aucBandit) reward(arm int, success bool) {
	b.uses[arm]++
	h := append(b.history[arm], success)
	if len(h) > b.window {
		h = h[1:]
	}
	b.history[arm] = h
}

// ---- uniform random ----

type randomTech struct{ space *flagspec.Space }

func (t *randomTech) propose(r *xrand.Rand) flagspec.CV { return t.space.Random(r) }
func (t *randomTech) tell(cv flagspec.CV, cost float64) {}

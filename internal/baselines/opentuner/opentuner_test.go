package opentuner

import (
	"context"
	"fmt"
	"math"
	"testing"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
	"funcytuner/internal/xrand"
)

// run tunes app for budget evaluations on a noisy whole-program
// session.
func run(t *testing.T, app string, budget int) *core.Result {
	t.Helper()
	tc := compiler.NewToolchain(flagspec.ICC())
	prog := apps.MustGet(app)
	m := arch.Broadwell()
	sess, err := core.NewSession(tc, prog, ir.WholeProgram(prog), m, apps.TuningInput(app, m),
		core.Config{Samples: budget, TopX: 1, Seed: "ot-test", Noisy: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), New(sess))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTuneImprovesOverO3(t *testing.T) {
	res := run(t, apps.CloverLeaf, 300)
	if res.Algorithm != "OpenTuner" {
		t.Errorf("name %q", res.Algorithm)
	}
	if res.Speedup < 1.0 {
		t.Errorf("OpenTuner speedup %.3f below 1.0 with 300 iterations", res.Speedup)
	}
	if res.Evaluations != 300 {
		t.Errorf("spent %d evaluations of a budget of 300", res.Evaluations)
	}
}

func TestTuneDeterministic(t *testing.T) {
	r1 := run(t, apps.Swim, 120)
	r2 := run(t, apps.Swim, 120)
	if r1.Speedup != r2.Speedup || !r1.ModuleCVs[0].Equal(r2.ModuleCVs[0]) {
		t.Error("same-seed OpenTuner runs differ")
	}
}

func TestBanditTriesEveryArmFirst(t *testing.T) {
	b := newAUCBandit(4, 10, 0.05)
	r := xrand.NewFromString("bandit")
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		arm := b.choose(r)
		if seen[arm] {
			t.Fatalf("arm %d chosen twice before all arms tried", arm)
		}
		seen[arm] = true
		b.reward(arm, false)
	}
}

func TestBanditPrefersSuccessfulArm(t *testing.T) {
	b := newAUCBandit(2, 20, 0.01)
	r := xrand.NewFromString("bandit2")
	// Arm 0 always succeeds, arm 1 never does.
	for i := 0; i < 40; i++ {
		arm := b.choose(r)
		b.reward(arm, arm == 0)
	}
	wins := 0
	for i := 0; i < 50; i++ {
		if b.choose(r) == 0 {
			wins++
		}
		b.reward(0, true)
	}
	if wins < 40 {
		t.Errorf("bandit chose the winning arm only %d/50 times", wins)
	}
}

func TestBanditWindowSlides(t *testing.T) {
	b := newAUCBandit(1, 3, 0.05)
	for i := 0; i < 10; i++ {
		b.reward(0, true)
	}
	if len(b.history[0]) != 3 {
		t.Errorf("window length %d, want 3", len(b.history[0]))
	}
	if auc := b.auc(0); math.Abs(auc-1) > 1e-9 {
		t.Errorf("all-success AUC = %v", auc)
	}
	b.reward(0, false)
	if auc := b.auc(0); auc >= 1 {
		t.Error("recent failure should lower AUC")
	}
}

func TestTechniquesProposeValidCVs(t *testing.T) {
	space := flagspec.ICC()
	r := xrand.NewFromString("tech")
	techs := []member{
		&randomTech{space},
		newDiffEvolution(space, 8, r.Split("de", 0)),
		newNelderMead(space, r.Split("nm", 0)),
		newTorczon(space, r.Split("pt", 0)),
		newGenetic(space, 8, r.Split("ga", 0)),
		newAnnealer(space, r.Split("sa", 0)),
		newSwarm(space, 6, r.Split("ps", 0)),
	}
	for _, tech := range techs {
		for i := 0; i < 80; i++ {
			cv := tech.propose(r.Split(fmt.Sprintf("%T", tech), i))
			if cv.Space() != space {
				t.Fatalf("%T proposed CV from wrong space", tech)
			}
			// Fake a cost and feed it back.
			tech.tell(cv, 10+float64(i%7))
		}
	}
}

func TestDifferentialEvolutionKeepsImprovements(t *testing.T) {
	space := flagspec.ICC()
	r := xrand.NewFromString("de-keep")
	de := newDiffEvolution(space, 5, r.Split("init", 0))
	cv := de.propose(r)
	de.tell(cv, 1.0)
	if de.pop[de.pending].cost != 1.0 {
		t.Error("improvement not stored")
	}
	// A worse result for the same target must not replace it.
	target := de.pending
	for de.pending != target {
		cv = de.propose(r)
	}
	de.tell(cv, 99.0)
	if de.pop[target].cost == 99.0 {
		t.Error("regression overwrote a better individual")
	}
}

func TestNelderMeadPhaseMachine(t *testing.T) {
	space := flagspec.ICC()
	r := xrand.NewFromString("nm-phase")
	nm := newNelderMead(space, r.Split("init", 0))
	// Fill the simplex.
	for i := 0; i <= space.NumFlags(); i++ {
		cv := nm.propose(r)
		nm.tell(cv, float64(100+i))
	}
	if nm.phase != nmReflect {
		t.Fatalf("phase after init = %v, want reflect", nm.phase)
	}
	// A best-ever reflection moves to expand.
	cv := nm.propose(r)
	nm.tell(cv, 1.0)
	if nm.phase != nmExpand {
		t.Fatalf("phase after winning reflection = %v, want expand", nm.phase)
	}
	cv = nm.propose(r)
	nm.tell(cv, 0.5)
	if nm.phase != nmReflect {
		t.Fatalf("phase after expansion = %v, want reflect", nm.phase)
	}
}

func TestTorczonShrinksOnFailure(t *testing.T) {
	space := flagspec.ICC()
	r := xrand.NewFromString("pt-shrink")
	pt := newTorczon(space, r.Split("init", 0))
	pt.center.cost = 0.001 // nothing will beat it
	step0 := pt.step
	n := space.NumFlags()
	for i := 0; i < 2*n; i++ { // one full sweep: ± per dimension
		cv := pt.propose(r)
		pt.tell(cv, 1e9)
	}
	if pt.step >= step0 {
		t.Errorf("step did not shrink after a failed sweep: %v", pt.step)
	}
}

func TestAnnealerAcceptsImprovements(t *testing.T) {
	space := flagspec.ICC()
	r := xrand.NewFromString("sa-accept")
	sa := newAnnealer(space, r.Split("init", 0))
	cv := sa.propose(r)
	sa.tell(cv, 5.0)
	if sa.cost != 5.0 {
		t.Fatal("first (improving) result not accepted")
	}
	// A large regression at a low temperature must be rejected.
	sa.temp = 0.001
	cv = sa.propose(r)
	sa.tell(cv, 50.0)
	if sa.cost == 50.0 {
		t.Error("huge regression accepted at near-zero temperature")
	}
}

func TestAnnealerCools(t *testing.T) {
	space := flagspec.ICC()
	r := xrand.NewFromString("sa-cool")
	sa := newAnnealer(space, r.Split("init", 0))
	t0 := sa.temp
	for i := 0; i < 100; i++ {
		cv := sa.propose(r)
		sa.tell(cv, 10+float64(i%3))
	}
	if sa.temp >= t0 {
		t.Error("temperature did not cool")
	}
}

func TestSwarmPositionsStayInBox(t *testing.T) {
	space := flagspec.ICC()
	r := xrand.NewFromString("ps-box")
	sw := newSwarm(space, 5, r.Split("init", 0))
	for i := 0; i < 200; i++ {
		cv := sw.propose(r)
		if cv.Space() != space {
			t.Fatal("swarm proposed foreign CV")
		}
		sw.tell(cv, 10-float64(i)*0.01)
		for _, p := range sw.particles {
			for d, v := range p.pos {
				if v < -1e-9 || v > 1.0 {
					t.Fatalf("particle coordinate %d out of box: %v", d, v)
				}
			}
		}
	}
}

func TestSwarmTracksGlobalBest(t *testing.T) {
	space := flagspec.ICC()
	r := xrand.NewFromString("ps-best")
	sw := newSwarm(space, 4, r.Split("init", 0))
	costs := []float64{9, 7, 8, 3, 5, 4}
	for _, c := range costs {
		cv := sw.propose(r)
		sw.tell(cv, c)
	}
	if sw.globalCost != 3 {
		t.Errorf("global best %v, want 3", sw.globalCost)
	}
}

// Suggest replays the newest observation into the bandit (and the member
// that proposed it) before it proposes again: one proposal per call.
func TestEnsembleReplaysNewestObservation(t *testing.T) {
	tc := compiler.NewToolchain(flagspec.ICC())
	prog := apps.MustGet(apps.Swim)
	m := arch.Broadwell()
	sess, err := core.NewSession(tc, prog, ir.WholeProgram(prog), m, apps.TuningInput(apps.Swim, m),
		core.Config{Samples: 10, TopX: 1, Seed: "ot-test"})
	if err != nil {
		t.Fatal(err)
	}
	e := New(sess).(*ensemble)
	for k := 0; k < 10; k++ {
		batch := e.Suggest(5)
		if len(batch) != 1 || len(batch[0]) != 1 {
			t.Fatalf("suggestion %d: batch %v, want one single-CV assembly", k, batch)
		}
		uses := 0
		for _, u := range e.bandit.uses {
			uses += u
		}
		if uses != k {
			t.Fatalf("after %d observations the bandit was rewarded %d times", k, uses)
		}
		e.Observe(k, batch[0], float64(100-k)) // every time a new best
	}
	if e.best != 100-8 {
		t.Errorf("best replayed time %v, want %v", e.best, 100-8)
	}
	if e.Suggest(0) != nil {
		t.Error("Suggest(0) returned a proposal")
	}
}

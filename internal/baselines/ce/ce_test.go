package ce

import (
	"context"
	"math"
	"testing"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
)

// tune runs CE on app over space on a noisy whole-program session with
// a budget CE never exhausts.
func tune(t *testing.T, space *flagspec.Space, app string, opts Options) *core.Result {
	t.Helper()
	tc := compiler.NewToolchain(space)
	prog := apps.MustGet(app)
	m := arch.Broadwell()
	sess, err := core.NewSession(tc, prog, ir.WholeProgram(prog), m, apps.TuningInput(app, m),
		core.Config{Samples: 1000, TopX: 1, Seed: "ce-test", Noisy: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), New(space, opts))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCEBothFlavors(t *testing.T) {
	for _, space := range []*flagspec.Space{flagspec.GCC(), flagspec.ICC()} {
		res := tune(t, space, apps.CloverLeaf, DefaultOptions())
		// Fig. 1: CE lands near the O3 baseline — never a large win.
		if res.Speedup < 0.85 || res.Speedup > 1.10 {
			t.Errorf("%v CE speedup %.3f outside the Fig. 1 band", space.Flavor, res.Speedup)
		}
		if res.Evaluations == 0 {
			t.Error("CE consumed no evaluations")
		}
	}
}

func TestCEEliminatesHarmfulFlags(t *testing.T) {
	res := tune(t, flagspec.ICC(), apps.Swim, DefaultOptions())
	elim := Eliminated(flagspec.ICC(), res.ModuleCVs[0])
	if len(elim) == 0 {
		t.Error("CE eliminated nothing from the all-aggressive start")
	}
	// The O level alternative is O1 — clearly harmful, must be eliminated.
	found := false
	for _, name := range elim {
		if name == "O" {
			found = true
		}
	}
	if !found {
		t.Errorf("CE kept O1; eliminated only %v", elim)
	}
}

func TestCEDeterministic(t *testing.T) {
	a := tune(t, flagspec.ICC(), apps.AMG, DefaultOptions())
	b := tune(t, flagspec.ICC(), apps.AMG, DefaultOptions())
	if a.Speedup != b.Speedup || !a.ModuleCVs[0].Equal(b.ModuleCVs[0]) {
		t.Error("CE not deterministic")
	}
}

func TestCERespectsMaxRounds(t *testing.T) {
	res := tune(t, flagspec.ICC(), apps.Swim, Options{MaxRounds: 1, Epsilon: 0.004})
	// One round: ≤ 1 + N (RIP scan) + eliminations.
	n := flagspec.ICC().NumFlags()
	if res.Evaluations > 2*n+2 {
		t.Errorf("single-round CE used %d evaluations", res.Evaluations)
	}
}

// A budget smaller than a round cuts the scan short: CE spends exactly
// the budget and answers the best CV it measured.
func TestCEStopsAtBudget(t *testing.T) {
	tc := compiler.NewToolchain(flagspec.ICC())
	prog := apps.MustGet(apps.Swim)
	m := arch.Broadwell()
	sess, err := core.NewSession(tc, prog, ir.WholeProgram(prog), m, apps.TuningInput(apps.Swim, m),
		core.Config{Samples: 10, TopX: 1, Seed: "ce-test", Noisy: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), New(tc.Space, DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 10 {
		t.Errorf("spent %d evaluations of a budget of 10", res.Evaluations)
	}
}

// A crashed aggressive start makes any runnable elimination a full
// improvement; a scan in which nothing improves ends the search.
func TestCECrashedStart(t *testing.T) {
	space := flagspec.ICC()
	tech := New(space, DefaultOptions())
	observe := func(k0 int, batch [][]flagspec.CV, times func(i int) float64) {
		for i, a := range batch {
			tech.Observe(k0+i, a, times(i))
		}
	}
	start := tech.Suggest(100)
	if len(start) != 1 {
		t.Fatalf("start batch of %d", len(start))
	}
	observe(0, start, func(int) float64 { return math.Inf(1) })
	scan := tech.Suggest(100)
	if len(scan) != space.NumFlags() {
		t.Fatalf("scan batch of %d, want %d", len(scan), space.NumFlags())
	}
	// Only eliminating flag 3 runs.
	observe(1, scan, func(i int) float64 {
		if i == 3 {
			return 10
		}
		return math.Inf(1)
	})
	next := tech.Suggest(100)
	if len(next) != space.NumFlags()-1 {
		t.Fatalf("second scan batch of %d, want %d", len(next), space.NumFlags()-1)
	}
	if got := next[0][0].Value(3); got != space.Flags[3].Default {
		t.Errorf("flag 3 at %d after its elimination, want default %d", got, space.Flags[3].Default)
	}
	observe(1+len(scan), next, func(int) float64 { return 10 })
	if b := tech.Suggest(100); len(b) != 0 {
		t.Errorf("search went on after a scan without improvement: %d suggestions", len(b))
	}
}

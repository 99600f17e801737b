package baselines

// The per-program baselines measure on a whole-program core.Session.
// These tests pin what they rely on from it.

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
	"funcytuner/internal/search"
	"funcytuner/internal/xrand"
)

func newSession(t *testing.T, app string, samples int, noisy bool) *core.Session {
	t.Helper()
	tc := compiler.NewToolchain(flagspec.ICC())
	prog := apps.MustGet(app)
	m := arch.Broadwell()
	sess, err := core.NewSession(tc, prog, ir.WholeProgram(prog), m, apps.TuningInput(app, m),
		core.Config{Samples: samples, TopX: 1, Seed: "test", Noisy: noisy})
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

// sampled is a technique issuing cvs in order.
func sampled(t *testing.T, cvs ...flagspec.CV) search.Technique {
	t.Helper()
	tech, err := search.NewRandom(search.Config{
		Pools: [][]flagspec.CV{cvs}, Budget: len(cvs), Rng: xrand.NewFromString("unused"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return tech
}

func TestMeasureTracksBest(t *testing.T) {
	sess := newSession(t, apps.Swim, 20, false)
	cvs := sess.Toolchain.Space.Sample(xrand.NewFromString("draws"), 20)
	res, err := sess.Run(context.Background(), sampled(t, cvs...))
	if err != nil {
		t.Fatal(err)
	}
	least := math.Inf(1)
	for _, cv := range cvs {
		v, err := sess.TrueTime([]flagspec.CV{cv})
		if err != nil {
			t.Fatal(err)
		}
		least = math.Min(least, v)
	}
	if res.BestMeasured != least {
		t.Errorf("BestMeasured = %v, want %v", res.BestMeasured, least)
	}
	if res.Evaluations != 20 {
		t.Errorf("Evaluations = %d", res.Evaluations)
	}
	if len(res.Trace) != 20 {
		t.Fatalf("trace len %d", len(res.Trace))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] > res.Trace[i-1] {
			t.Fatal("trace not non-increasing")
		}
	}
}

func TestBaselineStable(t *testing.T) {
	sess := newSession(t, apps.Swim, 1, true)
	a, err := sess.BaselineTime()
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sess.BaselineTime()
	if a != b || a <= 0 {
		t.Errorf("baseline unstable: %v vs %v", a, b)
	}
}

func TestFinishComputesSpeedup(t *testing.T) {
	sess := newSession(t, apps.Swim, 1, false)
	res, err := sess.Run(context.Background(), sampled(t, sess.Toolchain.Space.Baseline()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Speedup-1.0) > 1e-9 {
		t.Errorf("baseline CV speedup = %v, want 1.0", res.Speedup)
	}
	if res.Algorithm != "Random" {
		t.Errorf("name = %q", res.Algorithm)
	}
}

func TestDeterministicAcrossSessions(t *testing.T) {
	cv := flagspec.ICC().Baseline().With(flagspec.IccPrefetch, 4)
	var got []float64
	for i := 0; i < 2; i++ {
		sess := newSession(t, apps.CloverLeaf, 1, true)
		res, err := sess.Run(context.Background(), sampled(t, cv))
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, res.BestMeasured)
	}
	if got[0] != got[1] {
		t.Error("same-seed sessions disagree")
	}
}

func TestTrueTimeNoiseFree(t *testing.T) {
	sess := newSession(t, apps.CloverLeaf, 1, true)
	cv := []flagspec.CV{sess.Toolchain.Space.Baseline()}
	a, err := sess.TrueTime(cv)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := sess.TrueTime(cv)
	if a != b {
		t.Error("TrueTime should be noise-free and stable")
	}
}

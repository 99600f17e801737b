package search_test

import (
	"math"
	"testing"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/search"
	"funcytuner/internal/search/bo"
	"funcytuner/internal/search/ga"
	"funcytuner/internal/xrand"
)

// techniques lists every built-in constructor so the property tests
// below run identically over CFR, BO, GA, FR and Random. seeded marks
// the techniques that propose Config.Seeds first.
var techniques = []struct {
	name   string
	make   func(search.Config) (search.Technique, error)
	seeded bool
}{
	{"cfr", search.NewCFR, false},
	{"bo", bo.New, true},
	{"ga", ga.New, true},
	{"fr", search.NewFR, false},
	{"random", search.NewRandom, false},
}

// testConfig builds a small but realistic Config: 3 modules over the
// GCC space with pools of different sizes, seeded deterministically.
func testConfig(t *testing.T, seedKey string, budget int, seeds [][]flagspec.CV) search.Config {
	t.Helper()
	space := flagspec.GCC()
	rng := xrand.NewFromString("pools/" + seedKey)
	pools := [][]flagspec.CV{
		space.Sample(rng, 6),
		space.Sample(rng, 4),
		space.Sample(rng, 9),
	}
	return search.Config{
		Pools:  pools,
		Budget: budget,
		Rng:    xrand.NewFromString("technique/" + seedKey),
		Seeds:  seeds,
	}
}

// objective is a deterministic synthetic runtime: a smooth function of
// the assembly's CV keys, with a sprinkling of +Inf "crashes" so every
// technique sees failed evaluations too.
func objective(k int, assembly []flagspec.CV) float64 {
	var h xrand.Hasher
	for _, cv := range assembly {
		h.Add(cv.Key())
	}
	sum := h.Sum()
	if sum%17 == 0 {
		return math.Inf(1)
	}
	return 10 + float64(sum%1000)/100
}

// drive runs a technique to budget exhaustion, returning every
// suggested assembly in issue order. It asserts the core interface
// contract along the way: batches never exceed the requested size, the
// total never exceeds the budget, and an empty batch is terminal.
func drive(t *testing.T, tech search.Technique, cfg search.Config, batch int) [][]flagspec.CV {
	t.Helper()
	var all [][]flagspec.CV
	k := 0
	for {
		got := tech.Suggest(batch)
		if len(got) == 0 {
			break
		}
		if len(got) > batch {
			t.Fatalf("%s: Suggest(%d) returned %d assemblies", tech.Name(), batch, len(got))
		}
		for _, a := range got {
			tech.Observe(k, a, objective(k, a))
			k++
		}
		all = append(all, got...)
	}
	if len(all) > cfg.Budget {
		t.Fatalf("%s: issued %d assemblies, budget %d", tech.Name(), len(all), cfg.Budget)
	}
	if got := tech.Suggest(batch); len(got) != 0 {
		t.Fatalf("%s: Suggest after exhaustion returned %d assemblies", tech.Name(), len(got))
	}
	return all
}

// assemblyKeys folds an assembly into one comparable fingerprint.
func assemblyKeys(a []flagspec.CV) uint64 {
	var h xrand.Hasher
	h.Add(uint64(len(a)))
	for _, cv := range a {
		h.Add(cv.Key())
	}
	return h.Sum()
}

// Every suggested assembly must have exactly one CV per module, and
// every CV must be a well-formed point of the flag space (techniques
// may leave the pruned pools via mutation, but never the space).
func TestSuggestStaysInsideFlagSpace(t *testing.T) {
	space := flagspec.GCC()
	for _, tc := range techniques {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, "in-space", 120, nil)
			tech, err := tc.make(cfg)
			if err != nil {
				t.Fatal(err)
			}
			all := drive(t, tech, cfg, 16)
			if len(all) != cfg.Budget {
				t.Fatalf("issued %d assemblies, want the full budget %d", len(all), cfg.Budget)
			}
			for k, a := range all {
				if len(a) != len(cfg.Pools) {
					t.Fatalf("assembly %d has %d modules, want %d", k, len(a), len(cfg.Pools))
				}
				for mi, cv := range a {
					if cv.IsZero() {
						t.Fatalf("assembly %d module %d: zero CV", k, mi)
					}
					if cv.Space() != space {
						t.Fatalf("assembly %d module %d: CV from a foreign space", k, mi)
					}
					// Round-trip through the space's parser: a CV outside
					// the space cannot survive String -> Parse -> Key.
					back, err := space.Parse(cv.String())
					if err != nil {
						t.Fatalf("assembly %d module %d: %v", k, mi, err)
					}
					if back.Key() != cv.Key() {
						t.Fatalf("assembly %d module %d: parse round-trip changed the CV", k, mi)
					}
				}
			}
		})
	}
}

// Two technique instances with identical configs must issue the same
// sequence when driven with the same observations, regardless of batch
// size boundaries.
func TestDeterministicPerSeed(t *testing.T) {
	for _, tc := range techniques {
		t.Run(tc.name, func(t *testing.T) {
			run := func(batch int) []uint64 {
				cfg := testConfig(t, "determinism", 90, nil)
				tech, err := tc.make(cfg)
				if err != nil {
					t.Fatal(err)
				}
				var keys []uint64
				for _, a := range drive(t, tech, cfg, batch) {
					keys = append(keys, assemblyKeys(a))
				}
				return keys
			}
			a, b := run(16), run(16)
			if len(a) != len(b) {
				t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("assembly %d differs between identical runs", i)
				}
			}
		})
	}
}

// Observe must only record: feeding the same batch of observations in a
// permuted order must leave the next Suggest batch unchanged. (Workers
// complete evaluations in scheduling order; that order must never leak
// into search decisions.)
func TestObserveOrderInsensitive(t *testing.T) {
	for _, tc := range techniques {
		t.Run(tc.name, func(t *testing.T) {
			mk := func() (search.Technique, search.Config) {
				cfg := testConfig(t, "order", 200, nil)
				tech, err := tc.make(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return tech, cfg
			}
			fwd, _ := mk()
			rev, _ := mk()

			// Burn through the initial design so the later batches are
			// decision-carrying (model-fit / breeding) for BO and GA.
			k := 0
			for round := 0; round < 6; round++ {
				a := fwd.Suggest(24)
				b := rev.Suggest(24)
				if len(a) != len(b) {
					t.Fatalf("round %d: batch sizes differ (%d vs %d)", round, len(a), len(b))
				}
				if len(a) == 0 {
					break
				}
				for i := range a {
					if assemblyKeys(a[i]) != assemblyKeys(b[i]) {
						t.Fatalf("round %d assembly %d diverged", round, i)
					}
				}
				times := make([]float64, len(a))
				for i := range a {
					times[i] = objective(k+i, a[i])
				}
				// Forward order on one instance, reverse order on the other.
				for i := 0; i < len(a); i++ {
					fwd.Observe(k+i, a[i], times[i])
				}
				for i := len(b) - 1; i >= 0; i-- {
					rev.Observe(k+i, b[i], times[i])
				}
				k += len(a)
			}
		})
	}
}

// Warm-start seeds must be proposed verbatim at the head of the initial
// design (BO) or founding population (GA) — that is the whole point of
// seeding from the results repository.
func TestWarmSeedsLeadInitialDesign(t *testing.T) {
	space := flagspec.GCC()
	srng := xrand.NewFromString("warm-seeds")
	seeds := [][]flagspec.CV{
		{space.Random(srng), space.Random(srng), space.Random(srng)},
		{space.Random(srng), space.Random(srng), space.Random(srng)},
	}
	for _, tc := range techniques {
		if !tc.seeded {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, "warm", 80, seeds)
			tech, err := tc.make(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first := tech.Suggest(len(seeds))
			if len(first) != len(seeds) {
				t.Fatalf("Suggest(%d) returned %d assemblies", len(seeds), len(first))
			}
			for si, want := range seeds {
				if assemblyKeys(first[si]) != assemblyKeys(want) {
					t.Fatalf("seed %d was not proposed verbatim at position %d", si, si)
				}
			}
		})
	}
}

// CFR must ignore warm seeds entirely: its draw sequence is pinned by
// the facade's golden-fingerprint test, so seeding it would be a
// correctness bug, not a feature.
func TestCFRIgnoresSeeds(t *testing.T) {
	space := flagspec.GCC()
	srng := xrand.NewFromString("cfr-seeds")
	seeds := [][]flagspec.CV{{space.Random(srng), space.Random(srng), space.Random(srng)}}

	bare := testConfig(t, "cfr-ignore", 40, nil)
	seeded := testConfig(t, "cfr-ignore", 40, seeds)
	a, err := search.NewCFR(bare)
	if err != nil {
		t.Fatal(err)
	}
	b, err := search.NewCFR(seeded)
	if err != nil {
		t.Fatal(err)
	}
	ba, bb := a.Suggest(40), b.Suggest(40)
	for i := range ba {
		if assemblyKeys(ba[i]) != assemblyKeys(bb[i]) {
			t.Fatalf("assembly %d differs with seeds present", i)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	valid := testConfig(t, "validate", 10, nil)
	cases := []struct {
		name string
		mut  func(c *search.Config)
	}{
		{"no-pools", func(c *search.Config) { c.Pools = nil }},
		{"empty-pool", func(c *search.Config) { c.Pools[1] = nil }},
		{"zero-budget", func(c *search.Config) { c.Budget = 0 }},
		{"nil-rng", func(c *search.Config) { c.Rng = nil }},
		{"short-seed", func(c *search.Config) { c.Seeds = [][]flagspec.CV{{c.Pools[0][0]}} }},
	}
	for _, tc := range cases {
		for _, mk := range techniques {
			t.Run(tc.name+"/"+mk.name, func(t *testing.T) {
				cfg := testConfig(t, "validate", 10, nil)
				tc.mut(&cfg)
				if _, err := mk.make(cfg); err == nil {
					t.Fatalf("constructor accepted invalid config")
				}
			})
		}
	}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

package funcytuner

import (
	"errors"
	"path/filepath"
	"testing"
)

// nonCFRTechniques are the pluggable techniques that must ride the same
// determinism/chaos machinery as CFR.
var nonCFRTechniques = []string{"bo", "ga"}

// BO and GA runs must be deterministic per seed and invariant across
// worker counts and cache on/off — the same guarantees the CFR
// fingerprint tests pin, exercised through the technique plumbing.
func TestTechniqueWorkerAndCacheInvariance(t *testing.T) {
	t.Parallel()
	m, _ := MachineByName("sandybridge")
	prog, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(Swim, m)
	for _, tech := range nonCFRTechniques {
		tech := tech
		t.Run(tech, func(t *testing.T) {
			t.Parallel()
			base := Options{
				Machine: m, Samples: 60, TopX: 8, Seed: "technique-invariance",
				Technique: tech, Faults: DefaultFaultRates(),
			}
			ref, err := NewTuner(base).Tune(prog, in)
			if err != nil {
				t.Fatal(err)
			}
			if ref.Best.Algorithm != map[string]string{"bo": "BO", "ga": "GA"}[tech] {
				t.Fatalf("Best.Algorithm = %q", ref.Best.Algorithm)
			}
			variants := []Options{base, base, base}
			variants[0].Workers = 4
			variants[1].CacheSize = -1 // cache off
			variants[2].Workers = 7
			variants[2].CacheSize = 2 // pathologically small cache
			for vi, opts := range variants {
				got, err := NewTuner(opts).Tune(prog, in)
				if err != nil {
					t.Fatal(err)
				}
				if got.Fingerprint() != ref.Fingerprint() {
					t.Fatalf("variant %d fingerprint %#x != reference %#x", vi, got.Fingerprint(), ref.Fingerprint())
				}
			}
		})
	}
}

// Killing a BO or GA campaign mid-run and resuming from its checkpoint
// must reproduce the uninterrupted run's fingerprint bit for bit, with
// faults injected — the technique carries no checkpoint state of its
// own, so deterministic replay must cover it completely.
func TestTechniqueKillResumeFingerprint(t *testing.T) {
	t.Parallel()
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	for _, tech := range nonCFRTechniques {
		tech := tech
		t.Run(tech, func(t *testing.T) {
			t.Parallel()
			base := Options{
				Machine: m, Samples: 70, TopX: 8, Seed: "technique-resume",
				Technique: tech, Faults: DefaultFaultRates(), CheckpointEvery: 5,
			}
			tune := func(tu *Tuner) (*Report, error) { return tu.Tune(prog, in) }
			want, err := tune(NewTuner(base))
			if err != nil {
				t.Fatal(err)
			}
			// Kill once in the collection phase and once mid-search, so
			// resume is proven from both sides of the technique handoff.
			checkKillResume(t, base, want, tune, 20, 55)
		})
	}
}

// An early-stopped BO campaign killed mid-run resumes to the
// uninterrupted fingerprint: the stop rule sees the checkpointed times
// exactly as it saw the measured ones.
func TestTechniqueAdaptiveKillResumeFingerprint(t *testing.T) {
	t.Parallel()
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	base := Options{
		Machine: m, Samples: 70, TopX: 8, Seed: "technique-adaptive-resume",
		Technique: "bo", Faults: DefaultFaultRates(), CheckpointEvery: 5,
	}
	adaptive := func(tu *Tuner) (*Report, error) {
		return tu.TuneAdaptive(prog, in, StopRule{MinEvaluations: 10, Patience: 12})
	}
	want, err := adaptive(NewTuner(base))
	if err != nil {
		t.Fatal(err)
	}
	if want.Best.Algorithm != "BO.adaptive" || want.Best.Evaluations >= base.Samples {
		t.Fatalf("want an early-stopped BO.adaptive run, got %s after %d evaluations",
			want.Best.Algorithm, want.Best.Evaluations)
	}
	checkKillResume(t, base, want, adaptive, 20, base.Samples+want.Best.Evaluations/2)
}

// checkKillResume kills run at each evaluation count in killAts and
// checks that resuming from the checkpoint reproduces want's fingerprint.
func checkKillResume(t *testing.T, base Options, want *Report, run func(*Tuner) (*Report, error), killAts ...int) {
	t.Helper()
	for _, killAt := range killAts {
		path := filepath.Join(t.TempDir(), "tune.ckpt")
		killOpts := base
		killOpts.Checkpoint = path
		killOpts.KillAfterEvals = killAt
		if _, err := run(NewTuner(killOpts)); !errors.Is(err, ErrKilled) {
			t.Fatalf("kill at %d: expected ErrKilled, got %v", killAt, err)
		}
		resumeOpts := base
		resumeOpts.Resume = path
		got, err := run(NewTuner(resumeOpts))
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("kill at %d: resumed fingerprint %#x != uninterrupted %#x",
				killAt, got.Fingerprint(), want.Fingerprint())
		}
	}
}

// Warm starts: a BO/GA run seeded from prior results in the repository
// must (a) actually consume the prior run's winner as a seed and
// diverge from the cold run, (b) be deterministic given the same
// repository contents, and (c) never be conflated with the cold run in
// the repository (the warm digest is part of the stored identity).
// Because every finished run is itself stored, the repository evolves
// between warm invocations — so determinism is asserted across two
// bit-identical repositories, not two runs over one mutating one.
func TestWarmStartFromRepo(t *testing.T) {
	t.Parallel()
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	repoA := filepath.Join(t.TempDir(), "repo-a")
	repoB := filepath.Join(t.TempDir(), "repo-b")

	// Populate both repositories with the same finished CFR run on the
	// same program/machine — the natural warm-start donor. Tuning is
	// deterministic, so the two repositories are bit-identical.
	for _, repo := range []string{repoA, repoB} {
		donor := Options{
			Machine: m, Samples: 60, TopX: 8, Seed: "warm-donor", RepoPath: repo,
		}
		if _, err := NewTuner(donor).Tune(prog, in); err != nil {
			t.Fatal(err)
		}
	}

	for _, tech := range nonCFRTechniques {
		t.Run(tech, func(t *testing.T) {
			// Every run below executes against both repositories so they
			// stay bit-identical for the next technique's iteration.
			runBoth := func(opts Options) (onA, onB *Report) {
				for i, repo := range []string{repoA, repoB} {
					o := opts
					o.RepoPath = repo
					rep, err := NewTuner(o).Tune(prog, in)
					if err != nil {
						t.Fatal(err)
					}
					if i == 0 {
						onA = rep
					} else {
						onB = rep
					}
				}
				return onA, onB
			}

			cold := Options{
				Machine: m, Samples: 50, TopX: 8, Seed: "warm-consumer",
				Technique: tech, SkipExist: true,
			}
			coldRep, coldRepB := runBoth(cold)
			if coldRep.Served || coldRepB.Served {
				t.Fatal("cold run claims to be repo-served")
			}

			warm := cold
			warm.WarmStart = true
			warmRep, warmRepB := runBoth(warm)
			if warmRep.Served {
				t.Fatal("warm run was served the cold run's entry: the warm digest is not in the repo key")
			}
			if warmRep.Metrics.Counter("search_warm_seeds") < 1 {
				t.Fatalf("warm run consumed no seeds (search_warm_seeds = %d)",
					warmRep.Metrics.Counter("search_warm_seeds"))
			}
			// The donor's winner leads the initial design, so the warm
			// search must actually diverge from the cold one. (No claim
			// about measured times: noise is re-drawn per evaluation, so
			// the donor's winner measures differently here.)
			if warmRep.Fingerprint() == coldRep.Fingerprint() {
				t.Fatal("warm-started run is bit-identical to the cold run: seeds had no effect")
			}
			// Same repository contents, same options: warm starts are
			// deterministic.
			if warmRep.Fingerprint() != warmRepB.Fingerprint() {
				t.Fatalf("warm fingerprints diverge across identical repositories: %#x != %#x",
					warmRep.Fingerprint(), warmRepB.Fingerprint())
			}

			// The cold entry's key does not include a warm digest, so it
			// is still servable after the warm runs were stored — and the
			// technique tag in the key serves the right technique's run.
			served, servedB := runBoth(cold)
			if !served.Served || !servedB.Served {
				t.Fatal("identical cold re-run was not served from the repository")
			}
			if served.Fingerprint() != coldRep.Fingerprint() {
				t.Fatalf("served cold fingerprint %#x != computed %#x", served.Fingerprint(), coldRep.Fingerprint())
			}
		})
	}
}

// A warm start against a repository with no usable donors must degrade
// to the cold run, not fail: the search is seedless, and the digest of
// zero seeds is 0, so the run identity is the cold run's.
func TestWarmStartEmptyRepo(t *testing.T) {
	t.Parallel()
	m, _ := MachineByName("opteron")
	prog, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(Swim, m)
	opts := Options{
		Machine: m, Samples: 40, TopX: 6, Seed: "warm-empty",
		Technique: "bo", RepoPath: filepath.Join(t.TempDir(), "repo"), WarmStart: true,
	}
	rep, err := NewTuner(opts).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Metrics.Counter("search_warm_seeds") != 0 {
		t.Fatalf("empty repo yielded %d warm seeds", rep.Metrics.Counter("search_warm_seeds"))
	}
	cold := opts
	cold.WarmStart = false
	cold.RepoPath = ""
	coldRep, err := NewTuner(cold).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if coldRep.Fingerprint() != rep.Fingerprint() {
		t.Fatalf("zero-seed warm run fingerprint %#x != cold run %#x", rep.Fingerprint(), coldRep.Fingerprint())
	}
}

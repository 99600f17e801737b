package main

import (
	"fmt"
	"math"
	"math/rand/v2"

	"funcytuner"
	"funcytuner/internal/server"
	"funcytuner/internal/xrand"
)

// A workload is one traffic mix submitted to an in-process funcytunerd.
// Its jobs come in rounds: each round is a seeded shuffle of the whole
// corpus (7 programs × 3 machines), so every pair appears equally often
// and every run times the same mix.
type workload struct {
	name string
	// why is the reason the workload exists: the layer it exercises and
	// the one it bypasses.
	why string
	// clients is the closed loop's concurrency: each client submits its
	// next job only after the previous one's result is in.
	clients int
	// samples and topx are every job's evaluation budget K and CFR
	// pruning width.
	samples, topx int
	// techniques lists the search techniques jobs rotate through ("" is
	// the CFR default).
	techniques []string
	// distributed jobs run their evaluations on the fleet: a journaled
	// coordinator and two in-process workers. jobWorkers is each such
	// job's evaluation window.
	distributed bool
	jobWorkers  int
	// repo turns on the results repository (skip-exist) and a shared
	// compile cache. Setup primes one spec per corpus pair; each round
	// resubmits every primed spec `resubmits` times, shuffled with one
	// fresh spec per pair.
	repo      bool
	resubmits int
	// roundSeconds is roughly the time one round, with its daemon's
	// set-up, takes on a 2-core machine. A run of S seconds times
	// round(S/roundSeconds) rounds: a fixed amount of work, so every run
	// of a seed submits the same jobs however fast the commit under test
	// is.
	roundSeconds float64
}

// rounds is the number of whole rounds a run of seconds times.
func (w *workload) rounds(seconds float64) int {
	return max(1, int(math.Round(seconds/w.roundSeconds)))
}

var workloads = []*workload{
	{
		name:         "local-cfr",
		why:          "default daemon path: paper-scale CFR jobs on the shared gate with checkpointing; no fleet, repo or bo/ga",
		clients:      2,
		samples:      1000,
		topx:         50,
		techniques:   []string{""},
		roundSeconds: 6.5,
	},
	{
		name:         "local-bo-ga",
		why:          "paper-scale bo and ga jobs: surrogate/GA suggest+observe and a checkpoint flush between batches of 16",
		clients:      2,
		samples:      1000,
		topx:         50,
		techniques:   []string{"bo", "ga"},
		roundSeconds: 6,
	},
	{
		name:         "fleet-journal",
		why:          "distributed CFR jobs: every evaluation crosses claimbatch/reportbatch over loopback and the journal fsync",
		clients:      1,
		samples:      250,
		topx:         25,
		techniques:   []string{""},
		distributed:  true,
		jobWorkers:   8,
		roundSeconds: 5.5,
	},
	{
		name:         "repo-rerun",
		why:          "repository-served resubmissions shuffled with fresh jobs on a warm shared compile cache",
		clients:      2,
		samples:      1000,
		topx:         50,
		techniques:   []string{""},
		repo:         true,
		resubmits:    3,
		roundSeconds: 11,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pair is one corpus entry.
type pair struct{ bench, machine string }

func corpus() []pair {
	var out []pair
	for _, b := range funcytuner.Benchmarks() {
		for _, m := range funcytuner.Machines() {
			out = append(out, pair{b, m.Name})
		}
	}
	return out
}

// job is one submission: the spec the program receives, plus what the
// harness knows about it.
type job struct {
	spec server.JobSpec
	// resubmit marks a repo-rerun resubmission of a primed spec, which
	// the repository must serve with the primed fingerprint.
	resubmit bool
}

// plan generates a workload's jobs for one seed. Everything it returns
// is a pure function of (workload, seed, scale).
type plan struct {
	w             *workload
	seed          uint64
	pairs         []pair
	samples, topx int
}

// newPlan builds the full-scale plan, or a reduced one: the first
// `pairs` corpus entries and budget K=samples with pruning width topx.
// Zero keeps the workload's own value.
func newPlan(w *workload, seed uint64, pairs, samples, topx int) *plan {
	p := &plan{w: w, seed: seed, pairs: corpus(), samples: w.samples, topx: w.topx}
	if pairs > 0 && pairs < len(p.pairs) {
		p.pairs = p.pairs[:pairs]
	}
	if samples > 0 {
		p.samples = samples
	}
	if topx > 0 {
		p.topx = topx
	}
	return p
}

func (p *plan) spec(pr pair, technique, seed string) server.JobSpec {
	return server.JobSpec{
		Benchmark:   pr.bench,
		Machine:     pr.machine,
		Samples:     p.samples,
		TopX:        p.topx,
		Seed:        seed,
		Technique:   technique,
		Distributed: p.w.distributed,
		Workers:     p.w.jobWorkers,
	}
}

// primed returns the specs repo-rerun's setup stores, one per pair.
func (p *plan) primed() []server.JobSpec {
	if !p.w.repo {
		return nil
	}
	var out []server.JobSpec
	for _, pr := range p.pairs {
		out = append(out, p.spec(pr, "", fmt.Sprintf("s%d-%s-prime-%s-%s", p.seed, p.w.name, pr.bench, pr.machine)))
	}
	return out
}

// warmup is the untimed job run before timing starts.
func (p *plan) warmup() server.JobSpec {
	return p.spec(p.pairs[0], p.w.techniques[0], fmt.Sprintf("s%d-%s-warmup", p.seed, p.w.name))
}

// round returns round r's jobs. Repo-rerun's fresh jobs, which take
// ten times as long as a serve, are spread evenly: each comes in a
// shuffled block with `resubmits` resubmissions, so every seed's round
// interleaves reads and writes the same way.
func (p *plan) round(r int) []job {
	rng := rand.New(rand.NewPCG(p.seed, xrand.Combine(xrand.HashString(p.w.name), uint64(r))))
	primed := p.primed()
	var fresh, resubs []job
	for pi, pr := range p.pairs {
		// Techniques rotate by pair and round, so two consecutive rounds
		// give every pair each technique once.
		tech := p.w.techniques[(pi+r)%len(p.w.techniques)]
		fresh = append(fresh, job{spec: p.spec(pr, tech, fmt.Sprintf("s%d-%s-r%d-%s-%s", p.seed, p.w.name, r, pr.bench, pr.machine))})
		for i := 0; i < p.w.resubmits; i++ {
			resubs = append(resubs, job{spec: primed[pi], resubmit: true})
		}
	}
	rng.Shuffle(len(fresh), func(i, k int) { fresh[i], fresh[k] = fresh[k], fresh[i] })
	rng.Shuffle(len(resubs), func(i, k int) { resubs[i], resubs[k] = resubs[k], resubs[i] })
	var jobs []job
	for b, f := range fresh {
		block := append([]job{f}, resubs[b*p.w.resubmits:(b+1)*p.w.resubmits]...)
		rng.Shuffle(len(block), func(i, k int) { block[i], block[k] = block[k], block[i] })
		jobs = append(jobs, block...)
	}
	return jobs
}

// specKey names a spec's outcome: every field that determines its
// fingerprint.
func specKey(sp server.JobSpec) string {
	tech := sp.Technique
	if tech == "" {
		tech = "cfr"
	}
	return fmt.Sprintf("%s/%s/%s/K%d/X%d/%s", sp.Benchmark, sp.Machine, tech, sp.Samples, sp.TopX, sp.Seed)
}

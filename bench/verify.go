package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"sync"

	"funcytuner"
	"funcytuner/internal/server"
	"funcytuner/internal/xrand"
)

// expectedFS holds the committed results: expected/seed-<n>.json maps
// specKey to the fingerprint and best speedup the in-process facade
// computes for that spec.
//
//go:embed expected
var expectedFS embed.FS

// expectRounds is how many rounds per workload `expect` records: as
// many as a default-length run, untraced or traced, times.
const expectRounds = 4

// recomputeSample is how many specs without a committed result verify
// re-runs in-process per workload.
const recomputeSample = 8

type expected struct {
	Fingerprint string  `json:"fingerprint"`
	Speedup     float64 `json:"speedup"`
}

// loadExpected returns the committed results for seed, or nil.
func loadExpected(seed uint64) (map[string]expected, error) {
	data, err := expectedFS.ReadFile(fmt.Sprintf("expected/seed-%d.json", seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var m map[string]expected
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("expected/seed-%d.json: %w", seed, err)
	}
	return m, nil
}

// tune runs spec through the in-process facade, with opts adding
// anything beyond the spec's own fields.
func tune(sp server.JobSpec, opts funcytuner.Options) (*funcytuner.Report, error) {
	prog, err := funcytuner.Benchmark(sp.Benchmark)
	if err != nil {
		return nil, err
	}
	m, err := funcytuner.MachineByName(sp.Machine)
	if err != nil {
		return nil, err
	}
	opts.Machine, opts.Samples, opts.TopX, opts.Technique, opts.Seed = m, sp.Samples, sp.TopX, sp.Technique, sp.Seed
	return funcytuner.NewTuner(opts).Tune(prog, funcytuner.TuningInput(sp.Benchmark, m))
}

// recompute runs spec through the in-process facade only: no server,
// fleet, checkpoint or repository.
func recompute(sp server.JobSpec) (expected, error) {
	rep, err := tune(sp, funcytuner.Options{})
	if err != nil {
		return expected{}, err
	}
	return expected{Fingerprint: fmt.Sprintf("%016x", rep.Fingerprint()), Speedup: rep.Best.Speedup}, nil
}

// verify checks every completed job. A resubmission must carry its
// primed spec's fingerprint; any other job must match its committed
// result, and recomputeSample of those without one are re-run
// in-process (a seeded sample). A job whose result is wrong is marked failed. It
// returns the number of wrong results, primed jobs included.
func verify(p *plan, timed, primed []*jobRecord, o options) int {
	primedFP := map[string]string{}
	for _, r := range primed {
		primedFP[specKey(r.spec)] = r.result.Fingerprint
	}
	wrong := 0
	fail := func(r *jobRecord, format string, args ...any) {
		r.err = fmt.Errorf(format, args...)
		fmt.Fprintf(os.Stderr, "bench: %s %s: %v\n", p.w.name, specKey(r.spec), r.err)
		wrong++
	}
	byKey := map[string][]*jobRecord{}
	for _, set := range [][]*jobRecord{primed, timed} {
		for _, r := range set {
			if r.failed() {
				continue
			}
			key := specKey(r.spec)
			if r.resubmit && r.result.Fingerprint != primedFP[key] {
				fail(r, "served fingerprint %s, primed %s", r.result.Fingerprint, primedFP[key])
				continue
			}
			if want, ok := o.expected[key]; ok {
				if r.result.Fingerprint != want.Fingerprint || r.result.Speedup != want.Speedup {
					fail(r, "got %s (speedup %v), expected %s (%v)", r.result.Fingerprint, r.result.Speedup, want.Fingerprint, want.Speedup)
				}
				continue
			}
			byKey[key] = append(byKey[key], r)
		}
	}
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewPCG(o.seed, xrand.HashString("verify/"+p.w.name)))
	rng.Shuffle(len(keys), func(i, k int) { keys[i], keys[k] = keys[k], keys[i] })
	if len(keys) > recomputeSample {
		keys = keys[:recomputeSample]
	}
	for _, key := range keys {
		rs := byKey[key]
		want, err := recompute(rs[0].spec)
		for _, r := range rs {
			switch {
			case err != nil:
				fail(r, "recompute: %v", err)
			case r.result.Fingerprint != want.Fingerprint || r.result.Speedup != want.Speedup:
				fail(r, "got %s (speedup %v), recomputed %s (%v)", r.result.Fingerprint, r.result.Speedup, want.Fingerprint, want.Speedup)
			}
		}
	}
	return wrong
}

// expectAll computes the committed results for seed: every spec the
// first expectRounds rounds of each workload (and repo-rerun's priming)
// submit, through the in-process facade.
func expectAll(seed uint64) (map[string]expected, error) {
	specs := map[string]server.JobSpec{}
	for _, w := range workloads {
		p := newPlan(w, seed, 0, 0, 0)
		for _, sp := range p.primed() {
			specs[specKey(sp)] = sp
		}
		for r := 0; r < expectRounds; r++ {
			for _, j := range p.round(r) {
				specs[specKey(j.spec)] = j.spec
			}
		}
	}
	keys := make(chan string)
	out := map[string]expected{}
	var (
		mu       sync.Mutex
		firstErr error
		wg       sync.WaitGroup
	)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for key := range keys {
				e, err := recompute(specs[key])
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("%s: %w", key, err)
				}
				out[key] = e
				mu.Unlock()
			}
		}()
	}
	for key := range specs {
		keys <- key
	}
	close(keys)
	wg.Wait()
	return out, firstErr
}

package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	runmetrics "runtime/metrics"
	"time"

	"funcytuner"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/exec"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/outline"
	"funcytuner/internal/resultrepo"
	"funcytuner/internal/search"
	"funcytuner/internal/search/bo"
	"funcytuner/internal/search/ga"
	"funcytuner/internal/trace"
	"funcytuner/internal/xrand"
)

// perLayer lists the traced run's metrics with their units, grouped by
// the module they measure. BENCHMARK.json gives each its direction.
var perLayer = []struct{ name, unit string }{
	{"server.submit_ms_p50", "ms"},
	{"server.result_ms_p50", "ms"},
	{"server.gate_wait_ms_mean", "ms"},
	{"server.gate_busy_frac", "frac"},
	{"server.jobs_served_repo", "count"},
	{"server.jobs_deduped", "count"},
	{"server.served_latency_p50_ms", "ms"},
	{"server.served_latency_p90_ms", "ms"},
	{"core.evals_per_s", "1/s"},
	{"core.eval_hold_ms_p50", "ms"},
	{"core.eval_hold_ms_p99", "ms"},
	{"core.setup_ms_p50", "ms"},
	{"core.collect_ms_p50", "ms"},
	{"core.search_ms_p50", "ms"},
	{"core.finish_ms_p50", "ms"},
	{"core.checkpoint_flush_ms", "ms"},
	{"core.checkpoint_share", "frac"},
	{"core.retries", "count"},
	{"search.bo.batch_ms", "ms"},
	{"search.ga.batch_ms", "ms"},
	{"search.batches_per_job", "count"},
	{"objcache.hit_ratio", "frac"},
	{"compiler.compile_us_p50", "us"},
	{"exec.run_us_p50", "us"},
	{"outline.auto_ms", "ms"},
	{"resultrepo.get_ms_p50", "ms"},
	{"resultrepo.put_ms_p50", "ms"},
	{"resultrepo.hit_ratio", "frac"},
	{"resultrepo.entries", "count"},
	{"fleet.claimbatch_ms_p50", "ms"},
	{"fleet.reportbatch_ms_p50", "ms"},
	{"fleet.heartbeat_per_s", "1/s"},
	{"fleet.tasks_per_claim", "count"},
	{"fleet.active_leases_mean", "count"},
	{"fleet.queue_depth_mean", "count"},
	{"fleet.reports_stale", "count"},
	{"fleet.requeues", "count"},
	{"fleet.journal_records_per_eval", "count"},
	{"trace.events_per_job", "count"},
	{"runtime.alloc_mb_per_job", "MB"},
	{"runtime.gc_cpu_frac", "frac"},
	{"trace_overhead_frac", "frac"},
	{"breakdown.submit_ms", "ms"},
	{"breakdown.setup_ms", "ms"},
	{"breakdown.collect_ms", "ms"},
	{"breakdown.search_ms", "ms"},
	{"breakdown.finish_ms", "ms"},
	{"breakdown.result_ms", "ms"},
	{"breakdown.residual_frac", "frac"},
}

// breakdownParts splits a job's latency at consecutive stamps: the
// client sends POST /jobs; the server stamps the submission; the job's
// trace marks the collect phase, then the search phase, then its last
// evaluation; the server stamps the job's end; the client holds the
// result. So the parts are the POST's way in, set-up (goroutine start,
// outlining, session build — or the whole repository serve), collect,
// search, the rest of the run (final flush, report, repository store),
// and the way out (progress stream end, GET result). A stamp out of
// order is clamped to its neighbour, and what that drops is the
// residual.
var breakdownParts = []string{"submit", "setup", "collect", "search", "finish", "result"}

// breakdownTolerance bounds |mean latency − Σ mean parts| / mean latency.
const breakdownTolerance = 0.05

// phaseStamps are a job's wall-clock phase boundaries, read from its
// trace (0 when the trace has no wall stamps: a repository serve replays
// the stored canonical trace).
type phaseStamps struct {
	collect, search, last int64
	events                int
}

func stampPhases(tr *trace.Trace) phaseStamps {
	ps := phaseStamps{events: len(tr.Events)}
	for _, ev := range tr.Events {
		if ev.Wall == 0 {
			continue
		}
		if ev.Kind == trace.KindPhase {
			if ev.Phase == "collect" {
				ps.collect = ev.Wall
			} else {
				ps.search = ev.Wall
			}
		}
		ps.last = max(ps.last, ev.Wall)
	}
	return ps
}

// parts splits the job's latency into breakdownParts, in ms. A
// repository serve, or a job deduplicated onto another, ran no session
// of its own: its server time is all set-up.
func (r *jobRecord) parts() []float64 {
	ended := r.status.Ended.UnixNano()
	ph := r.phases
	if ph.collect == 0 || r.status.Deduped {
		ph.collect, ph.search, ph.last = ended, ended, ended
	}
	bounds := []int64{r.sent.UnixNano(), r.status.Submitted.UnixNano(), ph.collect, ph.search, ph.last, ended, r.done.UnixNano()}
	out := make([]float64, len(bounds)-1)
	for i := 1; i < len(bounds); i++ {
		bounds[i] = min(max(bounds[i], bounds[i-1]), bounds[len(bounds)-1])
		out[i-1] = float64(bounds[i]-bounds[i-1]) / 1e6
	}
	return out
}

// layerMetrics derives the per-layer metrics from the traced rounds;
// untraced are the rounds before them, the tracing-overhead baseline.
func layerMetrics(in *instruments, traced, untraced []roundResult) map[string]float64 {
	v := map[string]float64{}
	var (
		wall, evals, retries, events, cacheHits, cacheAll, leases, queued float64
		alloc                                                             uint64
		gcCPU, cpu                                                        float64
		batches, lat, served                                              []float64
		ok                                                                int
	)
	parts := make([][]float64, len(breakdownParts))
	// Session phases (setup, collect, search, finish) of the jobs that
	// ran one; a repository serve has none.
	var phases [4][]float64
	delta := map[string]float64{}
	for _, rr := range traced {
		wall += rr.wall.Seconds()
		alloc += rr.alloc
		gcCPU += rr.gcCPU
		cpu += rr.cpu
		leases += rr.leases / float64(len(traced))
		queued += rr.queued / float64(len(traced))
		for name, d := range roundDeltas(rr) {
			delta[name] += d
		}
		for i := range rr.recs {
			r := &rr.recs[i]
			if r.failed() {
				continue
			}
			ok++
			c := r.result.Metrics.Counters
			evals += float64(c["evals"])
			retries += float64(c["retries"])
			if c["evals"] > 0 {
				batches = append(batches, float64(c["search_batches"]))
			}
			for _, tier := range []string{"object", "link"} {
				hits := float64(c["cache_"+tier+"_hits"])
				cacheHits += hits
				cacheAll += hits + float64(c["cache_"+tier+"_misses"]+c["cache_"+tier+"_coalesced"])
			}
			events += float64(r.phases.events)
			lat = append(lat, ms(r.latency))
			if r.resubmit {
				served = append(served, ms(r.latency))
			}
			pt := r.parts()
			for k, d := range pt {
				parts[k] = append(parts[k], d)
			}
			if r.phases.collect != 0 && !r.status.Deduped {
				for k := range phases {
					phases[k] = append(phases[k], pt[k+1])
				}
			}
		}
	}

	v["server.submit_ms_p50"] = median(in.get("http.submit"))
	v["server.result_ms_p50"] = median(in.get("http.result"))
	v["server.gate_wait_ms_mean"] = mean(in.get("gate.wait"))
	in.mu.Lock()
	v["server.gate_busy_frac"] = ratio(in.busy.Seconds(), float64(runtime.GOMAXPROCS(0))*wall)
	in.mu.Unlock()
	v["server.jobs_served_repo"] = delta["jobs_served_repo"]
	v["server.jobs_deduped"] = delta["jobs_deduped"]
	v["server.served_latency_p50_ms"] = quantile(served, 0.50)
	v["server.served_latency_p90_ms"] = quantile(served, 0.90)

	v["core.evals_per_s"] = evals / wall
	hold := in.get("gate.hold")
	v["core.eval_hold_ms_p50"] = quantile(hold, 0.50)
	v["core.eval_hold_ms_p99"] = quantile(hold, 0.99)
	for k, name := range []string{"setup", "collect", "search", "finish"} {
		v["core."+name+"_ms_p50"] = median(phases[k])
	}
	v["core.retries"] = retries
	v["search.batches_per_job"] = mean(batches)
	// A shared compile cache (repo-rerun) reports its own counters; each
	// private per-job cache reports through the job's metrics.
	if all := delta["cache.hits"] + delta["cache.misses"] + delta["cache.coalesced"]; all > 0 {
		v["objcache.hit_ratio"] = delta["cache.hits"] / all
	} else {
		v["objcache.hit_ratio"] = ratio(cacheHits, cacheAll)
	}
	v["resultrepo.hit_ratio"] = ratio(delta["repo.hits"], delta["repo.hits"]+delta["repo.misses"])
	if n := len(traced); n > 0 && traced[n-1].after.Repo != nil {
		v["resultrepo.entries"] = float64(traced[n-1].after.Repo.Entries)
	}

	v["fleet.claimbatch_ms_p50"] = median(in.get("rpc.claimbatch"))
	v["fleet.reportbatch_ms_p50"] = median(in.get("rpc.reportbatch"))
	v["fleet.heartbeat_per_s"] = float64(in.getCount("rpc.heartbeat")) / wall
	v["fleet.tasks_per_claim"] = ratio(delta["fleet_claims"], float64(in.getCount("rpc.claimbatch.granted")))
	v["fleet.active_leases_mean"] = leases
	v["fleet.queue_depth_mean"] = queued
	v["fleet.reports_stale"] = delta["fleet_reports_stale"]
	v["fleet.requeues"] = delta["fleet_requeues"]
	v["fleet.journal_records_per_eval"] = ratio(delta["fleet_journal_records"], evals)

	v["trace.events_per_job"] = ratio(events, float64(ok))
	v["runtime.alloc_mb_per_job"] = ratio(float64(alloc)/(1<<20), float64(ok))
	v["runtime.gc_cpu_frac"] = ratio(gcCPU, cpu)
	baseOK, baseWall := 0, 0.0
	for _, rr := range untraced {
		baseOK += rr.ok()
		baseWall += rr.wall.Seconds()
	}
	v["trace_overhead_frac"] = 1 - ratio(float64(ok)/wall, float64(baseOK)/baseWall)

	sum := 0.0
	for k, name := range breakdownParts {
		v["breakdown."+name+"_ms"] = mean(parts[k])
		sum += mean(parts[k])
	}
	v["breakdown.residual_frac"] = ratio(mean(lat)-sum, mean(lat))
	return v
}

// roundDeltas is what a round changed in GET /metrics: server and fleet
// counters, the journal's record count, and the shared compile cache's
// and repository's activity.
func roundDeltas(rr roundResult) map[string]float64 {
	d := map[string]float64{}
	b, a := rr.before, rr.after
	for name, n := range a.Server.Counters {
		d[name] = float64(n - b.Server.Counters[name])
	}
	if a.Fleet != nil && b.Fleet != nil {
		for name, n := range a.Fleet.Counters {
			d[name] = float64(n - b.Fleet.Counters[name])
		}
		d["fleet_journal_records"] = a.Fleet.Gauges["fleet_journal_records"] - b.Fleet.Gauges["fleet_journal_records"]
	}
	if a.Cache != nil && b.Cache != nil {
		d["cache.hits"] = float64(a.Cache.Hits() - b.Cache.Hits())
		d["cache.misses"] = float64(a.Cache.Misses() - b.Cache.Misses())
		d["cache.coalesced"] = float64(a.Cache.ObjectCoalesced + a.Cache.LinkCoalesced - b.Cache.ObjectCoalesced - b.Cache.LinkCoalesced)
	}
	if a.Repo != nil && b.Repo != nil {
		d["repo.hits"] = float64(a.Repo.Hits - b.Repo.Hits)
		d["repo.misses"] = float64(a.Repo.Misses - b.Repo.Misses)
	}
	return d
}

// cpuSeconds reads the process's cumulative GC and total CPU time.
func cpuSeconds() (gc, total float64) {
	s := []runmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	runmetrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// probeProgram is the layer probes' subject: the paper-scale CL/broadwell
// session BenchmarkCFRSession also times.
func probeProgram() (*funcytuner.Program, *funcytuner.Machine, funcytuner.Input, error) {
	prog, err := funcytuner.Benchmark(funcytuner.CloverLeaf)
	if err != nil {
		return nil, nil, funcytuner.Input{}, err
	}
	m, err := funcytuner.MachineByName("broadwell")
	if err != nil {
		return nil, nil, funcytuner.Input{}, err
	}
	return prog, m, funcytuner.TuningInput(prog.Name, m), nil
}

// probeLayers times single layers by calling their public functions
// directly, at the plan's budget, and adds the results to v.
func probeLayers(p *plan, dir string, v map[string]float64) error {
	prog, m, in, err := probeProgram()
	if err != nil {
		return err
	}
	cached := func() *compiler.Toolchain {
		tc := compiler.NewToolchain(flagspec.ICC())
		tc.AttachCache(compiler.NewCompileCache(0))
		return tc
	}

	var outlines []float64
	var part outline.Result
	for i := 0; i < 5; i++ {
		start := time.Now()
		if part, err = outline.AutoOutline(compiler.NewToolchain(flagspec.ICC()), prog, m, in, outline.HotThreshold, 1, nil); err != nil {
			return err
		}
		outlines = append(outlines, ms(time.Since(start)))
	}
	v["outline.auto_ms"] = median(outlines)
	modules := len(part.Partition.Modules)

	// Compile and run random assemblies without a cache, so every
	// compile does the work.
	tc := compiler.NewToolchain(flagspec.ICC())
	rng := xrand.NewFromString("bench/probe/assemblies")
	var compiles, runs []float64
	for i := 0; i < 200; i++ {
		cvs := flagspec.ICC().Sample(rng, modules)
		start := time.Now()
		exe, err := tc.Compile(prog, part.Partition, cvs, m)
		if err != nil {
			return err
		}
		mid := time.Now()
		exec.Run(exe, m, in, exec.Options{})
		compiles = append(compiles, ms(mid.Sub(start))*1e3)
		runs = append(runs, ms(time.Since(mid))*1e3)
	}
	v["compiler.compile_us_p50"] = median(compiles)
	v["exec.run_us_p50"] = median(runs)

	// Collect+Search with and without a checkpointer at the default
	// cadence, then one full-size Flush of the checkpoint that built up.
	session := func(ck *core.Checkpointer) (time.Duration, error) {
		sess, err := core.NewSession(cached(), prog, part.Partition, m, in, core.Config{
			Samples: p.samples, TopX: p.topx, Seed: "bench-probe", Noisy: true,
		})
		if err != nil {
			return 0, err
		}
		if err := sess.AttachCheckpointer(ck); err != nil {
			return 0, err
		}
		start := time.Now()
		col, err := sess.Collect(context.Background())
		if err != nil {
			return 0, err
		}
		if _, err := sess.Search(context.Background(), col); err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	var with, without, flushes []float64
	var ck *core.Checkpointer
	for i := 0; i < 3; i++ {
		ck = core.NewCheckpointer(filepath.Join(dir, fmt.Sprintf("probe-checkpoint-%d.json", i)), core.DefaultCheckpointEvery)
		d, err := session(ck)
		if err != nil {
			return err
		}
		with = append(with, d.Seconds())
		if d, err = session(nil); err != nil {
			return err
		}
		without = append(without, d.Seconds())
	}
	for i := 0; i < 5; i++ {
		start := time.Now()
		if err := ck.Flush(); err != nil {
			return err
		}
		flushes = append(flushes, ms(time.Since(start)))
	}
	v["core.checkpoint_flush_ms"] = median(flushes)
	v["core.checkpoint_share"] = 1 - median(without)/median(with)

	// Search overhead alone: Suggest(16) + 16 Observe per batch over the
	// whole budget, on pools shaped like the session's, with synthetic
	// times.
	pools := make([][]flagspec.CV, modules)
	for mi := range pools {
		pools[mi] = flagspec.ICC().Sample(rng, p.topx)
	}
	for name, build := range map[string]func(search.Config) (search.Technique, error){"bo": bo.New, "ga": ga.New} {
		tech, err := build(search.Config{Pools: pools, Budget: p.samples, Rng: xrand.NewFromString("bench/probe/" + name)})
		if err != nil {
			return err
		}
		var batchMS []float64
		for k := 0; k < p.samples; {
			start := time.Now()
			batch := tech.Suggest(16)
			if len(batch) == 0 {
				break
			}
			for _, a := range batch {
				tech.Observe(k, a, syntheticTime(a))
				k++
			}
			batchMS = append(batchMS, ms(time.Since(start)))
		}
		v["search."+name+".batch_ms"] = mean(batchMS)
	}

	// Repository Get/Put of a real entry body.
	repo, err := resultrepo.Open(filepath.Join(dir, "probe-repo"))
	if err != nil {
		return err
	}
	if _, err := funcytuner.NewTuner(funcytuner.Options{
		Machine: m, Samples: p.samples, TopX: p.topx, Seed: "bench-probe", Repo: repo,
	}).Tune(prog, in); err != nil {
		return err
	}
	keys := repo.Keys()
	if len(keys) != 1 {
		return fmt.Errorf("probe repository holds %d entries, want 1", len(keys))
	}
	body, ok := repo.Get(keys[0])
	if !ok {
		return fmt.Errorf("probe repository lost its entry")
	}
	var gets, puts []float64
	for i := 0; i < 20; i++ {
		key := xrand.Combine(xrand.HashString("bench/probe/repo"), uint64(i))
		start := time.Now()
		if err := repo.Put(key, body); err != nil {
			return err
		}
		mid := time.Now()
		if _, ok := repo.Get(key); !ok {
			return fmt.Errorf("probe repository: Get after Put missed")
		}
		puts = append(puts, ms(mid.Sub(start)))
		gets = append(gets, ms(time.Since(mid)))
	}
	v["resultrepo.get_ms_p50"] = median(gets)
	v["resultrepo.put_ms_p50"] = median(puts)
	return os.RemoveAll(filepath.Join(dir, "probe-repo"))
}

// syntheticTime is a deterministic stand-in measurement for an assembly.
func syntheticTime(a []flagspec.CV) float64 {
	t := 1.0
	for _, cv := range a {
		t += float64(cv.Key()%1024) / 1e4
	}
	return t
}

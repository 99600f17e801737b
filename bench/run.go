package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funcytuner"
	"funcytuner/internal/server"
)

// options configures one workload run.
type options struct {
	seed uint64
	// rounds is how many rounds the run times. A traced run times twice
	// as many: the first half untraced, the second with every probe on.
	rounds int
	traced bool
	// spans, when non-empty, is the JSONL file traced runs append their
	// spans to.
	spans string
	// Reduced scale (tests): corpus prefix, budget and pruning width (0
	// keeps the workload's own).
	pairs, samples, topx int
	// workDir holds the daemons' files; each is removed when its round
	// ends.
	workDir string
	// expected maps specKey to committed results (nil when the seed has
	// none).
	expected map[string]expected
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the metrics an untraced run reports, with their units.
// BENCHMARK.json gives each its direction and regression bound.
var endToEnd = []struct{ name, unit string }{
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_p85_ms", "ms"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"speedup_gmean", "x"},
	{"sim_hours_per_job", "h"},
}

// roundResult is one round, timed on a daemon set up for it alone.
// funcytunerd keeps every finished job's trace and session in memory
// (about 13 MB per paper-scale job), so a daemon per round keeps memory
// bounded and makes every round start from the same state.
type roundResult struct {
	recs   []jobRecord
	primed []jobRecord
	setup  time.Duration
	wall   time.Duration
	// Read around the timed round: GET /metrics, allocation and CPU.
	before, after serverMetrics
	alloc         uint64
	gcCPU, cpu    float64
	// Traced rounds only: mean coordinator leases and queue depth.
	leases, queued float64
}

func (rr roundResult) ok() int {
	n := 0
	for _, r := range rr.recs {
		if !r.failed() {
			n++
		}
	}
	return n
}

// runRound sets up a daemon (repository priming and one untimed warm-up
// job included), times round r on it in a closed loop, and shuts it
// down. With in non-nil, every probe is on while the round is timed.
func runRound(p *plan, r int, dir string, in *instruments) (rr roundResult, err error) {
	start := time.Now()
	e, err := newEnv(p, dir, in)
	if err != nil {
		return rr, err
	}
	defer func() { err = errors.Join(err, e.close()) }()
	if rr.primed, err = e.prime(); err != nil {
		return rr, err
	}
	if rec := e.runJob(job{spec: p.warmup()}); rec.failed() {
		return rr, fmt.Errorf("warm-up: %w", rec.err)
	}
	rr.setup = time.Since(start)
	if rr.before, err = e.metrics(); err != nil {
		return rr, err
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	gc0, cpu0 := cpuSeconds()
	var sampler *leaseSampler
	if in != nil {
		in.on.Store(true)
		if e.coord != nil {
			sampler = sampleLeases(e.coord, 10*time.Millisecond)
		}
	}
	t0 := time.Now()
	rr.recs = e.closedLoop(p.round(r))
	rr.wall = time.Since(t0)
	gc1, cpu1 := cpuSeconds()
	runtime.ReadMemStats(&mem1)
	rr.alloc, rr.gcCPU, rr.cpu = mem1.TotalAlloc-mem0.TotalAlloc, gc1-gc0, cpu1-cpu0
	if in == nil {
		rr.after, err = e.metrics()
		return rr, err
	}
	in.on.Store(false)
	if sampler != nil {
		rr.leases, rr.queued = sampler.close()
	}
	if rr.after, err = e.metrics(); err != nil {
		return rr, err
	}
	for i := range rr.recs {
		if r := &rr.recs[i]; !r.failed() {
			r.err = e.inspect(r)
		}
	}
	return rr, nil
}

// closedLoop runs jobs with w.clients goroutines, each submitting its
// next job only after the previous one's result is in.
func (e *env) closedLoop(jobs []job) []jobRecord {
	recs := make([]jobRecord, len(jobs))
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for c := 0; c < e.p.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(jobs); i = int(next.Add(1)) - 1 {
				recs[i] = e.runJob(jobs[i])
			}
		}()
	}
	wg.Wait()
	return recs
}

// prime stores every primed spec (repo-rerun) in the daemon's repository
// through the in-process facade, warming the shared compile cache on the
// way, as earlier runs would have. Entries carry a trace, as the
// daemon's do: a trace-less entry cannot answer a traced job. It returns
// them as records, so their results are verified like any job's.
func (e *env) prime() ([]jobRecord, error) {
	var out []jobRecord
	for _, sp := range e.p.primed() {
		rep, err := tune(sp, funcytuner.Options{Repo: e.repo, SharedCache: e.cache, Trace: funcytuner.NewTraceRecorder()})
		if err != nil {
			return nil, fmt.Errorf("priming %s: %w", specKey(sp), err)
		}
		out = append(out, jobRecord{job: job{spec: sp}, result: server.Result{
			Fingerprint: fmt.Sprintf("%016x", rep.Fingerprint()),
			Speedup:     rep.Best.Speedup,
		}})
	}
	return out, nil
}

// runWorkload times o.rounds rounds, each on its own daemon, verifies
// every result, and reports end-to-end metrics; a traced run then times
// o.rounds more with every probe on and reports per-layer metrics.
func runWorkload(w *workload, o options) (result, error) {
	p := newPlan(w, o.seed, o.pairs, o.samples, o.topx)
	rounds := func(first int, in *instruments) ([]roundResult, error) {
		var out []roundResult
		for r := first; r < first+o.rounds; r++ {
			rr, err := runRound(p, r, filepath.Join(o.workDir, fmt.Sprintf("round-%d", r)), in)
			if err != nil {
				return nil, fmt.Errorf("round %d: %w", r, err)
			}
			out = append(out, rr)
		}
		return out, nil
	}
	base, err := rounds(0, nil)
	if err != nil {
		return result{}, err
	}
	all := base
	var (
		in     *instruments
		traced []roundResult
	)
	if o.traced {
		in = newInstruments(w.name)
		if traced, err = rounds(o.rounds, in); err != nil {
			return result{}, err
		}
		all = append(append([]roundResult(nil), base...), traced...)
	}

	// Verification marks wrong results failed, in place, before metrics
	// count them.
	var recs, primed []*jobRecord
	for _, rr := range all {
		for i := range rr.recs {
			recs = append(recs, &rr.recs[i])
		}
		for i := range rr.primed {
			primed = append(primed, &rr.primed[i])
		}
	}
	wrong := verify(p, recs, primed, o)
	res := result{Correct: wrong == 0 && servedAll(w, all), Attempted: len(recs), Metrics: map[string]metric{}}
	for _, r := range recs {
		if r.failed() {
			res.Failed++
		}
	}
	res.Correct = res.Correct && res.Failed == 0

	values := e2eMetrics(base)
	names := endToEnd
	if o.traced {
		values = layerMetrics(in, traced, base)
		if err := probeLayers(p, o.workDir, values); err != nil {
			return result{}, err
		}
		if r := values["breakdown.residual_frac"]; math.Abs(r) > breakdownTolerance {
			return result{}, fmt.Errorf("latency breakdown leaves %.1f%% of the mean unexplained (limit %.0f%%)", 100*r, 100*breakdownTolerance)
		}
		if o.spans != "" {
			if err := in.writeSpans(o.spans); err != nil {
				return result{}, err
			}
		}
		names = perLayer
	}
	for _, m := range names {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return res, nil
}

// servedAll checks that every resubmission was answered without a
// tuning run: served from the repository, or attached to an identical
// in-flight serve.
func servedAll(w *workload, rounds []roundResult) bool {
	ok := true
	for i, rr := range rounds {
		resubmits := 0
		for _, r := range rr.recs {
			if r.resubmit {
				resubmits++
			}
		}
		answered := serverDelta(rr, "jobs_served_repo") + serverDelta(rr, "jobs_deduped")
		if int(answered) != resubmits {
			fmt.Fprintf(os.Stderr, "bench: %s round %d: %d resubmissions but %d served or deduplicated\n", w.name, i, resubmits, int(answered))
			ok = false
		}
	}
	return ok
}

func serverDelta(rr roundResult, name string) float64 {
	return float64(rr.after.Server.Counters[name] - rr.before.Server.Counters[name])
}

// e2eMetrics computes the end-to-end metrics over untraced rounds. They
// are taken over completed jobs only, so every value stays finite: a
// failed job shows in the result's failed count (and in jobs_per_s).
func e2eMetrics(rounds []roundResult) map[string]float64 {
	var lat, speedups, hours, setups, throughput []float64
	for _, rr := range rounds {
		setups = append(setups, rr.setup.Seconds())
		throughput = append(throughput, float64(rr.ok())/rr.wall.Seconds())
		for _, r := range rr.recs {
			if r.failed() {
				continue
			}
			lat = append(lat, ms(r.latency))
			speedups = append(speedups, r.result.Speedup)
			hours = append(hours, r.result.SimHours)
		}
	}
	return map[string]float64{
		"jobs_per_s":         median(throughput),
		"job_latency_p50_ms": quantile(lat, 0.50),
		"job_latency_p85_ms": quantile(lat, 0.85),
		"setup_s":            median(setups),
		"peak_rss_mb":        peakRSSMB(),
		"speedup_gmean":      gmean(speedups),
		"sim_hours_per_job":  mean(hours),
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

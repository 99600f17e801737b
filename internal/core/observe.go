package core

import (
	"math"

	"funcytuner/internal/compiler"
	"funcytuner/internal/metrics"
	"funcytuner/internal/objcache"
	"funcytuner/internal/trace"
)

// This file is the session's observability surface: an optional trace
// recorder and an optional metrics registry, attached after NewSession
// and before the first evaluation. Both are strictly read-only with
// respect to the tuning pipeline — they draw no randomness, take no
// decisions, and touch no deterministic output, so attaching them
// cannot change any Report (the bit-identity tests pin this). When
// neither is attached the cost is a handful of nil-receiver method
// calls per evaluation (see BenchmarkSessionTraceDisabled).
//
// Metric names the session registers. Every cost counter is fed from an
// evaluation's cost delta in the same call that adds it to the
// CostAccount, so after any run each counter equals the corresponding
// CostAccount accessor exactly — a cross-check the metrics property tests
// enforce.
const (
	// MetricEvals counts completed evaluations (finishEval calls).
	MetricEvals = "evals"
	// MetricCompiles mirrors CostAccount.Compiles.
	MetricCompiles = "compiles"
	// MetricRuns mirrors CostAccount.Runs.
	MetricRuns = "runs"
	// MetricSimMicros mirrors the CostAccount simulated-clock total.
	MetricSimMicros = "sim_micros"
	// MetricFaultMicros mirrors the simulated clock lost to faults.
	MetricFaultMicros = "fault_micros"
	// MetricRetries mirrors CostAccount.Retries.
	MetricRetries = "retries"
	// MetricFlakes mirrors CostAccount.Flakes.
	MetricFlakes = "flakes"
	// MetricTimeouts mirrors CostAccount.Timeouts.
	MetricTimeouts = "timeouts"
	// MetricCompileFailures mirrors CostAccount.CompileFailures.
	MetricCompileFailures = "compile_failures"
	// MetricRunCrashes mirrors CostAccount.RunCrashes.
	MetricRunCrashes = "run_crashes"
	// MetricWastedCompiles mirrors CostAccount.WastedCompiles.
	MetricWastedCompiles = "wasted_compiles"

	// Cache counters mirror compiler.CacheStats per tier; they come from
	// the cache's observer hook and, like CacheStats, are scheduling-
	// dependent observability.
	MetricCacheObjectHits      = "cache_object_hits"
	MetricCacheObjectMisses    = "cache_object_misses"
	MetricCacheObjectCoalesced = "cache_object_coalesced"
	MetricCacheObjectSpillHits = "cache_object_spill_hits"
	MetricCacheLinkHits        = "cache_link_hits"
	MetricCacheLinkMisses      = "cache_link_misses"
	MetricCacheLinkCoalesced   = "cache_link_coalesced"
	MetricCacheLinkSpillHits   = "cache_link_spill_hits"

	// Search-technique counters (see search.go). Suggested/observed
	// counts and batch (generation) counts are deterministic per run;
	// warm-seed counts mirror the technique's injected warm-start
	// assemblies. Like every metric they are observability only.
	MetricSearchSuggested = "search_suggested"
	MetricSearchObserved  = "search_observed"
	MetricSearchBatches   = "search_batches"
	MetricSearchWarmSeeds = "search_warm_seeds"

	// Gauges.
	MetricWorkers     = "workers"
	MetricSamples     = "samples"
	MetricModules     = "modules"
	MetricQuarantined = "quarantined"

	// Histograms.
	MetricEvalSimSeconds = "eval_sim_seconds"
	MetricEvalRetries    = "eval_retries"
)

// evalSimBuckets are the eval-latency histogram bounds in simulated
// seconds (benchmark runs are 3–36 s; faulted evaluations can burn a
// whole timeout budget).
var evalSimBuckets = []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}

// evalRetryBuckets bound the per-evaluation retry-count histogram.
var evalRetryBuckets = []float64{0, 1, 2, 3, 5, 8}

// sessionMetrics holds the session's pre-resolved instruments. The zero
// value (enabled=false, all instruments nil) is the disabled state:
// every instrument method no-ops on nil, and finishEval short-circuits
// on the flag so the disabled path stays a single branch.
type sessionMetrics struct {
	enabled bool

	evals, compiles, runs     *metrics.Counter
	simMicros, faultMicros    *metrics.Counter
	retries, flakes, timeouts *metrics.Counter
	compileFails, runCrashes  *metrics.Counter
	wastedCompiles            *metrics.Counter
	cacheObj, cacheLink       [4]*metrics.Counter // indexed by objcache.Outcome
	searchSuggested           *metrics.Counter
	searchObserved            *metrics.Counter
	searchBatches             *metrics.Counter
	searchWarmSeeds           *metrics.Counter
	quarantined               *metrics.Gauge
	evalSim, evalRetries      *metrics.Histogram
}

func newSessionMetrics(reg *metrics.Registry) sessionMetrics {
	return sessionMetrics{
		enabled:        true,
		evals:          reg.Counter(MetricEvals),
		compiles:       reg.Counter(MetricCompiles),
		runs:           reg.Counter(MetricRuns),
		simMicros:      reg.Counter(MetricSimMicros),
		faultMicros:    reg.Counter(MetricFaultMicros),
		retries:        reg.Counter(MetricRetries),
		flakes:         reg.Counter(MetricFlakes),
		timeouts:       reg.Counter(MetricTimeouts),
		compileFails:   reg.Counter(MetricCompileFailures),
		runCrashes:     reg.Counter(MetricRunCrashes),
		wastedCompiles: reg.Counter(MetricWastedCompiles),
		cacheObj: [4]*metrics.Counter{
			objcache.OutcomeHit:       reg.Counter(MetricCacheObjectHits),
			objcache.OutcomeMiss:      reg.Counter(MetricCacheObjectMisses),
			objcache.OutcomeCoalesced: reg.Counter(MetricCacheObjectCoalesced),
			objcache.OutcomeSpillHit:  reg.Counter(MetricCacheObjectSpillHits),
		},
		cacheLink: [4]*metrics.Counter{
			objcache.OutcomeHit:       reg.Counter(MetricCacheLinkHits),
			objcache.OutcomeMiss:      reg.Counter(MetricCacheLinkMisses),
			objcache.OutcomeCoalesced: reg.Counter(MetricCacheLinkCoalesced),
			objcache.OutcomeSpillHit:  reg.Counter(MetricCacheLinkSpillHits),
		},
		searchSuggested: reg.Counter(MetricSearchSuggested),
		searchObserved:  reg.Counter(MetricSearchObserved),
		searchBatches:   reg.Counter(MetricSearchBatches),
		searchWarmSeeds: reg.Counter(MetricSearchWarmSeeds),
		quarantined:     reg.Gauge(MetricQuarantined),
		evalSim:         reg.Histogram(MetricEvalSimSeconds, evalSimBuckets),
		evalRetries:     reg.Histogram(MetricEvalRetries, evalRetryBuckets),
	}
}

// searchBatch records one completed suggest/observe round of n
// assemblies (the driver observes every suggested assembly, so the two
// totals track together).
func (m *sessionMetrics) searchBatch(n int) {
	if !m.enabled {
		return
	}
	m.searchBatches.Inc()
	m.searchSuggested.Add(int64(n))
	m.searchObserved.Add(int64(n))
}

// finishEval feeds every counter and the per-evaluation histograms from
// a completed evaluation's cost delta — the value the CostAccount takes in
// the same Session.finishEval call, local and remote evaluations alike.
func (m *sessionMetrics) finishEval(d CostSnapshot) {
	if !m.enabled {
		return
	}
	m.evals.Inc()
	m.compiles.Add(d.Compiles)
	m.runs.Add(d.Runs)
	m.simMicros.Add(d.SimMicros)
	m.faultMicros.Add(d.FaultMicros)
	m.retries.Add(d.Retries)
	m.flakes.Add(d.Flakes)
	m.timeouts.Add(d.Timeouts)
	m.compileFails.Add(d.CompileFails)
	m.runCrashes.Add(d.RunCrashes)
	m.wastedCompiles.Add(d.WastedCompiles)
	m.evalSim.Observe(d.simSeconds())
	m.evalRetries.Observe(float64(d.Retries))
}

// simSeconds is the simulated clock of the cost so far, in seconds — the
// deterministic timestamp trace events carry.
func (s CostSnapshot) simSeconds() float64 { return float64(s.SimMicros) / 1e6 }

// AttachTrace attaches a trace recorder to the session and emits the
// session marker. Call after NewSession, before the first evaluation.
// A nil recorder leaves tracing disabled.
func (s *Session) AttachTrace(r *trace.Recorder) {
	if r == nil {
		return
	}
	if s.Config.Unpooled {
		r.SetBatchPooling(false)
	}
	s.tr = r
	r.Session(s.Prog.Name + "/" + s.Machine.Name + "/" + s.Config.Seed)
}

// AttachMetrics registers the session's instruments in reg and starts
// recording. Call after NewSession (and after any checkpoint restore,
// so the quarantine gauge starts correct), before the first evaluation.
// Metrics cover work performed by this session only: a resumed run's
// CostAccount includes inherited cost, its metrics do not.
func (s *Session) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	s.reg = reg
	s.met = newSessionMetrics(reg)
	reg.Gauge(MetricWorkers).Set(float64(s.Config.workers()))
	reg.Gauge(MetricSamples).Set(float64(s.Config.Samples))
	reg.Gauge(MetricModules).Set(float64(len(s.Part.Modules)))
	s.qmu.Lock()
	s.met.quarantined.Set(float64(len(s.quarantine)))
	s.qmu.Unlock()
	// The toolchain cache reports each request's outcome to the counters.
	if cc := s.Toolchain.Cache(); cc != nil {
		cc.Observe(s.observeCache)
	}
}

// MetricsSnapshot freezes the session's registry (zero Snapshot when no
// metrics are attached).
func (s *Session) MetricsSnapshot() metrics.Snapshot { return s.reg.Snapshot() }

// CompletedEvals returns the number of evaluations this session has
// finished — the progress-reporting feed. Like all observability it is
// scheduling-neutral but moment-dependent; it never enters results.
func (s *Session) CompletedEvals() int64 { return s.completed.Load() }

// observeCache counts one cache request in its tier's outcome counter.
// It emits no trace event: the counters, Report.Cache and
// Report.Metrics already carry the same per-tier classification, and a
// per-lookup event would only repeat it at several times the cost of
// the rest of the trace. Classification depends on goroutine scheduling
// (a racing worker turns a miss into a coalesced wait), which is why it
// stays out of the canonical trace and Report.Fingerprint.
func (s *Session) observeCache(tier string, oc objcache.Outcome) {
	if int(oc) >= len(s.met.cacheObj) {
		return
	}
	switch tier {
	case compiler.ObjectTier:
		s.met.cacheObj[oc].Inc()
	case compiler.LinkTier:
		s.met.cacheLink[oc].Inc()
	}
}

// closeEval stamps the evaluation-close event ("ok" for a finite
// measurement, "lost" for an abandoned one) and flushes the span to the
// recorder in one locked append.
func (s *Session) closeEval(tb *trace.Batch, cost CostSnapshot, t float64) {
	if tb == nil {
		return
	}
	name := "ok"
	if math.IsInf(t, 1) {
		name = "lost"
	}
	tb.Add(trace.Event{Kind: trace.KindEval, Name: name, Seconds: t, Sim: cost.simSeconds()})
	tb.Commit()
}

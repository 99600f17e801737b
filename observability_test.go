package funcytuner

import (
	"context"

	"bytes"
	"strings"
	"testing"
	"time"

	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/metrics"
	"funcytuner/internal/outline"
	"funcytuner/internal/trace"
)

// canonicalTrace runs Tune with a recorder attached and returns the
// canonical JSONL bytes plus the decoded trace (for Diff-based failure
// messages). The session records no scheduling-dependent event at all:
// compile-cache lookups are counted in the metrics, not traced, so the
// raw snapshot must hold no Sched event before canonicalization drops
// any.
func canonicalTrace(t *testing.T, opts Options, prog *Program, in Input) ([]byte, *trace.Trace) {
	t.Helper()
	rec := NewTraceRecorder()
	opts.Trace = rec
	if _, err := NewTuner(opts).Tune(prog, in); err != nil {
		t.Fatal(err)
	}
	raw := rec.Snapshot()
	for _, e := range raw.Events {
		if e.Sched {
			t.Fatalf("traced session recorded a scheduling-dependent event: %+v", e)
		}
	}
	canon := raw.Canonical()
	var buf bytes.Buffer
	if err := canon.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), canon
}

// The canonical trace must be byte-identical for a given (seed, config)
// across repeated runs, worker counts, and cache on/off — the golden-
// trace determinism contract. A failure names the first divergent event
// rather than dumping two byte blobs.
func TestGoldenTraceDeterminism(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	base := Options{
		Machine: m, Samples: 30, TopX: 6, Seed: "golden-trace",
		Faults: DefaultFaultRates(), Workers: 1,
	}
	want, wantTrace := canonicalTrace(t, base, prog, in)
	if len(wantTrace.Events) == 0 {
		t.Fatal("empty canonical trace")
	}

	// Shape sanity on the reference: session marker, phase markers in
	// deterministic order, per-evaluation spans, and (given the default
	// fault mix at K=30) at least one fault event; no scheduling-dependent
	// events or wall stamps survive canonicalization.
	kinds := map[trace.Kind]int{}
	for _, e := range wantTrace.Events {
		kinds[e.Kind]++
		if e.Sched || e.Wall != 0 {
			t.Fatalf("canonical event kept nondeterministic fields: %+v", e)
		}
	}
	for _, k := range []trace.Kind{trace.KindSession, trace.KindPhase, trace.KindCompile,
		trace.KindRun, trace.KindEval, trace.KindFault} {
		if kinds[k] == 0 {
			t.Errorf("canonical trace has no %q events: %v", k, kinds)
		}
	}
	if kinds[trace.KindEval] != 2*base.Samples {
		t.Errorf("eval spans = %d, want %d (collect K + CFR K)", kinds[trace.KindEval], 2*base.Samples)
	}

	variants := []struct {
		name string
		mut  func(*Options)
	}{
		{"rerun-workers-1", func(*Options) {}},
		{"workers-4", func(o *Options) { o.Workers = 4 }},
		{"workers-gomaxprocs", func(o *Options) { o.Workers = 0 }},
		{"cache-off-workers-4", func(o *Options) { o.Workers = 4; o.CacheSize = -1 }},
	}
	for _, v := range variants {
		opts := base
		v.mut(&opts)
		got, gotTrace := canonicalTrace(t, opts, prog, in)
		if !bytes.Equal(got, want) {
			t.Errorf("%s: canonical trace diverged: %s", v.name, trace.Diff(wantTrace, gotTrace))
		}
	}

	// A different seed must give a different trace — the test would be
	// vacuous if the canonical encoding collapsed distinct runs.
	reseeded := base
	reseeded.Seed = "golden-trace-2"
	if got, _ := canonicalTrace(t, reseeded, prog, in); bytes.Equal(got, want) {
		t.Error("different seeds produced identical canonical traces")
	}
}

// The canonical JSONL document must survive a write/read/write cycle
// byte-identically — the persistence contract the fuzz target probes
// with arbitrary input, checked here on a real run's trace.
func TestGoldenTraceRoundTrip(t *testing.T) {
	m, _ := MachineByName("sandybridge")
	prog, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{
		Machine: m, Samples: 20, TopX: 5, Seed: "trace-roundtrip",
		Faults: DefaultFaultRates(),
	}
	first, _ := canonicalTrace(t, opts, prog, TuningInput(Swim, m))
	dec, err := trace.ReadJSONL(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := dec.WriteJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second.Bytes()) {
		t.Fatal("canonical trace does not round-trip byte-identically")
	}
}

// Attaching a trace recorder must not perturb results: for clean and
// faulty configurations at several worker counts, a traced run's Report
// fingerprint must equal the untraced run's.
func TestTraceDoesNotPerturbReport(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	for _, rates := range []FaultRates{{}, DefaultFaultRates()} {
		faulty := rates != (FaultRates{})
		base := Options{
			Machine: m, Samples: 30, TopX: 6, Seed: "trace-identity",
			Faults: rates, Workers: 1,
		}
		plain, err := NewTuner(base).Tune(prog, in)
		if err != nil {
			t.Fatal(err)
		}
		wantFP := plain.Fingerprint()
		for _, workers := range []int{1, 4, 0} {
			opts := base
			opts.Workers = workers
			rec := NewTraceRecorder()
			rec.WallClock(func() int64 { return time.Now().UnixNano() })
			opts.Trace = rec
			traced, err := NewTuner(opts).Tune(prog, in)
			if err != nil {
				t.Fatal(err)
			}
			if traced.Fingerprint() != wantFP {
				t.Errorf("faults=%v workers=%d: traced fingerprint differs from untraced", faulty, workers)
			}
			if rec.Len() == 0 {
				t.Errorf("faults=%v workers=%d: recorder captured nothing", faulty, workers)
			}
		}
	}
}

// After a faulty parallel session, the metric counters must equal the
// CostAccount ledger exactly, and the cache outcome counters must equal
// the CacheStats delta since the instruments were attached (the cache
// also served the outline phase, which precedes the session).
func TestMetricsMatchCostAccountAndCacheStats(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	tc := compiler.NewToolchain(ICCSpace())
	tc.AttachCache(compiler.NewCompileCache(0))
	res, err := outline.AutoOutline(tc, prog, m, in, outline.HotThreshold, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := core.NewSession(tc, prog, res.Partition, m, in, core.Config{
		Samples: 40, TopX: 8, Seed: "metrics-property", Workers: 4, Noisy: true,
		Faults: DefaultFaultRates(),
	})
	if err != nil {
		t.Fatal(err)
	}
	sess.AttachMetrics(metrics.NewRegistry())
	cs0 := sess.CacheStats()
	col, err := sess.Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.CFR(context.Background(), col); err != nil {
		t.Fatal(err)
	}
	snap := sess.MetricsSnapshot()

	counters := map[string]int64{
		core.MetricEvals:           sess.CompletedEvals(),
		core.MetricCompiles:        sess.Cost.Compiles(),
		core.MetricRuns:            sess.Cost.Runs(),
		core.MetricRetries:         sess.Cost.Retries(),
		core.MetricFlakes:          sess.Cost.Flakes(),
		core.MetricTimeouts:        sess.Cost.Timeouts(),
		core.MetricCompileFailures: sess.Cost.CompileFailures(),
		core.MetricRunCrashes:      sess.Cost.RunCrashes(),
		core.MetricWastedCompiles:  sess.Cost.WastedCompiles(),
	}
	for name, want := range counters {
		if got := snap.Counter(name); got != want {
			t.Errorf("counter %q = %d, CostAccount says %d", name, got, want)
		}
	}
	if got := float64(snap.Counter(core.MetricSimMicros)) / 1e6 / 3600; got != sess.Cost.SimulatedHours() {
		t.Errorf("sim_micros implies %v hours, CostAccount says %v", got, sess.Cost.SimulatedHours())
	}
	if got := float64(snap.Counter(core.MetricFaultMicros)) / 1e6 / 3600; got != sess.Cost.FaultHours() {
		t.Errorf("fault_micros implies %v hours, CostAccount says %v", got, sess.Cost.FaultHours())
	}
	// The fault mix at this budget must make the cross-check non-vacuous.
	if counters[core.MetricRetries] == 0 || counters[core.MetricFlakes] == 0 {
		t.Errorf("faulty session injected nothing (retries=%d, flakes=%d)",
			counters[core.MetricRetries], counters[core.MetricFlakes])
	}

	// Cache counters vs the CacheStats delta since AttachMetrics.
	ds := sess.CacheStats()
	cacheWant := map[string]int64{
		core.MetricCacheObjectHits:      ds.ObjectHits - cs0.ObjectHits,
		core.MetricCacheObjectMisses:    ds.ObjectMisses - cs0.ObjectMisses,
		core.MetricCacheObjectCoalesced: ds.ObjectCoalesced - cs0.ObjectCoalesced,
		core.MetricCacheLinkHits:        ds.LinkHits - cs0.LinkHits,
		core.MetricCacheLinkMisses:      ds.LinkMisses - cs0.LinkMisses,
		core.MetricCacheLinkCoalesced:   ds.LinkCoalesced - cs0.LinkCoalesced,
	}
	for name, want := range cacheWant {
		if got := snap.Counter(name); got != want {
			t.Errorf("counter %q = %d, CacheStats delta says %d", name, got, want)
		}
	}
	if cacheWant[core.MetricCacheObjectHits] == 0 {
		t.Error("session never hit the object cache; the cache cross-check is vacuous")
	}

	// Gauges mirror the configuration; histograms mirror the ledger: one
	// observation per completed evaluation, and the retry histogram's sum
	// is the total retry count.
	if got := snap.Gauge(core.MetricWorkers); got != 4 {
		t.Errorf("workers gauge = %v, want 4", got)
	}
	if got := snap.Gauge(core.MetricSamples); got != 40 {
		t.Errorf("samples gauge = %v, want 40", got)
	}
	if got := snap.Gauge(core.MetricModules); got != float64(len(res.Partition.Modules)) {
		t.Errorf("modules gauge = %v, want %d", got, len(res.Partition.Modules))
	}
	if got := snap.Gauge(core.MetricQuarantined); got != float64(len(sess.Quarantined())) {
		t.Errorf("quarantined gauge = %v, want %d", got, len(sess.Quarantined()))
	}
	evals := counters[core.MetricEvals]
	for _, h := range []string{core.MetricEvalSimSeconds, core.MetricEvalRetries} {
		if hs, ok := snap.Histograms[h]; !ok || hs.Count != evals {
			t.Errorf("histogram %q count = %+v, want one observation per eval (%d)", h, snap.Histograms[h], evals)
		}
	}
	if sum := snap.Histograms[core.MetricEvalRetries].Sum; sum != float64(counters[core.MetricRetries]) {
		t.Errorf("retry histogram sum %v != retries counter %d", sum, counters[core.MetricRetries])
	}
}

// Report.Metrics must agree with the Report's own cost and fault fields
// — the facade-level face of the same property.
func TestReportMetricsMatchTallies(t *testing.T) {
	m, _ := MachineByName("sandybridge")
	prog, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewTuner(Options{
		Machine: m, Samples: 40, TopX: 8, Seed: "report-metrics",
		Faults: DefaultFaultRates(),
	}).Tune(prog, TuningInput(Swim, m))
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Metrics
	checks := map[string][2]int64{
		core.MetricCompiles:        {s.Counter(core.MetricCompiles), rep.Compiles},
		core.MetricRuns:            {s.Counter(core.MetricRuns), rep.Runs},
		core.MetricRetries:         {s.Counter(core.MetricRetries), rep.Faults.Retries},
		core.MetricFlakes:          {s.Counter(core.MetricFlakes), rep.Faults.Flakes},
		core.MetricTimeouts:        {s.Counter(core.MetricTimeouts), rep.Faults.Timeouts},
		core.MetricCompileFailures: {s.Counter(core.MetricCompileFailures), rep.Faults.CompileFailures},
		core.MetricRunCrashes:      {s.Counter(core.MetricRunCrashes), rep.Faults.RunCrashes},
		core.MetricWastedCompiles:  {s.Counter(core.MetricWastedCompiles), rep.Faults.WastedCompiles},
	}
	for name, pair := range checks {
		if pair[0] != pair[1] {
			t.Errorf("metric %q = %d, Report says %d", name, pair[0], pair[1])
		}
	}
	if got := float64(s.Counter(core.MetricSimMicros)) / 1e6 / 3600; got != rep.SimulatedHours {
		t.Errorf("sim_micros implies %v hours, Report says %v", got, rep.SimulatedHours)
	}
	if got := s.Gauge(core.MetricQuarantined); got != float64(rep.Faults.Quarantined) {
		t.Errorf("quarantined gauge = %v, Report says %d", got, rep.Faults.Quarantined)
	}
	// Report.Cache also covers the outline phase (it precedes the session
	// and its instruments), so the metric counters are bounded by it.
	if hits, reported := s.Counter(core.MetricCacheObjectHits), rep.Cache.ObjectHits; hits == 0 || hits > reported {
		t.Errorf("cache_object_hits = %d, outside (0, %d]", hits, reported)
	}
}

// Options.Progress must receive periodic lines and a final "done" line
// with the exact completed-evaluation count; enabling it must not
// perturb the Report.
func TestProgressReporting(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(Swim, m)
	base := Options{Machine: m, Samples: 12, TopX: 4, Seed: "progress"}
	plain, err := NewTuner(base).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	opts := base
	opts.Progress = &buf
	opts.ProgressEvery = time.Millisecond
	rep, err := NewTuner(opts).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fingerprint() != plain.Fingerprint() {
		t.Error("progress reporting changed the Report")
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := lines[len(lines)-1]
	if !strings.Contains(last, "24/24 evals (100.0%)") || !strings.HasSuffix(last, ", done") {
		t.Fatalf("final progress line %q lacks the completed tally", last)
	}
	for _, line := range lines {
		if !strings.HasPrefix(line, "funcytuner: ") || !strings.Contains(line, "simulated hours") {
			t.Fatalf("malformed progress line %q in:\n%s", line, out)
		}
	}
}

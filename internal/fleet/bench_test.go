package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcytuner"
	"funcytuner/internal/metrics"
)

// grantCounter counts the round trips that granted at least one task: a
// claim batch answered 200 (204 means the long poll expired empty), and
// a report batch whose answer carries tasks.
type grantCounter struct {
	inner   http.RoundTripper
	granted atomic.Int64
}

func (g *grantCounter) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := g.inner.RoundTrip(r)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	switch r.URL.Path {
	case "/fleet/claimbatch":
		g.granted.Add(1)
	case "/fleet/reportbatch":
		resp.Body = &answerHead{ReadCloser: resp.Body, head: make([]byte, 0, 2048), g: g}
	}
	return resp, nil
}

// answerHead passes a report batch answer to the worker and keeps its
// first bytes, which hold its "tasks" key if it has one (they follow the
// verdicts), so that the counter need not copy the answer.
type answerHead struct {
	io.ReadCloser
	head []byte
	g    *grantCounter
}

func (a *answerHead) Read(p []byte) (int, error) {
	n, err := a.ReadCloser.Read(p)
	a.head = append(a.head, p[:min(n, cap(a.head)-len(a.head))]...)
	return n, err
}

func (a *answerHead) Close() error {
	if bytes.Contains(a.head, []byte(`],"tasks":[`)) {
		a.g.granted.Add(1)
	}
	return a.ReadCloser.Close()
}

// benchFleet is one benchmark iteration's fleet: a journaled coordinator
// behind loopback HTTP and two workers (concurrency 1, claim batch 16),
// bench/'s fleet-journal fleet. The workers' requests go through inner,
// or a plain transport when it is nil.
type benchFleet struct {
	reg    *metrics.Registry
	coord  *Coordinator
	rt     *grantCounter
	ctx    context.Context
	cancel context.CancelFunc
	srv    *httptest.Server
	wg     sync.WaitGroup
}

func newBenchFleet(b *testing.B, inner http.RoundTripper) *benchFleet {
	b.Helper()
	if inner == nil {
		inner = &http.Transport{MaxIdleConnsPerHost: 4}
	}
	f := &benchFleet{reg: metrics.NewRegistry(), rt: &grantCounter{inner: inner}}
	var err error
	f.coord, err = NewCoordinator(CoordinatorConfig{Registry: f.reg, JournalPath: filepath.Join(b.TempDir(), "journal")})
	if err != nil {
		b.Fatal(err)
	}
	f.srv = httptest.NewServer(f.coord.Handler())
	f.ctx, f.cancel = context.WithCancel(context.Background())
	for w := 1; w <= 2; w++ {
		worker, err := NewWorker(WorkerConfig{
			ID:          fmt.Sprintf("bench-worker-%d", w),
			Coordinator: f.srv.URL,
			Concurrency: 1,
			ClaimBatch:  16,
			HTTPClient:  &http.Client{Transport: f.rt},
		})
		if err != nil {
			b.Fatal(err)
		}
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			worker.Run(f.ctx) //nolint:errcheck // stopped by close
		}()
	}
	return f
}

// tune runs spec as job with Workers 8, the width bench/ gives a job.
func (f *benchFleet) tune(job string, spec Spec) error {
	ev, err := f.coord.Evaluator(job, spec)
	if err != nil {
		return err
	}
	tuner, prog, in, err := spec.Tuner(funcytuner.Options{Workers: 8, Evaluator: ev})
	if err != nil {
		return err
	}
	_, err = tuner.Run(f.ctx, prog, in, spec)
	return err
}

// fleetCounts sums what the benchmark's fleets did.
type fleetCounts struct{ syncs, evals, tasks, claims int64 }

// close stops the workers and the coordinator and adds the fleet's
// counts to n.
func (f *benchFleet) close(n *fleetCounts) {
	snap := f.reg.Snapshot()
	n.syncs += snap.Counter(MetricJournalSyncs)
	n.evals += snap.Counter(MetricReportsOK)
	n.tasks += snap.Counter(MetricClaims)
	n.claims += f.rt.granted.Load()
	f.cancel()
	f.wg.Wait()
	f.srv.Close()
	f.coord.Close()
}

// report adds the journal's writes (each one fsync) per evaluation and
// the tasks a round trip that granted any carried on average.
func (n fleetCounts) report(b *testing.B) {
	b.ReportMetric(float64(n.syncs)/float64(n.evals), "syncs/eval")
	b.ReportMetric(float64(n.tasks)/float64(n.claims), "tasks/claim")
}

// BenchmarkDistributedTune times one distributed CloverLeaf/Broadwell
// CFR job (K=250, top-25, Workers 8), the job bench/'s fleet-journal
// workload submits: every evaluation crosses loopback HTTP to one of two
// workers (concurrency 1, claim batch 16) through a journaled
// coordinator. Each iteration sets up a fresh coordinator, journal and
// pair of workers with the timer stopped, so every iteration runs the
// same job from the same state. Besides ns/op it reports the journal's
// writes (each one fsync) per evaluation and the tasks a round trip that
// granted any carried on average, claim batches and report batches
// alike.
func BenchmarkDistributedTune(b *testing.B) {
	spec := Spec{Benchmark: funcytuner.CloverLeaf, Machine: "broadwell", Samples: 250, TopX: 25, Seed: "bench-distributed"}
	var n fleetCounts
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := newBenchFleet(b, nil)
		b.StartTimer()
		if err := f.tune(fmt.Sprintf("job-%d", i), spec); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		f.close(&n)
	}
	n.report(b)
}

// BenchmarkDistributedTuneConcurrent shares one fleet between two
// clients, each tuning two of BenchmarkDistributedTune's jobs (own
// seeds) one after the other. The second client starts once the first
// job's first evaluation is on the fleet, so its job's tasks queue
// behind the first job's. ns/op is the time all four jobs take; job-ms
// and max-job-ms are the median and the longest time one job took,
// over every iteration.
func BenchmarkDistributedTuneConcurrent(b *testing.B) {
	const clients, jobsPerClient = 2, 2
	var (
		n         fleetCounts
		latencies []float64
	)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		f := newBenchFleet(b, nil)
		lat := make([]float64, clients*jobsPerClient)
		errs := make([]error, clients)
		var clientsWG sync.WaitGroup
		b.StartTimer()
		for c := 0; c < clients; c++ {
			if c > 0 {
				for f.reg.Snapshot().Counter(MetricTasksEnqueued) == 0 {
					time.Sleep(100 * time.Microsecond)
				}
			}
			clientsWG.Add(1)
			go func() {
				defer clientsWG.Done()
				for j := 0; j < jobsPerClient && errs[c] == nil; j++ {
					spec := Spec{Benchmark: funcytuner.CloverLeaf, Machine: "broadwell", Samples: 250, TopX: 25, Seed: fmt.Sprintf("bench-concurrent-%d-%d", c, j)}
					start := time.Now()
					errs[c] = f.tune(fmt.Sprintf("job-%d-%d-%d", i, c, j), spec)
					lat[c*jobsPerClient+j] = float64(time.Since(start)) / float64(time.Millisecond)
				}
			}()
		}
		clientsWG.Wait()
		b.StopTimer()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		latencies = append(latencies, lat...)
		f.close(&n)
	}
	n.report(b)
	slices.Sort(latencies)
	b.ReportMetric(latencies[len(latencies)/2], "job-ms")
	b.ReportMetric(latencies[len(latencies)-1], "max-job-ms")
}

// wireTap keeps the body of the first claim batch response that grants a
// full batch of 16 tasks, of the first report batch request that carries
// 16 reports and of the first report batch answer that grants 16 tasks.
type wireTap struct {
	inner                 http.RoundTripper
	mu                    sync.Mutex
	claim, report, answer []byte
}

func (w *wireTap) RoundTrip(r *http.Request) (*http.Response, error) {
	var sent []byte
	if r.URL.Path == "/fleet/reportbatch" {
		body, err := r.GetBody()
		if err != nil {
			return nil, err
		}
		if sent, err = io.ReadAll(body); err != nil {
			return nil, err
		}
	}
	resp, err := w.inner.RoundTrip(r)
	if err != nil || resp.StatusCode != http.StatusOK {
		return resp, err
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	resp.Body = io.NopCloser(bytes.NewReader(got))
	switch r.URL.Path {
	case "/fleet/reportbatch":
		var req reportBatchRequest
		if w.report == nil && json.Unmarshal(sent, &req) == nil && len(req.Reports) == 16 {
			w.report = sent
		}
		var answer reportBatchResponse
		if w.answer == nil && json.Unmarshal(got, &answer) == nil && len(answer.Tasks) == 16 {
			w.answer = got
		}
	case "/fleet/claimbatch":
		var cr claimBatchResponse
		if w.claim == nil && json.Unmarshal(got, &cr) == nil && len(cr.Tasks) == 16 {
			w.claim = got
		}
	}
	return resp, nil
}

// tapJob runs BenchmarkDistributedTune's job once through a wireTap and
// returns the tap, holding each of its bodies.
func tapJob(b *testing.B) *wireTap {
	b.Helper()
	spec := Spec{Benchmark: funcytuner.CloverLeaf, Machine: "broadwell", Samples: 250, TopX: 25, Seed: "bench-distributed"}
	tap := &wireTap{inner: &http.Transport{MaxIdleConnsPerHost: 4}}
	f := newBenchFleet(b, tap)
	err := f.tune("job-wire", spec)
	f.close(&fleetCounts{})
	if err != nil {
		b.Fatal(err)
	}
	if tap.claim == nil || tap.report == nil || tap.answer == nil {
		b.Fatal("the job sent no full claim batch, full report batch or full report batch answer")
	}
	return tap
}

// bodyWriter is a ResponseWriter that keeps the body.
type bodyWriter struct {
	header http.Header
	body   []byte
}

func (w *bodyWriter) Header() http.Header { return w.header }
func (w *bodyWriter) WriteHeader(int)     {}
func (w *bodyWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// BenchmarkFleetWire encodes and decodes one claim batch and one report
// batch of BenchmarkDistributedTune's job, each of 16 evaluations, taken
// from a run of that job: the coordinator's claim batch response, read
// by a worker, and a worker's report batch request, read by the
// coordinator. Its bytes/op and allocs/op are the wire's cost per 16
// evaluations.
func BenchmarkFleetWire(b *testing.B) {
	tap := tapJob(b)
	var claim claimBatchResponse
	var report reportBatchRequest
	if err := json.Unmarshal(tap.claim, &claim); err != nil {
		b.Fatal(err)
	}
	if err := json.Unmarshal(tap.report, &report); err != nil {
		b.Fatal(err)
	}
	w := &bodyWriter{header: http.Header{}}
	writeClaimBatch(w, &claim)
	sent, err := encodeReportBatch(&report)
	if err != nil || !bytes.Equal(w.body, tap.claim) || !bytes.Equal(sent, tap.report) {
		b.Fatalf("re-encoding the tapped batches changed their bytes (%v)", err)
	}
	var rd bytes.Reader
	b.SetBytes(int64(len(tap.claim) + len(tap.report)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.body = w.body[:0]
		writeClaimBatch(w, &claim)
		rd.Reset(w.body)
		var gotClaim claimBatchResponse
		if err := readClaimBatch(&rd, &gotClaim); err != nil {
			b.Fatal(err)
		}
		sent, err := encodeReportBatch(&report)
		if err != nil {
			b.Fatal(err)
		}
		rd.Reset(sent)
		var gotReport reportBatchRequest
		if err := readReportBatch(&rd, &gotReport); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReportGrant writes and reads one report batch answer of
// BenchmarkDistributedTune's job that grants 16 tasks, taken from a run
// of that job: the coordinator's answer, read by a worker. Its bytes/op
// and allocs/op are the wire's cost of a claim of 16 that rides a
// report.
func BenchmarkReportGrant(b *testing.B) {
	tap := tapJob(b)
	var answer reportBatchResponse
	if err := json.Unmarshal(tap.answer, &answer); err != nil {
		b.Fatal(err)
	}
	w := &bodyWriter{header: http.Header{}}
	writeReportBatch(w, &answer)
	if !bytes.Equal(w.body, tap.answer) {
		b.Fatal("re-encoding the tapped answer changed its bytes")
	}
	var rd bytes.Reader
	b.SetBytes(int64(len(tap.answer)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.body = w.body[:0]
		writeReportBatch(w, &answer)
		rd.Reset(w.body)
		var got reportBatchResponse
		if err := readReportBatchResponse(&rd, &got); err != nil {
			b.Fatal(err)
		}
	}
}

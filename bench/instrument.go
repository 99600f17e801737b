package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"funcytuner/internal/fleet"
	"funcytuner/internal/server"
)

// This file measures the program's layers from outside, through seams it
// already exposes: an HTTP middleware around the server handler, a timing
// WorkerGate, a timing RoundTripper on the fleet workers' client, and a
// sampler of the coordinator's lease and queue gauges. Every probe is
// switched by instruments.on, which is set only while a traced round is
// timed: set-up and warm-up stay unmeasured.

// spanHeader carries the client span that caused a request, so the
// middleware's server-side span can name its parent.
const spanHeader = "X-Bench-Span"

// span is one timed interval at a layer boundary. Spans of one job share
// its ID.
type span struct {
	ID       int64  `json:"id"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int64  `json:"parent,omitempty"`
	Job      string `json:"job,omitempty"`
	Workload string `json:"workload"`
}

// instruments collects spans and per-layer samples in memory. A nil
// *instruments, or one that is switched off, records nothing.
type instruments struct {
	workload string
	on       atomic.Bool
	nextID   atomic.Int64

	mu      sync.Mutex
	spans   []span
	samples map[string][]float64 // per-operation durations in ms
	counts  map[string]int64
	busy    time.Duration // total gate slot hold time
}

func newInstruments(workload string) *instruments {
	return &instruments{workload: workload, samples: map[string][]float64{}, counts: map[string]int64{}}
}

func (in *instruments) active() bool { return in != nil && in.on.Load() }

// reserve returns a span ID before the span ends, so children can name it
// as their parent. 0 when off.
func (in *instruments) reserve() int64 {
	if !in.active() {
		return 0
	}
	return in.nextID.Add(1)
}

// span records [start, end] as span id (0 allocates a fresh ID).
func (in *instruments) span(id int64, name string, start, end time.Time, parent int64, job string) {
	if !in.active() {
		return
	}
	if id == 0 {
		id = in.nextID.Add(1)
	}
	in.mu.Lock()
	in.spans = append(in.spans, span{ID: id, Name: name, Start: start.UnixNano(), End: end.UnixNano(),
		Parent: parent, Job: job, Workload: in.workload})
	in.mu.Unlock()
}

// sample records one duration of the named operation.
func (in *instruments) sample(name string, d time.Duration) {
	if !in.active() {
		return
	}
	in.mu.Lock()
	in.samples[name] = append(in.samples[name], ms(d))
	in.mu.Unlock()
}

func (in *instruments) count(name string, n int64) {
	if !in.active() {
		return
	}
	in.mu.Lock()
	in.counts[name] += n
	in.mu.Unlock()
}

func (in *instruments) get(name string) []float64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return append([]float64(nil), in.samples[name]...)
}

func (in *instruments) getCount(name string) int64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts[name]
}

// writeSpans appends the spans as JSONL to path.
func (in *instruments) writeSpans(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	in.mu.Lock()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range in.spans {
		enc.Encode(s) //nolint:errcheck // a bytes.Buffer write cannot fail
	}
	in.mu.Unlock()
	if _, err := f.Write(buf.Bytes()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// middleware times every request the server handles, by route.
func (in *instruments) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !in.active() {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		end := time.Now()
		name, job := route(r)
		in.sample(name, end.Sub(start))
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		in.span(0, name, start, end, parent, job)
	})
}

// route names a request's endpoint ("http.submit", "http.result",
// "http.fleet.claimbatch", ...) and the job it concerns, if any.
func route(r *http.Request) (name, job string) {
	parts := strings.Split(strings.Trim(r.URL.Path, "/"), "/")
	switch {
	case parts[0] == "jobs" && len(parts) == 1:
		if r.Method == http.MethodPost {
			return "http.submit", ""
		}
		return "http.list", ""
	case parts[0] == "jobs" && len(parts) == 2:
		return "http.status", parts[1]
	case parts[0] == "jobs":
		return "http." + parts[2], parts[1]
	default:
		return "http." + strings.Join(parts, "."), ""
	}
}

// timingGate wraps the manager's shared gate, timing how long each
// evaluation waits for a slot and how long it holds one.
type timingGate struct {
	in    *instruments
	inner *server.Gate

	mu       sync.Mutex
	acquired map[uint64]time.Time // goroutine → time its slot was granted
}

func (in *instruments) wrapGate(g *server.Gate) *timingGate {
	return &timingGate{in: in, inner: g, acquired: map[uint64]time.Time{}}
}

func (g *timingGate) Acquire(ctx context.Context) error {
	if !g.in.active() {
		return g.inner.Acquire(ctx)
	}
	start := time.Now()
	if err := g.inner.Acquire(ctx); err != nil {
		return err
	}
	now := time.Now()
	g.in.sample("gate.wait", now.Sub(start))
	g.mu.Lock()
	g.acquired[goid()] = now
	g.mu.Unlock()
	return nil
}

func (g *timingGate) Release() {
	if g.in.active() {
		id := goid()
		g.mu.Lock()
		at, ok := g.acquired[id]
		delete(g.acquired, id)
		g.mu.Unlock()
		if ok {
			hold := time.Since(at)
			g.in.sample("gate.hold", hold)
			g.in.mu.Lock()
			g.in.busy += hold
			g.in.mu.Unlock()
		}
	}
	g.inner.Release()
}

// goid returns the calling goroutine's ID. WorkerGate's Release carries
// no token naming its Acquire, but core.Session.claim acquires and
// releases on the same goroutine, so the goroutine pairs them.
func goid() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

// transport times the fleet workers' protocol round trips, from request
// to response-body close.
type transport struct {
	in    *instruments
	inner http.RoundTripper
}

func (t *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if !t.in.active() {
		return t.inner.RoundTrip(r)
	}
	start := time.Now()
	resp, err := t.inner.RoundTrip(r)
	name := "rpc." + path.Base(r.URL.Path)
	if err != nil {
		return resp, err
	}
	if name == "rpc.claimbatch" && resp.StatusCode == http.StatusOK {
		t.in.count("rpc.claimbatch.granted", 1)
	}
	t.in.count(name, 1)
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
		end := time.Now()
		t.in.sample(name, end.Sub(start))
		t.in.span(0, name, start, end, 0, "")
	}}
	return resp, nil
}

// timedBody calls done once, when the caller closes the body.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// leaseSampler polls the coordinator's lease and queue gauges. Its
// sums are written only by its goroutine and read after close waits
// for it.
type leaseSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup

	n, leases, queued int
}

func sampleLeases(c *fleet.Coordinator, every time.Duration) *leaseSampler {
	s := &leaseSampler{stop: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				s.n++
				s.leases += c.ActiveLeases()
				s.queued += c.QueueDepth()
			}
		}
	}()
	return s
}

// close stops the sampler and returns the mean lease count and queue
// depth it saw.
func (s *leaseSampler) close() (leases, queued float64) {
	close(s.stop)
	s.wg.Wait()
	return ratio(float64(s.leases), float64(s.n)), ratio(float64(s.queued), float64(s.n))
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"funcytuner"
	"funcytuner/internal/fleet"
	"funcytuner/internal/metrics"
	"funcytuner/internal/server"
	"funcytuner/internal/trace"
)

// env is one in-process funcytunerd: the manager behind the handler
// funcytunerd mounts, served over loopback HTTP, plus a journaled fleet
// coordinator and two workers for distributed workloads.
type env struct {
	p     *plan
	dir   string
	in    *instruments
	mgr   *server.Manager
	coord *fleet.Coordinator
	repo  *funcytuner.ResultRepo
	cache *funcytuner.CompileCache

	srv  *http.Server
	base string
	// hc is the clients' single http.Client: at most one connection per
	// client, since a client's requests are sequential.
	hc *http.Client

	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	served      chan error
}

func newEnv(p *plan, dir string, in *instruments) (e *env, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e = &env{p: p, dir: dir, in: in, served: make(chan error, 1)}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	cfg := server.Config{Dir: filepath.Join(dir, "jobs")}
	gate := server.NewGate(runtime.GOMAXPROCS(0))
	cfg.Gate = gate
	if in != nil {
		cfg.Gate = in.wrapGate(gate)
	}
	if p.w.repo {
		if e.repo, err = funcytuner.OpenResultRepo(filepath.Join(dir, "repo")); err != nil {
			return e, err
		}
		e.cache = funcytuner.NewCompileCache(0)
		cfg.Repo, cfg.SkipExist, cfg.Cache = e.repo, true, e.cache
	}
	if p.w.distributed {
		e.coord, err = fleet.NewCoordinator(fleet.CoordinatorConfig{
			Registry:    metrics.NewRegistry(),
			JournalPath: filepath.Join(dir, "fleet.journal"),
		})
		if err != nil {
			return e, err
		}
		cfg.Fleet = e.coord
	}
	if e.mgr, err = server.NewManager(cfg); err != nil {
		return e, err
	}
	var handler http.Handler = server.NewServer(e.mgr)
	if in != nil {
		handler = in.middleware(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	e.base = "http://" + ln.Addr().String()
	e.srv = &http.Server{Handler: handler}
	go func() { e.served <- e.srv.Serve(ln) }()
	e.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	if p.w.distributed {
		err = e.startWorkers()
	}
	return e, err
}

// startWorkers runs two fleet workers (concurrency 1, claim batch 16)
// against the coordinator over loopback.
func (e *env) startWorkers() error {
	ctx, cancel := context.WithCancel(context.Background())
	e.stopWorkers = cancel
	var rt http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if e.in != nil {
		rt = &transport{in: e.in, inner: rt}
	}
	for i := 1; i <= 2; i++ {
		w, err := fleet.NewWorker(fleet.WorkerConfig{
			ID:          fmt.Sprintf("bench-worker-%d", i),
			Coordinator: e.base,
			Concurrency: 1,
			ClaimBatch:  16,
			HTTPClient:  &http.Client{Transport: rt},
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		e.workers.Add(1)
		go func() {
			defer e.workers.Done()
			if err := w.Run(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "bench: fleet worker:", err)
			}
		}()
	}
	return nil
}

// close stops the workers, drains the manager, shuts the server and the
// coordinator down, and removes the environment's files. It waits for
// every goroutine the environment started.
func (e *env) close() error {
	if e.stopWorkers != nil {
		e.stopWorkers()
		e.workers.Wait()
	}
	var errs []error
	if e.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		errs = append(errs, e.mgr.Drain(ctx))
		cancel()
	}
	if e.srv != nil {
		errs = append(errs, e.srv.Close())
		if err := <-e.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
		e.hc.CloseIdleConnections()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	errs = append(errs, os.RemoveAll(e.dir))
	return errors.Join(errs...)
}

// request sends one request as a child of span parent and returns the
// status code and body. The body is always read in full, so the
// connection is reused.
func (e *env) request(method, path string, body []byte, parent int64) (int, []byte, error) {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if parent != 0 {
		req.Header.Set(spanHeader, strconv.FormatInt(parent, 10))
	}
	resp, err := e.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// timed wraps request in a client-side span named name.
func (e *env) timed(name, method, path string, body []byte, parent int64, job string) (int, []byte, error) {
	id := e.in.reserve()
	start := time.Now()
	code, data, err := e.request(method, path, body, id)
	e.in.span(id, name, start, time.Now(), parent, job)
	return code, data, err
}

// jobRecord is what the harness learned about one submission.
type jobRecord struct {
	job
	id      string
	latency time.Duration
	err     error
	result  server.Result
	// Client-side stamps: POST sent, result received.
	sent, done time.Time
	// Traced runs only: the server's stamps and the job's trace.
	status server.Status
	phases phaseStamps
}

func (r *jobRecord) failed() bool { return r.err != nil }

// runJob submits one job and waits for it the way a user does: POST
// /jobs, follow /jobs/{id}/progress to EOF (the stream ends when the job
// does), then GET /jobs/{id}/result.
func (e *env) runJob(j job) jobRecord {
	rec := jobRecord{job: j}
	root := e.in.reserve()
	rec.sent = time.Now()
	rec.err = e.submitAndWait(&rec, root)
	rec.done = time.Now()
	rec.latency = rec.done.Sub(rec.sent)
	e.in.span(root, "job", rec.sent, rec.done, 0, rec.id)
	return rec
}

func (e *env) submitAndWait(rec *jobRecord, root int64) error {
	body, err := json.Marshal(rec.spec)
	if err != nil {
		return err
	}
	code, data, err := e.timed("client.submit", http.MethodPost, "/jobs", body, root, "")
	if err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	if code != http.StatusAccepted {
		return fmt.Errorf("submit: status %d: %s", code, data)
	}
	var st server.Status
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("submit: %w", err)
	}
	rec.id = st.ID
	if code, data, err = e.timed("client.progress", http.MethodGet, "/jobs/"+st.ID+"/progress", nil, root, st.ID); err != nil || code != http.StatusOK {
		return fmt.Errorf("progress: status %d: %v %s", code, err, data)
	}
	code, data, err = e.timed("client.result", http.MethodGet, "/jobs/"+st.ID+"/result", nil, root, st.ID)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("result: status %d: %v %s", code, err, data)
	}
	return json.Unmarshal(data, &rec.result)
}

// inspect fetches a finished job's server-side stamps and its
// wall-stamped trace (traced rounds, after the round is timed).
func (e *env) inspect(rec *jobRecord) error {
	code, data, err := e.request(http.MethodGet, "/jobs/"+rec.id, nil, 0)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("status: %d %v", code, err)
	}
	if err := json.Unmarshal(data, &rec.status); err != nil {
		return err
	}
	code, data, err = e.request(http.MethodGet, "/jobs/"+rec.id+"/trace", nil, 0)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("trace: %d %v", code, err)
	}
	tr, err := trace.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		return err
	}
	rec.phases = stampPhases(tr)
	return nil
}

// serverMetrics is the part of GET /metrics the harness reads.
type serverMetrics struct {
	Server metrics.Snapshot       `json:"server"`
	Repo   *funcytuner.RepoStats  `json:"repo"`
	Cache  *funcytuner.CacheStats `json:"cache"`
	Fleet  *metrics.Snapshot      `json:"fleet"`
}

func (e *env) metrics() (serverMetrics, error) {
	var m serverMetrics
	code, data, err := e.request(http.MethodGet, "/metrics", nil, 0)
	if err != nil {
		return m, err
	}
	if code != http.StatusOK {
		return m, fmt.Errorf("metrics: status %d", code)
	}
	return m, json.Unmarshal(data, &m)
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// HTTP status mapping of the protocol. A single claim or report is a
// batch of one; there is no separate single-task verb.
//
//	POST /fleet/claimbatch   200 {tasks} | 204 nothing claimable | 403 worker
//	                         quarantined | 502 coordinator dead (killed
//	                         mid-flight) | 503 coordinator closed
//	POST /fleet/heartbeat    200 lease extended | 409 lease gone/stale
//	                         epoch | 502 coordinator dead
//	POST /fleet/reportbatch  200 {accepted[], tasks} (per-entry verdicts; a
//	                         stale entry is accepted[i]=false; with max > 0,
//	                         up to max tasks ready right now, leased as a
//	                         claim batch would lease them) | 502 coordinator
//	                         dead | 400 malformed
//
// claimbatch is the only verb that waits for work. A report batch grants
// only what is ready, and a worker whose report brought no tasks
// long-polls claimbatch; one whose report brought some goes straight to
// evaluating them, with no claim round trip between its batches. A
// coordinator older than max answers 400 to a report that carries it,
// having judged none of its reports, and the worker sends the same
// reports again without max.
//
// 409 and a false verdict are deliberately not errors for the worker: a
// stale heartbeat or report is the normal aftermath of a lease the
// coordinator already re-dispatched. The worker's only correct reaction
// is to drop the evaluation and claim fresh work.
//
// 502 vs 503 is the durability distinction: 503 (ErrClosed) is a clean
// shutdown workers obey by exiting, while 502 (ErrUnavailable) means the
// coordinator died mid-flight and a journal-recovered replacement is
// expected — workers treat it like any other transport failure and keep
// retrying with backoff.

// maxBodyBytes bounds request bodies; a batched report carries at most
// maxClaimBatch evaluations' outcomes.
const maxBodyBytes = 8 << 20

// maxClaimBatch caps the per-round-trip lease count a worker may ask
// for. 256 tasks at the default lease TTL already amortizes the HTTP
// overhead below noise; anything larger mostly increases the blast
// radius of a worker death.
const maxClaimBatch = 256

// Handler exposes the coordinator over HTTP under /fleet/.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /fleet/claimbatch", c.handleClaimBatch)
	mux.HandleFunc("POST /fleet/heartbeat", c.handleHeartbeat)
	mux.HandleFunc("POST /fleet/reportbatch", c.handleReportBatch)
	return mux
}

func decodeBody[T any](w http.ResponseWriter, r *http.Request) (T, bool) {
	var v T
	if err := decodeRequest(json.NewDecoder(io.LimitReader(r.Body, maxBodyBytes)), &v); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return v, false
	}
	return v, true
}

// errTrailingData refuses a request body that holds more than its value.
var errTrailingData = errors.New("fleet: request body continues after its JSON value")

// decodeRequest decodes a request body's one JSON value, refusing
// unknown fields and anything but whitespace after the value.
func decodeRequest(dec *json.Decoder, v any) error {
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	switch _, err := dec.Token(); err {
	case io.EOF:
		return nil
	case nil:
		return errTrailingData
	default:
		return err
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) handleClaimBatch(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[claimBatchRequest](w, r)
	if !ok {
		return
	}
	wait := time.Duration(req.WaitMillis) * time.Millisecond
	if wait < 0 {
		wait = 0
	}
	if max := 30 * time.Second; wait > max {
		wait = max
	}
	n := req.Max
	if n < 1 {
		n = 1
	}
	clamped := 0
	if n > maxClaimBatch {
		n = maxClaimBatch
		clamped = n
	}
	ts, err := c.ClaimBatch(r.Context(), req.Worker, wait, n)
	switch {
	case err == ErrClosed:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
	case err == ErrUnavailable:
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
	case err == ErrQuarantined:
		writeJSON(w, http.StatusForbidden, map[string]string{"error": err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case len(ts) == 0:
		w.WriteHeader(http.StatusNoContent)
	default:
		writeClaimBatch(w, &claimBatchResponse{Tasks: ts, Granted: clamped})
	}
}

func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody[heartbeatRequest](w, r)
	if !ok {
		return
	}
	ok, err := c.Heartbeat(req.Worker, req.Task, req.Epoch)
	switch {
	case err == ErrUnavailable:
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
	case err != nil:
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
	case ok:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	default:
		writeJSON(w, http.StatusConflict, map[string]string{"error": "lease gone or epoch stale"})
	}
}

func (c *Coordinator) handleReportBatch(w http.ResponseWriter, r *http.Request) {
	var req reportBatchRequest
	if err := readReportBatch(r.Body, &req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	accepted, ts, err := c.ReportBatch(req.Worker, req.Reports, min(max(req.Max, 0), maxClaimBatch))
	if err == ErrUnavailable {
		writeJSON(w, http.StatusBadGateway, map[string]string{"error": err.Error()})
		return
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	writeReportBatch(w, &reportBatchResponse{Accepted: accepted, Tasks: ts})
}

// client is the worker's view of the coordinator's HTTP surface.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, hc *http.Client) *client {
	if hc == nil {
		hc = &http.Client{}
	}
	return &client{base: base, hc: hc}
}

// post sends one request body and hands the response body to read when
// read is non-nil and the status has a body. It returns the status code.
func (cl *client) post(ctx context.Context, path string, body []byte, read func(io.Reader) error) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if read != nil && resp.StatusCode == http.StatusOK {
		if err := read(resp.Body); err != nil {
			return resp.StatusCode, fmt.Errorf("fleet: decoding %s response: %w", path, err)
		}
		return resp.StatusCode, nil
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes))
	return resp.StatusCode, nil
}

// claimBatch long-polls for up to max tasks. (nil, 0, nil) means nothing
// claimable. granted is non-zero when the coordinator clamped max to its
// own per-round-trip cap — callers should shrink later requests to it.
func (cl *client) claimBatch(ctx context.Context, worker string, wait time.Duration, max int) (ts []*Task, granted int, err error) {
	body, err := json.Marshal(claimBatchRequest{Worker: worker, WaitMillis: wait.Milliseconds(), Max: max})
	if err != nil {
		return nil, 0, err
	}
	var resp claimBatchResponse
	code, err := cl.post(ctx, "/fleet/claimbatch", body, func(r io.Reader) error { return readClaimBatch(r, &resp) })
	if err != nil {
		return nil, 0, err
	}
	switch code {
	case http.StatusOK:
		return resp.Tasks, resp.Granted, nil
	case http.StatusNoContent:
		return nil, 0, nil
	case http.StatusForbidden:
		return nil, 0, ErrQuarantined
	case http.StatusServiceUnavailable:
		return nil, 0, ErrClosed
	case http.StatusBadGateway:
		return nil, 0, ErrUnavailable
	default:
		return nil, 0, fmt.Errorf("fleet: claimbatch: unexpected status %d", code)
	}
}

// heartbeat extends a lease; ok=false means the lease is gone (fence).
func (cl *client) heartbeat(ctx context.Context, worker, taskID string, epoch int) (ok bool, err error) {
	body, err := json.Marshal(heartbeatRequest{Worker: worker, Task: taskID, Epoch: epoch})
	if err != nil {
		return false, err
	}
	code, err := cl.post(ctx, "/fleet/heartbeat", body, nil)
	if err != nil {
		return false, err
	}
	switch code {
	case http.StatusOK:
		return true, nil
	case http.StatusConflict:
		return false, nil
	case http.StatusBadGateway:
		return false, ErrUnavailable
	default:
		return false, fmt.Errorf("fleet: heartbeat: unexpected status %d", code)
	}
}

// errRefused is a 400 answer to a report batch: the coordinator could
// not read the request, so it judged none of its reports. A coordinator
// older than the request's max answers so to a request that carries it.
var errRefused = errors.New("fleet: reportbatch: request refused")

// reportBatch delivers several outcomes and asks for up to max more
// tasks; accepted[i]=false means report i was stale. The verdict slice
// always matches len(reports), and ts holds the tasks granted.
func (cl *client) reportBatch(ctx context.Context, worker string, reports []TaskReport, max int) (accepted []bool, ts []*Task, err error) {
	body, err := encodeReportBatch(&reportBatchRequest{Worker: worker, Reports: reports, Max: max})
	if err != nil {
		return nil, nil, err
	}
	var resp reportBatchResponse
	code, err := cl.post(ctx, "/fleet/reportbatch", body, func(r io.Reader) error { return readReportBatchResponse(r, &resp) })
	if err != nil {
		return nil, nil, err
	}
	switch code {
	case http.StatusOK:
	case http.StatusBadRequest:
		return nil, nil, errRefused
	case http.StatusBadGateway:
		return nil, nil, ErrUnavailable
	default:
		return nil, nil, fmt.Errorf("fleet: reportbatch: unexpected status %d", code)
	}
	if len(resp.Accepted) != len(reports) {
		return nil, nil, fmt.Errorf("fleet: reportbatch: %d verdicts for %d reports", len(resp.Accepted), len(reports))
	}
	return resp.Accepted, resp.Tasks, nil
}

// scratchPool recycles the scratch the batch messages are written and
// read with.
var scratchPool = sync.Pool{New: func() any { return &scratch{names: make(map[string]string)} }}

// writeClaimBatch answers a claim with the tasks it granted.
func writeClaimBatch(w http.ResponseWriter, resp *claimBatchResponse) {
	writeMessage(w, resp, appendClaimBatch)
}

// writeReportBatch answers a report batch with its verdicts and the
// tasks it granted.
func writeReportBatch(w http.ResponseWriter, resp *reportBatchResponse) {
	writeMessage(w, resp, appendReportBatchResponse)
}

// writeMessage answers 200 with a response body written by hand in the
// bytes json.NewEncoder writes: a body encoding/json cannot encode is
// left empty, as its Encoder leaves it.
func writeMessage[T any](w http.ResponseWriter, resp *T, write func([]byte, *T) ([]byte, error)) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	body, err := write(s.buf[:0], resp)
	s.buf = body
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err == nil {
		w.Write(body)
	}
}

// readClaimBatch decodes a claim batch response body as
// json.Decoder.Decode does.
func readClaimBatch(r io.Reader, resp *claimBatchResponse) error {
	return readMessage(r, resp, parseClaimBatch, false)
}

// readReportBatchResponse decodes a report batch response body as
// json.Decoder.Decode does.
func readReportBatchResponse(r io.Reader, resp *reportBatchResponse) error {
	return readMessage(r, resp, parseReportBatchResponse, false)
}

// encodeReportBatch encodes a report batch request body in the bytes
// json.Marshal writes. The body is a copy of the scratch it was written
// in, since the transport may read it after the request returns.
func encodeReportBatch(req *reportBatchRequest) ([]byte, error) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	s.buf = appendReportBatch(s.buf[:0], req)
	return bytes.Clone(s.buf), nil
}

// readReportBatch decodes a report batch request body as decodeRequest
// does.
func readReportBatch(r io.Reader, req *reportBatchRequest) error {
	return readMessage(r, req, parseReportBatch, true)
}

// readMessage reads at most maxBodyBytes of r and parses them by hand.
// A body the parse declines, or whose read failed, goes to the decoder
// call the message was always read with: a request's decodeRequest when
// strict, and otherwise json.Decoder.Decode, which stops after the first
// value. It reads the same bytes, then the read's error.
func readMessage[T any](r io.Reader, v *T, parse func([]byte, *scratch) (T, bool), strict bool) error {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	data, err := readBody(s.buf[:0], io.LimitReader(r, maxBodyBytes))
	s.buf = data
	if err == nil {
		if m, ok := parse(data, s); ok {
			*v = m
			return nil
		}
	}
	var rest io.Reader = bytes.NewReader(data)
	if err != nil {
		rest = io.MultiReader(rest, errReader{err})
	}
	dec := json.NewDecoder(rest)
	if strict {
		return decodeRequest(dec, v)
	}
	return dec.Decode(v)
}

// readBody appends what r holds to dst, as io.ReadAll does.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// errReader fails every read with err.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

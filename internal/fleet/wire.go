// Package fleet distributes a tuning run's evaluations across worker
// processes with a claim/lease/heartbeat/report protocol.
//
// The coordinator owns everything stateful: the search loop (it runs the
// ordinary funcytuner pipeline with Options.Evaluator pointing at the
// fleet), checkpointing, quarantine, and the deterministic merge of
// evaluation outcomes. Workers are pure claim executors: each holds an
// EvalService — a session configured identically to the coordinator's —
// and every claim's outcome is a pure function of (spec, phase, sample,
// CVs), so re-executing a claim anywhere yields bit-identical results.
// That purity is the whole fault-tolerance story: a dead, stalled or
// partitioned worker just means its lease expires and the claim is
// re-dispatched, and the merged Report.Fingerprint cannot tell.
//
// Lease state machine (per task):
//
//	queued --claim--> leased --report(epoch ok)--> done
//	   ^                 |
//	   |                 +--lease expires / heartbeat stops--+
//	   +--requeue (backoff, epoch burned)--------------------+
//
// Epoch rules: every lease grant increments the task's epoch, and a
// report or heartbeat is valid only if it carries the epoch of the
// currently live lease. A worker that stalls past its deadline and
// reports late therefore presents a burned epoch and is rejected; the
// accepted report — there is exactly one per task — is the only one
// whose cost and trace span enter the session. Workers self-fence: a
// heartbeat rejection tells the worker its lease is gone, and it abandons
// the evaluation rather than report a result nobody will accept.
package fleet

import (
	"fmt"
	"strconv"

	"funcytuner"
	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/trace"
)

// Spec identifies a tuning run precisely enough for a worker to rebuild
// the coordinator's session bit-for-bit. Claims ignore its technique and
// protocol (workers replay the CVs a claim carries), but recovery needs
// them: a journal-recovered job resumes as submitted, or its checkpoint
// would not load and none of its recovered tasks would be adopted.
type Spec = funcytuner.Spec

// validateSpec rejects specs a worker could not faithfully execute. Zero
// fields take the facade defaults, except Seed, which the coordinator
// must always resolve before enqueueing work: equal seeds are what make
// coordinator and worker sessions interchangeable.
func validateSpec(sp Spec) error {
	if sp.Benchmark == "" {
		return fmt.Errorf("fleet: spec benchmark is empty")
	}
	if sp.Machine == "" {
		return fmt.Errorf("fleet: spec machine is empty")
	}
	if sp.Seed == "" {
		return fmt.Errorf("fleet: spec seed is empty (the coordinator must resolve it)")
	}
	if sp.Samples < 0 || sp.TopX < 0 || sp.FaultRate < 0 {
		return fmt.Errorf("fleet: spec has negative budget or fault rate")
	}
	return nil
}

// Task is one leased evaluation claim on the wire.
type Task struct {
	// ID uniquely names the task within the coordinator's lifetime.
	ID string `json:"id"`
	// Job is the owning tuning job's identity (for logs and service
	// caching on the worker).
	Job string `json:"job"`
	// Spec is the owning run's deterministic identity.
	Spec Spec `json:"spec"`
	// Phase and Sample locate the claim in the pipeline; CVs is the
	// flag-value matrix (one row per CV, one column per flag).
	Phase  string  `json:"phase"`
	Sample int     `json:"sample"`
	CVs    [][]int `json:"cvs"`
	// Epoch is the lease generation. Heartbeats and the report must echo
	// it; any other value is stale.
	Epoch int `json:"epoch"`
	// LeaseMillis is the lease TTL; the worker must report (or keep
	// heartbeating) within it. HeartbeatMillis is the cadence the
	// coordinator expects.
	LeaseMillis     int64 `json:"lease_millis"`
	HeartbeatMillis int64 `json:"heartbeat_millis"`
}

// Outcome is one completed evaluation on the wire. Floats travel as
// lossless hex-float strings (the checkpoint/trace encoding), so the
// coordinator merges exactly the bits the worker measured — including
// the +Inf of lost evaluations.
type Outcome struct {
	// PerModule are the per-coupling-unit times of a collect claim.
	PerModule []string `json:"per_module,omitempty"`
	// Total is the measured end-to-end time.
	Total string `json:"total"`
	// Cost is the evaluation's cost-ledger delta.
	Cost core.CostSnapshot `json:"cost"`
	// Quarantined lists poisoned CV fingerprints as hex strings.
	Quarantined []string `json:"quarantined,omitempty"`
	// Events is the evaluation's trace span (trace.Event's JSON encoding
	// is itself byte-stable).
	Events []trace.Event `json:"events,omitempty"`
}

// formatFloat renders a float as the lossless hex-float wire string.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// parseFloat is the inverse of formatFloat.
func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// encodeCVs flattens CVs to the wire matrix.
func encodeCVs(cvs []flagspec.CV) [][]int {
	out := make([][]int, len(cvs))
	for i, cv := range cvs {
		n := cv.Space().NumFlags()
		row := make([]int, n)
		for f := 0; f < n; f++ {
			row[f] = cv.Value(f)
		}
		out[i] = row
	}
	return out
}

// decodeCVs rebuilds CVs from the wire matrix against the worker's
// space, validating every value.
func decodeCVs(space *flagspec.Space, rows [][]int) ([]flagspec.CV, error) {
	out := make([]flagspec.CV, len(rows))
	for i, row := range rows {
		cv, err := space.Make(row)
		if err != nil {
			return nil, fmt.Errorf("fleet: CV %d: %w", i, err)
		}
		out[i] = cv
	}
	return out, nil
}

// encodeOutcome converts a completed evaluation to its wire form.
func encodeOutcome(out core.EvalOutcome) *Outcome {
	w := &Outcome{
		Total:  formatFloat(out.Total),
		Cost:   out.Cost,
		Events: out.Events,
	}
	for _, v := range out.PerModule {
		w.PerModule = append(w.PerModule, formatFloat(v))
	}
	for _, k := range out.Quarantined {
		w.Quarantined = append(w.Quarantined, strconv.FormatUint(k, 16))
	}
	return w
}

// decodeOutcome is the inverse of encodeOutcome, validating every field.
func (o *Outcome) decode() (core.EvalOutcome, error) {
	var out core.EvalOutcome
	total, err := parseFloat(o.Total)
	if err != nil {
		return out, fmt.Errorf("fleet: bad total %q: %v", o.Total, err)
	}
	out.Total = total
	for i, s := range o.PerModule {
		v, err := parseFloat(s)
		if err != nil {
			return out, fmt.Errorf("fleet: bad per-module time %d %q: %v", i, s, err)
		}
		out.PerModule = append(out.PerModule, v)
	}
	for i, s := range o.Quarantined {
		k, err := strconv.ParseUint(s, 16, 64)
		if err != nil {
			return out, fmt.Errorf("fleet: bad quarantine key %d %q: %v", i, s, err)
		}
		out.Quarantined = append(out.Quarantined, k)
	}
	out.Cost = o.Cost
	out.Events = o.Events
	return out, nil
}

// heartbeatRequest extends a live lease.
type heartbeatRequest struct {
	Worker string `json:"worker"`
	Task   string `json:"task"`
	Epoch  int    `json:"epoch"`
}

// claimBatchRequest asks for up to Max tasks in one round-trip.
// WaitMillis bounds the long-poll; the coordinator answers 204 when
// nothing becomes claimable in time, and otherwise grants whatever is
// claimable the moment anything is (it never waits to fill the batch —
// latency beats batch occupancy).
type claimBatchRequest struct {
	Worker     string `json:"worker"`
	WaitMillis int64  `json:"wait_millis,omitempty"`
	Max        int    `json:"max"`
}

// claimBatchResponse carries the granted leases, in FIFO grant order.
// Granted, when non-zero, reports the coordinator's per-round-trip lease
// cap: the request asked for more than the coordinator will ever grant
// at once and was clamped, so the worker should shrink its subsequent
// requests (and its -claim-batch setting) to this value instead of
// silently over-asking forever.
type claimBatchResponse struct {
	Tasks   []*Task `json:"tasks"`
	Granted int     `json:"granted,omitempty"`
}

// TaskReport is one claim's outcome (or the evaluation error that
// prevented one) inside a batched report. Each entry is accepted or
// rejected independently against its own lease.
type TaskReport struct {
	Task    string   `json:"task"`
	Epoch   int      `json:"epoch"`
	Outcome *Outcome `json:"outcome,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// reportBatchRequest delivers several claims' outcomes in one
// round-trip. Max, when positive, asks for up to that many more tasks in
// the same round trip: the worker's next claim, which never waits.
type reportBatchRequest struct {
	Worker  string       `json:"worker"`
	Reports []TaskReport `json:"reports"`
	Max     int          `json:"max,omitempty"`
}

// reportBatchResponse echoes one accept/reject verdict per report, in
// request order, and the tasks the request's Max leased, in FIFO grant
// order. A false entry means the lease moved on: the worker drops that
// outcome (self-fence, no retry). No tasks means none was ready, and the
// worker long-polls claimbatch.
type reportBatchResponse struct {
	Accepted []bool  `json:"accepted"`
	Tasks    []*Task `json:"tasks,omitempty"`
}

package core

import (
	"context"
	"fmt"
	"math"

	"funcytuner/internal/flagspec"
	"funcytuner/internal/trace"
)

// This file is the session's distributed-evaluation seam. Every
// evaluation in the pipeline is a pure function of (program, machine,
// input, seed, config, phase, sample index, CV assignment) — the
// invariant the checkpoint/resume and worker-invariance tests pin. That
// purity means an evaluation can execute in a different process: a
// fleet worker holding an identical session produces bit-identical
// measured times, cost deltas, quarantine decisions and trace events
// for the same claim. The coordinator's session then applies the
// outcome exactly as if it had evaluated locally, so the merged Report
// (and its Fingerprint) cannot distinguish local from remote execution.
//
// The seam has two halves:
//
//   - Config.Remote (a RemoteEvaluator) turns this session into a
//     coordinator: measureEval/measureUniformEval dispatch each claim
//     through the evaluator instead of compiling and running locally,
//     and applyRemote merges the outcome (cost, quarantine, metrics,
//     trace span) on return. The parFor claim loop above is unchanged —
//     it bounds in-flight claims exactly as it bounds local workers.
//   - EvaluateClaim is the worker half: it executes one claim on a
//     local session and captures the evaluation's portable outcome,
//     including the trace span, via a detached batch.

// EvalRequest identifies one evaluation claim. Phase "collect" is the
// instrumented uniform evaluation (CVs holds the single uniform CV);
// every other phase measures the CV-per-module assembly end-to-end.
type EvalRequest struct {
	// Phase is the pipeline phase name ("collect", "cfr", "random",
	// "fr", "greedy").
	Phase string
	// Sample is the evaluation's index within the phase.
	Sample int
	// CVs is the compilation-vector assignment: one CV for "collect",
	// one per partition module otherwise.
	CVs []flagspec.CV
}

// EvalOutcome is one completed evaluation's portable result: everything
// the coordinator must merge to stay bit-identical to a local run.
type EvalOutcome struct {
	// PerModule are the per-coupling-unit times of a "collect"
	// evaluation (nil for other phases).
	PerModule []float64
	// Total is the measured end-to-end time (+Inf for lost evaluations).
	Total float64
	// Cost is the evaluation's cost-ledger delta.
	Cost CostSnapshot
	// Quarantined lists CV fingerprints this evaluation classified as
	// poison (injected ICEs, permanent run crashes).
	Quarantined []uint64
	// Events is the evaluation's trace span, in deterministic step
	// order, with the worker-local phase ordinal and wall clock unset.
	Events []trace.Event
}

// RemoteEvaluator executes evaluation claims somewhere else — typically
// the fleet coordinator fanning claims out to worker processes. Evaluate
// must return the outcome the claim's pure evaluation function defines:
// the session applies it verbatim. Implementations own all transport
// retries and re-dispatch; an error return aborts the tuning run (the
// session only calls it with errors it cannot recover from, e.g. a
// cancelled context).
type RemoteEvaluator interface {
	Evaluate(ctx context.Context, req EvalRequest) (EvalOutcome, error)
}

// capKey identifies one evaluation by phase and sample index: an
// in-flight captured claim, or a sample replayed from a checkpoint log.
type capKey struct {
	phase  string
	sample int
}

// batchFor returns the trace batch for evaluation (phase, k): the
// registered capture batch when EvaluateClaim is executing that claim,
// the session recorder's batch otherwise.
func (s *Session) batchFor(phase string, k int) *trace.Batch {
	s.capMu.Lock()
	tb := s.captures[capKey{phase, k}]
	s.capMu.Unlock()
	if tb != nil {
		return tb
	}
	return s.tr.Batch(phase, k)
}

// snapshotEval converts an evaluation cost delta to its portable form.
func snapshotEval(ec evalCost) CostSnapshot { return CostSnapshot{}.addEval(ec) }

// evalCostFromSnapshot is the inverse of snapshotEval.
func evalCostFromSnapshot(s CostSnapshot) evalCost {
	return evalCost{
		compiles:       s.Compiles,
		runs:           s.Runs,
		simMicros:      s.SimMicros,
		retries:        s.Retries,
		wastedCompiles: s.WastedCompiles,
		faultMicros:    s.FaultMicros,
		compileFails:   s.CompileFails,
		runCrashes:     s.RunCrashes,
		timeouts:       s.Timeouts,
		flakes:         s.Flakes,
	}
}

// EvaluateClaim executes one evaluation claim on this session — the
// fleet-worker entry point. The claim's trace span is captured through a
// detached batch (the session's own recorder, if any, does not receive
// it), and the outcome carries the exact cost delta and quarantine
// decisions the evaluation produced. Claims for distinct (phase, sample)
// pairs may run concurrently; re-executing the same claim returns
// bit-identical outcomes, which is what makes lease-expiry re-dispatch
// safe.
func (s *Session) EvaluateClaim(ctx context.Context, req EvalRequest) (EvalOutcome, error) {
	if s.Config.Remote != nil {
		return EvalOutcome{}, fmt.Errorf("core: EvaluateClaim on a coordinator session")
	}
	if req.Sample < 0 || req.Sample >= s.Config.Samples {
		return EvalOutcome{}, fmt.Errorf("core: claim sample %d outside [0, %d)", req.Sample, s.Config.Samples)
	}
	uniform := req.Phase == "collect"
	switch {
	case uniform && len(req.CVs) != 1:
		return EvalOutcome{}, fmt.Errorf("core: collect claim carries %d CVs, want 1", len(req.CVs))
	case !uniform && len(req.CVs) != len(s.Part.Modules):
		return EvalOutcome{}, fmt.Errorf("core: claim carries %d CVs for %d modules", len(req.CVs), len(s.Part.Modules))
	}
	for i, cv := range req.CVs {
		if cv.IsZero() {
			return EvalOutcome{}, fmt.Errorf("core: claim CV %d is zero", i)
		}
	}

	tb := trace.NewSpanBatch(req.Phase, req.Sample)
	key := capKey{req.Phase, req.Sample}
	s.capMu.Lock()
	if _, busy := s.captures[key]; busy {
		s.capMu.Unlock()
		return EvalOutcome{}, fmt.Errorf("core: claim %s/%d already in flight", req.Phase, req.Sample)
	}
	s.captures[key] = tb
	s.capMu.Unlock()
	defer func() {
		s.capMu.Lock()
		delete(s.captures, key)
		s.capMu.Unlock()
	}()

	var out EvalOutcome
	if uniform {
		per, total, ec, err := s.measureUniformEval(ctx, req.CVs[0], req.Phase, req.Sample)
		if err != nil {
			return EvalOutcome{}, err
		}
		out = EvalOutcome{PerModule: per, Total: total, Cost: snapshotEval(ec), Quarantined: ec.quarantined}
	} else {
		t, ec, err := s.measureEval(ctx, req.CVs, req.Phase, req.Sample)
		if err != nil {
			return EvalOutcome{}, err
		}
		out = EvalOutcome{Total: t, Cost: snapshotEval(ec), Quarantined: ec.quarantined}
	}
	out.Events = tb.Events()
	return out, nil
}

// remoteEval dispatches one claim through the configured RemoteEvaluator
// and merges the outcome. The cancellation check guards the evaluation
// boundary exactly like the local path: a cancelled run never applies a
// partial claim's cost.
func (s *Session) remoteEval(ctx context.Context, req EvalRequest) (EvalOutcome, evalCost, error) {
	var ec evalCost
	if err := s.checkCancelled(ctx); err != nil {
		return EvalOutcome{}, ec, err
	}
	out, err := s.Config.Remote.Evaluate(ctx, req)
	if err != nil {
		return EvalOutcome{}, ec, fmt.Errorf("core: remote evaluation %s/%d: %w", req.Phase, req.Sample, err)
	}
	if math.IsNaN(out.Total) {
		return EvalOutcome{}, ec, fmt.Errorf("core: remote evaluation %s/%d returned NaN", req.Phase, req.Sample)
	}
	ec = s.applyRemote(out)
	return out, ec, nil
}

// applyRemote merges a completed remote evaluation into the session:
// quarantine decisions, the cost ledger, the per-class metric counters
// that local evaluations increment at their branch sites, and the trace
// span (re-stamped with this session's phase ordinal). Order-independent
// by construction — every ingredient is commutative — so the merge is
// deterministic no matter which worker reported first.
func (s *Session) applyRemote(out EvalOutcome) evalCost {
	for _, key := range out.Quarantined {
		s.quarantineCV(key)
	}
	ec := evalCostFromSnapshot(out.Cost)
	ec.quarantined = out.Quarantined
	s.met.applyRemote(ec)
	s.tr.CommitSpan(out.Events)
	s.finishEval(ec)
	return ec
}

package faults

import (
	"fmt"

	"funcytuner/internal/xrand"
)

// Worker-level fault modes for the distributed evaluation fleet. Where
// the evaluation-level classes above model the *work* failing (ICEs,
// crashes, flakes), these model the *process* holding the lease failing:
// a worker dying mid-evaluation, stalling past its lease, reporting and
// then dying, or reporting against an epoch it no longer holds. The
// coordinator must absorb all of them without the merged Report
// observing anything — the chaos tests inject these modes and assert
// fingerprint bit-equality with a clean single-node run.
//
// Like the evaluation classes, every draw is a pure function of
// (fleet seed, worker identity, claim identity), so a chaos run is
// reproducible and a re-dispatched claim on a healthy worker sees the
// same evaluation outcomes as the dead worker would have reported.

// WorkerClass classifies one claim execution on a fleet worker.
type WorkerClass int

const (
	// WorkerOK means the worker evaluates and reports normally.
	WorkerOK WorkerClass = iota
	// WorkerDieMidEval means the worker goes silent mid-evaluation:
	// heartbeats stop and no report is ever sent for any lease in the
	// claimed batch, so every one of them expires.
	WorkerDieMidEval
	// WorkerStall means the worker hangs past its lease deadline, then
	// wakes up and reports anyway — a late report with a stale epoch.
	WorkerStall
	// WorkerReportThenDie means the worker delivers its report and then
	// goes silent, so subsequent claims must flow to its peers.
	WorkerReportThenDie
	// WorkerStaleReport means the worker reports the claim twice — the
	// duplicate carrying the epoch of the original lease — modeling a
	// partitioned worker rejoining and replaying its send buffer.
	WorkerStaleReport
)

// String names the class for logs and reports.
func (c WorkerClass) String() string {
	switch c {
	case WorkerOK:
		return "ok"
	case WorkerDieMidEval:
		return "die-mid-eval"
	case WorkerStall:
		return "stall"
	case WorkerReportThenDie:
		return "report-then-die"
	case WorkerStaleReport:
		return "stale-report"
	default:
		return fmt.Sprintf("faults.WorkerClass(%d)", int(c))
	}
}

// WorkerRates configures per-claim probabilities of the worker fault
// modes. The zero value disables injection (the clean fleet path).
type WorkerRates struct {
	// DieMidEval is the per-claim probability the worker goes silent
	// mid-evaluation.
	DieMidEval float64 `json:"die_mid_eval"`
	// Stall is the per-claim probability the worker hangs past its lease
	// and reports late with a stale epoch.
	Stall float64 `json:"stall"`
	// ReportThenDie is the per-claim probability the worker dies right
	// after delivering its report.
	ReportThenDie float64 `json:"report_then_die"`
	// StaleReport is the per-claim probability the worker replays its
	// report a second time with the original epoch.
	StaleReport float64 `json:"stale_report"`
}

// DefaultWorkerRates returns a chaos mix for fleet robustness tests: 3%
// mid-evaluation deaths, 2% stalls, 1% report-then-die, 4% replayed
// reports.
func DefaultWorkerRates() WorkerRates {
	return WorkerRates{DieMidEval: 0.03, Stall: 0.02, ReportThenDie: 0.01, StaleReport: 0.04}
}

// Scale multiplies every mode rate by f, clamping each to [0, 0.95].
func (r WorkerRates) Scale(f float64) WorkerRates {
	clamp := func(x float64) float64 {
		x *= f
		if x < 0 {
			return 0
		}
		if x > 0.95 {
			return 0.95
		}
		return x
	}
	return WorkerRates{
		DieMidEval:    clamp(r.DieMidEval),
		Stall:         clamp(r.Stall),
		ReportThenDie: clamp(r.ReportThenDie),
		StaleReport:   clamp(r.StaleReport),
	}
}

// Enabled reports whether any mode has a nonzero rate.
func (r WorkerRates) Enabled() bool {
	return r.DieMidEval > 0 || r.Stall > 0 || r.ReportThenDie > 0 || r.StaleReport > 0
}

// Validate rejects rates outside [0, 1), NaN included, with the same
// rationale as Rates.Validate: a rate of exactly 1 kills every worker on
// its first claim, which starves the fleet instead of stressing it.
func (r WorkerRates) Validate() error {
	check := func(name string, v float64) error {
		if v != v { // NaN
			return fmt.Errorf("faults: worker %s rate is NaN", name)
		}
		if v < 0 || v >= 1 {
			return fmt.Errorf("faults: worker %s rate %v outside [0, 1)", name, v)
		}
		return nil
	}
	if err := check("DieMidEval", r.DieMidEval); err != nil {
		return err
	}
	if err := check("Stall", r.Stall); err != nil {
		return err
	}
	if err := check("ReportThenDie", r.ReportThenDie); err != nil {
		return err
	}
	return check("StaleReport", r.StaleReport)
}

// Domain-separation salts for the worker-mode draws. The modes are drawn
// from disjoint probability bands of a single per-claim uniform, so at
// most one mode fires per claim and the combined rate is the sum.
const saltWorker = 0xdead307b

// WorkerModel draws deterministic worker fault modes for one fleet run.
// A nil *WorkerModel is valid and injects nothing.
type WorkerModel struct {
	rates  WorkerRates
	seed   uint64
	worker uint64
}

// NewWorkerModel builds a model for one worker process. seed is the
// run's experiment seed, workerID the worker's stable identity — two
// workers in the same run draw independent fault streams, and the same
// worker re-draws identically after a restart.
func NewWorkerModel(seed, workerID string, r WorkerRates) *WorkerModel {
	if !r.Enabled() {
		return nil
	}
	return &WorkerModel{
		rates:  r,
		seed:   xrand.HashString("faults/worker/" + seed),
		worker: xrand.HashString(workerID),
	}
}

// Classify draws the fault mode for one claim, identified by the claim's
// task fingerprint (hash of job, phase and sample). Pure per (seed,
// worker, claim): a stalled worker that retries the same claim after
// rejoining draws the same class again, which the claim-loop breaks by
// folding the attempt number into the key it passes.
func (m *WorkerModel) Classify(claimKey uint64) WorkerClass {
	if m == nil {
		return WorkerOK
	}
	u := float64(xrand.Combine(m.seed, m.worker, claimKey, saltWorker)>>11) / (1 << 53)
	switch {
	case u < m.rates.DieMidEval:
		return WorkerDieMidEval
	case u < m.rates.DieMidEval+m.rates.Stall:
		return WorkerStall
	case u < m.rates.DieMidEval+m.rates.Stall+m.rates.ReportThenDie:
		return WorkerReportThenDie
	case u < m.rates.DieMidEval+m.rates.Stall+m.rates.ReportThenDie+m.rates.StaleReport:
		return WorkerStaleReport
	default:
		return WorkerOK
	}
}

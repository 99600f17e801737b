package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"funcytuner/internal/caliper"
	"funcytuner/internal/exec"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/stats"
	"funcytuner/internal/trace"
)

// This file is the fault-tolerant half of the evaluation path. Real
// FuncyTuner campaigns run for days on shared nodes (§4.3); the harness
// therefore treats evaluation failure as a first-class outcome:
//
//   - injected internal compiler errors quarantine the offending CV and
//     report +Inf, so the combo is never re-sampled;
//   - injected run crashes and deadline blowups report +Inf and charge
//     their wasted simulated time;
//   - transient flakes are retried with capped exponential backoff before
//     the evaluation is given up as +Inf (transient — not quarantined);
//   - a module whose pruned pool ends up empty or all-failed degrades to
//     its baseline CV instead of aborting the run.
//
// Everything is deterministic per (seed, CV/assembly, machine, attempt),
// so fault-injected runs remain bit-reproducible at any worker count and
// across checkpoint/resume.

// checkKilled returns ErrKilled once the simulated node failure has hit.
func (s *Session) checkKilled() error {
	if s.Config.KillAfterEvals > 0 && s.killed.Load() {
		return ErrKilled
	}
	return nil
}

// checkCancelled guards an evaluation boundary: a cancelled context or a
// tripped simulated node failure stops the evaluation before it charges
// any cost, so the checkpoint only ever contains whole evaluations and
// cancellation is observationally equivalent to KillAfterEvals at the
// same evaluation index.
func (s *Session) checkCancelled(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: session cancelled: %w", err)
	}
	return s.checkKilled()
}

// finishEval applies a completed evaluation's cost delta to the
// CostAccount and the metrics, and advances the simulated node-failure
// clock. It is the only place either ledger grows, so the metrics move
// exactly as the CostAccount does.
func (s *Session) finishEval(d CostSnapshot) {
	s.Cost.add(d)
	s.completed.Add(1)
	s.met.finishEval(d)
	if s.Config.KillAfterEvals > 0 {
		if s.evals.Add(1) >= int64(s.Config.KillAfterEvals) {
			s.killed.Store(true)
		}
	}
}

// quarantineCV marks a CV fingerprint as poison. The gauge update rides
// inside the lock so its final value is exactly the quarantine size.
func (s *Session) quarantineCV(key uint64) {
	s.qmu.Lock()
	s.quarantine[key] = true
	s.met.quarantined.Set(float64(len(s.quarantine)))
	s.qmu.Unlock()
}

func (s *Session) isQuarantined(key uint64) bool {
	s.qmu.Lock()
	q := s.quarantine[key]
	s.qmu.Unlock()
	return q
}

// Quarantined returns the poison CV fingerprints, sorted for stable
// reporting and checkpointing.
func (s *Session) Quarantined() []uint64 {
	s.qmu.Lock()
	keys := make([]uint64, 0, len(s.quarantine))
	for k := range s.quarantine {
		keys = append(keys, k)
	}
	s.qmu.Unlock()
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	return keys
}

func (s *Session) restoreQuarantine(keys []uint64) {
	s.qmu.Lock()
	for _, k := range keys {
		s.quarantine[k] = true
	}
	s.qmu.Unlock()
}

// evaluate is the one measurement path: every evaluation the pipeline
// makes, local or remote, is a request in and an outcome out. A collect
// request compiles its one CV into every module and runs it with Caliper
// instrumentation (Fig. 4), reporting per-module times; any other request
// runs its CV-per-module assembly end to end (Algorithm 1). Crashing code
// variants (§3.2: some flag settings "prevent a program from running
// successfully") and injected faults that exhaust the retry budget
// measure +Inf, so they lose every argmin without special-casing; a lost
// collect evaluation reports +Inf for every module, so its CV drops out
// of all pruned pools. The outcome's Cost and Quarantined are the
// evaluation's cost delta and quarantine decisions, already applied to
// the session when evaluate returns.
func (s *Session) evaluate(ctx context.Context, req EvalRequest) (EvalOutcome, error) {
	if s.Config.Remote != nil {
		return s.remoteEval(ctx, req)
	}
	if err := s.checkCancelled(ctx); err != nil {
		return EvalOutcome{}, err
	}
	var sc *evalScratch
	if !s.Config.Unpooled {
		sc = s.getScratch()
		defer s.putScratch(sc)
	}
	collect := req.Phase == phaseCollect
	cvs := req.CVs
	var crashQ []flagspec.CV
	if collect {
		// Every module compiles with the one CV, so a permanent run
		// crash is that CV's fault.
		if sc != nil {
			cvs = sc.uniform
		} else {
			cvs = make([]flagspec.CV, len(s.Part.Modules))
		}
		for i := range cvs {
			cvs[i] = req.CVs[0]
		}
		crashQ = req.CVs
	}
	out := EvalOutcome{Total: math.Inf(1)}
	tb := s.batchFor(req.Phase, req.Sample)
	var prof caliper.Profile
	if !s.icePass(cvs, &out, tb) {
		exe, err := s.prep.Compile(cvs)
		if err != nil {
			return EvalOutcome{}, err
		}
		out.Cost.Compiles += int64(len(s.Part.Modules))
		tb.Add(trace.Event{Kind: trace.KindCompile, Modules: len(s.Part.Modules)})
		tb.Add(trace.Event{Kind: trace.KindLink})
		if exe.Crashes() {
			out.Cost.addRun(0.1) // the failed launch still costs a moment
			tb.Add(trace.Event{Kind: trace.KindFault, Name: "crash", Seconds: 0.1, Sim: out.Cost.simSeconds()})
		} else {
			stamp := func(res exec.Result) {
				name := "ok"
				if res.Killed {
					name = "killed"
				}
				tb.Add(trace.Event{Kind: trace.KindRun, Name: name, Seconds: res.Total, Sim: out.Cost.simSeconds()})
			}
			out.Total, err = s.faultedRun(ctx, &out, cvs, crashQ, tb, func() exec.Result {
				if collect {
					// The caliper path doesn't go through exec.Options, so
					// the harness deadline is emulated here with the same
					// semantics.
					prof = s.caliperProfile(exe, sc, req.Phase, req.Sample)
					res := exec.Result{Total: prof.Total}
					if dl := s.Config.TimeoutBudget; dl > 0 && prof.Total > dl {
						res = exec.Result{Total: dl, Killed: true}
					}
					stamp(res)
					return res
				}
				opt := exec.Options{
					Noise:           s.noiseFor(sc, req.Phase, req.Sample),
					DeadlineSeconds: s.Config.TimeoutBudget,
					Observer:        stamp,
				}
				if sc != nil {
					return s.runProf.RunInto(exe, opt, sc.perLoop)
				}
				return s.runProf.Run(exe, opt)
			})
			if err != nil {
				return EvalOutcome{}, err
			}
		}
	}
	if collect {
		out.PerModule = make([]float64, len(s.Part.Modules))
		for mi, mod := range s.Part.Modules {
			if math.IsInf(out.Total, 1) {
				out.PerModule[mi] = math.Inf(1)
				continue
			}
			if mod.IsBase {
				// The base module's time is the non-loop time plus the
				// loops left in it (under the hotness threshold).
				out.PerModule[mi] = prof.NonLoop
			}
			for _, li := range mod.LoopIdx {
				out.PerModule[mi] += prof.PerLoop[li]
			}
		}
	}
	s.finishEval(out.Cost)
	s.closeEval(tb, out.Cost, out.Total)
	return out, nil
}

// icePass applies the injected compile-failure model to an assignment:
// any module CV classified as an ICE is quarantined. It reports whether
// the assembly's compilation died.
func (s *Session) icePass(cvs []flagspec.CV, out *EvalOutcome, tb *trace.Batch) bool {
	if s.faults == nil {
		return false
	}
	ice := false
	for _, cv := range cvs {
		key := cv.Key()
		if s.faults.CompileFails(key) {
			s.quarantineCV(key)
			out.Quarantined = append(out.Quarantined, key)
			ice = true
		}
	}
	if ice {
		out.Cost.WastedCompiles += int64(len(s.Part.Modules))
		out.Cost.CompileFails++
		tb.Add(trace.Event{Kind: trace.KindFault, Name: faults.CompileFail.String(),
			Modules: len(s.Part.Modules), Sim: out.Cost.simSeconds()})
	}
	return ice
}

// assemblyKey fingerprints the per-module CV assignment for the
// per-assembly fault draws. Allocation-free: it runs once per evaluation.
func (s *Session) assemblyKey(cvs []flagspec.CV) (key uint64, allBaseline bool) {
	h := faults.NewAssemblyHasher()
	allBaseline = true
	for _, cv := range cvs {
		k := cv.Key()
		h.Add(k)
		if k != s.baselineKey {
			allBaseline = false
		}
	}
	return h.Sum(), allBaseline
}

// faultedRun wraps one successful compile's run phase with the injected
// run-level fault model and the per-evaluation deadline. run() must be a
// pure function of the session state (it is invoked exactly once) and
// returns the run's result: its end-to-end simulated time plus whether
// the harness deadline killed it (a killed run's Total is the deadline it
// consumed). faultedRun returns the measured value: the run's time on
// success, +Inf when the evaluation is lost. crashQ lists the CVs to
// quarantine on a permanent run crash (a collect evaluation's one CV,
// where the crash is attributable to it). A ctx cancelled between retry
// attempts abandons the evaluation with the context's error: no cost is
// applied and the sample is never marked complete, so a resumed run
// recomputes it from scratch, bit-identically.
func (s *Session) faultedRun(ctx context.Context, out *EvalOutcome, cvs, crashQ []flagspec.CV, tb *trace.Batch, run func() exec.Result) (float64, error) {
	c := &out.Cost
	akey, exempt := s.assemblyKey(cvs)
	if s.faults != nil && !exempt {
		if s.faults.RunCrashes(akey) {
			for _, cv := range crashQ {
				key := cv.Key()
				s.quarantineCV(key)
				out.Quarantined = append(out.Quarantined, key)
			}
			c.RunCrashes++
			c.addRun(0.1) // the failed launch still costs a moment
			c.addFault(0.1)
			tb.Add(trace.Event{Kind: trace.KindFault, Name: faults.RunCrash.String(),
				Seconds: 0.1, Sim: c.simSeconds()})
			return math.Inf(1), nil
		}
		if s.faults.TimesOut(akey) {
			// Runtime blowup: the run burns the whole deadline budget
			// before the harness kills it.
			budget := s.Config.timeoutBudget()
			c.Timeouts++
			c.addRun(budget)
			c.addFault(budget)
			tb.Add(trace.Event{Kind: trace.KindFault, Name: faults.Timeout.String(),
				Seconds: budget, Sim: c.simSeconds()})
			return math.Inf(1), nil
		}
	}
	res := run()
	t := res.Total
	if res.Killed {
		// Genuinely pathological variant: the harness killed the run at
		// the deadline, so the deadline is the wall-clock it consumed.
		c.Timeouts++
		c.addRun(t)
		c.addFault(t)
		tb.Add(trace.Event{Kind: trace.KindFault, Name: "deadline",
			Seconds: t, Sim: c.simSeconds()})
		return math.Inf(1), nil
	}
	// Transient flakes: retry with capped exponential backoff. Each
	// attempt draws independently, so the fault stream is a pure function
	// of (seed, assembly, attempt) and retries are bit-reproducible.
	if s.faults != nil {
		for attempt := 0; s.faults.Flakes(akey, attempt); attempt++ {
			c.Flakes++
			c.addRun(t) // the flaked attempt still ran
			c.addFault(t)
			tb.Add(trace.Event{Kind: trace.KindFault, Name: faults.Flake.String(),
				Attempt: attempt + 1, Seconds: t, Sim: c.simSeconds()})
			if attempt >= s.Config.maxRetries() {
				return math.Inf(1), nil // give up; transient, so no quarantine
			}
			back := s.Config.backoff(attempt)
			c.Retries++
			c.SimMicros += int64(back * 1e6) // backoff burns wall-clock
			c.addFault(back)
			tb.Add(trace.Event{Kind: trace.KindRetry,
				Attempt: attempt + 1, Seconds: back, Sim: c.simSeconds()})
			if err := ctx.Err(); err != nil {
				return 0, fmt.Errorf("core: evaluation abandoned between retries: %w", err)
			}
		}
	}
	c.addRun(t)
	return t, nil
}

// prunedPools applies Algorithm 1's per-module pruning (top-X by measured
// per-module time) with the resilience overlays: quarantined CVs never
// enter a pool, and a module whose pool would be empty — or, under fault
// injection, whose every surviving candidate failed to produce a finite
// measurement — degrades to the baseline CV instead of aborting the run.
// With no quarantined CVs the pools are exactly the clean Algorithm 1
// pools.
func (s *Session) prunedPools(col *Collection) (pools [][]flagspec.CV, degraded []int) {
	pools = make([][]flagspec.CV, len(s.Part.Modules))
	baseline := s.Toolchain.Space.Baseline()
	anyQuarantine := len(s.Quarantined()) > 0
	for mi := range s.Part.Modules {
		candIdx := make([]int, 0, len(col.CVs))
		candTimes := make([]float64, 0, len(col.CVs))
		if anyQuarantine {
			for k := range col.CVs {
				if s.isQuarantined(col.CVs[k].Key()) {
					continue
				}
				candIdx = append(candIdx, k)
				candTimes = append(candTimes, col.Times[mi][k])
			}
		} else {
			for k := range col.CVs {
				candIdx = append(candIdx, k)
			}
			candTimes = col.Times[mi]
		}
		idx := stats.TopKSmallest(candTimes, s.Config.TopX)
		pool := make([]flagspec.CV, len(idx))
		finite := false
		for i, ci := range idx {
			pool[i] = col.CVs[candIdx[ci]]
			if !math.IsInf(candTimes[ci], 1) {
				finite = true
			}
		}
		if len(pool) == 0 || (s.faults != nil && !finite) {
			// Graceful degradation: the module's measurements keep
			// failing, so it falls back to the known-safe baseline CV.
			pool = []flagspec.CV{baseline}
			degraded = append(degraded, mi)
		}
		pools[mi] = pool
	}
	return pools, degraded
}

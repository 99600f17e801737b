package funcytuner

// This file is the facade's results-repository integration: a completed
// Report is stored, content-addressed by everything that determines it,
// and an identical later submission is served back in one lookup —
// no outlining, no session, no evaluations. The determinism contract
// makes this safe: a tuning run is a pure function of its KeySpec, so a
// stored entry and a recompute are interchangeable, and the facade
// proves it on every serve by recomputing Report.Fingerprint over the
// reconstructed result and comparing it to the fingerprint stored at
// Put time. Any mismatch (or any decode failure) invalidates the entry
// and falls through to a normal run — repository damage can cost a
// re-tune, never a wrong result.
//
// Everything round-trips losslessly: floats travel as strconv hex-float
// strings (NaN and ±Inf included — G.Independent's TrueTime is NaN by
// contract), CVs as their flag-string form re-parsed against the same
// flag space, and the canonical trace as embedded JSONL replayed
// verbatim into the caller's recorder.

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"funcytuner/internal/core"
	"funcytuner/internal/resultrepo"
	"funcytuner/internal/trace"
)

// ResultRepo is the content-addressed persistent tuning-results
// repository (re-exported so one handle can back many tuners — the
// funcytunerd job service shares one across every job it runs, the way
// SharedCache shares compile work).
type ResultRepo = resultrepo.Repo

// RepoStats is a snapshot of repository activity (entries, hits,
// misses, corrupt entries, puts).
type RepoStats = resultrepo.Stats

// OpenResultRepo opens (creating if needed) a results repository rooted
// at dir. Safe for concurrent use; multiple processes may share it.
func OpenResultRepo(dir string) (*ResultRepo, error) { return resultrepo.Open(dir) }

// Tuning-protocol mode tags: the three Tune entry points produce
// differently shaped Reports, so they key separately.
const (
	modeTune     = "tune"
	modeAdaptive = "adaptive"
	modeCompare  = "compare"
)

// keySpec enumerates the tuner's outcome-determining configuration for
// (mode, prog, in). Scheduling-only options (Workers, CacheSize, Gate,
// Trace, Progress, Checkpoint/Resume, Evaluator, Unpooled) are absent
// by design — the determinism suite proves they cannot change a Report.
func (t *Tuner) keySpec(mode string, prog *Program, in Input, rule StopRule, warmDigest uint64) resultrepo.KeySpec {
	ks := resultrepo.KeySpec{
		Mode:              mode,
		Program:           prog.Name,
		ProgramSeed:       prog.Seed,
		InputName:         in.Name,
		InputSize:         in.Size,
		InputSteps:        in.Steps,
		Machine:           t.opts.Machine.Name,
		MachineID:         t.opts.Machine.ID,
		Flavor:            t.opts.Space.Flavor.String(),
		Seed:              t.opts.Seed,
		Samples:           t.opts.Samples,
		TopX:              t.opts.TopX,
		Noisy:             *t.opts.Noisy,
		HotThreshold:      t.opts.HotThreshold,
		FaultCompileFail:  t.opts.Faults.CompileFail,
		FaultRunCrash:     t.opts.Faults.RunCrash,
		FaultTimeout:      t.opts.Faults.Timeout,
		FaultFlake:        t.opts.Faults.Flake,
		MaxRetries:        t.opts.MaxRetries,
		BackoffSeconds:    t.opts.BackoffSeconds,
		BackoffCapSeconds: t.opts.BackoffCapSeconds,
		TimeoutBudget:     t.opts.TimeoutBudget,
		// CFR's tag is "" and a cold run's digest 0, so neither changes a
		// key that predates techniques or warm starts, in any mode.
		Technique:  core.TechniqueTag(t.opts.Technique),
		WarmDigest: warmDigest,
	}
	if mode == modeAdaptive {
		ks.StopMinEvaluations = rule.MinEvaluations
		ks.StopPatience = rule.Patience
		ks.StopMaxEvaluations = rule.MaxEvaluations
	}
	return ks
}

// repoResult is one algorithm's Result in wire form. CVs travel as flag
// strings (Space.Parse is String's exact inverse); floats as hex-float
// strings, so NaN/±Inf round-trip too.
type repoResult struct {
	Algorithm       string   `json:"algorithm"`
	ModuleFlags     []string `json:"module_flags,omitempty"`
	BestMeasured    string   `json:"best_measured"`
	TrueTime        string   `json:"true_time"`
	Baseline        string   `json:"baseline"`
	Speedup         string   `json:"speedup"`
	Evaluations     int      `json:"evaluations"`
	Trace           []string `json:"trace,omitempty"`
	DegradedModules []int    `json:"degraded_modules,omitempty"`
}

// repoFaults is FaultTally in wire form.
type repoFaults struct {
	CompileFailures int64  `json:"compile_failures"`
	RunCrashes      int64  `json:"run_crashes"`
	Timeouts        int64  `json:"timeouts"`
	Flakes          int64  `json:"flakes"`
	Retries         int64  `json:"retries"`
	WastedCompiles  int64  `json:"wasted_compiles"`
	LostHours       string `json:"lost_hours"`
	Quarantined     int    `json:"quarantined"`
	DegradedModules int    `json:"degraded_modules"`
}

// repoBody is the stored form of a complete Report, minus the
// observability fields (Cache, Metrics) that Fingerprint excludes for
// the same reason storage does: they describe the run that happened to
// produce the result, not the result.
type repoBody struct {
	Fingerprint     string                 `json:"fingerprint"`
	Flavor          string                 `json:"flavor"`
	Program         string                 `json:"program,omitempty"`
	Machine         string                 `json:"machine,omitempty"`
	Results         map[string]*repoResult `json:"results"`
	ProfileTotal    string                 `json:"profile_total"`
	ProfileTotalStd string                 `json:"profile_total_std"`
	ProfileNonLoop  string                 `json:"profile_non_loop"`
	ProfilePerLoop  []string               `json:"profile_per_loop,omitempty"`
	ProfileRuns     int                    `json:"profile_runs"`
	HotLoops        []int                  `json:"hot_loops,omitempty"`
	ModuleNames     []string               `json:"module_names"`
	Compiles        int64                  `json:"compiles"`
	Runs            int64                  `json:"runs"`
	SimulatedHours  string                 `json:"simulated_hours"`
	Faults          repoFaults             `json:"faults"`
	TraceJSONL      string                 `json:"trace_jsonl,omitempty"`
}

func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func hexFloats(vs []float64) []string {
	if len(vs) == 0 {
		return nil
	}
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = hexFloat(v)
	}
	return out
}

func parseHexFloats(ss []string) ([]float64, error) {
	if len(ss) == 0 {
		return nil, nil
	}
	out := make([]float64, len(ss))
	for i, s := range ss {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// encodeRepoBody serializes a freshly computed Report (live session
// attached) plus its canonical trace for storage.
func encodeRepoBody(rep *Report, tr *TuningTrace) ([]byte, error) {
	b := repoBody{
		Fingerprint:     fmt.Sprintf("%016x", rep.Fingerprint()),
		Flavor:          rep.sess.Toolchain.Space.Flavor.String(),
		Program:         rep.sess.Prog.Name,
		Machine:         rep.sess.Machine.Name,
		Results:         make(map[string]*repoResult, len(rep.All)),
		ProfileTotal:    hexFloat(rep.Profile.Total),
		ProfileTotalStd: hexFloat(rep.Profile.TotalStd),
		ProfileNonLoop:  hexFloat(rep.Profile.NonLoop),
		ProfilePerLoop:  hexFloats(rep.Profile.PerLoop),
		ProfileRuns:     rep.Profile.Runs,
		HotLoops:        rep.HotLoops,
		Compiles:        rep.Compiles,
		Runs:            rep.Runs,
		SimulatedHours:  hexFloat(rep.SimulatedHours),
		Faults: repoFaults{
			CompileFailures: rep.Faults.CompileFailures,
			RunCrashes:      rep.Faults.RunCrashes,
			Timeouts:        rep.Faults.Timeouts,
			Flakes:          rep.Faults.Flakes,
			Retries:         rep.Faults.Retries,
			WastedCompiles:  rep.Faults.WastedCompiles,
			LostHours:       hexFloat(rep.Faults.LostHours),
			Quarantined:     rep.Faults.Quarantined,
			DegradedModules: rep.Faults.DegradedModules,
		},
	}
	for _, m := range rep.sess.Part.Modules {
		b.ModuleNames = append(b.ModuleNames, m.Name)
	}
	for name, res := range rep.All {
		rr := &repoResult{
			Algorithm:       res.Algorithm,
			BestMeasured:    hexFloat(res.BestMeasured),
			TrueTime:        hexFloat(res.TrueTime),
			Baseline:        hexFloat(res.Baseline),
			Speedup:         hexFloat(res.Speedup),
			Evaluations:     res.Evaluations,
			Trace:           hexFloats(res.Trace),
			DegradedModules: res.DegradedModules,
		}
		for _, cv := range res.ModuleCVs {
			rr.ModuleFlags = append(rr.ModuleFlags, cv.String())
		}
		b.Results[name] = rr
	}
	if tr != nil && len(tr.Events) > 0 {
		var sb strings.Builder
		if err := tr.WriteJSONL(&sb); err != nil {
			return nil, err
		}
		b.TraceJSONL = sb.String()
	}
	return json.Marshal(&b)
}

// decodeRepoBody reconstructs a served Report and the fingerprint the
// entry was stored with. The caller supplies the identity the key was
// derived from (prog, machine, input, space), so pointer-typed Profile
// fields come back live. Any malformed field is an error — the caller
// treats it as a corrupt entry.
func (t *Tuner) decodeRepoBody(body []byte, prog *Program, in Input) (*Report, *TuningTrace, string, error) {
	var b repoBody
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, nil, "", err
	}
	if b.Flavor != t.opts.Space.Flavor.String() {
		return nil, nil, "", fmt.Errorf("funcytuner: stored flavor %q does not match %q", b.Flavor, t.opts.Space.Flavor)
	}
	if len(b.Results) == 0 {
		return nil, nil, "", fmt.Errorf("funcytuner: stored entry has no results")
	}
	all := make(map[string]*Result, len(b.Results))
	for name, rr := range b.Results {
		res := &Result{
			Algorithm:       rr.Algorithm,
			Evaluations:     rr.Evaluations,
			DegradedModules: rr.DegradedModules,
		}
		var err error
		if res.BestMeasured, err = strconv.ParseFloat(rr.BestMeasured, 64); err != nil {
			return nil, nil, "", err
		}
		if res.TrueTime, err = strconv.ParseFloat(rr.TrueTime, 64); err != nil {
			return nil, nil, "", err
		}
		if res.Baseline, err = strconv.ParseFloat(rr.Baseline, 64); err != nil {
			return nil, nil, "", err
		}
		if res.Speedup, err = strconv.ParseFloat(rr.Speedup, 64); err != nil {
			return nil, nil, "", err
		}
		if res.Trace, err = parseHexFloats(rr.Trace); err != nil {
			return nil, nil, "", err
		}
		for _, flags := range rr.ModuleFlags {
			cv, err := t.opts.Space.Parse(flags)
			if err != nil {
				return nil, nil, "", err
			}
			res.ModuleCVs = append(res.ModuleCVs, cv)
		}
		all[name] = res
	}
	best := bestResult(all)
	if best == nil {
		return nil, nil, "", fmt.Errorf("funcytuner: stored entry has no search result")
	}
	rep := &Report{
		Best:     best,
		All:      all,
		HotLoops: b.HotLoops,
		Modules:  len(b.ModuleNames),
		Compiles: b.Compiles,
		Runs:     b.Runs,
		Served:   true,
		served: &servedMeta{
			program: prog.Name,
			machine: t.opts.Machine.Name,
			input:   in,
			flavor:  b.Flavor,
			modules: b.ModuleNames,
		},
	}
	rep.Profile = Profile{
		Program: prog,
		Machine: t.opts.Machine,
		Input:   in,
		Runs:    b.ProfileRuns,
	}
	var err error
	if rep.Profile.Total, err = strconv.ParseFloat(b.ProfileTotal, 64); err != nil {
		return nil, nil, "", err
	}
	if rep.Profile.TotalStd, err = strconv.ParseFloat(b.ProfileTotalStd, 64); err != nil {
		return nil, nil, "", err
	}
	if rep.Profile.NonLoop, err = strconv.ParseFloat(b.ProfileNonLoop, 64); err != nil {
		return nil, nil, "", err
	}
	if rep.Profile.PerLoop, err = parseHexFloats(b.ProfilePerLoop); err != nil {
		return nil, nil, "", err
	}
	if rep.SimulatedHours, err = strconv.ParseFloat(b.SimulatedHours, 64); err != nil {
		return nil, nil, "", err
	}
	rep.Faults = FaultTally{
		CompileFailures: b.Faults.CompileFailures,
		RunCrashes:      b.Faults.RunCrashes,
		Timeouts:        b.Faults.Timeouts,
		Flakes:          b.Faults.Flakes,
		Retries:         b.Faults.Retries,
		WastedCompiles:  b.Faults.WastedCompiles,
		Quarantined:     b.Faults.Quarantined,
		DegradedModules: b.Faults.DegradedModules,
	}
	if rep.Faults.LostHours, err = strconv.ParseFloat(b.Faults.LostHours, 64); err != nil {
		return nil, nil, "", err
	}
	var tr *TuningTrace
	if b.TraceJSONL != "" {
		if tr, err = trace.ReadJSONL(strings.NewReader(b.TraceJSONL)); err != nil {
			return nil, nil, "", err
		}
	}
	return rep, tr, b.Fingerprint, nil
}

// serveFromRepo resolves (mode, prog, in) against the repository:
// one key derivation, one indexed Get, one decode — no outlining, no
// session, no evaluations. The reconstructed Report's fingerprint must
// equal the one stored with the entry; anything less invalidates the
// entry and falls through to a real run. When the caller wants a trace,
// an entry stored without one is also a miss (the recompute will store
// it with the trace attached).
func (t *Tuner) serveFromRepo(mode string, prog *Program, in Input, rule StopRule, warmDigest uint64) (*Report, bool) {
	if t.repo == nil || !t.opts.SkipExist || t.err != nil ||
		t.opts.KillAfterEvals > 0 || prog == nil {
		return nil, false
	}
	key := t.keySpec(mode, prog, in, rule, warmDigest).Key()
	body, ok := t.repo.Get(key)
	if !ok {
		return nil, false
	}
	rep, tr, fp, err := t.decodeRepoBody(body, prog, in)
	if err != nil {
		t.repo.Invalidate(key)
		return nil, false
	}
	if t.opts.Trace != nil && tr == nil {
		return nil, false
	}
	if got := fmt.Sprintf("%016x", rep.Fingerprint()); got != fp {
		t.repo.Invalidate(key)
		return nil, false
	}
	if t.opts.Trace != nil {
		t.opts.Trace.Replay(tr)
	}
	return rep, true
}

// storeInRepo persists a freshly computed Report. Best-effort: a
// storage failure never fails the tuning run that produced the result.
// Crash-simulation runs (KillAfterEvals) are never stored — they are
// the checkpoint machinery's test hook, not results.
func (t *Tuner) storeInRepo(mode string, prog *Program, in Input, rule StopRule, rep *Report, warmDigest uint64) {
	if t.repo == nil || t.opts.KillAfterEvals > 0 || rep == nil || rep.sess == nil {
		return
	}
	var tr *TuningTrace
	if t.opts.Trace != nil {
		tr = t.opts.Trace.Snapshot().Canonical()
	}
	body, err := encodeRepoBody(rep, tr)
	if err != nil {
		return
	}
	_ = t.repo.Put(t.keySpec(mode, prog, in, rule, warmDigest).Key(), body)
}

// RepoStats snapshots the attached results repository's activity (zero
// when no repository is attached).
func (t *Tuner) RepoStats() RepoStats {
	if t.repo == nil {
		return RepoStats{}
	}
	return t.repo.Stats()
}

// servedMeta carries the identity a repo-served Report needs for Save:
// a served report has no live session, but its provenance is known.
type servedMeta struct {
	program string
	machine string
	input   Input
	flavor  string
	modules []string
}

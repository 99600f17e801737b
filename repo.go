package funcytuner

// This file is the facade's results-repository integration: a completed
// Report is stored, content-addressed by everything that determines it,
// and an identical later submission is served back in one lookup —
// no profiling, no session, no evaluations. The determinism contract
// makes this safe: a tuning run is a pure function of its key, so a
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
// flag space, and the canonical trace as raw JSONL beside the body,
// replayed verbatim into the caller's recorder. A serve decodes the
// trace only for a caller that traces.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"

	"funcytuner/internal/core"
	"funcytuner/internal/ir"
	"funcytuner/internal/outline"
	"funcytuner/internal/resultrepo"
	"funcytuner/internal/trace"
	"funcytuner/internal/xrand"
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

// repoKey is the results-repository key of the run id describes, when
// outlined at the paper's threshold (outline.HotThreshold, still hashed
// so that stored keys stay valid) and, with compare set, run as the
// §4.1 protocol; an identity with a stop rule is the early-stopped
// protocol.
// Two runs share a key exactly when they produce the same Report.
// Scheduling-only options (Workers, CacheSize, Gate, Trace, Progress,
// Checkpoint/Resume, Evaluator, Unpooled) are absent from the identity
// by design — the determinism suite proves they cannot change a Report.
//
// The hash stream is pinned (TestRepoKeysPinned): a change to it
// re-keys every stored entry. Fields added after the first layout
// contribute only when non-default, so older keys stay reachable: CFR's
// technique tag is "" and a cold run's warm digest 0.
func repoKey(id core.RunIdentity, compare bool) uint64 {
	mode := modeTune
	switch {
	case compare:
		mode = modeCompare
	case id.Stop != (StopRule{}):
		mode = modeAdaptive
	}
	noisy := uint64(0)
	if id.Noisy {
		noisy = 1
	}
	var h xrand.Hasher
	for _, v := range []uint64{
		0x72657372, // "resr": repository keys never collide with compile keys
		xrand.HashString(mode),
		xrand.HashString(id.Program), id.ProgramSeed,
		xrand.HashString(id.Input), uint64(id.InputSteps), math.Float64bits(id.InputSize),
		xrand.HashString(id.Machine), id.MachineID,
		xrand.HashString(id.Flavor),
		xrand.HashString(id.Seed), uint64(id.Samples), uint64(id.TopX), noisy,
		math.Float64bits(outline.HotThreshold),
		math.Float64bits(id.Faults.CompileFail), math.Float64bits(id.Faults.RunCrash),
		math.Float64bits(id.Faults.Timeout), math.Float64bits(id.Faults.Flake),
		uint64(id.MaxRetries),
		math.Float64bits(id.BackoffSeconds), math.Float64bits(id.BackoffCapSeconds), math.Float64bits(id.TimeoutBudget),
		uint64(id.Stop.MinEvaluations), uint64(id.Stop.Patience), uint64(id.Stop.MaxEvaluations),
	} {
		h.Add(v)
	}
	if id.Technique != "" {
		h.Add(xrand.HashString("technique"))
		h.Add(xrand.HashString(id.Technique))
	}
	if id.WarmDigest != 0 {
		h.Add(xrand.HashString("warm-start"))
		h.Add(id.WarmDigest)
	}
	return h.Sum()
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
// produce the result, not the result. The run's trace is stored beside
// it, as raw JSONL.
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

// encodeRepoBody serializes a freshly computed Report plus its canonical
// trace into a repository entry: the body and the raw JSONL trace.
func encodeRepoBody(rep *Report, tr *TuningTrace) (resultrepo.Entry, error) {
	b := repoBody{
		Fingerprint:     fmt.Sprintf("%016x", rep.Fingerprint()),
		Flavor:          rep.space.Flavor.String(),
		Program:         rep.Profile.Program.Name,
		Machine:         rep.Profile.Machine.Name,
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
	for _, m := range rep.part.Modules {
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
	body, err := json.Marshal(&b)
	if err != nil {
		return resultrepo.Entry{}, err
	}
	e := resultrepo.Entry{Body: body}
	if tr != nil && len(tr.Events) > 0 {
		var buf bytes.Buffer
		if err := tr.WriteJSONL(&buf); err != nil {
			return e, err
		}
		e.Trace = buf.Bytes()
	}
	return e, nil
}

// decodeRepoBody reconstructs a served Report and the fingerprint the
// entry was stored with. The caller supplies the identity the key was
// derived from (prog, machine, input, space), so pointer-typed Profile
// fields come back live. The session outlined the hot loops in program
// order, so outlining them again rebuilds its partition; the stored
// module names must name it, and the best result must carry one CV per
// module. Any malformed or inconsistent field is an error — the caller
// treats it as a corrupt entry.
func (t *Tuner) decodeRepoBody(body []byte, prog *Program, in Input) (*Report, string, error) {
	var b repoBody
	if err := json.Unmarshal(body, &b); err != nil {
		return nil, "", err
	}
	if b.Flavor != t.opts.Space.Flavor.String() {
		return nil, "", fmt.Errorf("funcytuner: stored flavor %q does not match %q", b.Flavor, t.opts.Space.Flavor)
	}
	if len(b.Results) == 0 {
		return nil, "", fmt.Errorf("funcytuner: stored entry has no results")
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
			return nil, "", err
		}
		if res.TrueTime, err = strconv.ParseFloat(rr.TrueTime, 64); err != nil {
			return nil, "", err
		}
		if res.Baseline, err = strconv.ParseFloat(rr.Baseline, 64); err != nil {
			return nil, "", err
		}
		if res.Speedup, err = strconv.ParseFloat(rr.Speedup, 64); err != nil {
			return nil, "", err
		}
		if res.Trace, err = parseHexFloats(rr.Trace); err != nil {
			return nil, "", err
		}
		for _, flags := range rr.ModuleFlags {
			cv, err := t.opts.Space.Parse(flags)
			if err != nil {
				return nil, "", err
			}
			res.ModuleCVs = append(res.ModuleCVs, cv)
		}
		all[name] = res
	}
	best := bestResult(all)
	if best == nil {
		return nil, "", fmt.Errorf("funcytuner: stored entry has no search result")
	}
	hot := slices.Clone(b.HotLoops)
	slices.Sort(hot)
	part, err := outline.Outline(prog, hot)
	if err != nil {
		return nil, "", err
	}
	if !slices.EqualFunc(part.Modules, b.ModuleNames, func(m ir.Module, name string) bool { return m.Name == name }) {
		return nil, "", fmt.Errorf("funcytuner: stored module names %q do not name the outlined partition", b.ModuleNames)
	}
	if len(best.ModuleCVs) != len(part.Modules) {
		return nil, "", fmt.Errorf("funcytuner: stored %s result has %d CVs for %d modules", best.Algorithm, len(best.ModuleCVs), len(part.Modules))
	}
	rep := &Report{
		Best:     best,
		All:      all,
		HotLoops: b.HotLoops,
		Modules:  len(part.Modules),
		Compiles: b.Compiles,
		Runs:     b.Runs,
		Served:   true,
		space:    t.opts.Space,
		part:     part,
	}
	rep.Profile = Profile{
		Program: prog,
		Machine: t.opts.Machine,
		Input:   in,
		Runs:    b.ProfileRuns,
	}
	if rep.Profile.Total, err = strconv.ParseFloat(b.ProfileTotal, 64); err != nil {
		return nil, "", err
	}
	if rep.Profile.TotalStd, err = strconv.ParseFloat(b.ProfileTotalStd, 64); err != nil {
		return nil, "", err
	}
	if rep.Profile.NonLoop, err = strconv.ParseFloat(b.ProfileNonLoop, 64); err != nil {
		return nil, "", err
	}
	if rep.Profile.PerLoop, err = parseHexFloats(b.ProfilePerLoop); err != nil {
		return nil, "", err
	}
	if rep.SimulatedHours, err = strconv.ParseFloat(b.SimulatedHours, 64); err != nil {
		return nil, "", err
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
		return nil, "", err
	}
	return rep, b.Fingerprint, nil
}

// serveFromRepo resolves the run of prog on in, keyed key (see repoKey),
// against the repository: one indexed read, one decode of the body — no
// profiling, no session, no evaluations. The reconstructed Report's
// fingerprint must equal the one stored with the entry; anything less
// invalidates the entry and falls through to a real run. The trace is
// decoded only when the caller wants one: an entry stored without a
// trace is then a plain miss (the recompute will store it with the trace
// attached), and one whose trace does not decode is invalidated.
func (t *Tuner) serveFromRepo(key uint64, prog *Program, in Input) (*Report, bool) {
	if t.repo == nil || !t.opts.SkipExist || t.opts.KillAfterEvals > 0 {
		return nil, false
	}
	e, ok := t.repo.GetEntry(key)
	if !ok {
		return nil, false
	}
	rep, fp, err := t.decodeRepoBody(e.Body, prog, in)
	if err != nil {
		t.repo.Invalidate(key)
		return nil, false
	}
	if t.opts.Trace != nil && len(e.Trace) == 0 {
		return nil, false
	}
	if got := fmt.Sprintf("%016x", rep.Fingerprint()); got != fp {
		t.repo.Invalidate(key)
		return nil, false
	}
	if t.opts.Trace != nil {
		tr, err := trace.ReadJSONL(bytes.NewReader(e.Trace))
		if err != nil {
			t.repo.Invalidate(key)
			return nil, false
		}
		t.opts.Trace.Replay(tr)
	}
	return rep, true
}

// storeInRepo persists a freshly computed Report under key. Best-effort:
// a storage failure never fails the tuning run that produced the result.
// Crash-simulation runs (KillAfterEvals) are never stored — they are
// the checkpoint machinery's test hook, not results.
func (t *Tuner) storeInRepo(key uint64, rep *Report) {
	if t.repo == nil || t.opts.KillAfterEvals > 0 {
		return
	}
	var tr *TuningTrace
	if t.opts.Trace != nil {
		tr = t.opts.Trace.Snapshot().Canonical()
	}
	e, err := encodeRepoBody(rep, tr)
	if err != nil {
		return
	}
	_ = t.repo.PutEntry(key, e)
}

// RepoStats snapshots the attached results repository's activity (zero
// when no repository is attached).
func (t *Tuner) RepoStats() RepoStats {
	if t.repo == nil {
		return RepoStats{}
	}
	return t.repo.Stats()
}

package funcytuner

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"funcytuner/internal/fsx"
)

// Every benchmark must complete a tuning run under the default fault mix
// and produce a usable result; across the suite the injection machinery
// must actually fire.
func TestTuneWithFaultsAllBenchmarks(t *testing.T) {
	m, err := MachineByName("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	var total FaultTally
	for _, name := range Benchmarks() {
		prog, err := Benchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		tuner := NewTuner(Options{
			Machine: m, Samples: 60, TopX: 10, Seed: "robustness",
			Faults: DefaultFaultRates(),
		})
		rep, err := tuner.Tune(prog, TuningInput(name, m))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !(rep.Best.Speedup > 0) || math.IsInf(rep.Best.Speedup, 0) {
			t.Errorf("%s: unusable speedup %v under faults", name, rep.Best.Speedup)
		}
		total.CompileFailures += rep.Faults.CompileFailures
		total.RunCrashes += rep.Faults.RunCrashes
		total.Flakes += rep.Faults.Flakes
		total.Retries += rep.Faults.Retries
		total.WastedCompiles += rep.Faults.WastedCompiles
		total.LostHours += rep.Faults.LostHours
		total.Quarantined += rep.Faults.Quarantined
	}
	if total.CompileFailures == 0 || total.Quarantined == 0 {
		t.Error("no compile failures across the whole suite at a 2% ICE rate")
	}
	if total.Flakes == 0 || total.Retries == 0 {
		t.Error("no flakes/retries across the whole suite at a 4% flake rate")
	}
	if total.WastedCompiles == 0 || !(total.LostHours > 0) {
		t.Error("fault injection cost nothing across the whole suite")
	}
}

// An Options-level killed-and-resumed run must report exactly what the
// uninterrupted run reports.
func TestKillResumeReportEquality(t *testing.T) {
	m, _ := MachineByName("sandybridge")
	prog, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(Swim, m)
	base := Options{
		Machine: m, Samples: 40, TopX: 8, Seed: "resume-equality",
		Faults: DefaultFaultRates(), CheckpointEvery: 5,
	}
	want, err := NewTuner(base).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "tune.ckpt")
	killOpts := base
	killOpts.Checkpoint = path
	killOpts.KillAfterEvals = 25
	if _, err := NewTuner(killOpts).Tune(prog, in); !errors.Is(err, ErrKilled) {
		t.Fatalf("expected ErrKilled, got %v", err)
	}

	resumeOpts := base
	resumeOpts.Resume = path
	got, err := NewTuner(resumeOpts).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Best.BestMeasured != want.Best.BestMeasured || got.Best.Speedup != want.Best.Speedup {
		t.Fatalf("resumed best (%v, %v) != uninterrupted (%v, %v)",
			got.Best.BestMeasured, got.Best.Speedup, want.Best.BestMeasured, want.Best.Speedup)
	}
	for i := range want.Best.Trace {
		if got.Best.Trace[i] != want.Best.Trace[i] {
			t.Fatalf("trace[%d] differs after resume", i)
		}
	}
	if got.Compiles != want.Compiles || got.Runs != want.Runs || got.SimulatedHours != want.SimulatedHours {
		t.Fatalf("resumed cost (%d, %d, %v) != uninterrupted (%d, %d, %v)",
			got.Compiles, got.Runs, got.SimulatedHours, want.Compiles, want.Runs, want.SimulatedHours)
	}
	if got.Faults != want.Faults {
		t.Fatalf("resumed fault tally %+v != uninterrupted %+v", got.Faults, want.Faults)
	}
}

// A resume into a run with another outcome is rejected before any
// evaluation: the error names the first run-identity field that
// differs, and the checkpoint is left byte for byte as the killed run
// wrote it. Each row changes one outcome-deciding input between the
// killed run and its resume.
func TestResumeRejectsChangedRun(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	repo := filepath.Join(t.TempDir(), "repo")
	donate := func(seed string) {
		t.Helper()
		if _, err := NewTuner(Options{Machine: m, Samples: 40, TopX: 8, Seed: seed, RepoPath: repo}).Tune(prog, in); err != nil {
			t.Fatal(err)
		}
	}
	donate("resume-donor-1")
	warm := func(o *Options) { o.Technique, o.WarmStart, o.RepoPath = "bo", true, repo }

	cases := []struct {
		name, field string
		// run configures both the killed run and its resume; change
		// applies to the resume alone.
		run      func(o *Options)
		change   func(o *Options, in *Input)
		adaptive bool
	}{
		{name: "fault rate", field: "faults", change: func(o *Options, _ *Input) { o.Faults = FaultRates{} }},
		{name: "max retries", field: "max_retries", change: func(o *Options, _ *Input) { o.MaxRetries = 5 }},
		{name: "timeout budget", field: "timeout_budget", change: func(o *Options, _ *Input) { o.TimeoutBudget = 19 }},
		{name: "noisy", field: "noisy", change: func(o *Options, _ *Input) { o.Noisy = new(bool) }},
		{name: "input size", field: "input_size", change: func(_ *Options, in *Input) { in.Size *= 1.5 }},
		{name: "plain to adaptive", field: "stop", adaptive: true},
		{name: "warm digest", field: "warm_digest", run: warm,
			change: func(*Options, *Input) { donate("resume-donor-2") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := Options{Machine: m, Samples: 40, TopX: 8, Seed: "resume-identity", Faults: DefaultFaultRates()}
			if tc.run != nil {
				tc.run(&base)
			}
			path := filepath.Join(t.TempDir(), "run.ckpt")
			killed := base
			killed.Checkpoint, killed.KillAfterEvals = path, 30
			if _, err := NewTuner(killed).Tune(prog, in); !errors.Is(err, ErrKilled) {
				t.Fatalf("expected ErrKilled, got %v", err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			resume, rin := base, in
			resume.Resume = path
			if tc.change != nil {
				tc.change(&resume, &rin)
			}
			tuner := NewTuner(resume)
			if tc.adaptive {
				_, err = tuner.TuneAdaptive(prog, rin, DefaultStopRule())
			} else {
				_, err = tuner.Tune(prog, rin)
			}
			if err == nil || !strings.Contains(err.Error(), "checkpoint "+tc.field+" ") {
				t.Fatalf("resume error %v, want one naming %q", err, tc.field)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("the rejected resume changed the checkpoint")
			}
		})
	}
}

// The protocol is not part of the run identity, only its stop rule is:
// Compare and a plain Tune collect and search the same samples, so
// either resumes the other's checkpoint and reproduces its own
// uninterrupted Report. A Compare killed in its CFR phase (Random,
// collection and FR are 40 evaluations each at K=40, greedy one) is
// resumed as a Tune, and a Tune killed in its search as a Compare.
func TestResumeAcrossCompareAndTune(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	base := Options{Machine: m, Samples: 40, TopX: 8, Seed: "compare-tune", Faults: DefaultFaultRates().Scale(5)}
	run := func(o Options, compare bool) (*Report, error) {
		if compare {
			return NewTuner(o).Compare(prog, in)
		}
		return NewTuner(o).Tune(prog, in)
	}
	for _, tc := range []struct {
		name          string
		killedCompare bool
		killAt        int
	}{
		{"compare to tune", true, 141},
		{"tune to compare", false, 60},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			killed := base
			killed.Checkpoint, killed.KillAfterEvals = path, tc.killAt
			if _, err := run(killed, tc.killedCompare); !errors.Is(err, ErrKilled) {
				t.Fatalf("expected ErrKilled, got %v", err)
			}
			if ck, err := LoadCheckpoint(path); err != nil || ck.Done[len(ck.Done)-1].Phase != "search" {
				t.Fatalf("the kill did not land in the search phase (load error %v)", err)
			}
			resume := base
			resume.Resume = path
			got, err := run(resume, !tc.killedCompare)
			if err != nil {
				t.Fatal(err)
			}
			want, err := run(base, !tc.killedCompare)
			if err != nil {
				t.Fatal(err)
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("resumed fingerprint %016x != uninterrupted %016x", got.Fingerprint(), want.Fingerprint())
			}
		})
	}
}

// countingGate counts the evaluations a run makes: each one holds a
// slot.
type countingGate struct{ n atomic.Int64 }

func (g *countingGate) Acquire(ctx context.Context) error {
	g.n.Add(1)
	return ctx.Err()
}

func (g *countingGate) Release() {}

// A Compare resumes by replay in every phase: killed inside Random,
// inside FR, or 20 evaluations into CFR (Random, the collection and FR
// are 40 evaluations each at K=40, greedy one), the resumed run makes
// exactly the evaluations the log lacks and reproduces the
// uninterrupted fingerprint.
func TestCompareResumeMakesOnlyMissingEvaluations(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	base := Options{Machine: m, Samples: 40, TopX: 8, Seed: "compare-resume", Faults: DefaultFaultRates(), Workers: 1}
	want, err := NewTuner(base).Compare(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	const total = 4*40 + 1
	for _, killAt := range []int{17, 100, 141} {
		path := filepath.Join(t.TempDir(), "compare.ckpt")
		killed := base
		killed.Checkpoint, killed.KillAfterEvals = path, killAt
		if _, err := NewTuner(killed).Compare(prog, in); !errors.Is(err, ErrKilled) {
			t.Fatalf("kill at %d: expected ErrKilled, got %v", killAt, err)
		}
		gate := new(countingGate)
		resume := base
		resume.Resume, resume.Gate = path, gate
		got, err := NewTuner(resume).Compare(prog, in)
		if err != nil {
			t.Fatal(err)
		}
		if n := gate.n.Load(); n != total-int64(killAt) {
			t.Errorf("kill at %d: the resume made %d evaluations, want the %d missing", killAt, n, total-killAt)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("kill at %d: resumed fingerprint %016x != uninterrupted %016x", killAt, got.Fingerprint(), want.Fingerprint())
		}
	}
}

// A log in the shape an older build's resume wrote — every sample with
// zero cost, then one "resumed" record with their cost and quarantine —
// resumes to the uninterrupted fingerprint, and so does the log that
// resume writes when it is killed in turn: the "resumed" record is
// carried forward. A fresh run writes none.
func TestResumeOlderResumedLog(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	base := Options{Machine: m, Samples: 40, TopX: 8, Seed: "older-resume", Faults: DefaultFaultRates().Scale(5)}
	want, err := NewTuner(base).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tune.ckpt")
	killed := base
	killed.Checkpoint, killed.KillAfterEvals = path, 55
	if _, err := NewTuner(killed).Tune(prog, in); !errors.Is(err, ErrKilled) {
		t.Fatalf("expected ErrKilled, got %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(data, []byte(`"resumed"`)) {
		t.Fatal("a fresh run wrote a resumed record")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	hex := func(v float64) string { return `"` + strconv.FormatFloat(v, 'x', -1, 64) + `"` }
	var old []byte
	fsx.ReadRecords(data, func(header []byte) bool {
		old = fsx.AppendRecord(old, header)
		return false
	})
	cost := make(map[string]int64)
	var keys []string
	for _, smp := range ck.Done {
		body := fmt.Sprintf(`{"phase":%q,"k":%d,"time":%s`, smp.Phase, smp.K, hex(smp.Time))
		if len(smp.Modules) > 0 {
			times := make([]string, len(smp.Modules))
			for i, v := range smp.Modules {
				times[i] = hex(v)
			}
			body += `,"modules":[` + strings.Join(times, ",") + "]"
		}
		old = fsx.AppendRecord(old, []byte(body+"}"))
		var delta map[string]int64
		if b, err := json.Marshal(smp.Cost); err != nil || json.Unmarshal(b, &delta) != nil {
			t.Fatalf("cost %+v does not round-trip through JSON", smp.Cost)
		}
		for name, v := range delta {
			cost[name] += v
		}
		for _, q := range smp.Quarantine {
			keys = append(keys, strconv.FormatUint(q, 16))
		}
	}
	if cost["run_crashes"]+cost["compile_fails"] == 0 || len(keys) == 0 {
		t.Fatal("the killed run saw no permanent fault; the resumed record carries nothing to check")
	}
	resumed, err := json.Marshal(map[string]any{"phase": "resumed", "cost": cost, "quarantine": keys})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fsx.AppendRecord(old, resumed), 0o644); err != nil {
		t.Fatal(err)
	}
	resume := base
	resume.Resume, resume.KillAfterEvals = path, 10
	if _, err := NewTuner(resume).Tune(prog, in); !errors.Is(err, ErrKilled) {
		t.Fatalf("kill 10 evaluations into the resume: expected ErrKilled, got %v", err)
	}
	resume.KillAfterEvals = 0
	got, err := NewTuner(resume).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("resumed twice from an older resumed log: fingerprint %016x != uninterrupted %016x", got.Fingerprint(), want.Fingerprint())
	}
}

// A checkpoint damaged on disk costs recomputation, never a wrong
// result. With one hex digit of a stored time flipped in the middle of
// the log, the load keeps exactly the progress before the damaged
// record, and resuming reproduces the uninterrupted run, in either
// phase. A version-1 checkpoint is rejected with an error naming its
// version.
func TestResumeFromDamagedCheckpoint(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	base := Options{
		Machine: m, Samples: 40, TopX: 8, Seed: "damaged-resume",
		Faults: DefaultFaultRates(), CheckpointEvery: 3,
	}
	want, err := NewTuner(base).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	progress := func(ck *Checkpoint) int { return len(ck.Done) }
	for _, killAt := range []int{13, 52} {
		path := filepath.Join(t.TempDir(), "tune.ckpt")
		killOpts := base
		killOpts.Checkpoint = path
		killOpts.KillAfterEvals = killAt
		if _, err := NewTuner(killOpts).Tune(prog, in); !errors.Is(err, ErrKilled) {
			t.Fatalf("kill at %d: expected ErrKilled, got %v", killAt, err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		i := bytes.Index(data[len(data)/2:], []byte(`"0x1.`))
		if i < 0 {
			t.Fatalf("kill at %d: no time with a fraction in the second half of the checkpoint", killAt)
		}
		i += len(data)/2 + len(`"0x1.`)
		if data[i] == '8' {
			data[i] = '9'
		} else {
			data[i] = '8'
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("kill at %d: damaged checkpoint: %v", killAt, err)
		}
		// Every whole line before the damaged one is the header or one
		// completed sample.
		if got, before := progress(ck), bytes.Count(data[:i], []byte("\n"))-1; got != before {
			t.Fatalf("kill at %d: damaged checkpoint loads %d samples, want the %d before the damaged record", killAt, got, before)
		}

		resumeOpts := base
		resumeOpts.Resume = path
		got, err := NewTuner(resumeOpts).Tune(prog, in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint() != want.Fingerprint() {
			t.Fatalf("kill at %d: resumed fingerprint %#x != uninterrupted %#x",
				killAt, got.Fingerprint(), want.Fingerprint())
		}
		if ck, err := LoadCheckpoint(path); err != nil || progress(ck) != 80 {
			t.Fatalf("kill at %d: the resumed run did not rewrite a whole log: %v", killAt, err)
		}
	}

	v1 := filepath.Join(t.TempDir(), "v1.ckpt")
	doc := `{"version":1,"program":"CloverLeaf","machine":"broadwell","flavor":"icc","seed":"damaged-resume","samples":40,"topx":8,"modules":12,` +
		`"collect_done":[],"times":null,"totals":null,"cfr_done":[],"cfr_times":null,"quarantine":[],"cost":{}}`
	if err := os.WriteFile(v1, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	resumeOpts := base
	resumeOpts.Resume = v1
	if _, err := NewTuner(resumeOpts).Tune(prog, in); err == nil || !strings.Contains(err.Error(), "version 1 ") {
		t.Fatalf("version-1 checkpoint: error %v, want one naming version 1", err)
	}
}

// Cache-on runs must be bit-identical to cache-off runs for the same
// seed, across worker counts 1/4/GOMAXPROCS and with both zero and
// nonzero fault rates. Report.Fingerprint covers every deterministic
// output (all five algorithms, traces, profile, simulated costs, fault
// tallies) and excludes only the cache counters themselves. The search
// baselines' results must be equal too.
func TestCacheBitIdenticalAcrossWorkersAndFaults(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	model, err := NewTuner(Options{Machine: m, Samples: 30, TopX: 6, Seed: "cache-equality"}).TrainCOBAYN(4)
	if err != nil {
		t.Fatal(err)
	}
	// baselines runs OpenTuner, CE and COBAYN under opts, with a budget
	// CE's rounds fit in.
	baselines := func(opts Options) map[string]*BaselineResult {
		opts.Samples = 150
		tuner := NewTuner(opts)
		out := map[string]*BaselineResult{}
		for name, run := range map[string]func() (*BaselineResult, error){
			"OpenTuner": func() (*BaselineResult, error) { return tuner.TuneOpenTuner(prog, in) },
			"CE":        func() (*BaselineResult, error) { return tuner.TuneCE(prog, in) },
			"COBAYN":    func() (*BaselineResult, error) { return tuner.TuneCOBAYN(model, prog, in) },
		} {
			res, err := run()
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			out[name] = res
		}
		return out
	}
	for _, rates := range []FaultRates{{}, DefaultFaultRates()} {
		faulty := rates != (FaultRates{})
		off := Options{
			Machine: m, Samples: 30, TopX: 6, Seed: "cache-equality",
			Faults: rates, Workers: 1, CacheSize: -1,
		}
		want, err := NewTuner(off).Compare(prog, in)
		if err != nil {
			t.Fatal(err)
		}
		if want.Cache != (CacheStats{}) {
			t.Fatalf("faults=%v: cache-off run reported cache activity: %+v", faulty, want.Cache)
		}
		wantFP := want.Fingerprint()
		wantBase := baselines(off)
		for _, workers := range []int{1, 4, 0} {
			on := off
			on.Workers = workers
			on.CacheSize = 0 // default-size cache
			got, err := NewTuner(on).Compare(prog, in)
			if err != nil {
				t.Fatal(err)
			}
			if got.Fingerprint() != wantFP {
				t.Errorf("faults=%v workers=%d: cache-on fingerprint differs from cache-off", faulty, workers)
			}
			for name, res := range baselines(on) {
				if !reflect.DeepEqual(res, wantBase[name]) {
					t.Errorf("faults=%v workers=%d: cache-on %s result %+v differs from cache-off %+v",
						faulty, workers, name, res, wantBase[name])
				}
			}
			if got.Compiles != want.Compiles || got.Runs != want.Runs {
				t.Errorf("faults=%v workers=%d: simulated cost changed: (%d, %d) vs (%d, %d)",
					faulty, workers, got.Compiles, got.Runs, want.Compiles, want.Runs)
			}
			if got.Cache.ObjectHits == 0 || got.Cache.Hits() == 0 {
				t.Errorf("faults=%v workers=%d: cache never hit: %+v", faulty, workers, got.Cache)
			}
		}
	}
}

// A killed-and-resumed run with the cache enabled must report exactly
// what an uninterrupted cache-off run reports — checkpoint/resume and
// memoization compose without touching results. Under nonzero fault
// rates this also pins the fault/quarantine interaction: injected ICE
// draws key on CV fingerprints, never on whether a compile physically
// ran, so cached runs quarantine identically.
func TestKillResumeCacheEquality(t *testing.T) {
	m, _ := MachineByName("sandybridge")
	prog, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(Swim, m)
	off := Options{
		Machine: m, Samples: 40, TopX: 8, Seed: "cache-resume",
		Faults: DefaultFaultRates(), CheckpointEvery: 5, CacheSize: -1,
	}
	want, err := NewTuner(off).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "tune.ckpt")
	killOpts := off
	killOpts.CacheSize = 0 // cache on
	killOpts.Checkpoint = path
	killOpts.KillAfterEvals = 25
	if _, err := NewTuner(killOpts).Tune(prog, in); !errors.Is(err, ErrKilled) {
		t.Fatalf("expected ErrKilled, got %v", err)
	}

	resumeOpts := off
	resumeOpts.CacheSize = 0
	resumeOpts.Resume = path
	got, err := NewTuner(resumeOpts).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("cached kill/resume fingerprint differs from uninterrupted cache-off run")
	}
	if got.Faults != want.Faults {
		t.Fatalf("cached resume fault tally %+v != %+v", got.Faults, want.Faults)
	}
}

// NewTuner defers option validation to the first pipeline call.
func TestNewTunerValidation(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(Swim, m)
	bad := []Options{
		{Samples: -1},
		{TopX: -5},
		{Workers: -2},
		{Samples: 10, TopX: 50}, // TopX > Samples
		{MaxRetries: -1},
		{BackoffSeconds: -1},
		{BackoffCapSeconds: -1},
		{TimeoutBudget: -1},
		{TimeoutBudget: math.Inf(1)},
		{CheckpointEvery: -1},
		{KillAfterEvals: -1},
		{Faults: FaultRates{RunCrash: 1.5}},
		{Faults: FaultRates{Flake: math.NaN()}},
	}
	model, err := NewTuner(Options{Machine: m, Samples: 20, TopX: 5}).TrainCOBAYN(3)
	if err != nil {
		t.Fatal(err)
	}
	for i, opts := range bad {
		opts.Machine = m
		tuner := NewTuner(opts)
		if _, err := tuner.Tune(prog, in); err == nil {
			t.Errorf("bad options %d accepted: %+v", i, bad[i])
		}
		// The baselines reject them too, before any evaluation.
		for name, run := range map[string]func() (any, error){
			"TuneOpenTuner": func() (any, error) { return tuner.TuneOpenTuner(prog, in) },
			"TuneCE":        func() (any, error) { return tuner.TuneCE(prog, in) },
			"TuneCOBAYN":    func() (any, error) { return tuner.TuneCOBAYN(model, prog, in) },
			"TunePGO":       func() (any, error) { return tuner.TunePGO(prog, in) },
			"TrainCOBAYN":   func() (any, error) { return tuner.TrainCOBAYN(2) },
		} {
			if _, err := run(); err == nil {
				t.Errorf("%s accepted bad options %d: %+v", name, i, bad[i])
			}
		}
	}
	// Sane options (including fault injection) still pass.
	tuner := NewTuner(Options{Machine: m, Samples: 20, TopX: 5, Faults: DefaultFaultRates()})
	if _, err := tuner.Tune(prog, in); err != nil {
		t.Errorf("valid options rejected: %v", err)
	}
}

// LoadTuning rejects documents that could not have come from a real run.
func TestLoadTuningHardening(t *testing.T) {
	module := `{"name":"m","flags":"` + ICCSpace().Baseline().String() + `"}`
	valid := `{"program":"nobody","flavor":"icc","speedup":1.1,"baseline_seconds":100,"modules":[` + module + `]}`
	if _, _, err := LoadTuning(strings.NewReader(valid)); err != nil {
		t.Fatalf("valid document rejected: %v", err)
	}
	bad := map[string]string{
		"unknown flavor": `{"flavor":"llvm","speedup":1.1,"baseline_seconds":100,"modules":[` + module + `]}`,
		"zero speedup":   `{"flavor":"icc","baseline_seconds":100,"modules":[` + module + `]}`,
		"negative":       `{"flavor":"icc","speedup":-2,"baseline_seconds":100,"modules":[` + module + `]}`,
		"zero baseline":  `{"flavor":"icc","speedup":1.1,"modules":[` + module + `]}`,
		"no modules":     `{"flavor":"icc","speedup":1.1,"baseline_seconds":100,"modules":[]}`,
		"too many module": `{"program":"swim","flavor":"icc","speedup":1.1,"baseline_seconds":100,"modules":[` +
			strings.Repeat(module+",", 40) + module + `]}`,
	}
	for name, doc := range bad {
		if _, _, err := LoadTuning(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// A checkpoint written by a faulted, killed run loads and validates.
func TestLoadCheckpointFromRun(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ck.json")
	tuner := NewTuner(Options{
		Machine: m, Samples: 30, TopX: 5, Seed: "ckload",
		Faults: DefaultFaultRates(), Checkpoint: path, CheckpointEvery: 3,
		KillAfterEvals: 12,
	})
	if _, err := tuner.Tune(prog, TuningInput(CloverLeaf, m)); !errors.Is(err, ErrKilled) {
		t.Fatalf("expected ErrKilled, got %v", err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Program != prog.Name || ck.Samples != 30 || len(ck.Done) == 0 || ck.Done[0].Phase != "collect" {
		t.Fatalf("checkpoint does not reflect the run: %+v", ck)
	}
}

package funcytuner

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"funcytuner/internal/fsx"
)

// repoOpts is the shared configuration for repository facade tests:
// small enough to run fast, fault injection on so the stored report
// exercises every FaultTally field.
func repoOpts(dir string) Options {
	m, _ := MachineByName("broadwell")
	return Options{
		Machine: m, Samples: 40, TopX: 8, Seed: "repo-facade",
		Faults:   DefaultFaultRates(),
		RepoPath: dir,
	}
}

// A result served from the repository must be indistinguishable from
// the recompute it replaces: same fingerprint, same best configuration,
// same canonical trace bytes, same Save output. This is the tentpole's
// determinism bar.
func TestRepoServedBitIdentical(t *testing.T) {
	dir := t.TempDir()
	prog, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := MachineByName("broadwell")
	in := TuningInput(Swim, m)

	// First submission: computed and stored (recorder attached so the
	// canonical trace is stored with the entry).
	opts := repoOpts(dir)
	rec1 := NewTraceRecorder()
	opts.Trace = rec1
	want, err := NewTuner(opts).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if want.Served {
		t.Fatal("first run claims to be served")
	}

	// Second submission, identical spec, SkipExist: served.
	opts2 := repoOpts(dir)
	opts2.SkipExist = true
	rec2 := NewTraceRecorder()
	opts2.Trace = rec2
	got, err := NewTuner(opts2).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Served {
		t.Fatal("identical resubmission was not served from the repository")
	}
	if got.Runs == 0 || got.Compiles == 0 {
		t.Error("served report lost its cost accounting")
	}
	if gf, wf := got.Fingerprint(), want.Fingerprint(); gf != wf {
		t.Fatalf("served fingerprint %016x != computed %016x", gf, wf)
	}
	if len(got.Best.ModuleCVs) != len(want.Best.ModuleCVs) {
		t.Fatalf("served ModuleCVs length %d != %d", len(got.Best.ModuleCVs), len(want.Best.ModuleCVs))
	}
	for i := range got.Best.ModuleCVs {
		if got.Best.ModuleCVs[i].Key() != want.Best.ModuleCVs[i].Key() {
			t.Fatalf("module %d CV diverged: %s vs %s", i, got.Best.ModuleCVs[i], want.Best.ModuleCVs[i])
		}
	}

	// Canonical trace bytes must match the original run's exactly.
	var wantTr, gotTr bytes.Buffer
	if err := rec1.Snapshot().Canonical().WriteJSONL(&wantTr); err != nil {
		t.Fatal(err)
	}
	if err := rec2.Snapshot().Canonical().WriteJSONL(&gotTr); err != nil {
		t.Fatal(err)
	}
	if wantTr.Len() == 0 || !bytes.Equal(wantTr.Bytes(), gotTr.Bytes()) {
		t.Fatalf("served canonical trace diverged (%d vs %d bytes)", wantTr.Len(), gotTr.Len())
	}

	// Save must produce identical documents with and without a session.
	var wantSave, gotSave bytes.Buffer
	if err := want.Save(&wantSave); err != nil {
		t.Fatal(err)
	}
	if err := got.Save(&gotSave); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantSave.Bytes(), gotSave.Bytes()) {
		t.Fatalf("served Save diverged:\n%s\nvs\n%s", gotSave.Bytes(), wantSave.Bytes())
	}

	// A served report has no live session: evaluation surfaces say so.
	if _, err := got.Evaluate(got.Best.ModuleCVs, in); !errors.Is(err, ErrServed) {
		t.Fatalf("Evaluate on served report: %v, want ErrServed", err)
	}
	if _, err := got.EvaluateBaseline(in); !errors.Is(err, ErrServed) {
		t.Fatalf("EvaluateBaseline on served report: %v, want ErrServed", err)
	}
	if _, err := got.Attribution(); !errors.Is(err, ErrServed) {
		t.Fatalf("Attribution on served report: %v, want ErrServed", err)
	}
	if _, err := got.CriticalFlags(0); !errors.Is(err, ErrServed) {
		t.Fatalf("CriticalFlags on served report: %v, want ErrServed", err)
	}
	// The module layout comes from the report's own provenance.
	for mi := range want.Best.ModuleCVs {
		if g, w := got.ModuleName(mi), want.ModuleName(mi); g != w {
			t.Fatalf("served module %d is named %q, computed %q", mi, g, w)
		}
		if g, w := got.ModuleLoops(mi), want.ModuleLoops(mi); !slices.Equal(g, w) {
			t.Fatalf("served module %d compiles loops %v, computed %v", mi, g, w)
		}
	}
}

// Any outcome-determining knob must miss: the key covers program, seed,
// sample budget, fault mix, machine and mode.
func TestRepoKeyDiscriminates(t *testing.T) {
	dir := t.TempDir()
	prog, _ := Benchmark(Swim)
	m, _ := MachineByName("broadwell")
	in := TuningInput(Swim, m)
	if _, err := NewTuner(repoOpts(dir)).Tune(prog, in); err != nil {
		t.Fatal(err)
	}

	mutations := []struct {
		name string
		mut  func(*Options)
	}{
		{"seed", func(o *Options) { o.Seed = "other-seed" }},
		{"samples", func(o *Options) { o.Samples = 41 }},
		{"topx", func(o *Options) { o.TopX = 9 }},
		{"faults", func(o *Options) { o.Faults.Flake *= 2 }},
		{"noisy", func(o *Options) { f := false; o.Noisy = &f }},
	}
	for _, mu := range mutations {
		opts := repoOpts(dir)
		opts.SkipExist = true
		mu.mut(&opts)
		rep, err := NewTuner(opts).Tune(prog, in)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Served {
			t.Errorf("%s: different config was served a stored result", mu.name)
		}
	}

	// Scheduling-only knobs must hit: same outcome by the determinism
	// contract, so the stored entry serves. So must a resilience default
	// spelled out, which is the same run as the value left unset.
	for _, scheds := range []struct {
		name string
		mut  func(*Options)
	}{
		{"workers", func(o *Options) { o.Workers = 4 }},
		{"cache-off", func(o *Options) { o.CacheSize = -1 }},
		{"unpooled", func(o *Options) { o.Unpooled = true }},
		{"default-max-retries", func(o *Options) { o.MaxRetries = 2 }},
		{"default-backoff", func(o *Options) { o.BackoffSeconds = 5 }},
		{"default-backoff-cap", func(o *Options) { o.BackoffCapSeconds = 60 }},
	} {
		opts := repoOpts(dir)
		opts.SkipExist = true
		scheds.mut(&opts)
		rep, err := NewTuner(opts).Tune(prog, in)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Served {
			t.Errorf("%s: the same run missed the repository", scheds.name)
		}
	}

	// Adaptive and compare modes key separately from plain tune.
	opts := repoOpts(dir)
	opts.SkipExist = true
	rep, err := NewTuner(opts).TuneAdaptive(prog, in, DefaultStopRule())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served {
		t.Error("adaptive submission was served a plain-tune entry")
	}
	// ... and an identical adaptive resubmission hits its own entry.
	rep2, err := NewTuner(opts).TuneAdaptive(prog, in, DefaultStopRule())
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Served {
		t.Error("identical adaptive resubmission was not served")
	}
	if rep2.Fingerprint() != rep.Fingerprint() {
		t.Error("served adaptive fingerprint diverged")
	}
	// Adaptive runs key by technique too.
	opts.Technique = "bo"
	rep3, err := NewTuner(opts).TuneAdaptive(prog, in, DefaultStopRule())
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Served {
		t.Error("adaptive bo submission was served the adaptive cfr entry")
	}
}

// An entry stored without a trace cannot serve a caller that wants one;
// the recompute re-stores the entry with the trace attached, upgrading
// it in place.
func TestRepoTraceUpgrade(t *testing.T) {
	dir := t.TempDir()
	prog, _ := Benchmark(Swim)
	m, _ := MachineByName("broadwell")
	in := TuningInput(Swim, m)
	if _, err := NewTuner(repoOpts(dir)).Tune(prog, in); err != nil {
		t.Fatal(err)
	}

	opts := repoOpts(dir)
	opts.SkipExist = true
	rec := NewTraceRecorder()
	opts.Trace = rec
	rep, err := NewTuner(opts).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served {
		t.Fatal("trace-less entry served to a tracing caller")
	}
	var want bytes.Buffer
	if err := rec.Snapshot().Canonical().WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}

	// The recompute stored the trace: a third tracing submission serves.
	opts3 := repoOpts(dir)
	opts3.SkipExist = true
	rec3 := NewTraceRecorder()
	opts3.Trace = rec3
	rep3, err := NewTuner(opts3).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if !rep3.Served {
		t.Fatal("upgraded entry did not serve a tracing caller")
	}
	var got bytes.Buffer
	if err := rec3.Snapshot().Canonical().WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("upgraded entry served a divergent canonical trace")
	}
}

// repoEntryPath finds the single stored entry file under dir.
func repoEntryPath(t *testing.T, dir string) string {
	t.Helper()
	var found string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".json" {
			if found != "" {
				t.Fatalf("more than one entry: %s and %s", found, path)
			}
			found = path
		}
		return nil
	})
	if err != nil || found == "" {
		t.Fatalf("no stored entry under %s (err %v)", dir, err)
	}
	return found
}

// Storage damage must never surface: a corrupt entry falls through to a
// recompute with the same fingerprint, and the repository heals itself
// on the re-store.
func TestRepoCorruptEntryFallsThroughToRecompute(t *testing.T) {
	dir := t.TempDir()
	prog, _ := Benchmark(Swim)
	m, _ := MachineByName("broadwell")
	in := TuningInput(Swim, m)
	want, err := NewTuner(repoOpts(dir)).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the middle of the entry file.
	path := repoEntryPath(t, dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x20
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	opts := repoOpts(dir)
	opts.SkipExist = true
	tuner := NewTuner(opts)
	rep, err := tuner.Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served {
		t.Fatal("corrupt entry was served")
	}
	if rep.Fingerprint() != want.Fingerprint() {
		t.Fatal("recompute after corruption diverged")
	}
	st := tuner.RepoStats()
	if st.Corrupt == 0 {
		t.Fatalf("corruption not counted: %+v", st)
	}
	if st.Puts == 0 {
		t.Fatalf("recompute did not re-store the entry: %+v", st)
	}

	// The healed entry serves again.
	rep2, err := NewTuner(opts).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Served || rep2.Fingerprint() != want.Fingerprint() {
		t.Fatal("repository did not heal after corruption")
	}
}

// A body that passes the envelope checksum but whose content does not
// reproduce its stored fingerprint is invalidated, not served — the
// facade's end-to-end integrity check, one level above resultrepo's.
func TestRepoFingerprintMismatchInvalidates(t *testing.T) {
	dir := t.TempDir()
	prog, _ := Benchmark(Swim)
	m, _ := MachineByName("broadwell")
	in := TuningInput(Swim, m)
	want, err := NewTuner(repoOpts(dir)).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}

	// Tamper with the body (bump CFR's evaluation count) and re-seal the
	// body record with a freshly computed checksum, so only the
	// fingerprint verification can catch it.
	path := repoEntryPath(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	_, good := fsx.ReadRecords(raw, func(b []byte) bool {
		recs = append(recs, b)
		return true
	})
	if good != len(raw) || len(recs) != 2 {
		t.Fatalf("stored entry is not two sealed records (%d records, %d of %d bytes)", len(recs), good, len(raw))
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(recs[1], &body); err != nil {
		t.Fatal(err)
	}
	var results map[string]map[string]json.RawMessage
	if err := json.Unmarshal(body["results"], &results); err != nil {
		t.Fatal(err)
	}
	results["CFR"]["evaluations"] = json.RawMessage("99999")
	reenc, err := json.Marshal(results)
	if err != nil {
		t.Fatal(err)
	}
	body["results"] = reenc
	newBody, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	sealed := fsx.AppendRecord(fsx.AppendRecord(nil, recs[0]), newBody)
	if err := os.WriteFile(path, sealed, 0o644); err != nil {
		t.Fatal(err)
	}

	opts := repoOpts(dir)
	opts.SkipExist = true
	rep, err := NewTuner(opts).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served {
		t.Fatal("fingerprint-mismatched entry was served")
	}
	if rep.Fingerprint() != want.Fingerprint() {
		t.Fatal("recompute after tamper diverged")
	}
}

// SkipExist without a repository is a configuration error, surfaced by
// the first Tune call like every other deferred validation failure.
func TestRepoOptionValidation(t *testing.T) {
	prog, _ := Benchmark(Swim)
	m, _ := MachineByName("broadwell")
	in := TuningInput(Swim, m)
	if _, err := NewTuner(Options{SkipExist: true}).Tune(prog, in); err == nil {
		t.Error("SkipExist without RepoPath/Repo accepted")
	}
	if _, err := NewTuner(Options{CacheSpill: t.TempDir(), CacheSize: -1}).Tune(prog, in); err == nil {
		t.Error("CacheSpill with caching disabled accepted")
	}
	if _, err := NewTuner(Options{CacheSpill: t.TempDir(), SharedCache: NewCompileCache(0)}).Tune(prog, in); err == nil {
		t.Error("CacheSpill with SharedCache accepted")
	}
}

// BenchmarkRepoServedTune is the duplicate-submission speedup proof:
// "cold" runs the full pipeline, "served" resolves the identical
// submission from the repository — key derivation, one lookup, one
// decode, one fingerprint verification. The gap is the point: serving
// is O(lookup), independent of the evaluation budget.
func BenchmarkRepoServedTune(b *testing.B) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(Swim)
	if err != nil {
		b.Fatal(err)
	}
	in := TuningInput(Swim, m)
	mkOpts := func(dir string) Options {
		return Options{Machine: m, Samples: 60, TopX: 10, Seed: "repo-bench", RepoPath: dir}
	}

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir() // fresh repo: every iteration computes
			b.StartTimer()
			if _, err := NewTuner(mkOpts(dir)).Tune(prog, in); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("served", func(b *testing.B) {
		dir := b.TempDir()
		if _, err := NewTuner(mkOpts(dir)).Tune(prog, in); err != nil {
			b.Fatal(err)
		}
		opts := mkOpts(dir)
		opts.SkipExist = true
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rep, err := NewTuner(opts).Tune(prog, in)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Served {
				b.Fatal("not served")
			}
		}
	})
}

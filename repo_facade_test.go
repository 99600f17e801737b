package funcytuner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"funcytuner/internal/fsx"
	"funcytuner/internal/resultrepo"
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

	// A served report evaluates and explains from its own provenance,
	// exactly as the computed one does.
	wantEv, err := want.Evaluate(want.Best.ModuleCVs, in)
	if err != nil {
		t.Fatal(err)
	}
	gotEv, err := got.Evaluate(got.Best.ModuleCVs, in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotEv, wantEv) || gotEv.Total != want.Best.TrueTime {
		t.Fatalf("served Evaluate = %+v, computed %+v, tuned true time %v", gotEv, wantEv, want.Best.TrueTime)
	}
	wantBase, err := want.EvaluateBaseline(in)
	if err != nil {
		t.Fatal(err)
	}
	gotBase, err := got.EvaluateBaseline(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotBase, wantBase) || gotBase.Total != want.Best.Baseline {
		t.Fatalf("served EvaluateBaseline = %+v, computed %+v, tuned baseline %v", gotBase, wantBase, want.Best.Baseline)
	}
	wantAttr, err := want.Attribution()
	if err != nil {
		t.Fatal(err)
	}
	gotAttr, err := got.Attribution()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotAttr, wantAttr) {
		t.Fatalf("served Attribution = %+v, computed %+v", gotAttr, wantAttr)
	}
	for mi := range want.Best.ModuleCVs {
		wantFlags, err := want.CriticalFlags(mi)
		if err != nil {
			t.Fatal(err)
		}
		gotFlags, err := got.CriticalFlags(mi)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotFlags, wantFlags) {
			t.Fatalf("served module %d critical flags %q, computed %q", mi, gotFlags, wantFlags)
		}
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

// A body that passes the envelope checksum but does not describe the run
// it is filed under is invalidated and recomputed, never served — the
// facade's end-to-end integrity checks, one level above resultrepo's.
// Each tamper re-seals the body record with a freshly computed checksum,
// so only decode can catch it: a bumped evaluation count fails the
// stored fingerprint, and a renamed module, which the fingerprint does
// not cover, no longer names the outlined partition.
func TestRepoFingerprintMismatchInvalidates(t *testing.T) {
	prog, _ := Benchmark(Swim)
	m, _ := MachineByName("broadwell")
	in := TuningInput(Swim, m)
	tampers := []struct {
		name, field string
		edit        func(t *testing.T, raw json.RawMessage) any
	}{
		{"evaluation-count", "results", func(t *testing.T, raw json.RawMessage) any {
			var results map[string]map[string]json.RawMessage
			if err := json.Unmarshal(raw, &results); err != nil {
				t.Fatal(err)
			}
			results["CFR"]["evaluations"] = json.RawMessage("99999")
			return results
		}},
		{"module-name", "module_names", func(t *testing.T, raw json.RawMessage) any {
			var names []string
			if err := json.Unmarshal(raw, &names); err != nil {
				t.Fatal(err)
			}
			names[0] = "loop:forged"
			return names
		}},
	}
	for _, tc := range tampers {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			want, err := NewTuner(repoOpts(dir)).Tune(prog, in)
			if err != nil {
				t.Fatal(err)
			}
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
			if body[tc.field], err = json.Marshal(tc.edit(t, body[tc.field])); err != nil {
				t.Fatal(err)
			}
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
			tuner := NewTuner(opts)
			rep, err := tuner.Tune(prog, in)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Served {
				t.Fatal("tampered entry was served")
			}
			if st := tuner.RepoStats(); st.Corrupt != 1 || st.Puts != 1 {
				t.Fatalf("tampered entry was not invalidated and re-stored: %+v", st)
			}
			if rep.Fingerprint() != want.Fingerprint() {
				t.Fatal("recompute after tamper diverged")
			}
			var wantSave, gotSave bytes.Buffer
			if err := want.Save(&wantSave); err != nil {
				t.Fatal(err)
			}
			if err := rep.Save(&gotSave); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotSave.Bytes(), wantSave.Bytes()) {
				t.Fatalf("recompute after tamper saves\n%s\nwant\n%s", gotSave.Bytes(), wantSave.Bytes())
			}
		})
	}
}

// rewriteEntry replaces the single entry under dir by what edit makes of
// its body and trace, stored again through the repository, so only the
// facade's own checks can refuse it.
func rewriteEntry(t *testing.T, dir string, edit func(body, trace []byte) (newBody, newTrace []byte)) {
	t.Helper()
	key, err := strconv.ParseUint(strings.TrimSuffix(filepath.Base(repoEntryPath(t, dir)), ".json"), 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	repo, err := resultrepo.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	e, ok := repo.GetEntry(key)
	if !ok {
		t.Fatal("stored entry does not read back")
	}
	e.Body, e.Trace = edit(e.Body, e.Trace)
	if err := repo.PutEntry(key, e); err != nil {
		t.Fatal(err)
	}
}

// A serve decodes the stored trace only for a caller that traces. An
// entry whose trace part is intact on disk but does not decode still
// serves an untraced caller, with the stored fingerprint; to a tracing
// caller it is one counted corrupt miss, and the recompute re-stores a
// trace that serves.
func TestRepoUntracedServeSkipsTrace(t *testing.T) {
	dir := t.TempDir()
	prog, _ := Benchmark(Swim)
	m, _ := MachineByName("broadwell")
	in := TuningInput(Swim, m)
	opts := repoOpts(dir)
	rec := NewTraceRecorder()
	opts.Trace = rec
	want, err := NewTuner(opts).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	rewriteEntry(t, dir, func(body, trace []byte) ([]byte, []byte) {
		if len(trace) == 0 {
			t.Fatal("traced run stored no trace")
		}
		return body, []byte("not a trace event\n")
	})

	untraced := repoOpts(dir)
	untraced.SkipExist = true
	tuner := NewTuner(untraced)
	rep, err := tuner.Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Served || rep.Fingerprint() != want.Fingerprint() {
		t.Fatalf("untraced caller: served %v, fingerprint %016x, want served %016x", rep.Served, rep.Fingerprint(), want.Fingerprint())
	}
	if st := tuner.RepoStats(); st.Corrupt != 0 {
		t.Fatalf("untraced serve judged the trace: %+v", st)
	}

	traced := repoOpts(dir)
	traced.SkipExist = true
	traced.Trace = NewTraceRecorder()
	tuner = NewTuner(traced)
	rep, err = tuner.Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served {
		t.Fatal("an undecodable trace was served to a tracing caller")
	}
	if st := tuner.RepoStats(); st.Corrupt != 1 || st.Puts != 1 {
		t.Fatalf("undecodable trace was not one corrupt miss and a re-store: %+v", st)
	}
	if rep.Fingerprint() != want.Fingerprint() {
		t.Fatal("recompute after an undecodable trace diverged")
	}

	again := repoOpts(dir)
	again.SkipExist = true
	rec3 := NewTraceRecorder()
	again.Trace = rec3
	rep, err = NewTuner(again).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	var wantTr, gotTr bytes.Buffer
	if err := rec.Snapshot().Canonical().WriteJSONL(&wantTr); err != nil {
		t.Fatal(err)
	}
	if err := rec3.Snapshot().Canonical().WriteJSONL(&gotTr); err != nil {
		t.Fatal(err)
	}
	if !rep.Served || !bytes.Equal(gotTr.Bytes(), wantTr.Bytes()) {
		t.Fatalf("re-stored entry: served %v, canonical trace equal %v", rep.Served, bytes.Equal(gotTr.Bytes(), wantTr.Bytes()))
	}
}

// An entry in the layout before raw traces — two records, a header
// naming the key alone and a body embedding the trace as one escaped
// JSON string — is read once as a counted corrupt miss, seeds no warm
// start, and is recomputed to the same fingerprint and re-stored in the
// current layout, byte for byte what a fresh store writes.
func TestRepoTwoRecordEntryRestored(t *testing.T) {
	prog, _ := Benchmark(Swim)
	m, _ := MachineByName("broadwell")
	in := TuningInput(Swim, m)
	dir := t.TempDir()
	opts := repoOpts(dir)
	opts.Trace = NewTraceRecorder()
	want, err := NewTuner(opts).Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	path := repoEntryPath(t, dir)
	current, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, body, trace, ok := fsx.ReadEntry(current)
	if !ok || len(trace) == 0 {
		t.Fatal("traced run stored no trace")
	}
	quoted, err := json.Marshal(string(trace))
	if err != nil {
		t.Fatal(err)
	}
	oldBody := append(append(append(bytes.Clone(body[:len(body)-1]), `,"trace_jsonl":`...), quoted...), '}')
	old, err := fsx.AppendEntry(nil, []byte(`{"key":"`+strings.TrimSuffix(filepath.Base(path), ".json")+`"}`), oldBody, nil)
	if err != nil {
		t.Fatal(err)
	}

	// A warm start drops it and seeds nothing from it.
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	warm := repoOpts(dir)
	warm.Technique, warm.WarmStart = "bo", true
	tuner := NewTuner(warm)
	if seeds := tuner.warmSeeds(prog); len(seeds) != 0 {
		t.Fatalf("a two-record entry seeded %d warm starts", len(seeds))
	}
	if st := tuner.RepoStats(); st.Corrupt != 1 {
		t.Fatalf("warm scan of a two-record entry: %+v, want 1 corrupt", st)
	}

	// A resubmission recomputes and re-stores it.
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	again := repoOpts(dir)
	again.SkipExist = true
	again.Trace = NewTraceRecorder()
	tuner = NewTuner(again)
	rep, err := tuner.Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served {
		t.Fatal("a two-record entry was served")
	}
	if st := tuner.RepoStats(); st.Corrupt != 1 || st.Puts != 1 {
		t.Fatalf("two-record entry was not one corrupt miss and a re-store: %+v", st)
	}
	if rep.Fingerprint() != want.Fingerprint() {
		t.Fatal("recompute of a two-record entry diverged")
	}
	restored, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(restored, current) {
		t.Fatalf("re-stored entry (%d bytes) is not the current layout's (%d bytes)", len(restored), len(current))
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

	// The served-paper sub-benchmarks serve a paper-scale
	// CloverLeaf/Broadwell run (K=1000, top-50), stored once with its
	// canonical trace of about 8,000 events, as funcytunerd stores every
	// run. served-paper-traced serves it to a caller with a trace
	// recorder, as funcytunerd serves every resubmission, so the serve
	// decodes and replays the trace; served-paper-untraced serves the
	// same entry to a caller without one, which decodes no trace.
	paperDir := b.TempDir()
	var paperStored bool
	paper := func(b *testing.B, traced bool) {
		prog, err := Benchmark(CloverLeaf)
		if err != nil {
			b.Fatal(err)
		}
		in := TuningInput(CloverLeaf, m)
		opts := Options{Machine: m, Samples: 1000, TopX: 50, Seed: "repo-bench", RepoPath: paperDir}
		if !paperStored {
			opts.Trace = NewTraceRecorder()
			if _, err := NewTuner(opts).Tune(prog, in); err != nil {
				b.Fatal(err)
			}
			paperStored = true
		}
		opts.SkipExist = true
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			opts.Trace = nil
			if traced {
				opts.Trace = NewTraceRecorder()
			}
			rep, err := NewTuner(opts).Tune(prog, in)
			if err != nil {
				b.Fatal(err)
			}
			if !rep.Served {
				b.Fatal("not served")
			}
		}
	}
	b.Run("served-paper-traced", func(b *testing.B) { paper(b, true) })
	b.Run("served-paper-untraced", func(b *testing.B) { paper(b, false) })
}

// BenchmarkWarmSeeds is one warm-start scan of a repository holding 16
// paper-scale CloverLeaf/Broadwell runs (K=1000, top-50), each stored
// with its canonical trace as funcytunerd stores every run: the scan a
// warm bo or ga job pays before it starts.
func BenchmarkWarmSeeds(b *testing.B) {
	m, _ := MachineByName("broadwell")
	prog, err := Benchmark(CloverLeaf)
	if err != nil {
		b.Fatal(err)
	}
	in := TuningInput(CloverLeaf, m)
	dir := b.TempDir()
	cache := NewCompileCache(0)
	for i := 0; i < 16; i++ {
		opts := Options{Machine: m, Samples: 1000, TopX: 50, Seed: fmt.Sprintf("warm-bench-%d", i),
			RepoPath: dir, SharedCache: cache, Trace: NewTraceRecorder()}
		if _, err := NewTuner(opts).Tune(prog, in); err != nil {
			b.Fatal(err)
		}
	}
	tuner := NewTuner(Options{Machine: m, Samples: 1000, TopX: 50, Seed: "warm-bench",
		RepoPath: dir, Technique: "bo", WarmStart: true})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if seeds := tuner.warmSeeds(prog); len(seeds) != maxWarmSeeds {
			b.Fatalf("scan found %d seeds, want %d", len(seeds), maxWarmSeeds)
		}
	}
}

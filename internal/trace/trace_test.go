package trace

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"sync"
	"testing"
)

func sampleEvents() []Event {
	return []Event{
		{Kind: KindSession, Sample: -1, Name: "prog/machine/seed"},
		{Kind: KindPhase, PhaseSeq: 1, Phase: "collect", Sample: -1},
		{Kind: KindCompile, PhaseSeq: 1, Phase: "collect", Sample: 0, Step: 0, Modules: 7, Sim: 0.25},
		{Kind: KindLink, PhaseSeq: 1, Phase: "collect", Sample: 0, Step: 1, Sim: 0.5},
		{Kind: KindRun, PhaseSeq: 1, Phase: "collect", Sample: 0, Step: 2, Name: "ok", Seconds: 19.5, Sim: 20.0},
		{Kind: KindFault, PhaseSeq: 1, Phase: "collect", Sample: 1, Step: 0, Name: "flake", Attempt: 1, Seconds: 3.5},
		{Kind: KindRetry, PhaseSeq: 1, Phase: "collect", Sample: 1, Step: 1, Attempt: 1, Seconds: 5},
		{Kind: KindEval, PhaseSeq: 1, Phase: "collect", Sample: 1, Step: 2, Name: "lost", Seconds: math.Inf(1), Sim: 308.5},
		{Kind: Kind("cache"), PhaseSeq: 1, Sample: -1, Name: "object-hit", Sched: true},
	}
}

// Every event — including ±Inf durations — must survive an
// encode→decode→encode cycle byte-identically.
func TestJSONLRoundTrip(t *testing.T) {
	tr := &Trace{Events: sampleEvents()}
	var first bytes.Buffer
	if err := tr.WriteJSONL(&first); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Events) != len(tr.Events) {
		t.Fatalf("decoded %d events, wrote %d", len(dec.Events), len(tr.Events))
	}
	var second bytes.Buffer
	if err := dec.WriteJSONL(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("re-encode not byte-stable:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
	for i := range tr.Events {
		if tr.Events[i].Kind != dec.Events[i].Kind || tr.Events[i].Name != dec.Events[i].Name {
			t.Fatalf("event %d changed identity across round trip", i)
		}
	}
	if !math.IsInf(dec.Events[7].Seconds, 1) {
		t.Fatalf("+Inf seconds decoded as %v", dec.Events[7].Seconds)
	}
}

// NaN is not produced by the pipeline but must still round-trip stably —
// the encoding may not be lossy for any float64.
func TestNaNEncodingStable(t *testing.T) {
	e := Event{Kind: KindRun, Sample: 0, Seconds: math.NaN()}
	b1, err := e.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var dec Event
	if err := dec.UnmarshalJSON(b1); err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(dec.Seconds) {
		t.Fatalf("NaN decoded as %v", dec.Seconds)
	}
	b2, err := dec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("NaN re-encode not stable: %s vs %s", b1, b2)
	}
}

// Corrupt events must be rejected with an error, never a panic, and the
// validator must reject out-of-range ordinals.
func TestUnmarshalRejectsCorruptEvents(t *testing.T) {
	bad := map[string]string{
		"not json":       `{{{`,
		"empty kind":     `{"sample":0}`,
		"negative pseq":  `{"kind":"run","pseq":-1,"sample":0}`,
		"negative step":  `{"kind":"run","sample":0,"step":-2}`,
		"sample too low": `{"kind":"run","sample":-2}`,
		"bad seconds":    `{"kind":"run","sample":0,"seconds":"zzz"}`,
		"bad sim":        `{"kind":"run","sample":0,"sim":"0x"}`,
		"negative wall":  `{"kind":"run","sample":0,"wall":-5}`,
	}
	for name, doc := range bad {
		var e Event
		if err := e.UnmarshalJSON([]byte(doc)); err == nil {
			t.Errorf("%s accepted: %s", name, doc)
		}
	}
}

// ReadJSONL must skip blank lines and name the offending line on error.
func TestReadJSONLErrors(t *testing.T) {
	tr, err := ReadJSONL(strings.NewReader("\n{\"kind\":\"run\",\"sample\":0}\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 1 {
		t.Fatalf("expected 1 event, got %d", len(tr.Events))
	}
	_, err = ReadJSONL(strings.NewReader("{\"kind\":\"run\",\"sample\":0}\nnot json\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("expected a line-2 error, got %v", err)
	}
}

// A seekable input is counted before it is decoded, from wherever it
// stands, into a slice of exactly its events; what decodes, and the
// error a line past the 4 MiB limit gives, match an input that cannot
// seek.
func TestReadJSONLSized(t *testing.T) {
	var doc bytes.Buffer
	if err := (&Trace{Events: sampleEvents()}).WriteJSONL(&doc); err != nil {
		t.Fatal(err)
	}
	want := sampleEvents()
	sized, err := ReadJSONL(bytes.NewReader(doc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(sized.Events) != len(want) || cap(sized.Events) != len(want) {
		t.Errorf("seekable input decoded %d events into capacity %d, want %d and %d", len(sized.Events), cap(sized.Events), len(want), len(want))
	}
	streamed, err := ReadJSONL(struct{ io.Reader }{bytes.NewReader(doc.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(sized, &Trace{Events: want}); d != "" {
		t.Errorf("seekable decode: %s", d)
	}
	if d := Diff(sized, streamed); d != "" {
		t.Errorf("seekable and streamed decodes differ: %s", d)
	}
	// Past the first line, the count and the decode both start there.
	first := bytes.IndexByte(doc.Bytes(), '\n') + 1
	r := bytes.NewReader(doc.Bytes())
	r.Seek(int64(first), io.SeekStart)
	rest, err := ReadJSONL(r)
	if err != nil {
		t.Fatal(err)
	}
	if d := Diff(rest, &Trace{Events: want[1:]}); d != "" || cap(rest.Events) != len(want)-1 {
		t.Errorf("decode from the second line: %s (capacity %d)", d, cap(rest.Events))
	}
	if tr, err := ReadJSONL(strings.NewReader("\n\n")); err != nil || tr.Events != nil {
		t.Errorf("blank input decoded to %#v, %v; want nil events", tr, err)
	}

	long := `{"kind":"run","sample":0,"name":"` + strings.Repeat("x", 4<<20) + `"}` + "\n"
	_, errSized := ReadJSONL(strings.NewReader(long))
	_, errStreamed := ReadJSONL(struct{ io.Reader }{strings.NewReader(long)})
	if errSized == nil || errStreamed == nil || errSized.Error() != errStreamed.Error() {
		t.Errorf("over-long line: seekable error %v, streamed error %v", errSized, errStreamed)
	}
}

// Canonical must drop scheduling-dependent events, strip wall stamps,
// and order the rest by (PhaseSeq, Sample, Step).
func TestCanonical(t *testing.T) {
	tr := &Trace{Events: []Event{
		{Kind: KindRun, PhaseSeq: 2, Phase: "cfr", Sample: 1, Step: 0, Wall: 99},
		{Kind: Kind("cache"), PhaseSeq: 1, Sample: -1, Name: "object-hit", Sched: true},
		{Kind: KindRun, PhaseSeq: 1, Phase: "collect", Sample: 1, Step: 1, Wall: 98},
		{Kind: KindCompile, PhaseSeq: 1, Phase: "collect", Sample: 1, Step: 0, Wall: 97},
		{Kind: KindSession, PhaseSeq: 0, Sample: -1, Name: "s", Wall: 96},
		// Same span position: ties break on kind, then name.
		{Kind: KindRun, PhaseSeq: 3, Sample: 0, Name: "ok"},
		{Kind: KindFault, PhaseSeq: 3, Sample: 0, Name: "flake"},
		{Kind: KindFault, PhaseSeq: 3, Sample: 0, Name: "crash"},
	}}
	canon := tr.Canonical()
	if len(canon.Events) != 7 {
		t.Fatalf("expected 7 canonical events, got %d", len(canon.Events))
	}
	want := []Kind{KindSession, KindCompile, KindRun, KindRun, KindFault, KindFault, KindRun}
	for i, e := range canon.Events {
		if e.Kind != want[i] {
			t.Fatalf("canonical order wrong at %d: got %s, want %s", i, e.Kind, want[i])
		}
		if e.Wall != 0 {
			t.Fatalf("canonical event %d kept wall stamp %d", i, e.Wall)
		}
		if e.Sched {
			t.Fatalf("canonical event %d is scheduling-dependent", i)
		}
	}
	if canon.Events[4].Name != "crash" || canon.Events[5].Name != "flake" {
		t.Fatalf("equal-kind tie not broken by name: %q before %q", canon.Events[4].Name, canon.Events[5].Name)
	}
	// The original trace is untouched.
	if tr.Events[0].Wall != 99 || len(tr.Events) != 8 {
		t.Fatal("Canonical mutated its receiver")
	}
}

// Diff must report "" for equal traces, the first divergent event, and
// length mismatches on either side.
func TestDiff(t *testing.T) {
	a := &Trace{Events: sampleEvents()}
	b := &Trace{Events: sampleEvents()}
	if d := Diff(a, b); d != "" {
		t.Fatalf("equal traces diff: %s", d)
	}
	b.Events[3].Seconds = 42
	if d := Diff(a, b); !strings.Contains(d, "event 3") {
		t.Fatalf("expected divergence at event 3, got: %s", d)
	}
	shorter := &Trace{Events: a.Events[:5]}
	if d := Diff(a, shorter); !strings.Contains(d, "lengths differ") || !strings.Contains(d, "in a") {
		t.Fatalf("expected a-side length diff, got: %s", d)
	}
	if d := Diff(shorter, a); !strings.Contains(d, "in b") {
		t.Fatalf("expected b-side length diff, got: %s", d)
	}
}

// A nil recorder and a nil batch must no-op on every method.
func TestNilRecorderAndBatch(t *testing.T) {
	var r *Recorder
	r.WallClock(func() int64 { return 1 })
	r.Emit(Event{Kind: KindRun})
	r.Session("s")
	r.Phase("p")
	if r.Len() != 0 {
		t.Fatal("nil recorder has events")
	}
	if tr := r.Snapshot(); len(tr.Events) != 0 {
		t.Fatal("nil recorder snapshot non-empty")
	}
	b := r.Batch("collect", 0)
	if b != nil {
		t.Fatal("nil recorder returned a non-nil batch")
	}
	b.Add(Event{Kind: KindRun})
	b.Commit()
	if b.Events() != nil {
		t.Fatal("nil batch has events")
	}
	r.SetBatchPooling(false)
	r.CommitSpan([]Event{{Kind: KindRun}})
	r.Replay(&Trace{Events: sampleEvents()})
}

// The recorder must stamp phase ordinals and wall clocks, and batches
// must stamp span identity and step numbering.
func TestRecorderStamping(t *testing.T) {
	r := NewRecorder()
	wall := int64(100)
	r.WallClock(func() int64 { wall++; return wall })
	r.Session("prog/m/s")
	r.Phase("collect")
	b := r.Batch("collect", 3)
	b.Add(Event{Kind: KindCompile, Modules: 5})
	b.Add(Event{Kind: KindRun, Name: "ok", Seconds: 7})
	b.Commit()
	b.Commit() // empty re-commit is a no-op
	r.Phase("cfr")
	if r.Len() != 5 {
		t.Fatalf("expected 5 events, got %d", r.Len())
	}
	evs := r.Snapshot().Events
	if evs[0].Kind != KindSession || evs[0].PhaseSeq != 0 || evs[0].Sample != -1 {
		t.Fatalf("bad session marker: %+v", evs[0])
	}
	if evs[1].Kind != KindPhase || evs[1].PhaseSeq != 1 || evs[1].Phase != "collect" {
		t.Fatalf("bad phase marker: %+v", evs[1])
	}
	for i, e := range evs[2:4] {
		if e.PhaseSeq != 1 || e.Phase != "collect" || e.Sample != 3 || e.Step != i {
			t.Fatalf("bad span stamping at %d: %+v", i, e)
		}
	}
	if evs[4].Kind != KindPhase || evs[4].PhaseSeq != 2 {
		t.Fatalf("bad second phase marker: %+v", evs[4])
	}
	for i, e := range evs {
		if e.Wall == 0 {
			t.Fatalf("event %d missing wall stamp", i)
		}
	}
}

// Concurrent batches and emits must be safe (run under -race) and lose
// no events.
func TestRecorderConcurrency(t *testing.T) {
	r := NewRecorder()
	r.Phase("collect")
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for k := 0; k < perWorker; k++ {
				b := r.Batch("collect", w*perWorker+k)
				b.Add(Event{Kind: KindCompile, Modules: 3})
				b.Add(Event{Kind: KindEval, Name: "ok", Seconds: 1})
				b.Commit()
				r.Emit(Event{Kind: Kind("cache"), Sample: -1, Name: "object-hit", Sched: true})
			}
		}(w)
	}
	wg.Wait()
	if want := 1 + workers*perWorker*3; r.Len() != want {
		t.Fatalf("lost events: got %d, want %d", r.Len(), want)
	}
	// Each span's two events stay adjacent (batches commit atomically).
	evs := r.Snapshot().Canonical()
	seen := make(map[int]int)
	for _, e := range evs.Events {
		if e.Sample >= 0 {
			seen[e.Sample]++
		}
	}
	for s, n := range seen {
		if n != 2 {
			t.Fatalf("sample %d has %d events, want 2", s, n)
		}
	}
}

// With pooling off, a committed batch is never handed out again: every
// span gets a fresh batch, and the committed one keeps no buffer.
func TestBatchPoolingOff(t *testing.T) {
	r := NewRecorder()
	r.SetBatchPooling(false)
	r.Phase("collect")
	b := r.Batch("collect", 3)
	b.Add(Event{Kind: KindRun, Seconds: 2})
	b.Commit()
	if b.events != nil {
		t.Fatal("unpooled batch kept its buffer after Commit")
	}
	if next := r.Batch("collect", 4); next == b {
		t.Fatal("unpooled recorder recycled a committed batch")
	}
	evs := r.Snapshot().Events
	if len(evs) != 2 || evs[1].Phase != "collect" || evs[1].Sample != 3 || evs[1].PhaseSeq != 1 || evs[1].Seconds != 2 {
		t.Fatalf("recorded %+v", evs)
	}
}

// A detached batch stamps span identity with phase ordinal 0 and no
// wall clock, keeps its events through Commit (a no-op), and hands out
// copies.
func TestDetachedSpanBatch(t *testing.T) {
	b := NewSpanBatch("cfr", 7)
	b.Add(Event{Kind: KindCompile, Modules: 3})
	b.Add(Event{Kind: KindRun, Name: "ok", Seconds: 1.5})
	b.Commit()
	evs := b.Events()
	if len(evs) != 2 {
		t.Fatalf("detached batch holds %d events after Commit, want 2", len(evs))
	}
	for i, e := range evs {
		if e.Phase != "cfr" || e.Sample != 7 || e.Step != i || e.PhaseSeq != 0 || e.Wall != 0 {
			t.Fatalf("event %d stamped %+v", i, e)
		}
	}
	evs[0].Name = "changed"
	if b.Events()[0].Name != "" {
		t.Fatal("Events returned the batch's own buffer")
	}
}

// CommitSpan re-stamps a captured span with the recorder's phase
// ordinal and wall clock, keeps each event's phase, sample and step, and
// leaves the caller's slice alone.
func TestCommitSpanRestamps(t *testing.T) {
	b := NewSpanBatch("cfr", 7)
	b.Add(Event{Kind: KindCompile})
	b.Add(Event{Kind: KindRun, Name: "ok"})
	span := b.Events()

	r := NewRecorder()
	r.WallClock(func() int64 { return 42 })
	r.Phase("collect")
	r.Phase("cfr")
	r.CommitSpan(nil)
	if r.Len() != 2 {
		t.Fatalf("empty span recorded events: %d", r.Len())
	}
	r.CommitSpan(span)
	evs := r.Snapshot().Events[2:]
	if len(evs) != 2 {
		t.Fatalf("recorded %d span events, want 2", len(evs))
	}
	for i, e := range evs {
		if e.PhaseSeq != 2 || e.Wall != 42 || e.Phase != "cfr" || e.Sample != 7 || e.Step != i || e.Kind != span[i].Kind {
			t.Fatalf("span event %d recorded as %+v", i, e)
		}
	}
	if span[0].PhaseSeq != 0 || span[0].Wall != 0 {
		t.Fatal("CommitSpan mutated the caller's events")
	}
}

// Replay appends events verbatim, wall stamps included, and a replayed
// canonical trace snapshots canonically to the same bytes.
func TestReplayVerbatim(t *testing.T) {
	canon := (&Trace{Events: sampleEvents()}).Canonical()
	r := NewRecorder()
	r.WallClock(func() int64 { return 7 })
	r.Replay(nil)
	r.Replay(&Trace{})
	r.Replay(canon)
	got := r.Snapshot()
	if len(got.Events) != len(canon.Events) {
		t.Fatalf("replayed %d events, want %d", len(got.Events), len(canon.Events))
	}
	for i := range canon.Events {
		if got.Events[i] != canon.Events[i] {
			t.Fatalf("event %d replayed as %+v, want %+v", i, got.Events[i], canon.Events[i])
		}
	}
	var want, again bytes.Buffer
	if err := canon.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if err := got.Canonical().WriteJSONL(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), again.Bytes()) {
		t.Fatalf("replayed canonical trace differs:\n%s\nvs\n%s", again.Bytes(), want.Bytes())
	}
}

type failWriter struct{ err error }

func (w failWriter) Write([]byte) (int, error) { return 0, w.err }

// WriteJSONL returns the writer's error, whether it surfaces when the
// buffer fills mid-trace or at the final flush.
func TestWriteJSONLWriterError(t *testing.T) {
	broken := errors.New("disk full")
	small := &Trace{Events: sampleEvents()}
	large := &Trace{}
	for len(large.Events) < 200 {
		large.Events = append(large.Events, sampleEvents()...)
	}
	for name, tr := range map[string]*Trace{"flush": small, "mid-trace": large} {
		if err := tr.WriteJSONL(failWriter{broken}); !errors.Is(err, broken) {
			t.Errorf("%s: WriteJSONL returned %v, want the writer's error", name, err)
		}
	}
}

// The recorder stores its events in chunks. Each way in — Emit, a batch
// larger than one chunk, CommitSpan and a Replay several chunks long,
// which adds the replayed slice as a chunk — must cross a chunk boundary
// without losing, reordering or restamping an event: Snapshot equals a
// flat reference and Len matches after every step. A recorded event
// never moves, and every chunk but the last is full to its capacity.
func TestRecorderChunkBoundaries(t *testing.T) {
	r := NewRecorder()
	r.WallClock(func() int64 { return 7 })
	var want []Event
	check := func(step string) {
		t.Helper()
		got := r.Snapshot().Events
		if r.Len() != len(want) || len(got) != len(want) {
			t.Fatalf("%s: Len %d, Snapshot %d events, want %d", step, r.Len(), len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: event %d is %+v, want %+v", step, i, got[i], want[i])
			}
		}
		for i, c := range r.chunks[:len(r.chunks)-1] {
			if len(c) != cap(c) {
				t.Fatalf("%s: chunk %d of %d has len %d, cap %d", step, i, len(r.chunks), len(c), cap(c))
			}
		}
	}

	r.Phase("collect")
	want = append(want, Event{Kind: KindPhase, PhaseSeq: 1, Phase: "collect", Sample: -1, Wall: 7})
	first := &r.chunks[0][0]
	for i := 0; i < chunkSize; i++ {
		r.Emit(Event{Kind: KindSession, Sample: -1, Modules: i})
		want = append(want, Event{Kind: KindSession, PhaseSeq: 1, Sample: -1, Modules: i, Wall: 7})
	}
	check("emit")

	b := r.Batch("collect", 4)
	for i := 0; i < chunkSize+10; i++ {
		b.Add(Event{Kind: KindRun, Seconds: float64(i)})
		want = append(want, Event{Kind: KindRun, PhaseSeq: 1, Phase: "collect", Sample: 4, Step: i, Seconds: float64(i), Wall: 7})
	}
	b.Commit()
	check("batch")

	r.Phase("cfr")
	want = append(want, Event{Kind: KindPhase, PhaseSeq: 2, Phase: "cfr", Sample: -1, Wall: 7})
	span := NewSpanBatch("cfr", 9)
	for i := 0; i < chunkSize; i++ {
		span.Add(Event{Kind: KindCompile, Modules: i})
		want = append(want, Event{Kind: KindCompile, PhaseSeq: 2, Phase: "cfr", Sample: 9, Step: i, Modules: i, Wall: 7})
	}
	r.CommitSpan(span.Events())
	check("span")

	old := make([]Event, 3*chunkSize+5)
	for i := range old {
		old[i] = Event{Kind: KindEval, PhaseSeq: 3, Phase: "greedy", Sample: i % 5, Step: i, Name: "ok", Wall: int64(i + 1)}
	}
	r.Replay(&Trace{Events: old})
	want = append(want, old...)
	check("replay")

	if &r.chunks[0][0] != first {
		t.Fatal("appending moved a recorded event")
	}
}

// Batches larger than a chunk, single emits and snapshots running
// concurrently (run under -race) lose no event, and each batch lands
// contiguously and in step order even when it spans chunks.
func TestRecorderChunkedConcurrentCommits(t *testing.T) {
	r := NewRecorder()
	r.Phase("collect")
	const workers, batches, perBatch = 4, 3, chunkSize/2 + 7
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < batches; k++ {
				b := r.Batch("collect", w*batches+k)
				for i := 0; i < perBatch; i++ {
					b.Add(Event{Kind: KindRun})
				}
				b.Commit()
				r.Emit(Event{Kind: KindSession, Sample: -1})
				if n := len(r.Snapshot().Events); n == 0 {
					t.Error("empty snapshot during recording")
				}
			}
		}(w)
	}
	wg.Wait()
	evs := r.Snapshot().Events
	if want := 1 + workers*batches*(perBatch+1); len(evs) != want || r.Len() != want {
		t.Fatalf("recorded %d events (Len %d), want %d", len(evs), r.Len(), want)
	}
	for i := 0; i < len(evs); i++ {
		if evs[i].Kind != KindRun {
			continue
		}
		for s := 0; s < perBatch; s++ {
			if e := evs[i+s]; e.Kind != KindRun || e.Sample != evs[i].Sample || e.Step != s {
				t.Fatalf("batch of sample %d broken at step %d: %+v", evs[i].Sample, s, e)
			}
		}
		i += perBatch - 1
	}
}

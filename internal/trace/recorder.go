package trace

import (
	"slices"
	"sync"
)

// Recorder accumulates events from a running session. A nil *Recorder
// is a valid, zero-cost recorder: every method no-ops, so call sites
// never branch on whether tracing is enabled.
//
// Concurrency contract: Emit and Batch commits may run concurrently
// from evaluation workers (they serialize on an internal mutex), but
// Phase and Session markers must come from the orchestrating goroutine
// between parallel regions — phase sequencing is deterministic precisely
// because it is not racing the workers.
//
// Events are stored in fixed-capacity chunks rather than one growing
// slice: an append fills the last chunk and starts a new one when it is
// full, so no append ever copies the events already recorded, and the
// unused capacity is at most one chunk.
type Recorder struct {
	mu sync.Mutex
	// chunks hold the recorded events in order, each with capacity
	// chunkSize; every chunk but the last is full. n counts the events.
	chunks [][]Event
	n      int
	// pseq is the current phase ordinal. Written only by the
	// orchestrating goroutine (in Phase, between parallel regions) and
	// read by workers opening batches; the go-statement / wait barriers
	// around each parallel region order those accesses.
	pseq int
	// wall, when set, stamps events with a wall-clock nanosecond time.
	wall func() int64
	// pool recycles committed Batches (and their event buffers) across
	// evaluations. Safe because a batch's contents are fully reset by
	// Batch() and every event is copied out under the lock before the
	// batch is recycled; which physical batch an evaluation gets is
	// scheduling-dependent, but batches carry no identity, so the
	// recorded events are unchanged. noPool opts out (the pooled-vs-
	// unpooled determinism tests pin that equivalence).
	pool   sync.Pool
	noPool bool
}

// SetBatchPooling toggles recycling of committed batches (on by default).
// Call before recording begins; the off position exists so determinism
// tests can compare pooled against unpooled runs.
func (r *Recorder) SetBatchPooling(on bool) {
	if r == nil {
		return
	}
	r.noPool = !on
}

// chunkSize is the event capacity of one recorder chunk.
const chunkSize = 1024

// push appends one event to the last chunk, starting a new chunk when
// the last is full. r.mu must be held.
func (r *Recorder) push(e Event) {
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == chunkSize {
		r.chunks = append(r.chunks, make([]Event, 0, chunkSize))
		last++
	}
	r.chunks[last] = append(r.chunks[last], e)
	r.n++
}

// NewRecorder returns an empty recorder with no wall clock.
func NewRecorder() *Recorder { return &Recorder{} }

// WallClock enables wall-clock stamping. clock returns nanoseconds
// (typically time.Now().UnixNano). Call before recording begins.
func (r *Recorder) WallClock(clock func() int64) {
	if r == nil {
		return
	}
	r.wall = clock
}

func (r *Recorder) now() int64 {
	if r == nil || r.wall == nil {
		return 0
	}
	return r.wall()
}

// Emit appends one event under the recorder lock, stamping the current
// phase ordinal and wall clock. Used for events outside an evaluation
// span (session and phase markers).
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	e.PhaseSeq = r.pseq
	e.Wall = r.now()
	r.mu.Lock()
	r.push(e)
	r.mu.Unlock()
}

// Session records a session marker (phase ordinal 0).
func (r *Recorder) Session(name string) {
	if r == nil {
		return
	}
	r.Emit(Event{Kind: KindSession, Name: name, Sample: -1})
}

// Phase advances the phase ordinal and records a phase marker. Must be
// called from the orchestrating goroutine, never from workers.
func (r *Recorder) Phase(name string) {
	if r == nil {
		return
	}
	r.pseq++
	r.Emit(Event{Kind: KindPhase, Phase: name, Sample: -1})
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// Snapshot copies the recorded events into a Trace. Only the chunk
// list is read under the lock: the events it covers never change, so
// they are concatenated after the lock is released.
func (r *Recorder) Snapshot() *Trace {
	if r == nil {
		return &Trace{}
	}
	r.mu.Lock()
	chunks := slices.Clone(r.chunks)
	r.mu.Unlock()
	return &Trace{Events: slices.Concat(chunks...)}
}

// Batch opens an evaluation span for (phase, sample): events added to
// the batch buffer locally and reach the recorder in one locked append
// on Commit, so parFor workers don't contend per event. A nil recorder
// returns a nil batch, which is itself a valid no-op.
func (r *Recorder) Batch(phase string, sample int) *Batch {
	if r == nil {
		return nil
	}
	if !r.noPool {
		if v := r.pool.Get(); v != nil {
			b := v.(*Batch)
			b.r, b.pseq, b.phase, b.sample, b.step = r, r.pseq, phase, sample, 0
			b.events = b.events[:0]
			return b
		}
	}
	return &Batch{r: r, pseq: r.pseq, phase: phase, sample: sample}
}

// NewSpanBatch opens an evaluation span bound to no recorder: events
// accumulate in the batch (phase ordinal 0, no wall clock) and stay
// available through Events after Commit, which is a no-op for a detached
// batch. Fleet workers use detached batches to capture one evaluation's
// span and ship it to the coordinator, whose recorder re-stamps it via
// CommitSpan.
func NewSpanBatch(phase string, sample int) *Batch {
	return &Batch{phase: phase, sample: sample}
}

// Events returns a copy of the span's buffered events. Only meaningful
// for detached batches (recorder-bound batches surrender their events on
// Commit). Nil-safe.
func (b *Batch) Events() []Event {
	if b == nil {
		return nil
	}
	return append([]Event(nil), b.events...)
}

// CommitSpan appends a remotely captured evaluation span in one locked
// append, re-stamping every event with the recorder's current phase
// ordinal and wall clock. The events' Phase/Sample/Step identity is
// preserved — it was assigned deterministically by the worker's detached
// batch — so the canonical trace is indistinguishable from one recorded
// by a local evaluation. Like Batch, the pseq read is ordered by the
// parallel-region barriers around each phase. Nil-safe.
func (r *Recorder) CommitSpan(events []Event) {
	if r == nil || len(events) == 0 {
		return
	}
	pseq, now := r.pseq, r.now()
	r.mu.Lock()
	for _, e := range events {
		e.PhaseSeq = pseq
		e.Wall = now
		r.push(e)
	}
	r.mu.Unlock()
}

// Replay appends a previously captured trace's events verbatim —
// PhaseSeq, Sample, Step and Wall all preserved, nothing re-stamped.
// The results repository uses it to hand a served run its original
// canonical trace: replaying a Canonical() trace and snapshotting it
// canonically again is byte-identical to the stored one. Nil-safe.
func (r *Recorder) Replay(t *Trace) {
	if r == nil || t == nil || len(t.Events) == 0 {
		return
	}
	r.mu.Lock()
	for i := range t.Events {
		r.push(t.Events[i])
	}
	r.mu.Unlock()
}

// Batch buffers the events of one evaluation span. Not safe for
// concurrent use; each worker owns its batches.
type Batch struct {
	r      *Recorder
	pseq   int
	phase  string
	sample int
	step   int
	events []Event
}

// Add stamps e with the span's identity (phase ordinal, phase, sample,
// step) and buffers it. Nil-safe.
func (b *Batch) Add(e Event) {
	if b == nil {
		return
	}
	e.PhaseSeq = b.pseq
	e.Phase = b.phase
	e.Sample = b.sample
	e.Step = b.step
	e.Wall = b.r.now()
	b.step++
	b.events = append(b.events, e)
}

// Commit flushes the buffered events to the recorder in one locked
// append. Nil-safe; committing a detached batch is a no-op (a detached
// batch keeps its events for Events). A recorder-bound batch is dead
// after Commit — its buffer may be recycled for a later evaluation — so
// no Add or second Commit may follow.
func (b *Batch) Commit() {
	if b == nil || b.r == nil {
		return
	}
	r := b.r
	if len(b.events) > 0 {
		r.mu.Lock()
		for i := range b.events {
			r.push(b.events[i])
		}
		r.mu.Unlock()
	}
	if r.noPool {
		b.events = nil
		return
	}
	b.r = nil
	b.events = b.events[:0]
	r.pool.Put(b)
}

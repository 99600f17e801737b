package fleet

import (
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"time"

	"funcytuner/internal/xrand"
)

// The coordinator's write-ahead journal. Every protocol transition that
// matters after a crash — enqueue, claim, heartbeat, report, requeue,
// quarantine, abandon — is appended here (one checksummed JSON record
// per line, fsync-hardened) *before* it becomes visible to callers. The
// records are the coordinator state's only input: a live transition
// appends its records (Coordinator.journalAppend) and applies them
// through state.apply, and the file, an fsx.Log, replays through the
// same apply, so a coordinator rebuilt from the journal holds exactly
// the state a SIGKILLed one held. Floats ride the same lossless
// hex-float wire encoding as the protocol itself (Outcome), so a
// recovered report is byte-identical to the one the worker measured.
//
// Each line is one fsx sealed record, and replay stops at the first
// record that fails any check — a torn or bit-flipped tail degrades to
// "the crash happened a little earlier", never to an error or a
// half-applied transition. Record sequence numbers are strictly
// increasing; a duplicate or reordered record (a fuzzer's favourite)
// also stops replay, which is what keeps recovery from double-granting
// a live epoch.

// Journal op codes. "enqueue" and "task" both introduce a task ("task"
// is the compacted form carrying accumulated epoch/backoff state);
// "outcome" is the compacted form of a completed "report".
const (
	opEnqueue = "enqueue"
	opTask    = "task"
	opClaim   = "claim"
	opHB      = "hb"
	opReport  = "report"
	opRequeue = "requeue"
	opWorker  = "worker"
	opAbandon = "abandon"
	opOutcome = "outcome"
)

// journalBody is the union of all record payloads; each op uses the
// fields it needs and omits the rest. Times are absolute unix
// nanoseconds so deadlines survive the restart they exist for.
type journalBody struct {
	Seq    int64   `json:"seq"`
	Op     string  `json:"op"`
	Task   string  `json:"task,omitempty"`
	Job    string  `json:"job,omitempty"`
	Spec   *Spec   `json:"spec,omitempty"`
	Phase  string  `json:"phase,omitempty"`
	Sample int     `json:"sample,omitempty"`
	CVs    [][]int `json:"cvs,omitempty"`
	// Epoch on a claim is the granted lease generation; on a requeue it
	// is non-zero only for the recovery-time bump that fences pre-crash
	// leases whose deadline had already passed.
	Epoch  int `json:"epoch,omitempty"`
	Losses int `json:"losses,omitempty"`
	// NotBefore (requeue/task) delays re-claiming; Deadline (claim/hb)
	// is the lease expiry. Both unix nanos.
	NotBefore int64    `json:"not_before,omitempty"`
	Worker    string   `json:"worker,omitempty"`
	Deadline  int64    `json:"deadline,omitempty"`
	Outcome   *Outcome `json:"outcome,omitempty"`
	Error     string   `json:"error,omitempty"`
	// Key is the adoption key (hex) of a compacted "outcome" record.
	Key         string `json:"key,omitempty"`
	Quarantined bool   `json:"quarantined,omitempty"`
}

// adoptionKey is a task's job-agnostic identity: a hash of every input
// that determines its outcome (spec, phase, sample, CV matrix) and
// nothing that doesn't (job ID, task ID, epochs). A re-attached job
// gets a fresh job ID, so recovered in-flight tasks and journaled
// outcomes are matched to its Evaluate calls by this key.
func adoptionKey(spec Spec, phase string, sample int, cvs [][]int) uint64 {
	var h xrand.Hasher
	h.Add(0x6674616b) // "ftak": fleet task adoption key domain
	h.Add(xrand.HashString(spec.Benchmark))
	h.Add(xrand.HashString(spec.Machine))
	h.Add(uint64(spec.Samples))
	h.Add(uint64(spec.TopX))
	h.Add(xrand.HashString(spec.Seed))
	h.Add(math.Float64bits(spec.FaultRate))
	h.Add(xrand.HashString(phase))
	h.Add(uint64(sample))
	h.Add(uint64(len(cvs)))
	for _, row := range cvs {
		h.Add(uint64(len(row)))
		for _, v := range row {
			h.Add(uint64(v))
		}
	}
	return h.Sum()
}

// replayOutcome is one accepted report, buffered by adoption key.
type replayOutcome struct {
	out     *Outcome
	evalErr string
}

// RecoveredJob names one tuning job found in a replayed journal, in
// first-seen order. The server re-attaches these after a daemon
// restart: re-running the spec from scratch costs nothing, because
// every pre-crash evaluation is served back from the journal.
type RecoveredJob struct {
	Job  string
	Spec Spec
}

// state is what the journal's records decide about the coordinator, and
// they are its only input: the queue, the tasks and their leases, the
// workers' loss records, the outcome buffer and the orphan index. A
// live transition applies the records it journaled, and replay applies
// the file's, through the one apply.
type state struct {
	// journaled: records carry sequence numbers, and tasks the adoption
	// keys the buffer and the orphan index go by.
	journaled bool
	seq       int64             // the last applied record's
	queue     []*task           // FIFO; entries may be backoff-delayed
	tasks     map[string]*task  // task ID → any non-finished task
	leases    map[string]*lease // task ID → live lease
	workers   map[string]*workerState
	// buffer holds accepted outcomes by adoption key, so re-runs never
	// re-execute finished work; orphans indexes recovered tasks by
	// adoption key until a re-run's Evaluate adopts them.
	buffer  map[uint64]replayOutcome
	orphans map[uint64][]*task
	// jobs lists the jobs the replayed journal mentioned, in first-seen
	// order.
	jobs []RecoveredJob
}

func newState(journaled bool) state {
	return state{
		journaled: journaled,
		tasks:     make(map[string]*task),
		leases:    make(map[string]*lease),
		workers:   make(map[string]*workerState),
		buffer:    make(map[uint64]replayOutcome),
		orphans:   make(map[uint64][]*task),
	}
}

// replay decodes and applies one record body, noting the job of a task
// it introduces; false stops replay.
func (s *state) replay(body []byte) bool {
	var b journalBody
	if err := json.Unmarshal(body, &b); err != nil || !s.apply(&b) {
		return false
	}
	if b.Op == opEnqueue || b.Op == opTask {
		s.noteJob(b.Job, *b.Spec)
	}
	return true
}

// apply applies one record. It refuses, leaving the state as it was, a
// record inconsistent with the state; replay stops there.
func (s *state) apply(b *journalBody) bool {
	// Sequence numbers are strictly increasing in a well-formed journal;
	// a duplicate or reordered record is treated as corruption.
	if s.journaled && b.Seq <= s.seq {
		return false
	}
	t, l := s.tasks[b.Task], s.leases[b.Task]
	switch b.Op {
	case opEnqueue, opTask:
		if t != nil || b.Task == "" || b.Spec == nil || validateSpec(*b.Spec) != nil {
			return false
		}
		t = &task{
			id: b.Task, job: b.Job, spec: *b.Spec,
			phase: b.Phase, sample: b.Sample, cvs: b.CVs,
			epoch: b.Epoch, losses: b.Losses, notBefore: time.Unix(0, b.NotBefore),
			done: make(chan taskResult, 1),
		}
		if s.journaled {
			t.key = adoptionKey(t.spec, t.phase, t.sample, t.cvs)
		}
		s.tasks[t.id] = t
		s.queue = append(s.queue, t)
	case opClaim:
		if t == nil || l != nil || b.Epoch <= t.epoch || b.Worker == "" {
			return false
		}
		s.unqueue(t)
		t.epoch = b.Epoch
		s.leases[t.id] = &lease{t: t, worker: b.Worker, deadline: time.Unix(0, b.Deadline)}
	case opHB:
		if l == nil || l.worker != b.Worker || l.t.epoch != b.Epoch {
			return false
		}
		l.deadline = time.Unix(0, b.Deadline)
	case opReport:
		if l == nil || l.worker != b.Worker || l.t.epoch != b.Epoch {
			return false
		}
		if s.journaled {
			s.buffer[l.t.key] = replayOutcome{out: b.Outcome, evalErr: b.Error}
		}
		s.drop(l.t)
		if w := s.workers[b.Worker]; w != nil {
			w.losses = 0
		}
	case opRequeue:
		if l == nil || b.Epoch > 0 && b.Epoch <= l.t.epoch {
			return false // a recovery-time bump must actually fence
		}
		t = l.t
		delete(s.leases, t.id)
		t.losses, t.notBefore = b.Losses, time.Unix(0, b.NotBefore)
		if b.Epoch > 0 { // recovery-time epoch bump (fences the dead lease)
			t.epoch = b.Epoch
		}
		s.queue = append(s.queue, t)
		if b.Worker != "" { // live expiry counts against the loser
			w := s.workers[b.Worker]
			if w == nil {
				w = &workerState{}
				s.workers[b.Worker] = w
			}
			if !w.quarantined {
				w.losses++
			}
		}
	case opWorker:
		if b.Worker == "" {
			return false
		}
		s.workers[b.Worker] = &workerState{losses: b.Losses, quarantined: b.Quarantined}
	case opAbandon:
		if t == nil {
			return false
		}
		s.drop(t)
	case opOutcome:
		key, err := strconv.ParseUint(b.Key, 16, 64)
		if err != nil {
			return false
		}
		s.buffer[key] = replayOutcome{out: b.Outcome, evalErr: b.Error}
	default:
		return false
	}
	// Committed only after the record applied: a refused record must
	// leave the state — including seq — exactly at the valid prefix.
	s.seq = b.Seq
	return true
}

// unqueue removes t from the queue, clearing the slot it leaves so the
// backing array does not pin it. Claims take tasks mostly from the
// front.
func (s *state) unqueue(t *task) {
	switch i := slices.Index(s.queue, t); {
	case i == 0:
		s.queue[0] = nil
		s.queue = s.queue[1:]
	case i > 0:
		s.queue = slices.Delete(s.queue, i, i+1)
	}
}

// drop removes a finished task from the tasks, its lease or the queue,
// and the orphan index.
func (s *state) drop(t *task) {
	delete(s.tasks, t.id)
	if s.leases[t.id] != nil {
		delete(s.leases, t.id)
	} else {
		s.unqueue(t)
	}
	if !t.orphan {
		return
	}
	ts := slices.DeleteFunc(s.orphans[t.key], func(o *task) bool { return o == t })
	if len(ts) == 0 {
		delete(s.orphans, t.key)
	} else {
		s.orphans[t.key] = ts
	}
}

// recoverAt readies a replayed state for the coordinator restarted at
// now. Every task becomes an orphan, indexed by adoption key, queued
// ones first in FIFO order, until a re-run's Evaluate adopts it. A
// lease whose deadline is after now stays live: its worker can keep
// heartbeating and report into the same epoch. Every other lease
// expired while the coordinator was down, and recoverAt returns, in
// task ID order, the requeue records that burn their epochs, so the
// dead lease's late report stays fenced, and requeue them without
// backoff, since the loss was the coordinator's, not the task's.
func (s *state) recoverAt(now time.Time) []journalBody {
	for _, t := range s.queue {
		s.adoptable(t)
	}
	var bumps []journalBody
	for _, id := range sortedKeys(s.leases) {
		l := s.leases[id]
		s.adoptable(l.t)
		if l.deadline.After(now) {
			l.t.leasedAt = now
			continue
		}
		bumps = append(bumps, journalBody{Op: opRequeue, Task: id, Epoch: l.t.epoch + 1, Losses: l.t.losses})
	}
	return bumps
}

// sortedKeys lists m's keys in order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// adoptable marks t an orphan and indexes it by its adoption key.
func (s *state) adoptable(t *task) {
	t.orphan = true
	s.orphans[t.key] = append(s.orphans[t.key], t)
}

// noteJob records a job's first appearance (re-attach discovery).
func (s *state) noteJob(job string, spec Spec) {
	if job == "" {
		return
	}
	for _, j := range s.jobs {
		if j.Job == job {
			return
		}
	}
	s.jobs = append(s.jobs, RecoveredJob{Job: job, Spec: spec})
}

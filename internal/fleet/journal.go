package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"funcytuner/internal/fsx"
	"funcytuner/internal/xrand"
)

// The coordinator's write-ahead journal. Every protocol transition that
// matters after a crash — enqueue, claim, heartbeat, report, requeue,
// quarantine, abandon — is appended here (one checksummed JSON record
// per line, fsync-hardened) *before* it becomes visible to callers, so
// a coordinator rebuilt from the journal re-adopts exactly the state a
// SIGKILLed one held. Floats ride the same lossless hex-float wire
// encoding as the protocol itself (Outcome), so a recovered report is
// byte-identical to the one the worker measured.
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

// encodeJournalRecord renders one body as its sealed on-disk line.
func encodeJournalRecord(b journalBody) ([]byte, error) {
	body, err := json.Marshal(b)
	if err != nil {
		return nil, fmt.Errorf("fleet: encoding journal body: %w", err)
	}
	return fsx.AppendRecord(nil, body), nil
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

// replayTask is one live (not yet reported or abandoned) task rebuilt
// from the journal.
type replayTask struct {
	id     string
	job    string
	spec   Spec
	phase  string
	sample int
	cvs    [][]int
	epoch  int
	losses int
	// notBefore is the requeue backoff gate, unix nanos (0 = claimable).
	notBefore int64
	// leased, while true, means the journal's last word on this task is
	// a live grant: worker holds epoch until deadline (unix nanos).
	leased   bool
	worker   string
	deadline int64
}

// replayOutcome is one accepted report rebuilt from the journal.
type replayOutcome struct {
	out     *Outcome
	evalErr string
}

// replayWorker is one worker's loss record rebuilt from the journal.
type replayWorker struct {
	losses      int
	quarantined bool
}

// RecoveredJob names one tuning job found in a replayed journal, in
// first-seen order. The server re-attaches these after a daemon
// restart: re-running the spec from scratch costs nothing, because
// every pre-crash evaluation is served back from the journal.
type RecoveredJob struct {
	Job  string
	Spec Spec
}

// replayState is everything a replayed journal says about the dead
// coordinator.
type replayState struct {
	seq     int64
	records int
	// order preserves task introduction order (the recovered queue's
	// FIFO order); tasks holds the live ones.
	order []string
	tasks map[string]*replayTask
	// completed maps adoption keys to accepted reports.
	completed map[uint64]replayOutcome
	workers   map[string]*replayWorker
	jobs      []RecoveredJob
}

func newReplayState() *replayState {
	return &replayState{
		tasks:     make(map[string]*replayTask),
		completed: make(map[uint64]replayOutcome),
		workers:   make(map[string]*replayWorker),
	}
}

// replayJournal rebuilds coordinator state from raw journal bytes. It
// never fails: replay applies records in order and stops at the first
// one that is torn, corrupt, or inconsistent with the state built so
// far, returning the state as of the last good record plus the byte
// length of the valid prefix. Corruption therefore degrades to "the
// crash happened here", exactly like a shorter journal.
func replayJournal(data []byte) (*replayState, int) {
	st := newReplayState()
	var good int
	st.records, good = fsx.ReadRecords(data, st.apply)
	return st, good
}

// apply decodes and applies one record body; false stops replay.
func (st *replayState) apply(body []byte) bool {
	var b journalBody
	if err := json.Unmarshal(body, &b); err != nil {
		return false
	}
	// Sequence numbers are strictly increasing in a well-formed journal;
	// a duplicate or reordered record is treated as corruption.
	if b.Seq <= st.seq {
		return false
	}

	t := st.tasks[b.Task]
	switch b.Op {
	case opEnqueue, opTask:
		if t != nil || b.Task == "" || b.Spec == nil || validateSpec(*b.Spec) != nil {
			return false
		}
		st.tasks[b.Task] = &replayTask{
			id: b.Task, job: b.Job, spec: *b.Spec,
			phase: b.Phase, sample: b.Sample, cvs: b.CVs,
			epoch: b.Epoch, losses: b.Losses, notBefore: b.NotBefore,
		}
		st.order = append(st.order, b.Task)
		st.noteJob(b.Job, *b.Spec)
	case opClaim:
		if t == nil || t.leased || b.Epoch <= t.epoch || b.Worker == "" {
			return false
		}
		t.leased, t.worker, t.epoch, t.deadline = true, b.Worker, b.Epoch, b.Deadline
	case opHB:
		if t == nil || !t.leased || t.worker != b.Worker || t.epoch != b.Epoch {
			return false
		}
		t.deadline = b.Deadline
	case opReport:
		if t == nil || !t.leased || t.worker != b.Worker || t.epoch != b.Epoch {
			return false
		}
		st.completed[adoptionKey(t.spec, t.phase, t.sample, t.cvs)] = replayOutcome{out: b.Outcome, evalErr: b.Error}
		st.dropTask(b.Task)
		if w := st.workers[b.Worker]; w != nil {
			w.losses = 0
		}
	case opRequeue:
		if t == nil || !t.leased {
			return false
		}
		if b.Epoch > 0 && b.Epoch <= t.epoch {
			return false // a recovery-time bump must actually fence
		}
		t.leased, t.worker = false, ""
		t.losses, t.notBefore = b.Losses, b.NotBefore
		if b.Epoch > 0 { // recovery-time epoch bump (fences the dead lease)
			t.epoch = b.Epoch
		}
		if b.Worker != "" { // live expiry counts against the loser
			w := st.workers[b.Worker]
			if w == nil {
				w = &replayWorker{}
				st.workers[b.Worker] = w
			}
			if !w.quarantined {
				w.losses++
			}
		}
	case opWorker:
		if b.Worker == "" {
			return false
		}
		st.workers[b.Worker] = &replayWorker{losses: b.Losses, quarantined: b.Quarantined}
	case opAbandon:
		if t == nil {
			return false
		}
		st.dropTask(b.Task)
	case opOutcome:
		key, err := strconv.ParseUint(b.Key, 16, 64)
		if err != nil {
			return false
		}
		st.completed[key] = replayOutcome{out: b.Outcome, evalErr: b.Error}
	default:
		return false
	}
	// Committed only after the record applied: a rejected record must
	// leave the state — including seq — exactly at the valid prefix.
	st.seq = b.Seq
	return true
}

// dropTask removes a finished task from the live set and the order.
func (st *replayState) dropTask(id string) {
	delete(st.tasks, id)
	for i, o := range st.order {
		if o == id {
			st.order = append(st.order[:i], st.order[i+1:]...)
			break
		}
	}
}

// noteJob records a job's first appearance (re-attach discovery).
func (st *replayState) noteJob(job string, spec Spec) {
	if job == "" {
		return
	}
	for _, j := range st.jobs {
		if j.Job == job {
			return
		}
	}
	st.jobs = append(st.jobs, RecoveredJob{Job: job, Spec: spec})
}

// journal is the append handle over one journal file.
type journal struct {
	path    string
	f       *os.File
	seq     int64
	records int
}

// openJournal replays path (a missing file is an empty journal) and
// opens it for appending. A torn or corrupt tail is first truncated
// away — atomically, via the fsync-hardened rewrite — so appends extend
// the last good record rather than garbage.
func openJournal(path string) (*journal, *replayState, error) {
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("fleet: reading journal %s: %w", path, err)
	}
	st, good := replayJournal(data)
	if good < len(data) {
		if err := fsx.WriteFileAtomic(path, data[:good], 0o644); err != nil {
			return nil, nil, fmt.Errorf("fleet: truncating torn journal tail: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: opening journal %s: %w", path, err)
	}
	return &journal{path: path, f: f, seq: st.seq, records: st.records}, st, nil
}

// append writes the bodies as consecutive records and syncs once — a
// batch of grants costs one fsync, like a single one.
func (j *journal) append(bodies ...journalBody) error {
	var buf bytes.Buffer
	for i := range bodies {
		j.seq++
		bodies[i].Seq = j.seq
		line, err := encodeJournalRecord(bodies[i])
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("fleet: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("fleet: journal sync: %w", err)
	}
	j.records += len(bodies)
	return nil
}

// appendTorn simulates a crash mid-write for the fault-injection tests:
// all bodies land except the last, which is cut off mid-record with no
// newline. Recovery must ignore exactly the torn record.
func (j *journal) appendTorn(bodies ...journalBody) {
	var buf bytes.Buffer
	for i := range bodies {
		j.seq++
		bodies[i].Seq = j.seq
		line, err := encodeJournalRecord(bodies[i])
		if err != nil {
			return
		}
		if i == len(bodies)-1 {
			buf.Write(line[:len(line)/2])
		} else {
			buf.Write(line)
		}
	}
	j.f.Write(buf.Bytes())
	j.f.Sync()
}

// close releases the append handle (no compaction — that is Close's
// clean-shutdown job; a killed coordinator leaves the journal as-is).
func (j *journal) close() {
	if j.f != nil {
		j.f.Sync()
		j.f.Close()
		j.f = nil
	}
}

// rewrite atomically replaces the journal with the given compacted
// records (fresh sequence numbers), or truncates it to empty when there
// is nothing left worth recovering.
func (j *journal) rewrite(bodies []journalBody) error {
	var buf bytes.Buffer
	for i := range bodies {
		bodies[i].Seq = int64(i + 1)
		line, err := encodeJournalRecord(bodies[i])
		if err != nil {
			return err
		}
		buf.Write(line)
	}
	return fsx.WriteFileAtomic(j.path, buf.Bytes(), 0o644)
}

package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"sync"

	"funcytuner/internal/fsx"
)

// Checkpoint/resume for long tuning runs. The paper's real campaigns run
// 1.5 days to a week (§4.3); a killed process must not lose the whole
// Collection. The checkpoint persists every completed sample of the
// collection phase and of the search phase, with the cost and the
// quarantine decisions of exactly those samples. Because every
// evaluation is a pure function of (seed, sample index), a resumed
// session recomputes only the missing samples and produces a result
// bit-identical to an uninterrupted run.
//
// The file is a log of fsx sealed records: a header record holding the
// run identity, then one record per completed evaluation in the
// order the evaluations completed. Replay stops at the first torn,
// damaged or inconsistent record, so damage costs recomputation, never
// a wrong result. Measured times are strconv hexadecimal float strings:
// exact round-trip, including the ±Inf values that crashed variants
// legitimately produce (plain JSON numbers cannot encode Inf).

// CheckpointVersion is the current checkpoint format version.
const CheckpointVersion = 3

// DefaultCheckpointEvery is the default flush cadence (completed
// evaluations between checkpoint writes).
const DefaultCheckpointEvery = 25

// Record phases: a completed collection or search-phase sample, and the
// cost and quarantine a resumed log inherited from its samples.
// phaseCollect is also the collection phase's evaluation name.
const (
	phaseCollect = "collect"
	phaseSearch  = "search"
	phaseResumed = "resumed"
)

// Checkpoint is a tuning run's persisted progress, replayed from its
// log. The version, the run identity and the module count of the
// outlined partition are the header record; a resume is accepted only
// into a session with the same identity and module count. The progress
// fields gather the evaluation records that follow the header.
type Checkpoint struct {
	Version int `json:"version"`
	RunIdentity
	Modules int `json:"modules"`

	// CollectDone lists the completed collection samples in the order
	// they completed; Totals[i] and Times[i] (one time per module) are
	// sample CollectDone[i]'s measurements.
	CollectDone []int       `json:"-"`
	Totals      []float64   `json:"-"`
	Times       [][]float64 `json:"-"`

	// CFRDone / CFRTimes mirror the search phase.
	CFRDone  []int     `json:"-"`
	CFRTimes []float64 `json:"-"`

	// Quarantine holds the poison CV fingerprints, sorted.
	Quarantine []uint64 `json:"-"`

	// Cost is the cumulative cost of exactly the persisted samples.
	Cost CostSnapshot `json:"-"`
}

func appendTime(b []byte, v float64) []byte {
	return append(strconv.AppendFloat(append(b, '"'), v, 'x', -1, 64), '"')
}

func parseTime(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("core: bad checkpoint time %q: %w", s, err)
	}
	if math.IsNaN(v) {
		return 0, fmt.Errorf("core: NaN checkpoint time")
	}
	return v, nil
}

// appendMark appends one progress record's body: the phase, the sample
// index and its times (none for a "resumed" record), then the non-zero
// cost fields and the quarantined keys, if any. It allocates nothing
// once b has room.
func appendMark(b []byte, phase string, k int, t float64, per []float64, cost CostSnapshot, keys []uint64) []byte {
	b = append(append(append(b, `{"phase":"`...), phase...), '"')
	if phase != phaseResumed {
		b = strconv.AppendInt(append(b, `,"k":`...), int64(k), 10)
		b = appendTime(append(b, `,"time":`...), t)
	}
	sep := `,"modules":[`
	for _, v := range per {
		b = appendTime(append(b, sep...), v)
		sep = ","
	}
	if len(per) > 0 {
		b = append(b, ']')
	}
	fields := [...]struct {
		name string
		v    int64
	}{
		{`"compiles":`, cost.Compiles}, {`"runs":`, cost.Runs}, {`"sim_micros":`, cost.SimMicros},
		{`"retries":`, cost.Retries}, {`"wasted_compiles":`, cost.WastedCompiles},
		{`"fault_micros":`, cost.FaultMicros}, {`"compile_fails":`, cost.CompileFails},
		{`"run_crashes":`, cost.RunCrashes}, {`"timeouts":`, cost.Timeouts}, {`"flakes":`, cost.Flakes},
	}
	sep = `,"cost":{`
	for _, f := range fields {
		if f.v != 0 {
			b = strconv.AppendInt(append(append(b, sep...), f.name...), f.v, 10)
			sep = ","
		}
	}
	if sep == "," {
		b = append(b, '}')
	}
	sep = `,"quarantine":["`
	for _, q := range keys {
		b = append(strconv.AppendUint(append(b, sep...), q, 16), '"')
		sep = `,"`
	}
	if len(keys) > 0 {
		b = append(b, ']')
	}
	return append(b, '}')
}

// apply adds one progress record to the replayed checkpoint, or reports
// false, changing nothing, if the record does not fit the header and
// the records before it. done holds the samples already replayed.
func (ck *Checkpoint) apply(body []byte, done map[capKey]bool) bool {
	var r struct {
		Phase      string       `json:"phase"`
		K          int          `json:"k"`
		Time       string       `json:"time"`
		Modules    []string     `json:"modules"`
		Cost       CostSnapshot `json:"cost"`
		Quarantine []string     `json:"quarantine"`
	}
	if json.Unmarshal(body, &r) != nil || r.Cost.validate() != nil {
		return false
	}
	// Deltas are non-negative, so a negative sum means it overflowed.
	cost := ck.Cost
	cost.add(r.Cost)
	if cost.validate() != nil {
		return false
	}
	keys := make([]uint64, len(r.Quarantine))
	for i, q := range r.Quarantine {
		v, err := strconv.ParseUint(q, 16, 64)
		if err != nil {
			return false
		}
		keys[i] = v
	}
	if r.Phase != phaseResumed {
		key := capKey{r.Phase, r.K}
		t, err := parseTime(r.Time)
		if err != nil || r.K < 0 || r.K >= ck.Samples || done[key] {
			return false
		}
		switch r.Phase {
		case phaseCollect:
			if len(r.Modules) != ck.Modules {
				return false
			}
			per := make([]float64, len(r.Modules))
			for mi, s := range r.Modules {
				if per[mi], err = parseTime(s); err != nil {
					return false
				}
			}
			ck.CollectDone = append(ck.CollectDone, r.K)
			ck.Totals = append(ck.Totals, t)
			ck.Times = append(ck.Times, per)
		case phaseSearch:
			if len(r.Modules) != 0 {
				return false
			}
			ck.CFRDone = append(ck.CFRDone, r.K)
			ck.CFRTimes = append(ck.CFRTimes, t)
		default:
			return false
		}
		done[key] = true
	}
	ck.Cost = cost
	ck.Quarantine = append(ck.Quarantine, keys...)
	return true
}

// decodeCheckpoint replays a checkpoint log: the header record, then
// every progress record up to the first torn, damaged or inconsistent
// one. A missing or damaged header is an error.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	var ck *Checkpoint
	var err error
	done := make(map[capKey]bool)
	fsx.ReadRecords(data, func(body []byte) bool {
		if ck != nil {
			return ck.apply(body, done)
		}
		ck, err = decodeHeader(body)
		return err == nil
	})
	if ck == nil && err == nil {
		// A version-1 checkpoint is one JSON document, not a log.
		var doc struct {
			Version int `json:"version"`
		}
		if json.Unmarshal(data, &doc) == nil && doc.Version != 0 {
			return nil, versionError(doc.Version)
		}
		return nil, errors.New("core: checkpoint has no valid header record")
	}
	if err != nil {
		return nil, err
	}
	slices.Sort(ck.Quarantine)
	ck.Quarantine = slices.Compact(ck.Quarantine)
	return ck, nil
}

func decodeHeader(body []byte) (*Checkpoint, error) {
	ck := new(Checkpoint)
	if err := json.Unmarshal(body, ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint header: %w", err)
	}
	if ck.Version != CheckpointVersion {
		return nil, versionError(ck.Version)
	}
	if ck.Samples < 1 || ck.TopX < 1 || ck.TopX > ck.Samples {
		return nil, fmt.Errorf("core: checkpoint has implausible budget (samples=%d, topx=%d)", ck.Samples, ck.TopX)
	}
	if ck.Modules < 1 {
		return nil, fmt.Errorf("core: checkpoint has %d modules", ck.Modules)
	}
	return ck, nil
}

func versionError(v int) error {
	return fmt.Errorf("core: unsupported checkpoint version %d (want %d)", v, CheckpointVersion)
}

// DecodeCheckpoint reads and replays a checkpoint log.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("core: reading checkpoint: %w", err)
	}
	return decodeCheckpoint(data)
}

// LoadCheckpointFile reads and replays a checkpoint log from disk.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data)
}

// Checkpointer persists tuning progress to a log file. It is safe for
// concurrent use by the session's evaluation workers: each mark seals
// one record onto an in-memory tail under a lock, and every `every`
// completed evaluations a background writer appends the tail to the
// file and fsyncs it with the lock released, so a cadence write never
// stalls the marking worker or its gate slot, and writes that come due
// while one is in flight coalesce into the next. Flush, called at phase
// boundaries and on cancellation, kill and drain, waits for the writer
// and then writes the rest itself, so the file it leaves holds every
// marked evaluation. A crash therefore loses at most `every`
// evaluations plus those completed during one in-flight cadence write.
type Checkpointer struct {
	mu      sync.Mutex
	every   int
	pending int
	// ck is the log's header and the progress Resume loaded (none for a
	// fresh run). Marks do not update it; they only append records.
	ck *Checkpoint

	// tail holds the sealed records no write has landed yet: until the
	// first write, the header and any resumed progress too. A write
	// takes it and leaves spare, its previous buffer, in its place; mark
	// is the reused record-encoding buffer.
	tail, spare, mark []byte
	// durable is the length of the file's landed prefix; 0 until the
	// first write lands.
	durable int64
	// writer is closed when the running cadence writer exits; nil when
	// none is running.
	writer chan struct{}
	// commit writes data at offset off of the checkpoint file (tests
	// substitute it to hold a write in flight or fail it part-way).
	commit func(off int64, data []byte) error
}

// NewCheckpointer writes checkpoints to path every `every` completed
// evaluations (<= 0 means DefaultCheckpointEvery). The checkpoint state
// is initialized when the checkpointer is attached to a session.
func NewCheckpointer(path string, every int) *Checkpointer {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return &Checkpointer{every: every, commit: func(off int64, data []byte) error {
		return writeLog(path, off, data)
	}}
}

// writeLog writes data at offset off of the log at path. The first
// write (off 0) creates the file atomically. A later one first cuts
// away whatever a failed write left past off, so a torn append never
// strands the records after it, then appends and fsyncs.
func writeLog(path string, off int64, data []byte) error {
	if off == 0 {
		return fsx.WriteFileAtomic(path, data, 0o644)
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return err
	}
	err = f.Truncate(off)
	if err == nil {
		_, err = f.WriteAt(data, off)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Resume primes the checkpointer with progress LoadCheckpointFile or
// DecodeCheckpoint returned. It must be called before
// AttachCheckpointer. It queues a fresh log of that progress — the
// header, one record per done sample, then one record with the cost
// and quarantine — encoded from the parsed values, so nothing read from
// disk is copied raw into a later file.
func (c *Checkpointer) Resume(ck *Checkpoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ck = ck
	// Cannot fail: every float in a decoded header is finite.
	_ = c.queueHeaderLocked()
	for i, k := range ck.CollectDone {
		c.queueLocked(appendMark(c.mark[:0], phaseCollect, k, ck.Totals[i], ck.Times[i], CostSnapshot{}, nil))
	}
	for i, k := range ck.CFRDone {
		c.queueLocked(appendMark(c.mark[:0], phaseSearch, k, ck.CFRTimes[i], nil, CostSnapshot{}, nil))
	}
	c.queueLocked(appendMark(c.mark[:0], phaseResumed, 0, 0, nil, ck.Cost, ck.Quarantine))
}

// queueHeaderLocked seals c.ck's header fields as the header record. It
// fails only on a NaN or infinite identity float, which JSON cannot hold.
func (c *Checkpointer) queueHeaderLocked() error {
	hdr, err := json.Marshal(c.ck)
	if err != nil {
		return fmt.Errorf("core: encoding checkpoint header: %w", err)
	}
	c.queueLocked(hdr)
	return nil
}

// queueLocked seals one record body onto the tail and keeps the body's
// buffer for the next mark.
func (c *Checkpointer) queueLocked(body []byte) {
	c.mark = body
	c.tail = fsx.AppendRecord(c.tail, body)
}

// AttachCheckpointer binds a checkpointer to the session. A fresh
// checkpointer gets a header holding the session's run identity. One
// carrying resumed state must hold the same identity and module count,
// or the attach fails naming the first field that differs, rather than
// silently producing a hybrid run; otherwise the persisted quarantine
// set and cost are restored.
func (s *Session) AttachCheckpointer(c *Checkpointer) error {
	if c == nil {
		s.ckpt = nil
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ck == nil {
		c.ck = &Checkpoint{Version: CheckpointVersion, RunIdentity: s.id, Modules: len(s.Part.Modules)}
		if err := c.queueHeaderLocked(); err != nil {
			c.ck = nil
			return err
		}
	} else {
		ck := c.ck
		if ck.RunIdentity != s.id {
			return mismatchError(ck.RunIdentity, s.id)
		}
		if ck.Modules != len(s.Part.Modules) {
			return fmt.Errorf("core: checkpoint has %d modules, session has %d", ck.Modules, len(s.Part.Modules))
		}
		s.restoreQuarantine(ck.Quarantine)
		s.Cost.restore(ck.Cost)
	}
	s.ckpt = c
	return nil
}

// restoreCollect fills completed collection samples into col and done.
func (c *Checkpointer) restoreCollect(col *Collection, done []bool) {
	ck := c.ck
	for i, k := range ck.CollectDone {
		done[k] = true
		col.Totals[k] = ck.Totals[i]
		for mi := range col.Times {
			col.Times[mi][k] = ck.Times[i][mi]
		}
	}
}

// restoreCFR fills completed search-phase samples into times and done.
func (c *Checkpointer) restoreCFR(times []float64, done []bool) {
	for i, k := range c.ck.CFRDone {
		done[k] = true
		times[k] = c.ck.CFRTimes[i]
	}
}

// record appends one completed evaluation as a record of the given
// phase (phaseCollect or phaseSearch): its times, cost delta and the keys
// it quarantined. It writes on cadence.
func (c *Checkpointer) record(phase string, k int, out EvalOutcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queueLocked(appendMark(c.mark[:0], phase, k, out.Total, out.PerModule, out.Cost, out.Quarantined))
	c.pending++
	if c.pending >= c.every && c.writer == nil {
		c.writer = make(chan struct{})
		go c.writeBehind()
	}
}

// writeBehind is the cadence writer. It takes the tail under the lock,
// writes it with the lock released, and loops while another cadence
// came due during the write. A cadence write is best effort: a failure
// that persists surfaces from the next Flush.
func (c *Checkpointer) writeBehind() {
	c.mu.Lock()
	for c.pending >= c.every {
		data, off := c.takeLocked()
		c.mu.Unlock()
		err := c.commit(off, data)
		c.mu.Lock()
		c.landedLocked(data, off, err)
	}
	close(c.writer)
	c.writer = nil
	c.mu.Unlock()
}

// Flush writes every record not yet on disk. It first waits for a
// cadence write in flight to finish, then writes the rest itself and
// returns the write's error.
func (c *Checkpointer) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.writer != nil {
		w := c.writer
		c.mu.Unlock()
		<-w
		c.mu.Lock()
	}
	if len(c.tail) == 0 {
		return nil
	}
	data, off := c.takeLocked()
	return c.landedLocked(data, off, c.commit(off, data))
}

// takeLocked resets the cadence and hands the tail to a write at the
// durable length.
func (c *Checkpointer) takeLocked() ([]byte, int64) {
	c.pending = 0
	data := c.tail
	c.tail = c.spare[:0]
	return data, c.durable
}

// landedLocked settles a write of data at off. On success the file's
// durable prefix grows by data; on failure data goes back in front of
// the records marked meanwhile, for the next write to retry at the same
// offset.
func (c *Checkpointer) landedLocked(data []byte, off int64, err error) error {
	if err != nil {
		marked := c.tail
		c.tail = append(data, marked...)
		c.spare = marked
		return err
	}
	c.durable = off + int64(len(data))
	c.spare = data
	return nil
}

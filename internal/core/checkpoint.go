package core

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"funcytuner/internal/fsx"
)

// Checkpoint/resume for long tuning runs. The paper's real campaigns run
// 1.5 days to a week (§4.3); a killed process must not lose the whole
// Collection. The checkpoint persists every completed sample of the
// collection phase and of CFR's search phase, the quarantine set, and the
// cumulative cost of the persisted work. Because every evaluation is a
// pure function of (seed, sample index), a resumed session recomputes
// only the missing samples and produces a result bit-identical to an
// uninterrupted run.
//
// Measured times are serialized as strconv hexadecimal float strings:
// exact round-trip, including the ±Inf values that crashed variants
// legitimately produce (plain JSON numbers cannot encode Inf).

// CheckpointVersion is the current checkpoint format version.
const CheckpointVersion = 1

// DefaultCheckpointEvery is the default flush cadence (completed
// evaluations between checkpoint writes).
const DefaultCheckpointEvery = 25

// Checkpoint is the JSON-portable partial state of a tuning run.
type Checkpoint struct {
	Version int    `json:"version"`
	Program string `json:"program"`
	Machine string `json:"machine"`
	Flavor  string `json:"flavor"`
	Seed    string `json:"seed"`
	Samples int    `json:"samples"`
	TopX    int    `json:"topx"`
	Modules int    `json:"modules"`

	// Technique tags the search strategy whose progress CFRDone/CFRTimes
	// record ("" = CFR, the default — kept empty so pre-technique
	// checkpoints stay byte-identical). Resuming under a different
	// technique is rejected: the same sample indices would map to
	// different assemblies.
	Technique string `json:"technique,omitempty"`

	// CollectDone lists the completed collection sample indices. Times
	// is [modules][samples] and Totals [samples]; entries for samples
	// not in CollectDone are empty strings.
	CollectDone []int      `json:"collect_done"`
	Times       [][]string `json:"times"`
	Totals      []string   `json:"totals"`

	// CFRDone / CFRTimes mirror the search phase.
	CFRDone  []int    `json:"cfr_done"`
	CFRTimes []string `json:"cfr_times"`

	// Quarantine holds poison CV fingerprints as hexadecimal strings
	// (JSON numbers cannot carry full uint64 precision).
	Quarantine []string `json:"quarantine"`

	// Cost is the cumulative cost of exactly the persisted samples.
	Cost CostSnapshot `json:"cost"`
}

func formatTime(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

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

// Validate checks the checkpoint's internal consistency (shape, index
// ranges, parsable times, non-negative cost). Compatibility with a
// specific session is checked separately at attach time.
func (ck *Checkpoint) Validate() error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("core: unsupported checkpoint version %d (want %d)", ck.Version, CheckpointVersion)
	}
	if ck.Samples < 1 || ck.TopX < 1 || ck.TopX > ck.Samples {
		return fmt.Errorf("core: checkpoint has implausible budget (samples=%d, topx=%d)", ck.Samples, ck.TopX)
	}
	if ck.Modules < 1 {
		return fmt.Errorf("core: checkpoint has %d modules", ck.Modules)
	}
	if len(ck.Times) != ck.Modules {
		return fmt.Errorf("core: checkpoint has %d time rows for %d modules", len(ck.Times), ck.Modules)
	}
	for mi, row := range ck.Times {
		if len(row) != ck.Samples {
			return fmt.Errorf("core: checkpoint module %d has %d entries for %d samples", mi, len(row), ck.Samples)
		}
	}
	if len(ck.Totals) != ck.Samples || len(ck.CFRTimes) != ck.Samples {
		return fmt.Errorf("core: checkpoint totals/cfr arrays not sized to %d samples", ck.Samples)
	}
	checkDone := func(name string, done []int, filled []string) error {
		seen := make(map[int]bool, len(done))
		for _, k := range done {
			if k < 0 || k >= ck.Samples {
				return fmt.Errorf("core: checkpoint %s index %d out of range", name, k)
			}
			if seen[k] {
				return fmt.Errorf("core: checkpoint %s index %d duplicated", name, k)
			}
			seen[k] = true
			if _, err := parseTime(filled[k]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := checkDone("collect", ck.CollectDone, ck.Totals); err != nil {
		return err
	}
	for _, k := range ck.CollectDone {
		for mi := range ck.Times {
			if _, err := parseTime(ck.Times[mi][k]); err != nil {
				return err
			}
		}
	}
	if err := checkDone("cfr", ck.CFRDone, ck.CFRTimes); err != nil {
		return err
	}
	for _, q := range ck.Quarantine {
		if _, err := strconv.ParseUint(q, 16, 64); err != nil {
			return fmt.Errorf("core: bad quarantine key %q", q)
		}
	}
	return ck.Cost.validate()
}

// DecodeCheckpoint parses and validates a checkpoint document.
func DecodeCheckpoint(r io.Reader) (*Checkpoint, error) {
	var ck Checkpoint
	dec := json.NewDecoder(r)
	if err := dec.Decode(&ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if err := ck.Validate(); err != nil {
		return nil, err
	}
	return &ck, nil
}

// LoadCheckpointFile reads and validates a checkpoint from disk.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return DecodeCheckpoint(f)
}

// Checkpointer persists tuning progress to a file. It is safe for
// concurrent use by the session's evaluation workers: marks are applied
// under a lock, and every `every` completed evaluations a background
// writer commits the newest state atomically (write-temp, fsync, rename,
// fsync the directory). The writer encodes under the lock but commits
// with it released, so a cadence write never stalls the marking worker
// or its gate slot, and writes that come due while one is in flight
// coalesce into the next. Flush, called at phase boundaries and on
// cancellation, kill and drain, waits for the writer and then writes
// synchronously, so the file it leaves reflects every marked evaluation.
// A crash therefore loses at most `every` evaluations plus those
// completed during one in-flight cadence write.
type Checkpointer struct {
	mu      sync.Mutex
	every   int
	pending int
	ck      *Checkpoint

	// buf is the one encode buffer, reused across writes. The cadence
	// writer fills and commits it while writer is non-nil; Flush only
	// touches it after the writer has exited, under mu.
	buf []byte
	// writer is closed when the running cadence writer exits; nil when
	// none is running.
	writer chan struct{}
	// commit durably replaces the checkpoint file with data (tests
	// substitute it to hold a cadence write in flight).
	commit func(data []byte) error
}

// NewCheckpointer writes checkpoints to path every `every` completed
// evaluations (<= 0 means DefaultCheckpointEvery). The checkpoint state
// is initialized when the checkpointer is attached to a session.
func NewCheckpointer(path string, every int) *Checkpointer {
	if every <= 0 {
		every = DefaultCheckpointEvery
	}
	return &Checkpointer{every: every, commit: func(data []byte) error {
		return atomicWriteFile(path, data, 0o644)
	}}
}

// Resume primes the checkpointer with previously persisted state. It must
// be called before AttachCheckpointer. The checkpointer keeps a canonical
// copy: done times and quarantine keys are re-formatted from their parsed
// values and every slot not marked done is emptied, so no string read
// from disk is ever copied raw into a later checkpoint file.
func (c *Checkpointer) Resume(ck *Checkpoint) error {
	if err := ck.Validate(); err != nil {
		return err
	}
	canon := ck.canonical()
	c.mu.Lock()
	c.ck = canon
	c.mu.Unlock()
	return nil
}

// canonical returns a copy of a validated checkpoint holding only what
// its done lists and quarantine keys vouch for, in the formatting this
// package writes.
func (ck *Checkpoint) canonical() *Checkpoint {
	out := *ck
	out.CollectDone = slices.Clone(ck.CollectDone)
	out.CFRDone = slices.Clone(ck.CFRDone)
	out.Times = make([][]string, len(ck.Times))
	for mi := range out.Times {
		out.Times[mi] = make([]string, ck.Samples)
	}
	out.Totals = make([]string, ck.Samples)
	out.CFRTimes = make([]string, ck.Samples)
	reformat := func(s string) string {
		v, _ := parseTime(s)
		return formatTime(v)
	}
	for _, k := range ck.CollectDone {
		out.Totals[k] = reformat(ck.Totals[k])
		for mi := range ck.Times {
			out.Times[mi][k] = reformat(ck.Times[mi][k])
		}
	}
	for _, k := range ck.CFRDone {
		out.CFRTimes[k] = reformat(ck.CFRTimes[k])
	}
	if ck.Quarantine != nil {
		out.Quarantine = make([]string, len(ck.Quarantine))
		for i, q := range ck.Quarantine {
			v, _ := strconv.ParseUint(q, 16, 64)
			out.Quarantine[i] = strconv.FormatUint(v, 16)
		}
	}
	return &out
}

// AttachCheckpointer binds a checkpointer to the session. If the
// checkpointer carries resumed state, it is validated against the session
// identity (program, machine, flag-space flavor, seed, budget, module
// count) and the persisted quarantine set and cost are restored; a
// mismatch is rejected rather than silently producing a hybrid run.
func (s *Session) AttachCheckpointer(c *Checkpointer) error {
	if c == nil {
		s.ckpt = nil
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ck == nil {
		c.ck = &Checkpoint{
			Version:   CheckpointVersion,
			Program:   s.Prog.Name,
			Machine:   s.Machine.Name,
			Flavor:    s.Toolchain.Space.Flavor.String(),
			Seed:      s.Config.Seed,
			Samples:   s.Config.Samples,
			TopX:      s.Config.TopX,
			Modules:   len(s.Part.Modules),
			Technique: TechniqueTag(s.Config.Technique),
			Totals:    make([]string, s.Config.Samples),
			CFRTimes:  make([]string, s.Config.Samples),
		}
		c.ck.Times = make([][]string, len(s.Part.Modules))
		for mi := range c.ck.Times {
			c.ck.Times[mi] = make([]string, s.Config.Samples)
		}
	} else {
		ck := c.ck
		mismatch := func(field, got, want string) error {
			return fmt.Errorf("core: checkpoint %s %q does not match session %q", field, got, want)
		}
		if ck.Program != s.Prog.Name {
			return mismatch("program", ck.Program, s.Prog.Name)
		}
		if ck.Machine != s.Machine.Name {
			return mismatch("machine", ck.Machine, s.Machine.Name)
		}
		if flavor := s.Toolchain.Space.Flavor.String(); ck.Flavor != flavor {
			return mismatch("flavor", ck.Flavor, flavor)
		}
		if ck.Seed != s.Config.Seed {
			return mismatch("seed", ck.Seed, s.Config.Seed)
		}
		if tag := TechniqueTag(s.Config.Technique); ck.Technique != tag {
			return mismatch("technique", ck.Technique, tag)
		}
		if ck.Samples != s.Config.Samples || ck.TopX != s.Config.TopX {
			return fmt.Errorf("core: checkpoint budget (samples=%d, topx=%d) does not match session (samples=%d, topx=%d)",
				ck.Samples, ck.TopX, s.Config.Samples, s.Config.TopX)
		}
		if ck.Modules != len(s.Part.Modules) {
			return fmt.Errorf("core: checkpoint has %d modules, session has %d", ck.Modules, len(s.Part.Modules))
		}
		keys := make([]uint64, 0, len(ck.Quarantine))
		for _, q := range ck.Quarantine {
			v, err := strconv.ParseUint(q, 16, 64)
			if err != nil {
				return fmt.Errorf("core: bad quarantine key %q", q)
			}
			keys = append(keys, v)
		}
		s.restoreQuarantine(keys)
		s.Cost.restore(ck.Cost)
	}
	s.ckpt = c
	return nil
}

// restoreCollect fills completed collection samples into col and done.
func (c *Checkpointer) restoreCollect(col *Collection, done []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range c.ck.CollectDone {
		done[k] = true
		col.Totals[k], _ = parseTime(c.ck.Totals[k])
		for mi := range col.Times {
			col.Times[mi][k], _ = parseTime(c.ck.Times[mi][k])
		}
	}
}

// restoreCFR fills completed search-phase samples into times and done.
func (c *Checkpointer) restoreCFR(times []float64, done []bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range c.ck.CFRDone {
		done[k] = true
		times[k], _ = parseTime(c.ck.CFRTimes[k])
	}
}

// markCollect records one completed collection sample with its cost and
// the session's current quarantine set, flushing on cadence.
func (c *Checkpointer) markCollect(s *Session, k int, per []float64, total float64, ec evalCost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ck.CollectDone = append(c.ck.CollectDone, k)
	c.ck.Totals[k] = formatTime(total)
	for mi := range per {
		c.ck.Times[mi][k] = formatTime(per[mi])
	}
	c.markedLocked(s, ec)
}

// markCFR records one completed search-phase sample.
func (c *Checkpointer) markCFR(s *Session, k int, t float64, ec evalCost) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ck.CFRDone = append(c.ck.CFRDone, k)
	c.ck.CFRTimes[k] = formatTime(t)
	c.markedLocked(s, ec)
}

func (c *Checkpointer) markedLocked(s *Session, ec evalCost) {
	c.ck.Cost = c.ck.Cost.addEval(ec)
	c.syncQuarantineLocked(s)
	c.pending++
	if c.pending >= c.every && c.writer == nil {
		c.writer = make(chan struct{})
		go c.writeBehind()
	}
}

// writeBehind is the cadence writer. It encodes the newest state under
// the lock, commits it with the lock released, and loops while another
// cadence came due during the commit. A cadence write is best effort: a
// failure that persists surfaces from the next Flush.
func (c *Checkpointer) writeBehind() {
	c.mu.Lock()
	for c.pending >= c.every {
		data := c.encodeLocked()
		c.mu.Unlock()
		_ = c.commit(data)
		c.mu.Lock()
	}
	close(c.writer)
	c.writer = nil
	c.mu.Unlock()
}

// syncQuarantineLocked snapshots the session's quarantine set. The set may
// momentarily include CVs from evaluations not yet marked complete; that
// is harmless, because quarantine membership is deterministic per CV and
// a resumed run re-derives the same entries when it re-evaluates them.
func (c *Checkpointer) syncQuarantineLocked(s *Session) {
	keys := s.Quarantined()
	qs := make([]string, len(keys))
	for i, k := range keys {
		qs[i] = strconv.FormatUint(k, 16)
	}
	c.ck.Quarantine = qs
}

// Flush writes the checkpoint to disk atomically. It first waits for a
// cadence write in flight to finish, then commits the current state
// itself and returns the commit's error.
func (c *Checkpointer) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.writer != nil {
		w := c.writer
		c.mu.Unlock()
		<-w
		c.mu.Lock()
	}
	if c.ck == nil {
		return nil
	}
	return c.commit(c.encodeLocked())
}

// encodeLocked resets the cadence and encodes the current state into the
// reused buffer.
func (c *Checkpointer) encodeLocked() []byte {
	c.pending = 0
	slices.Sort(c.ck.CollectDone)
	slices.Sort(c.ck.CFRDone)
	c.buf = appendCheckpoint(c.buf[:0], c.ck)
	return c.buf
}

// appendCheckpoint appends ck as compact JSON, byte for byte what
// json.Marshal produces, without reflection. Header strings are escaped;
// time and quarantine strings are appended verbatim, which is safe
// because every one of them comes from formatTime or FormatUint: marks
// format what they store, and Resume re-formats what it loads.
func appendCheckpoint(b []byte, ck *Checkpoint) []byte {
	b = appendInt(b, `{"version":`, int64(ck.Version))
	b = appendJSONString(append(b, `,"program":`...), ck.Program)
	b = appendJSONString(append(b, `,"machine":`...), ck.Machine)
	b = appendJSONString(append(b, `,"flavor":`...), ck.Flavor)
	b = appendJSONString(append(b, `,"seed":`...), ck.Seed)
	b = appendInt(b, `,"samples":`, int64(ck.Samples))
	b = appendInt(b, `,"topx":`, int64(ck.TopX))
	b = appendInt(b, `,"modules":`, int64(ck.Modules))
	if ck.Technique != "" {
		b = appendJSONString(append(b, `,"technique":`...), ck.Technique)
	}
	b = appendInts(append(b, `,"collect_done":`...), ck.CollectDone)
	b = append(b, `,"times":`...)
	if ck.Times == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for mi, row := range ck.Times {
			if mi > 0 {
				b = append(b, ',')
			}
			b = appendStrings(b, row)
		}
		b = append(b, ']')
	}
	b = appendStrings(append(b, `,"totals":`...), ck.Totals)
	b = appendInts(append(b, `,"cfr_done":`...), ck.CFRDone)
	b = appendStrings(append(b, `,"cfr_times":`...), ck.CFRTimes)
	b = appendStrings(append(b, `,"quarantine":`...), ck.Quarantine)
	c := ck.Cost
	b = appendInt(b, `,"cost":{"compiles":`, c.Compiles)
	b = appendInt(b, `,"runs":`, c.Runs)
	b = appendInt(b, `,"sim_micros":`, c.SimMicros)
	b = appendInt(b, `,"retries":`, c.Retries)
	b = appendInt(b, `,"wasted_compiles":`, c.WastedCompiles)
	b = appendInt(b, `,"fault_micros":`, c.FaultMicros)
	b = appendInt(b, `,"compile_fails":`, c.CompileFails)
	b = appendInt(b, `,"run_crashes":`, c.RunCrashes)
	b = appendInt(b, `,"timeouts":`, c.Timeouts)
	b = appendInt(b, `,"flakes":`, c.Flakes)
	return append(b, "}}"...)
}

// appendInt appends key, which carries its own punctuation, and v.
func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

func appendInts(b []byte, xs []int) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(x), 10)
	}
	return append(b, ']')
}

// appendStrings appends strings that need no escaping (see
// appendCheckpoint) as a JSON array.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = append(b, s...)
		b = append(b, '"')
	}
	return append(b, ']')
}

// appendJSONString appends s as a JSON string literal, escaped exactly as
// encoding/json escapes it: quotes, backslashes and control characters,
// the HTML-sensitive <, > and &, U+2028 and U+2029, and invalid UTF-8 as
// U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			switch {
			case c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&':
				b = append(b, c)
			case c == '"' || c == '\\':
				b = append(b, '\\', c)
			case c == '\b':
				b = append(b, '\\', 'b')
			case c == '\f':
				b = append(b, '\\', 'f')
			case c == '\n':
				b = append(b, '\\', 'n')
			case c == '\r':
				b = append(b, '\\', 'r')
			case c == '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			b = append(b, s[i:i+size]...)
		}
		i += size
	}
	return append(b, '"')
}

// atomicWriteFile commits data to path with full crash durability:
// write-temp, fsync, rename, fsync the parent directory. Shared with
// the results repository via internal/fsx.
func atomicWriteFile(path string, data []byte, perm os.FileMode) error {
	return fsx.WriteFileAtomic(path, data, perm)
}

package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"funcytuner/internal/core"
	"funcytuner/internal/fsx"
	"funcytuner/internal/metrics"
)

// replayJournal rebuilds coordinator state from raw journal bytes, the
// way NewCoordinator's fsx.OpenLog does, and returns it with the byte
// length of the valid prefix.
func replayJournal(data []byte) (*state, int) {
	st := newState()
	_, good := fsx.ReadRecords(data, st.replay)
	return &st, good
}

// snapshot renders what the journal decides about a state: its last
// sequence number, the queue in order, every task's job, epoch, losses
// and not-before, every lease's worker and deadline in unix
// nanoseconds, and the workers' loss records (a zero record reads as
// none, which is what it means). An orphan's adoption key is recovery's,
// not the journal's.
func snapshot(s *state) string {
	var b strings.Builder
	fmt.Fprintf(&b, "seq %d\nqueue", s.seq)
	for _, t := range s.queue {
		fmt.Fprintf(&b, " %s", t.id)
	}
	for _, id := range sortedKeys(s.tasks) {
		t := s.tasks[id]
		fmt.Fprintf(&b, "\ntask %s job=%s epoch=%d losses=%d not_before=%d", id, t.job, t.epoch, t.losses, t.notBefore.UnixNano())
		if l := s.leases[id]; l != nil {
			fmt.Fprintf(&b, " lease=%s@%d", l.worker, l.deadline.UnixNano())
		}
	}
	for _, w := range sortedKeys(s.workers) {
		if ws := s.workers[w]; *ws != (workerState{}) {
			fmt.Fprintf(&b, "\nworker %s losses=%d quarantined=%v", w, ws.losses, ws.quarantined)
		}
	}
	return b.String()
}

// checkState holds a state's structure: every task is in exactly one of
// the queue and the leases, none is queued twice, every lease is its
// task's, and every orphan-index entry is a live orphan under its own
// adoption key.
func checkState(s *state) error {
	queued := make(map[*task]bool)
	for _, t := range s.queue {
		switch {
		case queued[t]:
			return fmt.Errorf("task %s queued twice", t.id)
		case s.tasks[t.id] != t:
			return fmt.Errorf("queued task %s is not live", t.id)
		case s.leases[t.id] != nil:
			return fmt.Errorf("task %s both queued and leased", t.id)
		}
		queued[t] = true
	}
	for id, l := range s.leases {
		if s.tasks[id] != l.t || l.t.id != id {
			return fmt.Errorf("lease %s is not its live task's", id)
		}
	}
	if n := len(s.queue) + len(s.leases); n != len(s.tasks) {
		return fmt.Errorf("%d tasks, %d of them queued or leased", len(s.tasks), n)
	}
	for k, ts := range s.orphans {
		for _, t := range ts {
			if s.tasks[t.id] != t || !t.orphan || t.key != k {
				return fmt.Errorf("orphan index entry %016x holds %s, not a live orphan under that key", k, t.id)
			}
		}
	}
	return nil
}

// encodeJournalRecord renders one body as its sealed on-disk line.
func encodeJournalRecord(b journalBody) ([]byte, error) {
	body, err := json.Marshal(b)
	if err != nil {
		return nil, err
	}
	return fsx.AppendRecord(nil, body), nil
}

// journalLine renders one record with an explicit sequence number, the
// way the coordinator's journal writes it.
func journalLine(t *testing.T, b journalBody) []byte {
	t.Helper()
	line, err := encodeJournalRecord(b)
	if err != nil {
		t.Fatalf("encode journal record: %v", err)
	}
	return line
}

// sampleJournal builds a well-formed journal: two tasks enqueued, task A
// claimed/heartbeaten/reported, task B claimed and then lost (requeued).
func sampleJournal(t *testing.T) []byte {
	t.Helper()
	spec := testSpec()
	far := time.Now().Add(time.Hour).UnixNano()
	var buf bytes.Buffer
	for _, b := range []journalBody{
		{Seq: 1, Op: opEnqueue, Task: "job-1/cfr/0#1", Job: "job-1", Spec: &spec, Phase: "cfr", Sample: 0, CVs: [][]int{{1, 2}}},
		{Seq: 2, Op: opEnqueue, Task: "job-1/cfr/1#2", Job: "job-1", Spec: &spec, Phase: "cfr", Sample: 1, CVs: [][]int{{3, 4}}},
		{Seq: 3, Op: opClaim, Task: "job-1/cfr/0#1", Worker: "w1", Epoch: 1, Deadline: far},
		{Seq: 4, Op: opHB, Task: "job-1/cfr/0#1", Worker: "w1", Epoch: 1, Deadline: far + 1},
		{Seq: 5, Op: opReport, Task: "job-1/cfr/0#1", Worker: "w1", Epoch: 1},
		{Seq: 6, Op: opClaim, Task: "job-1/cfr/1#2", Worker: "w2", Epoch: 1, Deadline: far},
		{Seq: 7, Op: opRequeue, Task: "job-1/cfr/1#2", Worker: "w2", Losses: 1, NotBefore: far + 2},
	} {
		buf.Write(journalLine(t, b))
	}
	return buf.Bytes()
}

func TestJournalReplayRoundTrip(t *testing.T) {
	data := sampleJournal(t)
	st, good := replayJournal(data)
	if good != len(data) {
		t.Fatalf("replay consumed %d of %d bytes", good, len(data))
	}
	if st.seq != 7 {
		t.Errorf("seq = %d, want 7", st.seq)
	}
	if len(st.tasks) != 1 {
		t.Fatalf("live tasks = %d, want 1 (task A reported)", len(st.tasks))
	}
	b := st.tasks["job-1/cfr/1#2"]
	if b == nil || st.leases[b.id] != nil || b.epoch != 1 || b.losses != 1 || b.notBefore.UnixNano() == 0 {
		t.Errorf("task B replayed wrong: %+v", b)
	}
	if len(st.queue) != 1 || st.queue[0].id != "job-1/cfr/1#2" {
		t.Errorf("queue = %v, want [task B]", st.queue)
	}
	if w := st.workers["w2"]; w == nil || w.losses != 1 || w.quarantined {
		t.Errorf("worker w2 replayed wrong: %+v", w)
	}
	if len(st.jobs) != 1 || st.jobs[0].Job != "job-1" || st.jobs[0].Spec != testSpec() {
		t.Errorf("recovered jobs = %+v, want [job-1]", st.jobs)
	}

	// The journal keeps nothing of task A's outcome: a coordinator
	// restarted over it enqueues A's evaluation again, as a new task.
	path := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Heartbeat: time.Second, Registry: reg, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Kill()
	ev, err := coord.Evaluator("job-retry", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := evaluateAsync(ctx, ev, core.EvalRequest{Phase: "cfr", Sample: 0, CVs: baselineRequest().CVs})
	waitFor(t, "task A enqueued again", func() bool { return coord.QueueDepth() == 2 })
	if n := reg.Snapshot().Counter(MetricTasksEnqueued); n != 1 {
		t.Errorf("restarted coordinator enqueued %d tasks for task A, want 1", n)
	}
	cancel()
	<-done
}

// TestJournalReplayStopsAtDamage: any damage — torn tail, bit flip, bad
// checksum, duplicate or reordered records — degrades to "replay stops
// here": the state equals a replay of the valid prefix, never an error.
func TestJournalReplayStopsAtDamage(t *testing.T) {
	clean := sampleJournal(t)
	lines := bytes.SplitAfter(clean, []byte("\n"))
	lines = lines[:len(lines)-1] // drop the empty split tail
	prefix := func(n int) int {
		total := 0
		for _, l := range lines[:n] {
			total += len(l)
		}
		return total
	}
	cases := []struct {
		name string
		data []byte
		good int // expected valid-prefix length
	}{
		{"torn tail", clean[:len(clean)-9], prefix(6)},
		{"bit flip in last record", append(append([]byte{}, clean[:len(clean)-10]...), clean[len(clean)-10]^0x40, '\n'), prefix(6)},
		{"duplicate record", append(append([]byte{}, clean...), lines[6]...), len(clean)},
		{"reordered records", bytes.Join([][]byte{lines[0], lines[1], lines[3], lines[2], lines[4], lines[5], lines[6]}, nil), prefix(2)},
		{"garbage line", append(append([]byte{}, clean...), []byte("not a record\n")...), len(clean)},
		{"empty", nil, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, good := replayJournal(tc.data)
			if good != tc.good {
				t.Fatalf("good prefix = %d, want %d", good, tc.good)
			}
			want, _ := replayJournal(tc.data[:good])
			if got, want := snapshot(st), snapshot(want); got != want {
				t.Errorf("damaged replay state differs from its valid prefix:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

// TestJournalConsistencyRulesStopReplay: records that are individually
// well-formed but inconsistent with the replayed state (the fuzzer's
// reordered/duplicated shapes) stop replay rather than corrupt it —
// this is what makes double-granting a live epoch structurally
// impossible after recovery.
func TestJournalConsistencyRulesStopReplay(t *testing.T) {
	spec := testSpec()
	far := time.Now().Add(time.Hour).UnixNano()
	base := []journalBody{
		{Seq: 1, Op: opEnqueue, Task: "A", Job: "j", Spec: &spec, Phase: "cfr", Sample: 0, CVs: [][]int{{1}}},
		{Seq: 2, Op: opClaim, Task: "A", Worker: "w1", Epoch: 1, Deadline: far},
	}
	badSpec := spec
	badSpec.Seed = ""
	cases := []struct {
		name string
		bad  journalBody
	}{
		{"claim for unknown task", journalBody{Seq: 3, Op: opClaim, Task: "nope", Worker: "w1", Epoch: 1}},
		{"claim on leased task", journalBody{Seq: 3, Op: opClaim, Task: "A", Worker: "w2", Epoch: 2}},
		{"heartbeat wrong worker", journalBody{Seq: 3, Op: opHB, Task: "A", Worker: "w2", Epoch: 1}},
		{"heartbeat wrong epoch", journalBody{Seq: 3, Op: opHB, Task: "A", Worker: "w1", Epoch: 2}},
		{"report wrong epoch", journalBody{Seq: 3, Op: opReport, Task: "A", Worker: "w1", Epoch: 2}},
		{"enqueue duplicate id", journalBody{Seq: 3, Op: opEnqueue, Task: "A", Job: "j", Spec: &spec}},
		{"enqueue invalid spec", journalBody{Seq: 3, Op: opEnqueue, Task: "B", Job: "j", Spec: &badSpec}},
		{"worker without id", journalBody{Seq: 3, Op: opWorker, Losses: 1}},
		{"abandon unknown task", journalBody{Seq: 3, Op: opAbandon, Task: "nope"}},
		{"unknown op", journalBody{Seq: 3, Op: "frobnicate", Task: "A"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			for _, b := range base {
				buf.Write(journalLine(t, b))
			}
			baseLen := buf.Len()
			buf.Write(journalLine(t, tc.bad))
			st, good := replayJournal(buf.Bytes())
			if good != baseLen {
				t.Fatalf("good prefix = %d, want %d (bad record must stop replay)", good, baseLen)
			}
			if l := st.leases["A"]; l == nil || l.t.epoch != 1 || l.worker != "w1" {
				t.Errorf("prefix state damaged by rejected record: %+v", l)
			}
		})
	}

	// The requeue family needs a different prefix (unleased vs leased).
	t.Run("requeue on unleased task", func(t *testing.T) {
		var buf bytes.Buffer
		buf.Write(journalLine(t, base[0]))
		baseLen := buf.Len()
		buf.Write(journalLine(t, journalBody{Seq: 2, Op: opRequeue, Task: "A", Losses: 1}))
		if _, good := replayJournal(buf.Bytes()); good != baseLen {
			t.Errorf("requeue of unleased task applied")
		}
	})
	t.Run("recovery bump must raise epoch", func(t *testing.T) {
		var buf bytes.Buffer
		for _, b := range base {
			buf.Write(journalLine(t, b))
		}
		baseLen := buf.Len()
		buf.Write(journalLine(t, journalBody{Seq: 3, Op: opRequeue, Task: "A", Epoch: 1})) // == current, not >
		st, good := replayJournal(buf.Bytes())
		if good != baseLen {
			t.Errorf("non-increasing recovery epoch bump applied")
		}
		// And the rejection must be all-or-nothing: the lease survives.
		if l := st.leases["A"]; l == nil || l.worker != "w1" || l.t.epoch != 1 || st.seq != 2 {
			t.Errorf("rejected requeue partially applied: %+v seq=%d", l, st.seq)
		}
	})
}

// TestOpenJournalTruncatesTornTail: opening a journal with a torn tail
// truncates it to the valid prefix on disk, so subsequent appends extend
// the last good record instead of garbage.
func TestOpenJournalTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	clean := sampleJournal(t)
	torn := append(append([]byte{}, clean...), []byte(`{"v":1,"sum":"12`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{JournalPath: path})
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	defer coord.Kill()
	if n := coord.JournalState().Records; n != 7 {
		t.Errorf("replayed %d records, want 7", n)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, clean) {
		t.Errorf("torn tail not truncated: %d bytes on disk, want %d", len(onDisk), len(clean))
	}
	coord.mu.Lock()
	cm, err := coord.journalAppend(journalBody{Op: opWorker, Worker: "w3", Losses: 1})
	coord.mu.Unlock()
	if err == nil {
		err = coord.await(cm)
	}
	if err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st2, _ := replayJournal(data)
	if st2.seq != 8 {
		t.Errorf("after append: seq = %d, want 8", st2.seq)
	}
}

// The journal's syncs are its log's writes: a range of three enqueues
// takes one, a claim batch of two one, and a report batch of two that
// also leases the third task one, so the counter reads 3 for the
// journal's 8 records.
func TestJournalSyncsCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	coord, err := NewCoordinator(CoordinatorConfig{Registry: reg, JournalPath: filepath.Join(t.TempDir(), "journal")})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Kill()
	if _, err := coord.enqueue("job-1", testSpec(), baselineRequest(), secondRequest(), batchRequest(9)); err != nil {
		t.Fatal(err)
	}
	grants, err := coord.ClaimBatch(context.Background(), "w1", time.Second, 2)
	if err != nil || len(grants) != 2 {
		t.Fatalf("claimed %d tasks: %v", len(grants), err)
	}
	reports := make([]TaskReport, len(grants))
	for i, g := range grants {
		reports[i] = TaskReport{Task: g.ID, Epoch: g.Epoch, Outcome: fabricatedOutcome(1.5)}
	}
	ok, next, err := coord.ReportBatch("w1", reports, 4)
	if err != nil || !ok[0] || !ok[1] {
		t.Fatalf("report batch: %v %v", ok, err)
	}
	if len(next) != 1 || next[0].Sample != 9 || next[0].Epoch != 1 {
		t.Fatalf("report batch granted %+v, want the third task at epoch 1", next)
	}
	snap := reg.Snapshot()
	if syncs, records := snap.Counter(MetricJournalSyncs), snap.Gauge(MetricJournalRecords); syncs != 3 || records != 8 {
		t.Fatalf("journal took %d syncs for %v records, want 3 for 8", syncs, records)
	}
	if got := snap.Counter(MetricClaims); got != 3 {
		t.Fatalf("fleet_claims = %d, want 3", got)
	}
}

// holdNextWrite makes the journal's next write wait, once entered is
// closed, until release is closed; every write that lands is passed to
// landed. Call it while no write is in flight.
func holdNextWrite(coord *Coordinator, landed func(data []byte)) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	write := coord.log.Write
	coord.log.Write = func(off int64, data []byte) error {
		if held.CompareAndSwap(false, true) {
			close(entered)
			<-release
		}
		if err := write(off, data); err != nil {
			return err
		}
		landed(data)
		return nil
	}
	return entered, release
}

// waitAppended waits until the coordinator has appended n journal
// records.
func waitAppended(t *testing.T, coord *Coordinator, n int64) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d journal records appended", n), func() bool {
		coord.mu.Lock()
		defer coord.mu.Unlock()
		return coord.jseq >= n
	})
}

// TestJournalGroupCommit holds the journal's first write while eight
// enqueues and a claim batch of all eight tasks append behind it. The
// enqueues apply before their records are durable, so the claim grants
// them while the write is held. Every record behind the held write then
// goes out in one more write, yet no enqueue or claim answers before its
// own records have landed, and the file replays all sixteen.
func TestJournalGroupCommit(t *testing.T) {
	const n = 8
	reg := metrics.NewRegistry()
	path := filepath.Join(t.TempDir(), "journal")
	cfg := CoordinatorConfig{LeaseTTL: time.Minute, Heartbeat: time.Second, Registry: reg, JournalPath: path}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Kill()
	var mu sync.Mutex
	durable := map[string]bool{} // "op task" of every landed record
	entered, release := holdNextWrite(coord, func(data []byte) {
		mu.Lock()
		defer mu.Unlock()
		fsx.ReadRecords(data, func(body []byte) bool {
			var b journalBody
			if err := json.Unmarshal(body, &b); err != nil {
				t.Error(err)
			}
			durable[b.Op+" "+b.Task] = true
			return true
		})
	})
	landed := func(op, task string) bool {
		mu.Lock()
		defer mu.Unlock()
		return durable[op+" "+task]
	}

	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fl, err := coord.enqueue("job-1", testSpec(), batchRequest(i))
			if err != nil {
				t.Errorf("enqueue %d: %v", i, err)
			} else if !landed(opEnqueue, fl.tasks[0].id) {
				t.Errorf("enqueue of %s answered before its record was durable", fl.tasks[0].id)
			}
		}()
	}
	<-entered
	waitAppended(t, coord, n)
	wg.Add(1)
	go func() {
		defer wg.Done()
		grants, err := coord.ClaimBatch(ctx, "w1", time.Second, n)
		if err != nil || len(grants) != n {
			t.Errorf("claim batch granted %d of %d tasks: %v", len(grants), n, err)
		}
		for _, g := range grants {
			if !landed(opClaim, g.ID) {
				t.Errorf("claim of %s answered before its record was durable", g.ID)
			}
		}
	}()
	waitAppended(t, coord, 2*n)
	close(release)
	wg.Wait()

	snap := reg.Snapshot()
	if syncs, records := snap.Counter(MetricJournalSyncs), snap.Gauge(MetricJournalRecords); syncs != 2 || records != 2*n {
		t.Fatalf("journal took %d syncs for %v records, want 2 for %d: the held write and one for everything behind it", syncs, records, 2*n)
	}
	coord.Kill()
	coord2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if js := coord2.JournalState(); js.Records != 2*n || js.RecoveredTasks != n {
		t.Fatalf("reopened journal replayed %d records and %d tasks, want %d and %d", js.Records, js.RecoveredTasks, 2*n, n)
	}
}

// TestJournalKillWhileSyncing kills the coordinator while a report
// batch's write is held and enqueues and a claim batch await it behind
// that write. Every caller answers ErrUnavailable, the reported task's
// Evaluate included, although its record landed; nothing reaches the
// file once Kill returns; and a restart replays the whole file.
func TestJournalKillWhileSyncing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	cfg := CoordinatorConfig{LeaseTTL: time.Minute, Heartbeat: time.Second, JournalPath: path}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := coord.Evaluator("job-1", testSpec())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	// Task 0 is leased and task 1 queued before the hold; the claim's
	// wait covers both enqueues, so no write is in flight after it.
	done0 := evaluateAsync(ctx, ev, batchRequest(0))
	waitFor(t, "task 0 queued", func() bool { return coord.QueueDepth() == 1 })
	done1 := evaluateAsync(ctx, ev, batchRequest(1))
	waitFor(t, "task 1 queued", func() bool { return coord.QueueDepth() == 2 })
	t0, err := claimOne(ctx, coord, "w1", time.Second)
	if err != nil || t0 == nil || t0.Sample != 0 {
		t.Fatalf("claim: %+v %v, want task 0", t0, err)
	}

	entered, release := holdNextWrite(coord, func([]byte) {})
	errs := make(chan error, 2)
	go func() {
		_, err := reportOne(coord, "w1", t0.ID, t0.Epoch, fabricatedOutcome(1.5), "")
		errs <- err
	}()
	<-entered
	var pending []<-chan taskResult
	for i := 2; i < 5; i++ {
		pending = append(pending, evaluateAsync(ctx, ev, batchRequest(i)))
	}
	waitAppended(t, coord, 7)
	go func() {
		_, err := coord.ClaimBatch(ctx, "w2", time.Second, 8)
		errs <- err
	}()
	waitAppended(t, coord, 11)

	killed := make(chan struct{})
	go func() {
		coord.Kill()
		close(killed)
	}()
	// Task 1, leased by the waiting claim, fails once the kill is under
	// way; Kill itself waits for the held write.
	if res := <-done1; !errors.Is(res.err, ErrUnavailable) {
		t.Errorf("leased task's Evaluate: %v, want ErrUnavailable", res.err)
	}
	select {
	case <-killed:
		t.Fatal("Kill returned while a journal write was in flight")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-killed
	atKill, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if err := <-errs; !errors.Is(err, ErrUnavailable) {
			t.Errorf("report or claim batch awaiting the kill: %v, want ErrUnavailable", err)
		}
	}
	for _, ch := range append(pending, done0) {
		if res := <-ch; !errors.Is(res.err, ErrUnavailable) {
			t.Errorf("Evaluate awaiting the kill: %v, want ErrUnavailable", res.err)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, atKill) {
		t.Fatalf("the journal changed after Kill returned: %d bytes, then %d", len(atKill), len(after))
	}
	st, good := replayJournal(after)
	if good != len(after) || st.seq < 4 {
		t.Fatalf("journal after the kill: %d of %d bytes and %d records valid, want all and at least 4", good, len(after), st.seq)
	}
	coord2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	if js := coord2.JournalState(); int64(js.Records) != st.seq {
		t.Fatalf("restart replayed %d records, want the file's %d", js.Records, st.seq)
	}
}

// evaluateAsync starts evaluating req as a range of one and returns a
// channel with its result — protocol tests drive claims and reports
// against it.
func evaluateAsync(ctx context.Context, ev core.RemoteEvaluator, req core.EvalRequest) <-chan taskResult {
	ch := make(chan taskResult, 1)
	go func() {
		out, err := evaluateOne(ctx, ev, req)
		ch <- taskResult{out: out, err: err}
	}()
	return ch
}

// evaluateOne evaluates req through ev as a range of one.
func evaluateOne(ctx context.Context, ev core.RemoteEvaluator, req core.EvalRequest) (core.EvalOutcome, error) {
	var out core.EvalOutcome
	err := ev.Evaluate(ctx, []core.EvalRequest{req}, func(_ int, o core.EvalOutcome) error {
		out = o
		return nil
	})
	return out, err
}

// waitAdopted waits until Evaluate calls have adopted every task the
// restarted coordinator recovered, so that a claim cannot take one
// first: a recovered task reported before it is adopted resolves
// nothing, and its request is enqueued again.
func waitAdopted(t *testing.T, c *Coordinator) {
	t.Helper()
	waitFor(t, "the recovered tasks adopted", func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		return len(c.orphans) == 0
	})
}

// secondRequest is a second distinct claim for protocol tests.
func secondRequest() core.EvalRequest {
	r := baselineRequest()
	r.Sample = 7
	return r
}

// TestCoordinatorKillRecovery walks the tentpole sequence at protocol
// level: journaling coordinator, one report accepted, one task still
// queued, SIGKILL, restart from the journal. The restarted coordinator
// must re-adopt the queued task (not duplicate it) and surface it
// through the recovery accessors, and, keeping no outcome of its own,
// enqueue the accepted evaluation again when it is asked for.
func TestCoordinatorKillRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	cfg := CoordinatorConfig{
		LeaseTTL:    time.Minute, // no expiry noise; recovery is the subject
		Heartbeat:   time.Second,
		JournalPath: path,
	}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ev, err := coord.Evaluator("job-1", testSpec())
	if err != nil {
		t.Fatalf("evaluator: %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	done1 := evaluateAsync(ctx, ev, baselineRequest())
	var t1 *Task
	for t1 == nil {
		if t1, err = claimOne(ctx, coord, "w1", time.Second); err != nil {
			t.Fatalf("claim: %v", err)
		}
	}
	if acc, err := reportOne(coord, "w1", t1.ID, t1.Epoch, fabricatedOutcome(1.5), ""); err != nil || !acc {
		t.Fatalf("report: accepted=%v err=%v", acc, err)
	}
	res1 := <-done1
	if res1.err != nil {
		t.Fatalf("first evaluate: %v", res1.err)
	}
	// The second claim enqueues but is never granted: it must survive
	// the crash as a queued task.
	done2 := evaluateAsync(ctx, ev, secondRequest())
	for coord.QueueDepth() == 0 {
		time.Sleep(time.Millisecond)
	}

	coord.Kill()
	if res2 := <-done2; !errors.Is(res2.err, ErrUnavailable) {
		t.Fatalf("pending evaluate after kill: err=%v, want ErrUnavailable", res2.err)
	}
	if _, err := claimOne(ctx, coord, "w1", 0); !errors.Is(err, ErrUnavailable) {
		t.Errorf("claim after kill: err=%v, want ErrUnavailable", err)
	}

	// Restart: same journal, fresh coordinator.
	reg2 := metrics.NewRegistry()
	cfg.Registry = reg2
	coord2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer coord2.Close()
	if n := coord2.RecoveredTasks(); n != 1 {
		t.Errorf("recovered tasks = %d, want 1", n)
	}
	jobs := coord2.RecoveredJobs()
	if len(jobs) != 1 || jobs[0].Job != "job-1" || jobs[0].Spec != testSpec() {
		t.Errorf("recovered jobs = %+v", jobs)
	}
	js := coord2.JournalState()
	if js == nil || js.Records == 0 || js.RecoveredTasks != 1 {
		t.Errorf("journal state = %+v", js)
	}

	ev2, err := coord2.Evaluator("job-retry", testSpec())
	if err != nil {
		t.Fatalf("evaluator 2: %v", err)
	}
	// The still-pending claim is adopted, not re-enqueued: the queue
	// already held it, so depth stays 1 and its recovered ID is granted.
	done3 := evaluateAsync(ctx, ev2, secondRequest())
	waitAdopted(t, coord2)
	if depth := coord2.QueueDepth(); depth != 1 {
		t.Errorf("queue depth after adoption = %d, want 1", depth)
	}
	t2, err := claimOne(ctx, coord2, "w1", 5*time.Second)
	if err != nil || t2 == nil {
		t.Fatalf("claim from restarted coordinator: %v %v", t2, err)
	}
	if t2.Job != "job-1" {
		t.Errorf("adopted task kept job %q, want original job-1 (recovered identity)", t2.Job)
	}
	if acc, err := reportOne(coord2, "w1", t2.ID, t2.Epoch, fabricatedOutcome(2.5), ""); err != nil || !acc {
		t.Fatalf("report to restarted coordinator: accepted=%v err=%v", acc, err)
	}
	if res3 := <-done3; res3.err != nil {
		t.Fatalf("adopted evaluate: %v", res3.err)
	}
	if n := reg2.Snapshot().Counter(MetricTasksEnqueued); n != 0 {
		t.Errorf("the adoption enqueued %d tasks, want 0", n)
	}
	// The completed claim's report retired its task, and the coordinator
	// keeps no outcome: asked for again, it is enqueued again, for a
	// worker to evaluate.
	done0 := evaluateAsync(ctx, ev2, baselineRequest())
	t0, err := claimOne(ctx, coord2, "w1", 5*time.Second)
	if err != nil || t0 == nil || t0.Job != "job-retry" || t0.Sample != baselineRequest().Sample {
		t.Fatalf("claim of the completed evaluation after restart: %+v %v, want a new job-retry task", t0, err)
	}
	if n := reg2.Snapshot().Counter(MetricTasksEnqueued); n != 1 {
		t.Errorf("restarted coordinator enqueued %d tasks, want the completed one again", n)
	}
	if acc, err := reportOne(coord2, "w1", t0.ID, t0.Epoch, fabricatedOutcome(1.5), ""); err != nil || !acc {
		t.Fatalf("report of the re-enqueued task: accepted=%v err=%v", acc, err)
	}
	res0 := <-done0
	if res0.err != nil {
		t.Fatalf("re-enqueued evaluate: %v", res0.err)
	}
	if want, _ := fabricatedOutcome(1.5).decode(); res0.out.Total != want.Total || res0.out.Cost != want.Cost {
		t.Errorf("re-enqueued outcome differs from the pre-crash report: %+v vs %+v", res0.out, want)
	}
}

// TestRecoveryBumpsExpiredLeaseEpoch: a lease that expired while the
// coordinator was down comes back with a burned epoch — the dead
// holder's late report and heartbeat must bounce, and the next grant
// must carry a higher epoch. Exactly-once across the restart.
func TestRecoveryBumpsExpiredLeaseEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	cfg := CoordinatorConfig{LeaseTTL: 50 * time.Millisecond, Heartbeat: 10 * time.Millisecond, JournalPath: path}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ev, _ := coord.Evaluator("job-1", testSpec())
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	done := evaluateAsync(ctx, ev, baselineRequest())
	t1, err := claimOne(ctx, coord, "w1", time.Second)
	if err != nil || t1 == nil {
		t.Fatalf("claim: %v %v", t1, err)
	}
	coord.Kill()
	<-done
	time.Sleep(80 * time.Millisecond) // lease deadline passes while "down"

	coord2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer coord2.Close()
	if ok, err := coord2.Heartbeat("w1", t1.ID, t1.Epoch); err != nil || ok {
		t.Errorf("pre-crash heartbeat accepted after recovery bump (ok=%v err=%v)", ok, err)
	}
	if acc, err := reportOne(coord2, "w1", t1.ID, t1.Epoch, fabricatedOutcome(9), ""); err != nil || acc {
		t.Errorf("pre-crash report accepted after recovery bump (acc=%v err=%v)", acc, err)
	}
	ev2, _ := coord2.Evaluator("job-retry", testSpec())
	done2 := evaluateAsync(ctx, ev2, baselineRequest())
	waitAdopted(t, coord2)
	t2, err := claimOne(ctx, coord2, "w2", 5*time.Second)
	if err != nil || t2 == nil {
		t.Fatalf("re-claim: %v %v", t2, err)
	}
	if t2.ID != t1.ID || t2.Epoch <= t1.Epoch {
		t.Errorf("re-grant = %s epoch %d, want same task %s with epoch > %d", t2.ID, t2.Epoch, t1.ID, t1.Epoch)
	}
	if acc, err := reportOne(coord2, "w2", t2.ID, t2.Epoch, fabricatedOutcome(3), ""); err != nil || !acc {
		t.Fatalf("fresh report: accepted=%v err=%v", acc, err)
	}
	if res := <-done2; res.err != nil {
		t.Fatalf("adopted evaluate: %v", res.err)
	}
}

// TestRecoveryKeepsLiveLease: a lease whose deadline had NOT passed by
// restart stays live — the worker keeps heartbeating and reports into
// the same epoch, so in-flight work survives the coordinator dying.
func TestRecoveryKeepsLiveLease(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	cfg := CoordinatorConfig{LeaseTTL: time.Minute, Heartbeat: time.Second, JournalPath: path}
	coord, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	ev, _ := coord.Evaluator("job-1", testSpec())
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()
	done := evaluateAsync(ctx, ev, baselineRequest())
	t1, err := claimOne(ctx, coord, "w1", time.Second)
	if err != nil || t1 == nil {
		t.Fatalf("claim: %v %v", t1, err)
	}
	coord.Kill()
	<-done

	reg2 := metrics.NewRegistry()
	cfg.Registry = reg2
	coord2, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer coord2.Close()
	if n := coord2.ActiveLeases(); n != 1 {
		t.Errorf("active leases after restart = %d, want 1", n)
	}
	if ok, err := coord2.Heartbeat("w1", t1.ID, t1.Epoch); err != nil || !ok {
		t.Errorf("live lease heartbeat rejected after restart (ok=%v err=%v)", ok, err)
	}
	if acc, err := reportOne(coord2, "w1", t1.ID, t1.Epoch, fabricatedOutcome(4), ""); err != nil || !acc {
		t.Fatalf("live lease report rejected after restart (acc=%v err=%v)", acc, err)
	}
	// No re-run waited on the recovered lease, and the coordinator keeps
	// no outcome: the re-attached job's request is enqueued again.
	ev2, _ := coord2.Evaluator("job-retry", testSpec())
	done2 := evaluateAsync(ctx, ev2, baselineRequest())
	t2, err := claimOne(ctx, coord2, "w1", 5*time.Second)
	if err != nil || t2 == nil || t2.Job != "job-retry" {
		t.Fatalf("claim after the recovered report: %+v %v, want a new job-retry task", t2, err)
	}
	if n := reg2.Snapshot().Counter(MetricTasksEnqueued); n != 1 {
		t.Errorf("restarted coordinator enqueued %d tasks, want 1", n)
	}
	if acc, err := reportOne(coord2, "w1", t2.ID, t2.Epoch, fabricatedOutcome(4), ""); err != nil || !acc {
		t.Fatalf("report of the re-enqueued task: accepted=%v err=%v", acc, err)
	}
	res := <-done2
	if res.err != nil {
		t.Fatalf("re-enqueued evaluate: %v", res.err)
	}
	if want, _ := fabricatedOutcome(4).decode(); res.out.Total != want.Total {
		t.Errorf("re-enqueued outcome = %v, want %v", res.out.Total, want.Total)
	}
}

// TestJournalCompaction: a clean Close truncates a fully-drained journal
// to empty, and snapshots outstanding state otherwise — with every
// compacted lease's epoch burned so its holder's post-restart report
// still bounces.
func TestJournalCompaction(t *testing.T) {
	t.Run("drained journal truncates to empty", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal")
		cfg := CoordinatorConfig{LeaseTTL: time.Minute, Heartbeat: time.Second, JournalPath: path}
		coord, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		ev, _ := coord.Evaluator("job-1", testSpec())
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()
		done := evaluateAsync(ctx, ev, baselineRequest())
		t1, err := claimOne(ctx, coord, "w1", time.Second)
		if err != nil || t1 == nil {
			t.Fatalf("claim: %v %v", t1, err)
		}
		if acc, err := reportOne(coord, "w1", t1.ID, t1.Epoch, fabricatedOutcome(1), ""); err != nil || !acc {
			t.Fatalf("report: %v %v", acc, err)
		}
		<-done
		coord.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != 0 {
			t.Errorf("drained journal holds %d bytes after Close, want 0", len(data))
		}
	})

	t.Run("outstanding state snapshots and replays", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "journal")
		cfg := CoordinatorConfig{LeaseTTL: time.Minute, Heartbeat: time.Second, JournalPath: path}
		coord, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatalf("coordinator: %v", err)
		}
		ev, _ := coord.Evaluator("job-1", testSpec())
		ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
		defer cancel()
		done1 := evaluateAsync(ctx, ev, baselineRequest())
		done2 := evaluateAsync(ctx, ev, secondRequest())
		for coord.QueueDepth() < 2 {
			time.Sleep(time.Millisecond)
		}
		t1, err := claimOne(ctx, coord, "w1", time.Second)
		if err != nil || t1 == nil {
			t.Fatalf("claim: %v %v", t1, err)
		}
		coord.Close() // one leased, one queued
		<-done1
		<-done2

		coord2, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatalf("restart from compacted journal: %v", err)
		}
		defer coord2.Close()
		if n := coord2.RecoveredTasks(); n != 2 {
			t.Errorf("recovered tasks = %d, want 2", n)
		}
		if n := coord2.QueueDepth(); n != 2 {
			t.Errorf("queue depth = %d, want 2 (compacted leases come back queued)", n)
		}
		// The compacted lease's epoch was burned: its holder's stale
		// report bounces, the re-grant goes higher.
		if acc, err := reportOne(coord2, "w1", t1.ID, t1.Epoch, fabricatedOutcome(9), ""); err != nil || acc {
			t.Errorf("stale report accepted after compaction (acc=%v err=%v)", acc, err)
		}
		ev2, _ := coord2.Evaluator("job-retry", testSpec())
		_ = evaluateAsync(ctx, ev2, baselineRequest())
		ts, err := coord2.ClaimBatch(ctx, "w2", 5*time.Second, 2)
		if err != nil || len(ts) != 2 {
			t.Fatalf("claim batch: %d tasks, err %v", len(ts), err)
		}
		for _, task := range ts {
			if task.ID == t1.ID && task.Epoch <= t1.Epoch {
				t.Errorf("compacted lease re-granted at epoch %d, want > %d", task.Epoch, t1.Epoch)
			}
		}
	})
}

// TestAdoptionKeyIdentity: the adoption key must separate every
// outcome-determining input and ignore job identity (which a re-attach
// changes by construction).
func TestAdoptionKeyIdentity(t *testing.T) {
	spec := testSpec()
	base := adoptionKey(spec, "cfr", 3, [][]int{{1, 2}})
	if adoptionKey(spec, "cfr", 3, [][]int{{1, 2}}) != base {
		t.Error("key not deterministic")
	}
	spec2 := spec
	spec2.Seed = "other"
	for name, other := range map[string]uint64{
		"phase":  adoptionKey(spec, "collect", 3, [][]int{{1, 2}}),
		"sample": adoptionKey(spec, "cfr", 4, [][]int{{1, 2}}),
		"cvs":    adoptionKey(spec, "cfr", 3, [][]int{{1, 3}}),
		"shape":  adoptionKey(spec, "cfr", 3, [][]int{{1}, {2}}),
		"seed":   adoptionKey(spec2, "cfr", 3, [][]int{{1, 2}}),
	} {
		if other == base {
			t.Errorf("key ignores %s", name)
		}
	}
}

// TestJournalEnqueueLinePinned pins the bytes a plain spec's enqueue
// writes to the journal and the adoption key its claims are matched by.
// A journal written by one build is replayed by the next, so a change
// in how the spec is declared must not change either.
func TestJournalEnqueueLinePinned(t *testing.T) {
	if got := fmt.Sprintf("%016x", adoptionKey(testSpec(), "cfr", 3, [][]int{{1, 2}})); got != "7bc0559d383b0e76" {
		t.Errorf("adoption key = %s, want 7bc0559d383b0e76", got)
	}
	path := filepath.Join(t.TempDir(), "journal")
	coord, err := NewCoordinator(CoordinatorConfig{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.enqueue("job-0001", testSpec(), baselineRequest()); err != nil {
		t.Fatal(err)
	}
	coord.Kill()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"v":1,"sum":"823a3fb301d0f9b8","body":{"seq":1,"op":"enqueue","task":"job-0001/cfr/3#1","job":"job-0001","spec":{"benchmark":"CL","machine":"broadwell","samples":24,"topx":6,"seed":"fleet-test","fault_rate":1},"phase":"cfr","sample":3,"cvs":[[2,0,1,3,0,0,0,2,1,2,0,0,0,1,0,0,1,0,0,0,1,0,0,1,0,0,0,0,1,0,0,0,0]]}}` + "\n"
	if string(data) != want {
		t.Errorf("enqueue journal line changed:\n got %s\nwant %s", data, want)
	}
}

// TestJournalLinesPinned pins the claim and report lines beside the
// enqueue line: the records a claim grant and an accepted report write
// through appendJournal. A report carries its task, worker and epoch
// only: the outcome goes to the job, whose checkpoint keeps it.
func TestJournalLinesPinned(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal")
	coord, err := NewCoordinator(CoordinatorConfig{JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	coord.mu.Lock()
	err = coord.writeJournal([]journalBody{
		{Op: opClaim, Task: "job-a/collect/0#1", Worker: "w1", Epoch: 1, Deadline: 1760875200000000000},
		{Op: opReport, Task: "job-a/collect/0#1", Worker: "w1", Epoch: 1},
	})
	coord.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	coord.Kill()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		`{"v":1,"sum":"fdf25317012eacf0","body":{"seq":1,"op":"claim","task":"job-a/collect/0#1","epoch":1,"worker":"w1","deadline":1760875200000000000}}`,
		`{"v":1,"sum":"014d5bd2ffb5af65","body":{"seq":2,"op":"report","task":"job-a/collect/0#1","epoch":1,"worker":"w1"}}`,
	}
	got := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("journal holds %d lines, want %d:\n%s", len(got), len(want), data)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("journal line %d changed:\n got %s\nwant %s", i+1, got[i], want[i])
		}
	}
}

// olderReport and olderOutcome are a report record that carries its
// outcome and an outcome record, as builds that kept an outcome buffer
// wrote them (the bodies TestJournalLinesPinned pinned then), numbered
// to follow an enqueue and a claim.
const (
	olderReport  = `{"seq":3,"op":"report","task":"job-a/collect/0#1","epoch":1,"worker":"w1","outcome":{"per_module":["0x1.8p+00","+Inf"],"total":"+Inf","cost":{"compiles":3,"runs":1,"sim_micros":4750000,"retries":0,"wasted_compiles":0,"fault_micros":250000,"compile_fails":0,"run_crashes":1,"timeouts":0,"flakes":0},"quarantined":["deadbeef","2a"],"events":[{"kind":"compile","phase":"collect","sample":0,"modules":3,"seconds":"0x1.2p+02","sim":"0x1.2p+02"},{"kind":"fault","phase":"collect","sample":0,"step":1,"name":"run-crash","seconds":"0x1p-02","sim":"0x1.3p+02"},{"kind":"eval","phase":"collect","sample":0,"step":2,"name":"lost","seconds":"+Inf","sim":"0x1.3p+02"}]}}`
	olderOutcome = `{"seq":4,"op":"outcome","error":"fleet: worker w2 failed task \"job-b/cfr/7#2\": \u003ctimeout\u003e \u0026 retry","key":"7bc0559d383b0e76"}`
)

// TestJournalReplaysOlderOutcomes replays a journal an older build
// wrote: a report that carries its outcome and a compacted outcome
// record, followed by live records. Replay reads the report as one
// without its outcome and the outcome record as a place in the
// sequence, so it keeps going past them, and reaches the state of the
// same journal written without those outcomes; a coordinator restarted
// over it re-adopts the live task.
func TestJournalReplaysOlderOutcomes(t *testing.T) {
	spec := testSpec()
	far := time.Now().Add(time.Hour).UnixNano()
	records := func(bodies ...journalBody) []byte {
		var buf bytes.Buffer
		for _, b := range bodies {
			buf.Write(journalLine(t, b))
		}
		return buf.Bytes()
	}
	head := records(
		journalBody{Seq: 1, Op: opEnqueue, Task: "job-a/collect/0#1", Job: "job-a", Spec: &spec, Phase: "collect", Sample: 0, CVs: [][]int{{1, 2}}},
		journalBody{Seq: 2, Op: opClaim, Task: "job-a/collect/0#1", Worker: "w1", Epoch: 1, Deadline: far},
	)
	live := records(
		journalBody{Seq: 5, Op: opEnqueue, Task: "job-b/cfr/7#2", Job: "job-b", Spec: &spec, Phase: "cfr", Sample: 7, CVs: [][]int{{3, 4}}},
		journalBody{Seq: 6, Op: opClaim, Task: "job-b/cfr/7#2", Worker: "w2", Epoch: 1, Deadline: far},
		journalBody{Seq: 7, Op: opHB, Task: "job-b/cfr/7#2", Worker: "w2", Epoch: 1, Deadline: far + 1},
		journalBody{Seq: 8, Op: opWorker, Worker: "w3", Losses: 2},
	)
	older := bytes.Join([][]byte{head, fsx.AppendRecord(nil, []byte(olderReport)), fsx.AppendRecord(nil, []byte(olderOutcome)), live}, nil)
	current := bytes.Join([][]byte{head, records(journalBody{Seq: 3, Op: opReport, Task: "job-a/collect/0#1", Worker: "w1", Epoch: 1}), live}, nil)

	got, good := replayJournal(older)
	if good != len(older) {
		t.Fatalf("the older journal replays %d of %d bytes", good, len(older))
	}
	want, good := replayJournal(current)
	if good != len(current) {
		t.Fatalf("the journal without outcomes replays %d of %d bytes", good, len(current))
	}
	if g, w := snapshot(got), snapshot(want); g != w {
		t.Errorf("the older journal replays to\n%s\nnot the state without its outcomes\n%s", g, w)
	}
	if l := got.leases["job-b/cfr/7#2"]; got.seq != 8 || len(got.tasks) != 1 || l == nil || l.worker != "w2" {
		t.Errorf("older journal: seq %d, %d live tasks, lease %+v; want seq 8 and job-b's task leased to w2", got.seq, len(got.tasks), l)
	}

	path := filepath.Join(t.TempDir(), "journal")
	if err := os.WriteFile(path, older, 0o644); err != nil {
		t.Fatal(err)
	}
	coord, err := NewCoordinator(CoordinatorConfig{LeaseTTL: time.Minute, Heartbeat: time.Second, JournalPath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Kill()
	if js := coord.JournalState(); js.Records != 8 || js.RecoveredTasks != 1 || coord.ActiveLeases() != 1 {
		t.Errorf("restart over the older journal: %+v, %d leases; want 8 records and the one live task leased", js, coord.ActiveLeases())
	}
}

// FuzzJournalReplay feeds arbitrary bytes — truncations, bit flips,
// duplicated and reordered records — through recovery and holds the
// degradation contract: never panic, always deterministic, the damaged
// journal equivalent to its own valid prefix, a torn tail changing
// nothing, and every live lease carrying a positive epoch and a worker
// (no double-granted or ownerless epochs). The replayed state keeps its
// structure (checkState), and so does a restart's recovery of it, whose
// epoch bumps the state accepts.
func FuzzJournalReplay(f *testing.F) {
	spec := testSpec()
	far := time.Now().Add(time.Hour).UnixNano()
	var clean bytes.Buffer
	for _, b := range []journalBody{
		{Seq: 1, Op: opEnqueue, Task: "A", Job: "j", Spec: &spec, Phase: "cfr", Sample: 0, CVs: [][]int{{1, 2}}},
		{Seq: 2, Op: opClaim, Task: "A", Worker: "w1", Epoch: 1, Deadline: far},
		{Seq: 3, Op: opReport, Task: "A", Worker: "w1", Epoch: 1},
		{Seq: 4, Op: opTask, Task: "B", Job: "j", Spec: &spec, Phase: "cfr", Sample: 1, Epoch: 2, Losses: 1, NotBefore: far},
		{Seq: 5, Op: opClaim, Task: "B", Worker: "w2", Epoch: 3, Deadline: far},
		{Seq: 6, Op: opRequeue, Task: "B", Worker: "w2", Losses: 2, NotBefore: far},
		{Seq: 7, Op: opWorker, Worker: "w2", Losses: 2, Quarantined: true},
		{Seq: 8, Op: opOutcome},
		{Seq: 9, Op: opAbandon, Task: "B"},
	} {
		line, err := encodeJournalRecord(b)
		if err != nil {
			f.Fatal(err)
		}
		clean.Write(line)
	}
	data := clean.Bytes()
	f.Add(data)
	f.Add(data[:len(data)-7])                         // torn tail
	f.Add(append(append([]byte{}, data...), data...)) // full duplication
	flipped := append([]byte{}, data...)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte("{}\n{}\n"))
	f.Add([]byte(nil))
	// An older build's report that carries its outcome, and its
	// compacted outcome record, behind the enqueue and claim they follow.
	var older bytes.Buffer
	for _, b := range []journalBody{
		{Seq: 1, Op: opEnqueue, Task: "job-a/collect/0#1", Job: "job-a", Spec: &spec, Phase: "collect", CVs: [][]int{{1, 2}}},
		{Seq: 2, Op: opClaim, Task: "job-a/collect/0#1", Worker: "w1", Epoch: 1, Deadline: far},
	} {
		line, err := encodeJournalRecord(b)
		if err != nil {
			f.Fatal(err)
		}
		older.Write(line)
	}
	older.Write(fsx.AppendRecord(nil, []byte(olderReport)))
	older.Write(fsx.AppendRecord(nil, []byte(olderOutcome)))
	f.Add(older.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		st, good := replayJournal(data) // must not panic
		if good < 0 || good > len(data) {
			t.Fatalf("good prefix %d out of range [0, %d]", good, len(data))
		}
		snap := snapshot(st)
		// Deterministic.
		if st2, good2 := replayJournal(data); good2 != good || snapshot(st2) != snap {
			t.Fatal("replay is not deterministic")
		}
		// Equivalent to the valid prefix alone.
		if st3, good3 := replayJournal(data[:good]); good3 != good || snapshot(st3) != snap {
			t.Fatal("damaged journal state differs from its valid prefix")
		}
		// A torn (newline-less) tail appended to the valid prefix is
		// cleanly ignored.
		st4, good4 := replayJournal(append(data[:good:good], []byte(`{"v":1,"sum":"beef`)...))
		if good4 != good || st4.seq != st.seq || len(st4.tasks) != len(st.tasks) {
			t.Fatal("torn tail changed the replayed state")
		}
		// No live lease without a positive epoch and an owner: the
		// strictly-increasing seq plus the per-op consistency rules must
		// make a double-granted epoch unrepresentable.
		for id, l := range st.leases {
			if l.t.epoch < 1 || l.worker == "" {
				t.Fatalf("task %s leased with epoch %d worker %q", id, l.t.epoch, l.worker)
			}
		}
		for id, rt := range st.tasks {
			if rt.epoch < 0 || rt.losses < 0 {
				t.Fatalf("task %s has negative epoch/losses", id)
			}
		}
		if err := checkState(st); err != nil {
			t.Fatalf("replayed state: %v", err)
		}
		// Recovery at the far deadline keeps some leases and bumps the
		// rest; the state accepts every bump and keeps its structure.
		bumps := st.recoverAt(time.Unix(0, far))
		for i := range bumps {
			bumps[i].Seq = st.seq + 1
			if !st.apply(&bumps[i]) {
				t.Fatalf("recovery bump %+v refused", bumps[i])
			}
		}
		if err := checkState(st); err != nil {
			t.Fatalf("recovered state: %v", err)
		}
	})
}

// BenchmarkJournalAppend measures one enqueue-sized record appended and
// synced through the journal's path, as every coordinator transition
// takes it: encode, seal, then, with c.mu released, one write and one
// fsync. ns/op depends on the disk.
func BenchmarkJournalAppend(b *testing.B) {
	coord, err := NewCoordinator(CoordinatorConfig{JournalPath: filepath.Join(b.TempDir(), "journal")})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Kill()
	spec := testSpec()
	cvs := encodeCVs(baselineRequest().CVs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coord.mu.Lock()
		cm, err := coord.journalAppend(journalBody{Op: opEnqueue, Task: fmt.Sprintf("job-0001/cfr/%d#%d", i, i+1),
			Job: "job-0001", Spec: &spec, Phase: "cfr", Sample: i, CVs: cvs})
		coord.mu.Unlock()
		if err == nil {
			err = coord.await(cm)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalEnqueueParallel measures enqueue transitions made
// concurrently, as concurrent jobs' ranges make them: four goroutines
// per CPU each enqueue a range of one and wait until its record is
// durable, so concurrent enqueues can share one write and one fsync.
// (A job makes one enqueue transition per range and refill, whatever
// its window.) ns/op depends on the disk.
func BenchmarkJournalEnqueueParallel(b *testing.B) {
	coord, err := NewCoordinator(CoordinatorConfig{JournalPath: filepath.Join(b.TempDir(), "journal")})
	if err != nil {
		b.Fatal(err)
	}
	defer coord.Kill()
	spec, req := testSpec(), baselineRequest()
	b.SetParallelism(4)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := coord.enqueue("job-0001", spec, req); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

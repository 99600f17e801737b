package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"funcytuner/internal/core"
)

// journalLine renders one record with an explicit sequence number, the
// way the append handle would.
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
		{Seq: 5, Op: opReport, Task: "job-1/cfr/0#1", Worker: "w1", Epoch: 1, Outcome: fabricatedOutcome(1.25)},
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
	if st.seq != 7 || st.records != 7 {
		t.Errorf("seq/records = %d/%d, want 7/7", st.seq, st.records)
	}
	if len(st.tasks) != 1 {
		t.Fatalf("live tasks = %d, want 1 (task A reported)", len(st.tasks))
	}
	b := st.tasks["job-1/cfr/1#2"]
	if b == nil || b.leased || b.epoch != 1 || b.losses != 1 || b.notBefore == 0 {
		t.Errorf("task B replayed wrong: %+v", b)
	}
	if len(st.order) != 1 || st.order[0] != "job-1/cfr/1#2" {
		t.Errorf("order = %v, want [task B]", st.order)
	}
	key := adoptionKey(testSpec(), "cfr", 0, [][]int{{1, 2}})
	ro, ok := st.completed[key]
	if !ok || ro.out == nil || ro.out.Total != formatFloat(1.25) {
		t.Errorf("completed outcome for task A missing or wrong: %+v", ro)
	}
	if w := st.workers["w2"]; w == nil || w.losses != 1 || w.quarantined {
		t.Errorf("worker w2 replayed wrong: %+v", w)
	}
	if len(st.jobs) != 1 || st.jobs[0].Job != "job-1" || st.jobs[0].Spec != testSpec() {
		t.Errorf("recovered jobs = %+v, want [job-1]", st.jobs)
	}
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
			if st.seq != want.seq || st.records != want.records ||
				len(st.tasks) != len(want.tasks) || len(st.completed) != len(want.completed) {
				t.Errorf("damaged replay state differs from its valid prefix")
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
		{"report wrong epoch", journalBody{Seq: 3, Op: opReport, Task: "A", Worker: "w1", Epoch: 2, Outcome: fabricatedOutcome(1)}},
		{"enqueue duplicate id", journalBody{Seq: 3, Op: opEnqueue, Task: "A", Job: "j", Spec: &spec}},
		{"enqueue invalid spec", journalBody{Seq: 3, Op: opEnqueue, Task: "B", Job: "j", Spec: &badSpec}},
		{"worker without id", journalBody{Seq: 3, Op: opWorker, Losses: 1}},
		{"abandon unknown task", journalBody{Seq: 3, Op: opAbandon, Task: "nope"}},
		{"outcome with bad key", journalBody{Seq: 3, Op: opOutcome, Key: "zz", Outcome: fabricatedOutcome(1)}},
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
			if a := st.tasks["A"]; a == nil || !a.leased || a.epoch != 1 || a.worker != "w1" {
				t.Errorf("prefix state damaged by rejected record: %+v", a)
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
		if a := st.tasks["A"]; a == nil || !a.leased || a.worker != "w1" || a.epoch != 1 || st.seq != 2 {
			t.Errorf("rejected requeue partially applied: %+v seq=%d", st.tasks["A"], st.seq)
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
	j, st, err := openJournal(path)
	if err != nil {
		t.Fatalf("openJournal: %v", err)
	}
	defer j.close()
	if st.records != 7 {
		t.Errorf("replayed %d records, want 7", st.records)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, clean) {
		t.Errorf("torn tail not truncated: %d bytes on disk, want %d", len(onDisk), len(clean))
	}
	if err := j.append(journalBody{Op: opWorker, Worker: "w3", Losses: 1}); err != nil {
		t.Fatalf("append after truncation: %v", err)
	}
	_, st2, err := openJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st2.records != 8 || st2.seq != 8 {
		t.Errorf("after append: records/seq = %d/%d, want 8/8", st2.records, st2.seq)
	}
}

// evaluateAsync starts one Evaluate and returns a channel with its
// result — protocol tests drive claims and reports against it.
func evaluateAsync(ctx context.Context, ev core.RemoteEvaluator, req core.EvalRequest) <-chan taskResult {
	ch := make(chan taskResult, 1)
	go func() {
		out, err := ev.Evaluate(ctx, req)
		ch <- taskResult{out: out, err: err}
	}()
	return ch
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
// must re-adopt the queued task (not duplicate it), serve the accepted
// outcome byte-identically without re-execution, and surface both
// through the recovery accessors.
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
	// The completed claim is served from the journal, byte-identically,
	// with no worker involved.
	out, err := ev2.Evaluate(ctx, baselineRequest())
	if err != nil {
		t.Fatalf("served evaluate: %v", err)
	}
	if want, _ := fabricatedOutcome(1.5).decode(); out.Total != want.Total || out.Cost != want.Cost {
		t.Errorf("served outcome differs from the pre-crash report: %+v vs %+v", out, want)
	}
	if js := coord2.JournalState(); js.Served != 1 {
		t.Errorf("journal served = %d, want 1", js.Served)
	}
	// The still-pending claim is adopted, not re-enqueued: the queue
	// already held it, so depth stays 1 and its recovered ID is granted.
	done3 := evaluateAsync(ctx, ev2, secondRequest())
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
	// The outcome buffered before any re-run asked for it is served the
	// moment the re-attached job gets there.
	ev2, _ := coord2.Evaluator("job-retry", testSpec())
	out, err := ev2.Evaluate(ctx, baselineRequest())
	if err != nil {
		t.Fatalf("buffered evaluate: %v", err)
	}
	if want, _ := fabricatedOutcome(4).decode(); out.Total != want.Total {
		t.Errorf("buffered outcome = %v, want %v", out.Total, want.Total)
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

// FuzzJournalReplay feeds arbitrary bytes — truncations, bit flips,
// duplicated and reordered records — through recovery and holds the
// degradation contract: never panic, always deterministic, the damaged
// journal equivalent to its own valid prefix, a torn tail changing
// nothing, and every live lease carrying a positive epoch and a worker
// (no double-granted or ownerless epochs).
func FuzzJournalReplay(f *testing.F) {
	spec := testSpec()
	far := time.Now().Add(time.Hour).UnixNano()
	var clean bytes.Buffer
	for _, b := range []journalBody{
		{Seq: 1, Op: opEnqueue, Task: "A", Job: "j", Spec: &spec, Phase: "cfr", Sample: 0, CVs: [][]int{{1, 2}}},
		{Seq: 2, Op: opClaim, Task: "A", Worker: "w1", Epoch: 1, Deadline: far},
		{Seq: 3, Op: opReport, Task: "A", Worker: "w1", Epoch: 1, Outcome: fabricatedOutcome(1.5)},
		{Seq: 4, Op: opTask, Task: "B", Job: "j", Spec: &spec, Phase: "cfr", Sample: 1, Epoch: 2, Losses: 1, NotBefore: far},
		{Seq: 5, Op: opClaim, Task: "B", Worker: "w2", Epoch: 3, Deadline: far},
		{Seq: 6, Op: opRequeue, Task: "B", Worker: "w2", Losses: 2, NotBefore: far},
		{Seq: 7, Op: opWorker, Worker: "w2", Losses: 2, Quarantined: true},
		{Seq: 8, Op: opOutcome, Key: "deadbeef", Outcome: fabricatedOutcome(2)},
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

	f.Fuzz(func(t *testing.T, data []byte) {
		st, good := replayJournal(data) // must not panic
		if good < 0 || good > len(data) {
			t.Fatalf("good prefix %d out of range [0, %d]", good, len(data))
		}
		// Deterministic.
		st2, good2 := replayJournal(data)
		if good2 != good || st2.seq != st.seq || st2.records != st.records ||
			len(st2.tasks) != len(st.tasks) || len(st2.completed) != len(st.completed) {
			t.Fatal("replay is not deterministic")
		}
		// Equivalent to the valid prefix alone.
		st3, good3 := replayJournal(data[:good])
		if good3 != good || st3.seq != st.seq || st3.records != st.records ||
			len(st3.tasks) != len(st.tasks) || len(st3.completed) != len(st.completed) {
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
		for id, rt := range st.tasks {
			if rt.leased && (rt.epoch < 1 || rt.worker == "") {
				t.Fatalf("task %s leased with epoch %d worker %q", id, rt.epoch, rt.worker)
			}
			if rt.epoch < 0 || rt.losses < 0 {
				t.Fatalf("task %s has negative epoch/losses", id)
			}
		}
	})
}

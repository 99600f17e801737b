package fleet

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
)

// differentialTTL is the lease TTL of the differential schedule: short,
// so that leases expire in the schedule's expiry steps and, now and
// then, in the reaper's own sweeps between steps.
const differentialTTL = 20 * time.Millisecond

// TestJournalReplayMatchesLive drives a seeded schedule of transitions
// on one journaled coordinator and, after every step, replays the
// journal file into a fresh state and requires it to equal the live
// one. The schedule mixes enqueues of ranges of one to four requests;
// claim batches of 1–8 by three workers; live and stale heartbeats;
// report batches with stale, duplicate and error entries, half of them
// also leasing up to four tasks; cancels of whole ranges; lease expiry
// at a bound of two losses, so that workers are quarantined; kills and
// reopens, among them reopens whose recovered leases expire before their
// worker is back; and clean closes and reopens. Every run opens with the sequence
// that once parted live from replayed state: a worker holds two leases
// across a kill, and the reopened coordinator, which has no record of
// the worker, sweeps both before it is back. The reaper runs as it
// always does, so its sweeps land between steps at times that differ
// from run to run.
func TestJournalReplayMatchesLive(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			s := &schedule{
				t:   t,
				rng: rand.New(rand.NewPCG(seed, 0x6a6f75726e616c)),
				cfg: CoordinatorConfig{
					LeaseTTL:          differentialTTL,
					Heartbeat:         differentialTTL / 4,
					MaxLeaseLosses:    2,
					RequeueBackoff:    time.Millisecond,
					RequeueBackoffCap: 4 * time.Millisecond,
					JournalPath:       filepath.Join(t.TempDir(), "journal"),
				},
				held: make(map[string][]*Task),
			}
			s.open()
			defer func() { s.coord.Kill() }()
			step := 0
			run := func(what string) {
				s.compare(step, what)
				step++
			}
			run(s.enqueue())
			run(s.enqueue())
			run(s.claim("w0", 2))
			run(s.restart(false, reopenThenExpire))
			for step < 34 {
				run(s.step())
			}
		})
	}
}

// schedule is one seeded run of TestJournalReplayMatchesLive.
type schedule struct {
	t     *testing.T
	rng   *rand.Rand
	cfg   CoordinatorConfig
	coord *Coordinator
	// ranges are the live coordinator's enqueued ranges, which an
	// Evaluate would wait on; held are each worker's grants.
	ranges []*flight
	held   map[string][]*Task
}

var differentialWorkers = []string{"w0", "w1", "w2"}

func (s *schedule) open() {
	c, err := NewCoordinator(s.cfg)
	if err != nil {
		s.t.Fatalf("opening the coordinator: %v", err)
	}
	s.coord = c
	s.ranges = nil
}

// step takes one seeded step and names it.
func (s *schedule) step() string {
	w := differentialWorkers[s.rng.IntN(len(differentialWorkers))]
	switch n := s.rng.IntN(20); {
	case n < 5:
		return s.enqueue()
	case n < 9:
		return s.claim(w, 1+s.rng.IntN(8))
	case n < 11:
		return s.heartbeat(w)
	case n < 15:
		return s.report(w)
	case n < 16:
		return s.cancel()
	case n < 18:
		s.expire()
		return "expire"
	default:
		return s.restart(n == 19, s.rng.IntN(3))
	}
}

func (s *schedule) enqueue() string {
	var reqs []core.EvalRequest
	var samples []int
	for range 1 + s.rng.IntN(4) {
		req := core.EvalRequest{Phase: "cfr", Sample: s.rng.IntN(12), CVs: []flagspec.CV{flagspec.ICC().Baseline()}}
		reqs = append(reqs, req)
		samples = append(samples, req.Sample)
	}
	fl, err := s.coord.enqueue(fmt.Sprintf("job-%d", s.rng.IntN(2)), testSpec(), reqs...)
	if err != nil {
		s.t.Fatalf("enqueue: %v", err)
	}
	s.ranges = append(s.ranges, fl)
	return fmt.Sprintf("enqueue samples %v", samples)
}

func (s *schedule) claim(w string, n int) string {
	ts, err := s.coord.ClaimBatch(context.Background(), w, 0, n)
	if err != nil && !errors.Is(err, ErrQuarantined) {
		s.t.Fatalf("claim batch: %v", err)
	}
	s.held[w] = append(s.held[w], ts...)
	return fmt.Sprintf("%s claims %d: granted %d, %v", w, n, len(ts), err)
}

func (s *schedule) heartbeat(w string) string {
	g := s.pick(w)
	if g == nil {
		return w + " holds nothing to heartbeat"
	}
	epoch, from := g.Epoch, w
	switch s.rng.IntN(4) {
	case 0:
		epoch--
	case 1:
		from = differentialWorkers[s.rng.IntN(len(differentialWorkers))]
	}
	ok, err := s.coord.Heartbeat(from, g.ID, epoch)
	if err != nil {
		s.t.Fatalf("heartbeat: %v", err)
	}
	return fmt.Sprintf("%s heartbeats %s epoch %d: %v", from, g.ID, epoch, ok)
}

// report sends up to three of w's grants, each an outcome or an error,
// now and then with a duplicate entry and a stale one.
func (s *schedule) report(w string) string {
	var reports []TaskReport
	for range 1 + s.rng.IntN(3) {
		g := s.pick(w)
		if g == nil {
			break
		}
		s.held[w] = slices.DeleteFunc(s.held[w], func(h *Task) bool { return h == g })
		r := TaskReport{Task: g.ID, Epoch: g.Epoch, Outcome: fabricatedOutcome(1 + float64(s.rng.IntN(100))/8)}
		if s.rng.IntN(4) == 0 {
			r = TaskReport{Task: g.ID, Epoch: g.Epoch, Error: "exec: run crashed"}
		}
		reports = append(reports, r)
	}
	if len(reports) > 0 && s.rng.IntN(2) == 0 {
		reports = append(reports, reports[0])
	}
	if len(reports) > 0 && s.rng.IntN(2) == 0 {
		stale := reports[s.rng.IntN(len(reports))]
		stale.Epoch--
		reports = append(reports, stale)
	}
	if len(reports) == 0 {
		return w + " holds nothing to report"
	}
	max := 0
	if s.rng.IntN(2) == 0 {
		max = 1 + s.rng.IntN(4)
	}
	verdicts, ts, err := s.coord.ReportBatch(w, reports, max)
	if err != nil {
		s.t.Fatalf("report batch: %v", err)
	}
	s.held[w] = append(s.held[w], ts...)
	return fmt.Sprintf("%s reports %d, max %d: %v, granted %d", w, len(reports), max, verdicts, len(ts))
}

// pick is one of w's grants, nil when it holds none.
func (s *schedule) pick(w string) *Task {
	if len(s.held[w]) == 0 {
		return nil
	}
	return s.held[w][s.rng.IntN(len(s.held[w]))]
}

func (s *schedule) cancel() string {
	if len(s.ranges) == 0 {
		return "nothing to cancel"
	}
	i := s.rng.IntN(len(s.ranges))
	fl := s.ranges[i]
	s.ranges = slices.Delete(s.ranges, i, i+1)
	s.coord.abandon(fl)
	return fmt.Sprintf("cancel a range of %d", len(fl.reqs))
}

// expire lets every lease not heartbeaten since run out, and sweeps.
func (s *schedule) expire() {
	time.Sleep(differentialTTL + differentialTTL/4)
	s.coord.expireLeases()
}

// How restart reopens the journal: right away; after the leases ran
// out, so that recovery bumps them; or right away and then sweep before
// any worker is back, so that recovered leases expire under workers the
// new coordinator never saw.
const (
	reopenNow = iota
	reopenLater
	reopenThenExpire
)

// restart closes the coordinator when clean, kills it otherwise, and
// reopens the journal as how says.
func (s *schedule) restart(clean bool, how int) string {
	what := "kill"
	if clean {
		what = "close"
		s.coord.Close()
	} else {
		s.coord.Kill()
	}
	if how == reopenLater {
		time.Sleep(differentialTTL + differentialTTL/4)
	}
	s.open()
	if how == reopenThenExpire {
		s.expire()
	}
	return fmt.Sprintf("%s, reopen %d", what, how)
}

// compare replays the journal file into a fresh state and requires it
// to equal the live coordinator's, with the live state's structure
// intact and every worker at the loss bound quarantined.
func (s *schedule) compare(step int, what string) {
	t, c := s.t, s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	replayed, err := replayFile(c)
	if err != nil {
		t.Fatalf("step %d (%s): %v", step, what, err)
	}
	if live, want := snapshot(&c.state), snapshot(replayed); live != want {
		t.Fatalf("step %d (%s): the live state\n%s\ndiffers from the replayed\n%s", step, what, live, want)
	}
	if err := checkState(&c.state); err != nil {
		t.Fatalf("step %d (%s): live state: %v", step, what, err)
	}
	for w, ws := range c.workers {
		if ws.losses >= s.cfg.MaxLeaseLosses && !ws.quarantined {
			t.Fatalf("step %d (%s): worker %s lost %d leases unquarantined", step, what, w, ws.losses)
		}
	}
}

// replayFile makes the coordinator's journal durable and replays the
// file into a fresh state, requiring all of it to replay. Callers hold
// c.mu.
func replayFile(c *Coordinator) (*state, error) {
	if err := c.log.Sync(c.lseq); err != nil {
		return nil, fmt.Errorf("journal sync: %w", err)
	}
	data, err := os.ReadFile(c.cfg.JournalPath)
	if err != nil {
		return nil, err
	}
	st, good := replayJournal(data)
	if good != len(data) {
		return nil, fmt.Errorf("replay stops at byte %d of %d", good, len(data))
	}
	return st, nil
}

// TestRecoveryKeepsLossesAndQuarantine restarts a coordinator with a
// live lease whose worker never comes back and lets it expire; then,
// restarted with MaxLeaseLosses 1, the worker claims again, loses its
// lease and is quarantined. Its losses and quarantine read the same live
// and replayed at every point, and the quarantine survives the next
// restart.
func TestRecoveryKeepsLossesAndQuarantine(t *testing.T) {
	cfg := CoordinatorConfig{
		LeaseTTL:          40 * time.Millisecond,
		Heartbeat:         10 * time.Millisecond,
		RequeueBackoff:    time.Millisecond,
		RequeueBackoffCap: 2 * time.Millisecond,
		JournalPath:       filepath.Join(t.TempDir(), "journal"),
	}
	open := func() *Coordinator {
		t.Helper()
		c, err := NewCoordinator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// worker requires w1's record, live and replayed from the journal,
	// to read losses and quarantined.
	worker := func(c *Coordinator, losses int, quarantined bool) {
		t.Helper()
		c.mu.Lock()
		defer c.mu.Unlock()
		replayed, err := replayFile(c)
		if err != nil {
			t.Fatal(err)
		}
		want := workerState{losses: losses, quarantined: quarantined}
		for name, st := range map[string]*state{"live": &c.state, "replayed": replayed} {
			var got workerState
			if ws := st.workers["w1"]; ws != nil {
				got = *ws
			}
			if got != want {
				t.Errorf("%s w1 = %+v, want %+v", name, got, want)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), testTimeout)
	defer cancel()

	coord := open()
	if _, err := coord.enqueue("job-1", testSpec(), baselineRequest()); err != nil {
		t.Fatal(err)
	}
	if g, err := claimOne(ctx, coord, "w1", time.Second); err != nil || g == nil {
		t.Fatalf("claim: %v %v", g, err)
	}
	coord.Kill()
	coord = open()
	if n := coord.ActiveLeases(); n != 1 {
		t.Fatalf("active leases after restart = %d, want 1", n)
	}
	waitFor(t, "the recovered lease to expire", func() bool { return coord.QueueDepth() == 1 })
	worker(coord, 1, false)
	coord.Kill()

	cfg.MaxLeaseLosses = 1
	coord = open()
	worker(coord, 1, false)
	if g, err := claimOne(ctx, coord, "w1", time.Second); err != nil || g == nil {
		t.Fatalf("claim after the second restart: %v %v", g, err)
	}
	waitFor(t, "w1's quarantine", func() bool { _, q := coord.Workers(); return q == 1 })
	worker(coord, 2, true)
	coord.Kill()

	coord = open()
	defer coord.Close()
	worker(coord, 2, true)
	if _, err := coord.ClaimBatch(ctx, "w1", 0, 1); !errors.Is(err, ErrQuarantined) {
		t.Errorf("claim after the third restart: %v, want ErrQuarantined", err)
	}
}

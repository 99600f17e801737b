package server

import (
	"net/http/httptest"
	"testing"

	"funcytuner"
)

// dedupSpec is a seeded (and therefore dedupable) small job spec.
func dedupSpec(seed string) JobSpec {
	return JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 30, TopX: 5, Seed: seed, Workers: 2}
}

// TestDedupSingleflight submits the same seeded spec twice while the
// first run is in flight: the second must attach to the first instead of
// recomputing, and mirror its result exactly.
func TestDedupSingleflight(t *testing.T) {
	mgr := newTestManager(t, Config{Gate: NewGate(4)})

	leader, err := mgr.Submit(dedupSpec("singleflight"))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := mgr.Submit(dedupSpec("singleflight"))
	if err != nil {
		t.Fatal(err)
	}
	if follower.Status().Deduped != true {
		t.Fatal("second identical submission should be deduped against the in-flight run")
	}
	if leader.Status().Deduped {
		t.Fatal("leader must not be marked deduped")
	}
	waitJob(t, leader)
	waitJob(t, follower)

	if st := follower.Status(); st.State != StateDone {
		t.Fatalf("follower state = %q (err %q), want done", st.State, st.Error)
	}
	lres, err := leader.Result()
	if err != nil {
		t.Fatal(err)
	}
	fres, err := follower.Result()
	if err != nil {
		t.Fatal(err)
	}
	if lres.Fingerprint != fres.Fingerprint {
		t.Fatalf("follower fingerprint %s != leader %s", fres.Fingerprint, lres.Fingerprint)
	}
	if got := mgr.Metrics().Counter(MetricJobsDeduped).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricJobsDeduped, got)
	}

	// The singleflight window closes when the leader finishes: a third
	// identical submission recomputes (or is repo-served — no repo here).
	third, err := mgr.Submit(dedupSpec("singleflight"))
	if err != nil {
		t.Fatal(err)
	}
	if third.Status().Deduped {
		t.Fatal("submission after leader finished must not attach to it")
	}
	waitJob(t, third)
	tres, err := third.Result()
	if err != nil {
		t.Fatal(err)
	}
	if tres.Fingerprint != lres.Fingerprint {
		t.Fatalf("recomputed fingerprint %s != original %s", tres.Fingerprint, lres.Fingerprint)
	}
}

// TestDedupDefaultsSpelledOut submits the same run twice, once with
// TopX left to its default and once with the default spelled out. Both
// are one run, so the second must attach to the first in flight.
func TestDedupDefaultsSpelledOut(t *testing.T) {
	mgr := newTestManager(t, Config{Gate: NewGate(4)})
	leader, err := mgr.Submit(JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 60, TopX: 50, Seed: "eq"})
	if err != nil {
		t.Fatal(err)
	}
	follower, err := mgr.Submit(JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 60, Seed: "eq"})
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Status().Deduped {
		t.Fatal("the default spelled out is the same run; the second submission should have deduped")
	}
	waitJob(t, leader)
	waitJob(t, follower)
	lres, err := leader.Result()
	if err != nil {
		t.Fatal(err)
	}
	fres, err := follower.Result()
	if err != nil {
		t.Fatal(err)
	}
	if lres.Fingerprint != "a1dbd62140d31f62" || fres.Fingerprint != lres.Fingerprint {
		t.Fatalf("fingerprints leader %s follower %s, want both a1dbd62140d31f62", lres.Fingerprint, fres.Fingerprint)
	}
}

// TestDedupFollowerCancelIndependent cancels a deduped follower and
// checks the leader keeps running to completion.
func TestDedupFollowerCancelIndependent(t *testing.T) {
	mgr := newTestManager(t, Config{Gate: NewGate(4)})

	leader, err := mgr.Submit(dedupSpec("follower-cancel"))
	if err != nil {
		t.Fatal(err)
	}
	follower, err := mgr.Submit(dedupSpec("follower-cancel"))
	if err != nil {
		t.Fatal(err)
	}
	if !follower.Status().Deduped {
		t.Fatal("second submission should have deduped")
	}
	if _, err := mgr.Cancel(follower.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, follower)
	if st := follower.Status(); st.State != StateCancelled {
		t.Fatalf("cancelled follower state = %q, want cancelled", st.State)
	}
	waitJob(t, leader)
	if st := leader.Status(); st.State != StateDone {
		t.Fatalf("leader state = %q (err %q), want done despite follower cancel", st.State, st.Error)
	}
}

// TestDedupRequiresSeed checks that unseeded and resume submissions are
// never deduplicated: an unseeded spec's seed defaults to the job ID, so
// each submission is a distinct run by construction.
func TestDedupRequiresSeed(t *testing.T) {
	mgr := newTestManager(t, Config{Gate: NewGate(4)})
	spec := dedupSpec("")
	a, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Status().Deduped || b.Status().Deduped {
		t.Fatal("unseeded submissions must not dedup")
	}
	waitJob(t, a)
	waitJob(t, b)
	if got := mgr.Metrics().Counter(MetricJobsDeduped).Value(); got != 0 {
		t.Fatalf("%s = %d, want 0", MetricJobsDeduped, got)
	}
}

// TestRepoServedAcrossRestart runs a seeded job against a results
// repository, then simulates a daemon restart by building a fresh
// manager over the same repository directory: resubmitting the identical
// spec must complete from the repository in one lookup, bit-identical to
// the original run.
func TestRepoServedAcrossRestart(t *testing.T) {
	repoDir := t.TempDir()
	repo1, err := funcytuner.OpenResultRepo(repoDir)
	if err != nil {
		t.Fatal(err)
	}
	mgr1 := newTestManager(t, Config{Gate: NewGate(4), Repo: repo1, SkipExist: true})
	spec := dedupSpec("restart-warm")

	first, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, first)
	if st := first.Status(); st.State != StateDone || st.ServedFromRepo {
		t.Fatalf("first run: state %q served %v, want done and computed", st.State, st.ServedFromRepo)
	}
	fres, err := first.Result()
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a new manager and a new repo handle over the same dir.
	repo2, err := funcytuner.OpenResultRepo(repoDir)
	if err != nil {
		t.Fatal(err)
	}
	mgr2 := newTestManager(t, Config{Gate: NewGate(4), Repo: repo2, SkipExist: true})
	second, err := mgr2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, second)
	st := second.Status()
	if st.State != StateDone {
		t.Fatalf("resubmission state = %q (err %q), want done", st.State, st.Error)
	}
	if !st.ServedFromRepo {
		t.Fatal("resubmission after restart should have been served from the repository")
	}
	sres, err := second.Result()
	if err != nil {
		t.Fatal(err)
	}
	if sres.Fingerprint != fres.Fingerprint {
		t.Fatalf("served fingerprint %s != computed %s", sres.Fingerprint, fres.Fingerprint)
	}
	if got := mgr2.Metrics().Counter(MetricJobsServedRepo).Value(); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricJobsServedRepo, got)
	}

	// /metrics exposes the repository counters when one is configured.
	ts := httptest.NewServer(NewServer(mgr2))
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mv := decode[map[string]any](t, resp)
	if _, ok := mv["repo"]; !ok {
		t.Fatalf("/metrics missing repo section: %v", mv)
	}
}

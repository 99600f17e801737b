package server

import (
	"net/http"
	"net/http/httptest"
	"testing"

	"funcytuner"
)

// TestTechniqueSpecValidation covers the technique/warm-start spec
// surface: bad combinations must be rejected at submit time with 400,
// never discovered mid-run.
func TestTechniqueSpecValidation(t *testing.T) {
	mgr := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	base := JobSpec{Benchmark: "CL", Machine: "broadwell", Samples: 10, TopX: 4, Seed: "tv"}
	bad := []func(s *JobSpec){
		func(s *JobSpec) { s.Technique = "tabu" },
		func(s *JobSpec) { s.Technique = "ga"; s.Compare = true },
		func(s *JobSpec) { s.WarmStart = true },                      // no technique
		func(s *JobSpec) { s.Technique = "cfr"; s.WarmStart = true }, // CFR cannot warm-start
		func(s *JobSpec) { s.Technique = "bo"; s.WarmStart = true },  // no repository configured
	}
	for i, mut := range bad {
		spec := base
		mut(&spec)
		resp := postJSON(t, ts.URL+"/jobs", spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("bad spec %d (%+v): got %d, want 400", i, spec, resp.StatusCode)
		}
	}

	// Explicit cfr (without warm-start) is just the default spelled out.
	spec := base
	spec.Technique = "cfr"
	resp := postJSON(t, ts.URL+"/jobs", spec)
	st := decode[Status](t, resp)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("explicit cfr: got %d, want 202", resp.StatusCode)
	}
	if j, ok := mgr.Get(st.ID); ok {
		waitJob(t, j)
	}
}

// TestTechniqueJobsComplete runs one BO and one GA job, and one adaptive
// BO job, to completion through the service and checks the result
// carries the technique's algorithm label.
func TestTechniqueJobsComplete(t *testing.T) {
	mgr := newTestManager(t, Config{})
	ts := httptest.NewServer(NewServer(mgr))
	defer ts.Close()

	for _, tc := range []struct {
		tech     string
		adaptive bool
		algo     string
	}{{"bo", false, "BO"}, {"ga", false, "GA"}, {"bo", true, "BO.adaptive"}} {
		spec := JobSpec{
			Benchmark: "swim", Machine: "sandybridge", Samples: 25, TopX: 5,
			Seed: "tech-job", Technique: tc.tech, Adaptive: tc.adaptive,
		}
		resp := postJSON(t, ts.URL+"/jobs", spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: submit got %d", tc.algo, resp.StatusCode)
		}
		st := decode[Status](t, resp)
		j, ok := mgr.Get(st.ID)
		if !ok {
			t.Fatalf("%s: job missing", tc.algo)
		}
		waitJob(t, j)

		resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		res := decode[Result](t, resp)
		if res.Algorithm != tc.algo {
			t.Fatalf("%s: result algorithm %q", tc.algo, res.Algorithm)
		}
		if len(res.Fingerprint) != 16 || res.Speedup <= 0 {
			t.Fatalf("%s: result = %+v", tc.algo, res)
		}
	}
}

// TestDefaultTechniqueApplied checks the daemon-level default: specs
// that leave Technique empty inherit it, while adaptive/compare jobs are
// exempt: defaults apply only to plain tune jobs.
func TestDefaultTechniqueApplied(t *testing.T) {
	mgr := newTestManager(t, Config{DefaultTechnique: "ga"})

	j, err := mgr.Submit(JobSpec{Benchmark: "swim", Machine: "sandybridge", Samples: 15, TopX: 4, Seed: "dflt"})
	if err != nil {
		t.Fatal(err)
	}
	if j.Spec.Technique != "ga" {
		t.Fatalf("Spec.Technique = %q, want the default ga", j.Spec.Technique)
	}
	waitJob(t, j)

	adaptive, err := mgr.Submit(JobSpec{Benchmark: "swim", Machine: "sandybridge", Samples: 15, TopX: 4, Seed: "dflt-a", Adaptive: true})
	if err != nil {
		t.Fatalf("adaptive submit under a technique default: %v", err)
	}
	if adaptive.Spec.Technique != "" {
		t.Fatalf("adaptive job inherited technique %q", adaptive.Spec.Technique)
	}
	waitJob(t, adaptive)

	explicit, err := mgr.Submit(JobSpec{Benchmark: "swim", Machine: "sandybridge", Samples: 15, TopX: 4, Seed: "dflt-e", Technique: "cfr"})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Spec.Technique != "cfr" {
		t.Fatalf("explicit cfr overridden to %q", explicit.Spec.Technique)
	}
	waitJob(t, explicit)
}

// TestDefaultWarmStartApplied checks the daemon-level warm-start
// default: it applies exactly where a warm start is legal, a plain tune
// job whose technique is bo or ga, and leaves every other job cold.
func TestDefaultWarmStartApplied(t *testing.T) {
	repo, err := funcytuner.OpenResultRepo(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	mgr := newTestManager(t, Config{Repo: repo, DefaultTechnique: "bo", DefaultWarmStart: true})
	base := JobSpec{Benchmark: "swim", Machine: "sandybridge", Samples: 15, TopX: 4, Seed: "dflt-warm"}
	for _, tc := range []struct {
		name     string
		mut      func(*JobSpec)
		wantWarm bool
	}{
		{"defaulted-bo", func(s *JobSpec) {}, true},
		{"explicit-ga", func(s *JobSpec) { s.Technique = "ga" }, true},
		{"explicit-cfr", func(s *JobSpec) { s.Technique = "cfr" }, false},
		{"adaptive-ga", func(s *JobSpec) { s.Technique = "ga"; s.Adaptive = true }, false},
		{"compare", func(s *JobSpec) { s.Compare = true }, false},
	} {
		spec := base
		spec.Seed += "-" + tc.name
		tc.mut(&spec)
		j, err := mgr.Submit(spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if j.Spec.WarmStart != tc.wantWarm {
			t.Errorf("%s: WarmStart = %v, want %v", tc.name, j.Spec.WarmStart, tc.wantWarm)
		}
		waitJob(t, j)
		if st := j.Status(); st.State != StateDone {
			t.Errorf("%s: state %q (err %q), want done", tc.name, st.State, st.Error)
		}
	}
}

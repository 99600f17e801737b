package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWorkloadsTinyScale runs every workload at K=40 on two corpus
// pairs, untraced and traced, with full verification.
func TestWorkloadsTinyScale(t *testing.T) {
	spans := filepath.Join(t.TempDir(), "spans.jsonl")
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, options{
				seed: 7, rounds: 1, traced: traced, spans: spans,
				pairs: 2, samples: 40, topx: 8,
				workDir: t.TempDir(),
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			names := endToEnd
			if traced {
				names = perLayer
			}
			if len(res.Metrics) != len(names) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(names))
			}
			for _, m := range names {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", w.name, traced, m.name, v)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, res.Metrics[m.name].Value)
					}
				}
			}
		}
	}
	f, err := os.Open(spans)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("spans: %v", err)
		}
		if s.End < s.Start || s.ID == 0 {
			t.Fatalf("bad span %+v", s)
		}
		seen[s.Workload+"/"+s.Name] = true
	}
	for _, want := range []string{"local-cfr/job", "local-cfr/http.submit", "fleet-journal/rpc.claimbatch", "repo-rerun/client.result"} {
		if !seen[want] {
			t.Errorf("no %s span", want)
		}
	}
}

// TestAllJobsFailStillReports checks that a run in which every job fails
// (here, every result disagrees with the committed one) still yields an
// output line: correct=false, every job counted failed, every metric
// finite so the line marshals.
func TestAllJobsFailStillReports(t *testing.T) {
	for _, w := range workloads {
		p := newPlan(w, 7, 2, 40, 8)
		wrong := map[string]expected{}
		specs := p.primed()
		// A traced run of one round times rounds 0 and 1.
		for _, j := range append(p.round(0), p.round(1)...) {
			specs = append(specs, j.spec)
		}
		for _, sp := range specs {
			wrong[specKey(sp)] = expected{Fingerprint: "0000000000000000"}
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, options{
				seed: 7, rounds: 1, traced: traced,
				pairs: 2, samples: 40, topx: 8,
				workDir: t.TempDir(), expected: wrong,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d, want every job failed", w.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatalf("%s traced=%v: result does not marshal: %v", w.name, traced, err)
			}
			var back result
			if err := json.Unmarshal(line, &back); err != nil || back.Correct || back.Failed != res.Failed {
				t.Errorf("%s traced=%v: line %s reads back as %+v (%v)", w.name, traced, line, back, err)
			}
		}
	}
}

// TestBenchmarkJSON checks BENCHMARK.json against the metrics the
// benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better, Why string
		Bound                   *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []entry
		EndToEnd   []entry `json:"end_to_end"`
		PerLayer   []entry `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d = %+v, want %s: %s", i, b.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []entry, want []struct{ name, unit string }, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || (g.Better != "higher" && g.Better != "lower") || (g.Bound != nil) != bounded {
				t.Errorf("%s %d = %+v, want %s in %s", kind, i, g, m.name, m.unit)
			}
			if bounded && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: bound %v out of (0, 0.25]", g.Name, *g.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" {
			for _, o := range b.EndToEnd {
				if *o.Bound > *m.Bound {
					t.Errorf("setup_s bound %v is not the largest (%s: %v)", *m.Bound, o.Name, *o.Bound)
				}
			}
		}
	}
}

// TestExpectedCoversDefaultRuns checks that the committed seed-1 results
// name every spec a default-length run submits, so they stay in step
// with the job generator.
func TestExpectedCoversDefaultRuns(t *testing.T) {
	exp, err := loadExpected(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		p := newPlan(w, 1, 0, 0, 0)
		specs := p.primed()
		for r := 0; r < max(w.rounds(defaultSeconds), 2*w.rounds(defaultSeconds/2)); r++ {
			for _, j := range p.round(r) {
				specs = append(specs, j.spec)
			}
		}
		for _, sp := range specs {
			if _, ok := exp[specKey(sp)]; !ok {
				t.Fatalf("%s: expected/seed-1.json has no %s; regenerate it with `expect -seed 1`", w.name, specKey(sp))
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4) ==
	// [2.75, 5.5, 8.25]; with [3, 1, 2]: [1.0, 2.0, 3.0].
	for _, c := range []struct {
		vs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(c.vs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.vs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		head   []float64
		higher bool
		want   string
	}{
		{"same", []float64{100, 99, 101, 100, 98, 102, 100, 99, 101, 100}, true, "no worse"},
		{"faster", []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, true, "improved"},
		{"slower", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, true, "regressed"},
		{"slower but within bound", []float64{95, 96, 94, 95, 97, 93, 95, 96, 94, 95}, true, "no worse"},
		{"lower is better", []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, false, "improved"},
	} {
		if got := judge(base, c.head, c.higher, 0.1).verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if got := judge(noisy, noisy, true, 0.1).verdict; got != "unresolved" {
		t.Errorf("noisy: %s, want unresolved", got)
	}
}

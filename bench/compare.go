package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkSpec is the part of BENCHMARK.json compare reads: each
// end-to-end metric's direction and regression bound.
type benchmarkSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain prints, for each workload and end-to-end metric, both
// sides' median and quartiles, the head's win fraction over paired runs
// and a verdict. Runs pair in the order given (base i with head i).
// The exit status is non-zero when anything regressed.
func compareMain(args []string, stdout io.Writer) error {
	var base, head []string
	spec := "BENCHMARK.json"
	var cur *[]string
	for i := 0; i < len(args); i++ {
		switch a := args[i]; a {
		case "-base", "--base":
			cur = &base
		case "-head", "--head":
			cur = &head
		case "-benchmark", "--benchmark":
			if i+1 == len(args) {
				return fmt.Errorf("-benchmark needs a path")
			}
			i++
			spec, cur = args[i], nil
		default:
			if cur == nil || strings.HasPrefix(a, "-") {
				return fmt.Errorf("usage: compare -base FILE... -head FILE... [-benchmark BENCHMARK.json]")
			}
			matches, err := filepath.Glob(a)
			if err != nil || len(matches) == 0 {
				matches = []string{a}
			}
			*cur = append(*cur, matches...)
		}
	}
	if len(base) == 0 || len(head) == 0 {
		return fmt.Errorf("usage: compare -base FILE... -head FILE... [-benchmark BENCHMARK.json]")
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		return err
	}
	var bs benchmarkSpec
	if err := json.Unmarshal(data, &bs); err != nil {
		return fmt.Errorf("%s: %w", spec, err)
	}
	b, err := loadRecords(base)
	if err != nil {
		return err
	}
	h, err := loadRecords(head)
	if err != nil {
		return err
	}
	regressed := 0
	fmt.Fprintf(stdout, "%-14s %-20s %-34s %-34s %5s  %s\n", "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "win", "verdict")
	for _, w := range workloads {
		bw, hw := b[w.name], h[w.name]
		if len(bw) == 0 || len(hw) == 0 {
			continue
		}
		for _, m := range bs.EndToEnd {
			bv, hv := column(bw, m.Name), column(hw, m.Name)
			c := judge(bv, hv, m.Better == "higher", m.Bound)
			if c.verdict == "regressed" {
				regressed++
			}
			fmt.Fprintf(stdout, "%-14s %-20s %-34s %-34s %5.2f  %s\n", w.name, m.Name,
				summary(bv), summary(hv), c.win, c.verdict)
		}
		// A gain does not count when more jobs fail than at the base.
		bf, hf := failures(bw), failures(hw)
		verdict := "no worse"
		if hf > bf {
			verdict, regressed = "regressed", regressed+1
		}
		fmt.Fprintf(stdout, "%-14s %-20s %-34d %-34d %5s  %s\n", w.name, "failed (total)", bf, hf, "", verdict)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metric(s) regressed", regressed)
	}
	return nil
}

// loadRecords reads -o files and groups their results by workload, in
// file order.
func loadRecords(paths []string) (map[string][]result, error) {
	out := map[string][]result{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		names := make([]string, 0, len(rec.Results))
		for name := range rec.Results {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			out[name] = append(out[name], rec.Results[name])
		}
	}
	return out, nil
}

func column(rs []result, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failures(rs []result) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func summary(vs []float64) string {
	q1, q3 := quartiles(vs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(vs), q1, q3)
}

type judgement struct {
	win     float64
	verdict string
}

// judge applies the choosing-metrics rule. A gain needs the head to win
// at least nine tenths of the paired runs (ties count for neither) and
// the medians to differ by more than the base's own quartile spread.
// Where the spread, as a share of the base median, is wider than the
// bound, the metric is unresolved unless every head run beats every base
// run. Otherwise the head regressed if its median is worse by more than
// the bound, and is no worse if not.
func judge(base, head []float64, higher bool, bound float64) judgement {
	better := func(x, y float64) bool {
		if higher {
			return x > y
		}
		return x < y
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	j := judgement{win: ratio(float64(wins), float64(pairs))}
	mb, mh := median(base), median(head)
	q1, q3 := quartiles(base)
	spread := q3 - q1
	worse := ratio(mh-mb, math.Abs(mb))
	if higher {
		worse = -worse
	}
	allBetter := true
	for _, hv := range head {
		for _, bv := range base {
			allBetter = allBetter && better(hv, bv)
		}
	}
	switch {
	case j.win >= 0.9 && math.Abs(mh-mb) > spread && better(mh, mb):
		j.verdict = "improved"
	case ratio(spread, math.Abs(mb)) > bound && !allBetter:
		j.verdict = "unresolved"
	case worse > bound:
		j.verdict = "regressed"
	default:
		j.verdict = "no worse"
	}
	return j
}

// Command bench is funcytuner's end-to-end benchmark. It submits seeded
// tuning jobs over loopback HTTP to an in-process funcytunerd (the
// server.Manager and handler the daemon mounts; a journaled fleet
// coordinator and two workers for distributed jobs), times each job from
// POST /jobs to its result, checks every result's fingerprint, and
// prints the end-to-end metrics by name and unit. A -trace run reports
// per-layer metrics instead, measured from outside the program.
//
// Usage, from the repository root:
//
//	bash bench/run.sh -seed 1                  # all workloads, one child process each
//	bash bench/run.sh -workload local-cfr -seed 2 -seconds 20 -trace 1
//	bash bench/run.sh compare -base a/*.json -head b/*.json
//	bash bench/run.sh expect -seed 1 > bench/expected/seed-1.json
//
// The last line of standard output is a JSON object with the keys
// correct, attempted, failed and metrics. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// buildDir holds everything the benchmark writes, relative to the
// directory it runs in.
const buildDir = ".bench_build"

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

func main() {
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "compare":
		err = compareMain(os.Args[2:], os.Stdout)
	case len(os.Args) > 1 && os.Args[1] == "expect":
		err = expectMain(os.Args[2:], os.Stdout)
	default:
		err = runMain(os.Args[1:], os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// record is what -o writes: one run's results by workload, the input of
// compare.
type record struct {
	Seed    uint64            `json:"seed"`
	Traced  bool              `json:"traced"`
	Results map[string]result `json:"results"`
}

func runMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload, each in a child process)")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", defaultSeconds, "nominal measured seconds per run: sets how many whole rounds each workload times")
	traceArg := fs.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics, spans written to "+buildDir+"/spans.jsonl; a path: per-layer metrics, spans appended to that file")
	out := fs.String("o", "", "also write the run's results to this JSON file (input of compare)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive, got %v", *seconds)
	}
	traced, spans := false, ""
	switch *traceArg {
	case "0", "false", "":
	case "1", "true":
		traced, spans = true, filepath.Join(buildDir, "spans.jsonl")
		if err := os.MkdirAll(buildDir, 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(spans, nil, 0o644); err != nil {
			return err
		}
	default:
		traced, spans = true, *traceArg
	}
	rec := record{Seed: *seed, Traced: traced, Results: map[string]result{}}
	var last result
	if *name == "" {
		start := time.Now()
		last = result{Correct: true, Metrics: map[string]metric{}}
		for _, w := range workloads {
			res, err := runChild(w.name, *seed, *seconds, spans, stdout)
			if err != nil {
				// A workload that printed no result (its set-up or warm-up
				// failed) counts as one failed attempt, and the other
				// workloads still run.
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
				res = result{Attempted: 1, Failed: 1, Metrics: map[string]metric{}}
			}
			rec.Results[w.name] = res
			last.Correct = last.Correct && res.Correct
			last.Attempted += res.Attempted
			last.Failed += res.Failed
			for m, v := range res.Metrics {
				last.Metrics[w.name+"."+m] = v
			}
		}
		fmt.Fprintf(stdout, "bench: %d workloads, seed %d, %.1f s wall, correct=%v\n", len(workloads), *seed, time.Since(start).Seconds(), last.Correct)
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		expected, err := loadExpected(*seed)
		if err != nil {
			return err
		}
		workDir := filepath.Join(buildDir, "work", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
		defer os.RemoveAll(workDir)
		start := time.Now()
		rounds := w.rounds(*seconds)
		if traced {
			rounds = w.rounds(*seconds / 2)
		}
		last, err = runWorkload(w, options{
			seed: *seed, rounds: rounds, traced: traced, spans: spans,
			workDir: workDir, expected: expected,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "bench: workload %s, seed %d, traced=%v: %d jobs, %d failed, %.1f s wall\n",
			w.name, *seed, traced, last.Attempted, last.Failed, time.Since(start).Seconds())
		printMetrics(stdout, last)
		rec.Results[w.name] = last
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(last)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if !last.Correct {
		return fmt.Errorf("results are not correct")
	}
	return nil
}

// runChild runs one workload in its own process, so memory and GC state
// do not leak between workloads, and returns its result line.
func runChild(name string, seed uint64, seconds float64, spans string, stdout io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	traceArg := "0"
	if spans != "" {
		traceArg = spans
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", traceArg)
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(stdout, &buf)
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return result{}, fmt.Errorf("child: %v (exit: %v)", err, runErr)
	}
	if runErr != nil && res.Correct {
		return result{}, runErr
	}
	return res, nil
}

// printMetrics lists the result's metrics in table order, by name and
// unit.
func printMetrics(w io.Writer, res result) {
	names := endToEnd
	if _, ok := res.Metrics[endToEnd[0].name]; !ok {
		names = perLayer
	}
	for _, m := range names {
		v := res.Metrics[m.name]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, v.Value, v.Unit)
	}
	if _, ok := res.Metrics["breakdown.residual_frac"]; ok {
		var parts []string
		sum := 0.0
		for _, p := range breakdownParts {
			d := res.Metrics["breakdown."+p+"_ms"].Value
			sum += d
			parts = append(parts, fmt.Sprintf("%s %.1f", p, d))
		}
		r := res.Metrics["breakdown.residual_frac"].Value
		fmt.Fprintf(w, "  mean job latency %.1f ms = %s (sum %.1f ms, residual %+.2f%%)\n",
			sum/(1-r), strings.Join(parts, " + "), sum, 100*r)
	}
}

func expectMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("expect", flag.ContinueOnError)
	seed := fs.Uint64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := expectAll(*seed)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, string(data))
	return err
}

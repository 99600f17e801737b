package funcytuner

import (
	"strings"
	"testing"

	"funcytuner/internal/xrand"
)

// TestCFRGoldenFingerprints pins the default-technique (CFR) pipeline to
// fingerprints and canonical-trace hashes captured before the search side
// of internal/core was refactored behind the suggest/observe technique
// interface. CFR runs through the generic driver now; these goldens prove
// the refactor — and any future technique work — is byte-invisible to CFR
// users: same Report.Fingerprint, same canonical trace, same best time.
// The adaptive trace hash and the compare case (Random, FR, G and CFR)
// were pinned before early stopping, Random and FR moved onto that
// driver.
func TestCFRGoldenFingerprints(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name         string
		app, machine string
		samples      int
		topx         int
		seed         string
		faults       bool
		rule         StopRule // non-zero: TuneAdaptive under this rule
		compare      bool
		fingerprint  uint64
		traceHash    uint64
		best         float64
	}{
		{
			name: "clean", app: CloverLeaf, machine: "broadwell",
			samples: 120, topx: 12, seed: "technique-golden",
			fingerprint: 0xac88b78148fd0816,
			traceHash:   0x4c0fc30c6d28cb51,
			best:        19.093228197221265,
		},
		{
			name: "faulted", app: Swim, machine: "sandybridge",
			samples: 60, topx: 10, seed: "technique-golden-faults", faults: true,
			fingerprint: 0x6f2761ed5569f99d,
			traceHash:   0x6546c3ceea4b6fb5,
			best:        11.554418986977778,
		},
		{
			name: "adaptive", app: CloverLeaf, machine: "broadwell",
			samples: 120, topx: 12, seed: "technique-golden", rule: DefaultStopRule(),
			fingerprint: 0x94f5505fbc86957a,
			traceHash:   0x4c0fc30c6d28cb51,
		},
		{
			name: "adaptive-early", app: CloverLeaf, machine: "broadwell",
			samples: 120, topx: 12, seed: "technique-golden", faults: true,
			rule:        StopRule{MinEvaluations: 20, Patience: 25},
			fingerprint: 0xf2b6c70ae694ab11,
			traceHash:   0xad86e508d17731f7,
			best:        18.391845812009002,
		},
		{
			name: "compare", app: CloverLeaf, machine: "broadwell",
			samples: 120, topx: 12, seed: "technique-golden", compare: true,
			fingerprint: 0xe9eda8ff5ac44e5a,
			traceHash:   0x821369599f4dbed,
			best:        19.093228197221265,
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			prog, err := Benchmark(c.app)
			if err != nil {
				t.Fatal(err)
			}
			m, err := MachineByName(c.machine)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{Machine: m, Samples: c.samples, TopX: c.topx, Seed: c.seed}
			if c.faults {
				opts.Faults = DefaultFaultRates()
			}
			rec := NewTraceRecorder()
			opts.Trace = rec
			in := TuningInput(c.app, m)
			var rep *Report
			switch {
			case c.rule != StopRule{}:
				rep, err = NewTuner(opts).TuneAdaptive(prog, in, c.rule)
			case c.compare:
				rep, err = NewTuner(opts).Compare(prog, in)
			default:
				rep, err = NewTuner(opts).Tune(prog, in)
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := rep.Fingerprint(); got != c.fingerprint {
				t.Errorf("fingerprint = %#x, want pre-refactor %#x", got, c.fingerprint)
			}
			if c.best != 0 && rep.Best.BestMeasured != c.best {
				t.Errorf("Best.BestMeasured = %v, want %v", rep.Best.BestMeasured, c.best)
			}
			var sb strings.Builder
			if err := rec.Snapshot().Canonical().WriteJSONL(&sb); err != nil {
				t.Fatal(err)
			}
			if got := xrand.HashString(sb.String()); got != c.traceHash {
				t.Errorf("canonical trace hash = %#x, want pre-refactor %#x", got, c.traceHash)
			}
		})
	}
}

package funcytuner

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/search"
)

func TestBaselineFacades(t *testing.T) {
	m, _ := MachineByName("broadwell")
	tuner := NewTuner(Options{Machine: m, Samples: 150, TopX: 15, Seed: "facade-baselines"})
	prog, _ := Benchmark(Swim)
	in := TuningInput(Swim, m)

	ot, err := tuner.TuneOpenTuner(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if ot.Name != "OpenTuner" || ot.Speedup <= 0 {
		t.Errorf("OpenTuner result: %+v", ot)
	}

	pgoRes, err := tuner.TunePGO(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if pgoRes.Failed {
		t.Error("swim PGO should not fail")
	}
	failing, _ := Benchmark(LULESH)
	pgoFail, err := tuner.TunePGO(failing, TuningInput(LULESH, m))
	if err != nil {
		t.Fatal(err)
	}
	if !pgoFail.Failed || pgoFail.Speedup != 1.0 {
		t.Error("LULESH PGO should fail and fall back to O3")
	}

	// A traced run records every evaluation under the baseline's phase.
	rec := NewTraceRecorder()
	traced := NewTuner(Options{Machine: m, Samples: 150, TopX: 15, Seed: "facade-baselines", Trace: rec})
	ceRes, err := traced.TuneCE(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if ceRes.Speedup < 0.85 || ceRes.Speedup > 1.12 {
		t.Errorf("CE speedup %.3f outside the Fig. 1 band", ceRes.Speedup)
	}
	evals := 0
	for _, e := range rec.Snapshot().Events {
		if e.Kind == "eval" && e.Phase == "ce" {
			evals++
		}
	}
	if evals != ceRes.Evaluations {
		t.Errorf("trace holds %d CE evaluations, result counts %d", evals, ceRes.Evaluations)
	}
}

// repeat is a technique that suggests one CV for every evaluation.
type repeat struct{ cv CV }

func (repeat) Name() string  { return "Repeat" }
func (repeat) Phase() string { return "repeat" }

func (r repeat) Suggest(n int) [][]CV {
	out := make([][]CV, n)
	for i := range out {
		out[i] = []CV{r.cv}
	}
	return out
}

func (repeat) Observe(int, []CV, float64) {}

// A baseline run whose every evaluated CV crashes answers the argmin CV
// with TrueTime +Inf, as CFR does for an all-crash search, instead of
// panicking.
func TestBaselineAllCrash(t *testing.T) {
	m, _ := MachineByName("broadwell")
	prog, _ := Benchmark(Swim)
	in := TuningInput(Swim, m)
	crash := compiler.CrashProbe(ICCSpace(), prog.Seed, m.ID, 50000)
	if crash.IsZero() {
		t.Fatal("no crashing CV found")
	}
	tuner := NewTuner(Options{Machine: m, Samples: 6, TopX: 1, Seed: "all-crash"})
	res, err := tuner.baseline(prog, in, func(*core.Session) (search.Technique, error) {
		return repeat{crash}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.CV.Equal(crash) || !math.IsInf(res.TrueTime, 1) || res.Speedup != 0 || res.Evaluations != 6 {
		t.Errorf("all-crash run answered %+v; want the crashing CV, TrueTime +Inf, speedup 0, 6 evaluations", res)
	}
	// One-evaluation OpenTuner runs whose one CV crashed under the old
	// evaluator, which then compiled the zero CV.
	for _, c := range []struct{ app, seed string }{
		{Swim, "s40"}, {LULESH, "s298"}, {CloverLeaf, "s179"}, {CloverLeaf, "s191"}, {Bwaves, "s202"},
	} {
		p, _ := Benchmark(c.app)
		tuner := NewTuner(Options{Machine: m, Samples: 1, TopX: 1, Seed: c.seed})
		if _, err := tuner.TuneOpenTuner(p, TuningInput(c.app, m)); err != nil {
			t.Errorf("%s/%s: %v", c.app, c.seed, err)
		}
	}
}

func TestCOBAYNFacadeTrainSaveLoadInfer(t *testing.T) {
	m, _ := MachineByName("broadwell")
	tuner := NewTuner(Options{Machine: m, Samples: 80, TopX: 10, Seed: "facade-cobayn"})
	model, err := tuner.TrainCOBAYN(5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := tuner.LoadCOBAYN(&buf)
	if err != nil {
		t.Fatal(err)
	}
	prog, _ := Benchmark(CloverLeaf)
	in := TuningInput(CloverLeaf, m)
	res, err := tuner.TuneCOBAYN(loaded.WithKind(COBAYNStatic), prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "COBAYN-static" || res.Speedup <= 0 {
		t.Errorf("COBAYN result: %+v", res)
	}
	if _, err := tuner.TuneCOBAYN(nil, prog, in); err == nil {
		t.Error("nil model accepted")
	}
}

// A COBAYN model draws CVs of the flag space it was trained on, so a
// tuner of another space refuses it, whether it was loaded or handed
// over in memory.
func TestCOBAYNRejectsAnotherFlagSpace(t *testing.T) {
	m, _ := MachineByName("broadwell")
	gcc := NewTuner(Options{Machine: m, Samples: 20, TopX: 4, Seed: "facade-cobayn-gcc", Space: GCCSpace()})
	model, err := gcc.TrainCOBAYN(3)
	if err != nil {
		t.Fatal(err)
	}
	icc := NewTuner(Options{Machine: m, Samples: 20, TopX: 4, Seed: "facade-cobayn-gcc"})
	prog, _ := Benchmark(Swim)
	res, err := icc.TuneCOBAYN(model, prog, TuningInput(Swim, m))
	if err == nil {
		t.Fatalf("an ICC tuner ran a GCC-trained model: %+v", res)
	}
	for _, flavor := range []string{`"gcc"`, `"icc"`} {
		if !strings.Contains(err.Error(), flavor) {
			t.Errorf("error %q does not name flavor %s", err, flavor)
		}
	}
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := icc.LoadCOBAYN(&buf); err == nil {
		t.Error("an ICC tuner loaded a GCC-trained model")
	}
}

func TestExplainFacade(t *testing.T) {
	m, _ := MachineByName("broadwell")
	tuner := NewTuner(Options{Machine: m, Samples: 200, TopX: 20, Seed: "facade-explain"})
	prog, _ := Benchmark(CloverLeaf)
	in := TuningInput(CloverLeaf, m)
	rep, err := tuner.Tune(prog, in)
	if err != nil {
		t.Fatal(err)
	}

	attr, err := rep.Attribution()
	if err != nil {
		t.Fatal(err)
	}
	if len(attr) != rep.Modules {
		t.Fatalf("%d attributions for %d modules", len(attr), rep.Modules)
	}
	helpful := 0
	for _, a := range attr {
		if a.Marginal <= 0 || math.IsNaN(a.Marginal) {
			t.Errorf("module %s marginal %v", a.Module, a.Marginal)
		}
		if a.Marginal > 1.005 {
			helpful++
		}
	}
	if helpful == 0 {
		t.Error("no module's tuned CV contributes anything")
	}

	// Critical flags for the hottest loop's module.
	hotModule := -1
	for mi := 0; mi < rep.Modules; mi++ {
		for _, li := range rep.ModuleLoops(mi) {
			if li == rep.HotLoops[0] {
				hotModule = mi
			}
		}
	}
	if hotModule < 0 {
		t.Fatal("hottest loop not found in any module")
	}
	flags, err := rep.CriticalFlags(hotModule)
	if err != nil {
		t.Fatal(err)
	}
	// The eliminated configuration must still be expressible: every
	// surviving flag renders as "-name=value".
	for _, f := range flags {
		if len(f) < 4 || f[0] != '-' {
			t.Errorf("malformed critical flag %q", f)
		}
	}
	if rep.ModuleName(hotModule) == "" {
		t.Error("empty module name")
	}
	if _, err := rep.CriticalFlags(999); err == nil {
		t.Error("out-of-range module accepted")
	}
}

package funcytuner

import (
	"bytes"
	"math"
	"testing"
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

	ceRes, err := tuner.TuneCE(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	if ceRes.Speedup < 0.85 || ceRes.Speedup > 1.12 {
		t.Errorf("CE speedup %.3f outside the Fig. 1 band", ceRes.Speedup)
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

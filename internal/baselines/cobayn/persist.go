package cobayn

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"funcytuner/internal/arch"
	"funcytuner/internal/compiler"
)

// Trained-model persistence. The paper puts COBAYN's tuning overhead at
// "1 week for each benchmark", dominated by the cBench characterization
// run — which is why a real deployment trains once and ships the model.
// The serialized form carries the corpus dataset (features + binarized
// top CVs); the Chow–Liu network is re-fit at inference, as in Infer.

type savedModel struct {
	Kind      string         `json:"kind"`
	Flavor    string         `json:"flavor"`
	Machine   string         `json:"machine"`
	Neighbors int            `json:"neighbors"`
	Corpus    []savedProgram `json:"corpus"`
	Mean      map[string][]float64
	Std       map[string][]float64
}

type savedProgram struct {
	Name     string               `json:"name"`
	Features map[string][]float64 `json:"features"`
	// TopCVs are bitstrings ("0110...") — one character per flag.
	TopCVs []string `json:"top_cvs"`
}

// Save serializes the trained model as JSON.
func (m *Model) Save(w io.Writer) error {
	sm := savedModel{
		Kind:      m.Kind.String(),
		Flavor:    m.tc.Space.Flavor.String(),
		Machine:   m.machine.Name,
		Neighbors: m.Neighbors,
		Mean:      map[string][]float64{},
		Std:       map[string][]float64{},
	}
	for k, v := range m.mean {
		sm.Mean[k.String()] = v
	}
	for k, v := range m.std {
		sm.Std[k.String()] = v
	}
	for _, tp := range m.corpus {
		sp := savedProgram{Name: tp.name, Features: map[string][]float64{}}
		for k, v := range tp.features {
			sp.Features[k.String()] = v
		}
		for _, bits := range tp.topCVs {
			var b strings.Builder
			for _, bit := range bits {
				if bit {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
			sp.TopCVs = append(sp.TopCVs, b.String())
		}
		sm.Corpus = append(sm.Corpus, sp)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(sm)
}

func kindFromString(s string) (Kind, error) {
	switch s {
	case "static":
		return Static, nil
	case "dynamic":
		return Dynamic, nil
	case "hybrid":
		return Hybrid, nil
	default:
		return 0, fmt.Errorf("cobayn: unknown kind %q", s)
	}
}

// Load deserializes a model saved by Save. The toolchain must use the
// same flag-space flavor the model was trained on.
func Load(r io.Reader, tc *compiler.Toolchain) (*Model, error) {
	var sm savedModel
	if err := json.NewDecoder(r).Decode(&sm); err != nil {
		return nil, fmt.Errorf("cobayn: decoding model: %w", err)
	}
	if got := tc.Space.Flavor.String(); got != sm.Flavor {
		return nil, fmt.Errorf("cobayn: model trained on %q, toolchain is %q", sm.Flavor, got)
	}
	kind, err := kindFromString(sm.Kind)
	if err != nil {
		return nil, err
	}
	machine, err := arch.ByName(sm.Machine)
	if err != nil {
		return nil, err
	}
	m := &Model{
		Kind:      kind,
		binarizer: NewBinarizer(tc.Space),
		tc:        tc,
		machine:   machine,
		mean:      map[Kind][]float64{},
		std:       map[Kind][]float64{},
		Neighbors: sm.Neighbors,
	}
	for ks, v := range sm.Mean {
		k, err := kindFromString(ks)
		if err != nil {
			return nil, err
		}
		m.mean[k] = v
	}
	for ks, v := range sm.Std {
		k, err := kindFromString(ks)
		if err != nil {
			return nil, err
		}
		m.std[k] = v
	}
	n := tc.Space.NumFlags()
	for _, sp := range sm.Corpus {
		tp := trainedProgram{name: sp.Name, features: map[Kind][]float64{}}
		for ks, v := range sp.Features {
			k, err := kindFromString(ks)
			if err != nil {
				return nil, err
			}
			tp.features[k] = v
		}
		for _, bitStr := range sp.TopCVs {
			if len(bitStr) != n {
				return nil, fmt.Errorf("cobayn: CV bitstring of %d bits, space has %d flags", len(bitStr), n)
			}
			bits := make([]bool, n)
			for i, c := range bitStr {
				switch c {
				case '1':
					bits[i] = true
				case '0':
				default:
					return nil, fmt.Errorf("cobayn: bad bitstring character %q", c)
				}
			}
			tp.topCVs = append(tp.topCVs, bits)
		}
		m.corpus = append(m.corpus, tp)
	}
	if len(m.corpus) == 0 {
		return nil, fmt.Errorf("cobayn: model has an empty corpus")
	}
	// Inference indexes every vector of the kinds it matches on up to
	// the extractor's dimension.
	for _, k := range kindsFor(kind) {
		dim := staticDim
		if k == Dynamic {
			dim = dynamicDim
		}
		if len(m.mean[k]) != dim || len(m.std[k]) != dim {
			return nil, fmt.Errorf("cobayn: %s normalization has %d means and %d stds, want %d",
				k, len(m.mean[k]), len(m.std[k]), dim)
		}
		for _, tp := range m.corpus {
			if len(tp.features[k]) != dim {
				return nil, fmt.Errorf("cobayn: corpus program %q has %d %s features, want %d",
					tp.name, len(tp.features[k]), k, dim)
			}
		}
	}
	return m, nil
}

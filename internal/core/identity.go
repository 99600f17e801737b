package core

import (
	"fmt"
	"reflect"
	"strings"

	"funcytuner/internal/arch"
	"funcytuner/internal/faults"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
	"funcytuner/internal/xrand"
)

// RunIdentity is everything that decides a tuning run's outcome. Two
// sessions over the same partition with equal identities measure the
// same evaluations and produce bit-identical results, so the checkpoint
// header stores it (with the module count) and accepts a resume only
// into an equal one, and the facade's repository key hashes it. Scheduling (workers, gates, caches, remote evaluation,
// tracing, pooling, the checkpoint cadence and the kill hook) is absent:
// the determinism suite proves it cannot change a result. The retry
// policy fields hold 0 where the configured value is the default, so a
// default spelled out is the same run as one left unset.
type RunIdentity struct {
	Program     string  `json:"program"`
	ProgramSeed uint64  `json:"program_seed"`
	Input       string  `json:"input"`
	InputSize   float64 `json:"input_size"`
	InputSteps  int     `json:"input_steps"`
	Machine     string  `json:"machine"`
	MachineID   uint64  `json:"machine_id"`
	// Flavor names the flag space ("icc", "gcc").
	Flavor  string `json:"flavor"`
	Seed    string `json:"seed"`
	Samples int    `json:"samples"`
	TopX    int    `json:"topx"`
	Noisy   bool   `json:"noisy"`

	Faults            faults.Rates `json:"faults"`
	MaxRetries        int          `json:"max_retries"`
	BackoffSeconds    float64      `json:"backoff_seconds"`
	BackoffCapSeconds float64      `json:"backoff_cap_seconds"`
	TimeoutBudget     float64      `json:"timeout_budget"`

	// Technique is the TechniqueTag of the configured technique.
	Technique string `json:"technique,omitempty"`
	// WarmDigest fingerprints the warm-start seeds (0 without any).
	WarmDigest uint64 `json:"warm_digest,omitempty"`
	// Stop is the early-stop rule as configured; zero for a full search.
	Stop StopRule `json:"stop"`
}

// NewRunIdentity is the identity of a session of cfg tuning prog on in
// on machine m over space. NewSession records it; the facade derives the
// same value before any session exists.
func NewRunIdentity(prog *ir.Program, m *arch.Machine, in ir.Input, space *flagspec.Space, cfg Config) RunIdentity {
	id := RunIdentity{
		Program: prog.Name, ProgramSeed: prog.Seed,
		Input: in.Name, InputSize: in.Size, InputSteps: in.Steps,
		Machine: m.Name, MachineID: m.ID,
		Flavor: space.Flavor.String(),
		Seed:   cfg.Seed, Samples: cfg.Samples, TopX: cfg.TopX, Noisy: cfg.Noisy,
		Faults:         cfg.Faults,
		MaxRetries:     cfg.MaxRetries,
		BackoffSeconds: cfg.BackoffSeconds, BackoffCapSeconds: cfg.BackoffCapSeconds,
		TimeoutBudget: cfg.TimeoutBudget,
		Technique:     TechniqueTag(cfg.Technique),
	}
	if id.MaxRetries == DefaultMaxRetries {
		id.MaxRetries = 0
	}
	if id.BackoffSeconds == DefaultBackoffSeconds {
		id.BackoffSeconds = 0
	}
	if id.BackoffCapSeconds == DefaultBackoffCapSeconds {
		id.BackoffCapSeconds = 0
	}
	if len(cfg.WarmSeeds) > 0 {
		var h xrand.Hasher
		h.Add(xrand.HashString("funcytuner/warm-start"))
		for _, seed := range cfg.WarmSeeds {
			h.Add(uint64(len(seed)))
			for _, cv := range seed {
				h.Add(cv.Key())
			}
		}
		id.WarmDigest = h.Sum()
	}
	if cfg.Stop != nil {
		id.Stop = *cfg.Stop
	}
	return id
}

// mismatchError names the first field, by its JSON name, in which a
// checkpoint's identity differs from the session's, with both values.
func mismatchError(ck, sess RunIdentity) error {
	a, b := reflect.ValueOf(ck), reflect.ValueOf(sess)
	for i := 0; i < a.NumField(); i++ {
		if x, y := a.Field(i).Interface(), b.Field(i).Interface(); x != y {
			name, _, _ := strings.Cut(a.Type().Field(i).Tag.Get("json"), ",")
			return fmt.Errorf("core: checkpoint %s %#v does not match session %#v", name, x, y)
		}
	}
	return nil
}

package funcytuner

// Warm-starting: seed a technique's initial design/population with the
// best assemblies of related prior runs already in the results
// repository. The scan is a pure function of the repository's contents
// at the time it runs — the chosen seed set is digested into the run
// identity (core.NewRunIdentity), and so into the repository key and
// the checkpoint header, so a warm run is reproducible (and
// SkipExist-servable) exactly when the repository would yield the same
// seeds again.

import (
	"encoding/json"
	"sort"
)

// maxWarmSeeds bounds how many prior-run assemblies seed a technique.
const maxWarmSeeds = 4

// warmSeeds scans the attached results repository for prior runs related
// to prog and returns up to maxWarmSeeds winning assemblies, nearest
// first. It returns nil when warm-starting is off.
func (t *Tuner) warmSeeds(prog *Program) [][]CV {
	if !t.opts.WarmStart || t.repo == nil {
		return nil
	}
	type candidate struct {
		key   uint64
		score int
		flags []string
	}
	var cands []candidate
	for _, key := range t.repo.Keys() {
		body, ok := t.repo.Get(key)
		if !ok {
			continue
		}
		var b repoBody
		if err := json.Unmarshal(body, &b); err != nil {
			continue
		}
		if b.Flavor != t.opts.Space.Flavor.String() {
			continue
		}
		best := bestResult(b.Results)
		if best == nil || len(best.ModuleFlags) == 0 {
			continue
		}
		score := 0
		if b.Machine == t.opts.Machine.Name {
			score += 2
		}
		if b.Program == prog.Name {
			score++
		}
		cands = append(cands, candidate{key: key, score: score, flags: best.ModuleFlags})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].key < cands[j].key
	})
	if len(cands) > maxWarmSeeds {
		cands = cands[:maxWarmSeeds]
	}
	seeds := make([][]CV, 0, len(cands))
	for _, c := range cands {
		assembly := make([]CV, 0, len(c.flags))
		for _, flags := range c.flags {
			cv, err := t.opts.Space.Parse(flags)
			if err != nil {
				assembly = nil // stored under a different space revision
				break
			}
			assembly = append(assembly, cv)
		}
		if assembly == nil {
			continue
		}
		seeds = append(seeds, assembly)
	}
	return seeds
}

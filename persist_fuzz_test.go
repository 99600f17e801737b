package funcytuner

import (
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"funcytuner/internal/core"
)

// FuzzLoadTuning: arbitrary JSON must never panic the loader, and
// accepted documents must yield CVs consistent with their module count.
func FuzzLoadTuning(f *testing.F) {
	f.Add(`{"flavor":"icc","modules":[]}`)
	f.Add(`{"flavor":"gcc"}`)
	f.Add(`{"program":"CL","flavor":"icc","speedup":1.2,"baseline_seconds":80,"modules":[{"name":"m","flags":"` +
		ICCSpace().Baseline().String() + `"}]}`)
	f.Add(`{"flavor":"icc","speedup":-1,"baseline_seconds":1,"modules":[{"name":"m","flags":""}]}`)
	f.Add(`not json at all`)
	f.Add(`{"flavor":"icc","modules":[{"flags":"-O=9"}]}`)
	f.Fuzz(func(t *testing.T, input string) {
		st, cvs, err := LoadTuning(strings.NewReader(input))
		if err != nil {
			return
		}
		if len(cvs) != len(st.Modules) {
			t.Fatalf("accepted document yields %d CVs for %d modules", len(cvs), len(st.Modules))
		}
		if len(cvs) == 0 {
			t.Fatal("accepted document has no modules")
		}
		if !(st.Speedup > 0) || !(st.Baseline > 0) {
			t.Fatalf("accepted document has implausible outcome (speedup=%v, baseline=%v)", st.Speedup, st.Baseline)
		}
		for _, cv := range cvs {
			_ = cv.Knobs() // must be materializable
		}
	})
}

// FuzzDecodeCheckpoint: arbitrary JSON must never panic the checkpoint
// loader, and anything it accepts must re-validate and survive Resume →
// Flush → LoadCheckpointFile with the same progress: header, done lists,
// bit-equal done times, quarantine and cost, and every slot not marked
// done empty — whatever the loaded document held there.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Add(`{"version":1,"program":"CL","machine":"broadwell","flavor":"icc",
	  "seed":"s","samples":2,"topx":1,"modules":1,
	  "times":[["0x1p+02",""]],"totals":["0x1.8p+02",""],"cfr_times":["",""],
	  "collect_done":[0],"quarantine":["a3"],"cost":{"compiles":3,"runs":1,"sim_micros":7}}`)
	f.Add(`{"version":1,"samples":2,"topx":1,"modules":1,
	  "times":[["+Inf",""]],"totals":["+Inf",""],"cfr_times":["",""],"collect_done":[0]}`)
	f.Add(`{"version":99}`)
	f.Add(`{"version":1,"samples":2,"topx":1,"modules":1,
	  "times":[["",""]],"totals":["",""],"cfr_times":["",""],"cost":{"runs":-1}}`)
	f.Add(`not json`)
	// Not-done slots that would inject a field if copied raw, next to
	// done times and quarantine keys in non-canonical spellings.
	f.Add(`{"version":1,"samples":3,"topx":1,"modules":2,
	  "times":[["0x1.0p+02","x\"],\"evil\":[\"","8"],["-inf","x\"],\"evil\":[\"",""]],
	  "totals":["0x1.80p+02","x\"],\"evil\":[\"",""],
	  "cfr_times":["x\"],\"evil\":[\"","1e3","Inf"],
	  "collect_done":[0],"cfr_done":[2,1],"quarantine":["00A3","FFFFFFFFFFFFFFFF"]}`)
	// Header strings that need escaping.
	f.Add(`{"version":1,"program":"C\"L\\","machine":"<b>&amp;</b>","flavor":"\u2028\u0001\u001f",
	  "seed":"\t\n\ud800 \u2029 s\u00e9ed","technique":"bo\u0000","samples":1,"topx":1,"modules":1,
	  "times":[[""]],"totals":[""],"cfr_times":[""]}`)
	f.Fuzz(func(t *testing.T, input string) {
		ck, err := core.DecodeCheckpoint(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := ck.Validate(); err != nil {
			t.Fatalf("accepted checkpoint fails re-validation: %v", err)
		}
		path := filepath.Join(t.TempDir(), "checkpoint.json")
		c := core.NewCheckpointer(path, 0)
		if err := c.Resume(ck); err != nil {
			t.Fatalf("accepted checkpoint rejected by Resume: %v", err)
		}
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		got, err := core.LoadCheckpointFile(path)
		if err != nil {
			t.Fatalf("flushed checkpoint does not load: %v", err)
		}
		checkSameProgress(t, ck, got)
	})
}

// checkSameProgress fails unless got records exactly the progress want
// does, in canonical form.
func checkSameProgress(t *testing.T, want, got *core.Checkpoint) {
	t.Helper()
	header := func(c *core.Checkpoint) core.Checkpoint {
		return core.Checkpoint{Version: c.Version, Program: c.Program, Machine: c.Machine, Flavor: c.Flavor,
			Seed: c.Seed, Technique: c.Technique, Samples: c.Samples, TopX: c.TopX, Modules: c.Modules, Cost: c.Cost}
	}
	if !reflect.DeepEqual(header(got), header(want)) {
		t.Fatalf("header or cost changed: %+v -> %+v", header(want), header(got))
	}
	// sameTime: b holds a's value bit for bit, in canonical hex-float form.
	sameTime := func(a, b string) bool {
		x, errx := strconv.ParseFloat(a, 64)
		y, erry := strconv.ParseFloat(b, 64)
		return errx == nil && erry == nil && math.Float64bits(x) == math.Float64bits(y) &&
			b == strconv.FormatFloat(y, 'x', -1, 64)
	}
	checkPhase := func(name string, wantDone, gotDone []int, wantRows, gotRows [][]string) {
		sorted := slices.Clone(wantDone)
		slices.Sort(sorted)
		if !slices.Equal(sorted, gotDone) {
			t.Fatalf("%s done list %v -> %v", name, wantDone, gotDone)
		}
		for ri := range wantRows {
			for k := range wantRows[ri] {
				done := slices.Contains(gotDone, k)
				if done && !sameTime(wantRows[ri][k], gotRows[ri][k]) {
					t.Fatalf("%s row %d sample %d: time %q -> %q", name, ri, k, wantRows[ri][k], gotRows[ri][k])
				}
				if !done && gotRows[ri][k] != "" {
					t.Fatalf("%s row %d sample %d: not-done slot kept %q", name, ri, k, gotRows[ri][k])
				}
			}
		}
	}
	checkPhase("collect", want.CollectDone, got.CollectDone,
		append(slices.Clone(want.Times), want.Totals), append(slices.Clone(got.Times), got.Totals))
	checkPhase("cfr", want.CFRDone, got.CFRDone, [][]string{want.CFRTimes}, [][]string{got.CFRTimes})
	if len(got.Quarantine) != len(want.Quarantine) {
		t.Fatalf("quarantine %v -> %v", want.Quarantine, got.Quarantine)
	}
	for i := range want.Quarantine {
		x, _ := strconv.ParseUint(want.Quarantine[i], 16, 64)
		y, err := strconv.ParseUint(got.Quarantine[i], 16, 64)
		if err != nil || x != y || got.Quarantine[i] != strconv.FormatUint(y, 16) {
			t.Fatalf("quarantine key %q -> %q", want.Quarantine[i], got.Quarantine[i])
		}
	}
}

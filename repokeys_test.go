package funcytuner

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"funcytuner/internal/core"
	"funcytuner/internal/fsx"
)

// TestRepoKeysPinned pins the results-repository key of every valid
// protocol × technique × warm-start combination to a literal, so no
// change in how a run is specified can silently re-key stored results
// (a re-keyed repository serves nothing it already holds). Each case
// tunes at a tiny budget into a fresh repository and compares the new
// entry's file name — its 16-hex key — against the literal. Warm cases
// first store one fixed donor run, so their warm digest is not the
// digest of an empty seed set.
func TestRepoKeysPinned(t *testing.T) {
	m, err := MachineByName("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(Swim, m)
	cases := []struct {
		name, mode, tech string
		warm             bool
		want             string
	}{
		{"tune-cfr", modeTune, "", false, "f61f2d9416879908"},
		{"tune-bo", modeTune, "bo", false, "f175aceca287e782"},
		{"tune-ga", modeTune, "ga", false, "a4944e5df261cb29"},
		{"tune-bo-warm", modeTune, "bo", true, "b2f397ffe3ed3790"},
		{"tune-ga-warm", modeTune, "ga", true, "7404b15cb0bced46"},
		{"adaptive-cfr", modeAdaptive, "", false, "98cc8ed3aa4e395a"},
		{"adaptive-bo", modeAdaptive, "bo", false, "dab14e7ac3525d32"},
		{"adaptive-ga", modeAdaptive, "ga", false, "2aea9a83542534cb"},
		{"compare", modeCompare, "", false, "7467ea4dad8264b1"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Machine: m, Samples: 20, TopX: 4, Seed: "key-pin", RepoPath: dir}
			if tc.warm {
				donor := opts
				donor.Seed = "key-pin-donor"
				if _, err := NewTuner(donor).Tune(prog, in); err != nil {
					t.Fatal(err)
				}
			}
			before := repoEntryNames(t, dir)
			opts.Technique, opts.WarmStart = tc.tech, tc.warm
			tuner := NewTuner(opts)
			switch tc.mode {
			case modeTune:
				_, err = tuner.Tune(prog, in)
			case modeAdaptive:
				_, err = tuner.TuneAdaptive(prog, in, DefaultStopRule())
			case modeCompare:
				_, err = tuner.Compare(prog, in)
			}
			if err != nil {
				t.Fatal(err)
			}
			var added []string
			for name := range repoEntryNames(t, dir) {
				if !before[name] {
					added = append(added, name)
				}
			}
			if len(added) != 1 {
				t.Fatalf("run added %d repository entries %v, want 1", len(added), added)
			}
			if got := strings.TrimSuffix(added[0], ".json"); got != tc.want {
				t.Errorf("repository key = %s, want %s", got, tc.want)
			}
		})
	}
}

// repoEntryNames lists the entry file names in a repository directory.
func repoEntryNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool, len(paths))
	for _, p := range paths {
		names[filepath.Base(p)] = true
	}
	return names
}

// TestRepoKeyCoversIdentity changes each field of a run identity and
// the protocol in turn: every change must move
// the repository key, and no two changes may share one. A field added
// to core.RunIdentity but left out of repoKey's hash fails here, before
// two different runs could share a stored entry.
func TestRepoKeyCoversIdentity(t *testing.T) {
	id := core.RunIdentity{
		Program: "CL", ProgramSeed: 42, Input: "train", InputSize: 100, InputSteps: 50,
		Machine: "broadwell", MachineID: 3, Flavor: "icc", Seed: "test-seed",
		Samples: 1000, TopX: 50, Noisy: true,
	}
	keys := map[uint64]string{}
	add := func(name string, key uint64) {
		if prev, dup := keys[key]; dup {
			t.Errorf("%s keys like %s", name, prev)
		}
		keys[key] = name
	}
	add("base", repoKey(id, false))
	add("compare", repoKey(id, true))
	var walk func(name string, v reflect.Value)
	walk = func(name string, v reflect.Value) {
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(name+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		case reflect.String:
			v.SetString(v.String() + "'")
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: no mutation for kind %s", name, v.Kind())
		}
		add(name, repoKey(id, false))
		v.Set(old)
	}
	walk("RunIdentity", reflect.ValueOf(&id).Elem())
}

// TestRepoEntryPinned pins the bytes a stored entry holds — the body and
// raw trace encodeRepoBody writes, behind the header that names the
// trace's length and checksum — for one traced tune and one traced
// compare of Swim under repoOpts (fault injection on, so every
// FaultTally field is stored). TestRepoKeysPinned pins where an entry
// is filed; this pins what is in it, so a change to the stored form
// cannot pass unnoticed: a server with older entries would serve them to
// a decoder that reads them differently, or invalidate them all.
func TestRepoEntryPinned(t *testing.T) {
	m, err := MachineByName("broadwell")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Benchmark(Swim)
	if err != nil {
		t.Fatal(err)
	}
	in := TuningInput(Swim, m)
	cases := []struct {
		name    string
		compare bool
		want    string // key, file length, fsx.Checksum of the file
	}{
		{"tune", false, "3e3ecd02debe6d10 36045 14731df4afd90463"},
		{"compare", true, "964dc3ef681b7034 78964 111785cb2e464142"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := repoOpts(dir)
			opts.Trace = NewTraceRecorder()
			tuner := NewTuner(opts)
			var err error
			if tc.compare {
				_, err = tuner.Compare(prog, in)
			} else {
				_, err = tuner.Tune(prog, in)
			}
			if err != nil {
				t.Fatal(err)
			}
			path := repoEntryPath(t, dir)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprintf("%s %d %s", strings.TrimSuffix(filepath.Base(path), ".json"), len(data), fsx.Checksum(data))
			if got != tc.want {
				t.Errorf("stored entry = %s, want %s", got, tc.want)
			}
		})
	}
}

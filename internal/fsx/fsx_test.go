package fsx

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomicRoundTrip(t *testing.T) {
	for _, fn := range []struct {
		name  string
		write func(string, []byte, os.FileMode) error
	}{
		{"sync", WriteFileAtomic},
		{"fast", WriteFileAtomicFast},
	} {
		t.Run(fn.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "nested", "dir", "out.json")
			if err := fn.write(path, []byte("first"), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := fn.write(path, []byte("second"), 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "second" {
				t.Fatalf("read %q, want %q", got, "second")
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("temp file left behind: %v", err)
			}
		})
	}
}

func TestWriteFileAtomicLeavesOldOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	if err := WriteFileAtomic(path, []byte("committed"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Make the temp path a directory so the O_CREATE open fails; the
	// committed file must be untouched.
	if err := os.Mkdir(path+".tmp", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("torn"), 0o644); err == nil {
		t.Fatal("write over a blocked temp path succeeded")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "committed" {
		t.Fatalf("committed file corrupted: %q", got)
	}
}

// TestChecksumPinned pins Checksum to the bytes already on disk: every
// results-repository entry, spill entry and fleet journal record written
// before the three record formats shared this function carries these
// values, and a changed construction would turn them all into misses.
func TestChecksumPinned(t *testing.T) {
	for body, want := range map[string]string{
		"": "c3817c016ba4ff30",
		`{"seq":1,"op":"worker","worker":"w1","losses":2}`: "d6f6c90a32ac3393",
	} {
		if got := Checksum([]byte(body)); got != want {
			t.Errorf("Checksum(%q) = %s, want %s", body, got, want)
		}
	}
}

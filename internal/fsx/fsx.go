// Package fsx holds the small filesystem idioms the rest of the tree
// shares: atomic file commits with a choice of durability level, the
// sealed record (record.go), the one envelope every file FuncyTuner
// writes is made of, and Log (log.go), the one writer of append-only
// files. The checkpoint and the fleet journal are Logs; results-repository
// and compile-cache spill files are entries (AppendEntry, ReadEntry): two
// records each, a key header and the body, and for a repository entry a
// raw tail after them that its header accounts for. Each record carries
// Checksum over its exact body bytes, and readers replay records up to
// the first torn or damaged one.
//
// WriteFileAtomic is the fsync-hardened path a fresh Log and the results
// repository use — a crash at any point leaves either the old bytes or
// the new bytes, never a torn file. WriteFileAtomicFast skips the fsyncs
// for best-effort tiers (the compile-cache spill) whose readers already
// treat a torn file as a miss: rename still guarantees readers never see
// a partial write from a live process, and a power loss at worst costs
// warmth, not correctness.
package fsx

import (
	"os"
	"path/filepath"
)

// Checksum guards one record body: 16 hex digits of its hash. Readers
// recompute it over the exact bytes they read, so a torn write,
// truncation or bit flip is detected before the body is interpreted.
func Checksum(body []byte) string {
	var sum [16]byte
	return string(appendSum(sum[:0], body))
}

// WriteFileAtomic commits data to path with full crash durability:
// write-temp, fsync the temp file, rename over the destination, then
// fsync the parent directory so the rename itself survives a power
// loss. Rename alone is not enough — without the fsyncs a crash can
// leave a committed name pointing at an empty or torn file. On any
// failure the previously committed file is left untouched.
func WriteFileAtomic(path string, data []byte, perm os.FileMode) error {
	return write(path, data, perm, true)
}

// WriteFileAtomicFast commits data to path by write-temp-then-rename
// without fsync. Concurrent readers never observe a partial file, but
// a power loss may leave the committed name empty or torn — callers
// must treat unreadable content as a miss.
func WriteFileAtomicFast(path string, data []byte, perm os.FileMode) error {
	return write(path, data, perm, false)
}

func write(path string, data []byte, perm os.FileMode, sync bool) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			os.Remove(tmp)
			return err
		}
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if !sync {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}

// Package resultrepo is the content-addressed, persistent tuning-results
// repository. It stores opaque JSON result bodies under opaque 64-bit
// keys, which the caller derives the way internal/objcache keys
// compiles: a content hash of everything that determines a tuning
// outcome (the funcytuner facade hashes the run identity), so identical
// submissions from any number of clients resolve to one stored entry.
//
// The repository is a cache with a durability contract, not a database:
// writes go through the fsync-hardened atomic-commit path (a crash
// leaves the old entry or the new one, never a torn file), and loading
// is corruption-tolerant — a truncated, bit-flipped or otherwise
// unreadable entry is a counted miss, never an error and never a wrong
// result. An entry file is one fsx entry: a header record naming the
// key it was filed under, then the body record; Get verifies both
// before returning anything, so an entry in any other layout (including
// the one older builds wrote) is a counted miss too.
//
// Layout: <dir>/<kk>/<key16>.json, sharded by the key's top byte so no
// directory grows unboundedly. The in-memory index is built from file
// names at Open (content is validated lazily, at first Get), so opening
// a million-entry repository stats directories, not files.
package resultrepo

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"funcytuner/internal/fsx"
)

// header is the first record of key's entry file.
func header(key uint64) []byte { return fmt.Appendf(nil, `{"key":"%016x"}`, key) }

// Stats is a snapshot of repository activity since Open.
type Stats struct {
	// Entries is the current index size.
	Entries int
	// Hits and Misses count Get outcomes; Corrupt counts entries that
	// failed validation (each corrupt Get is also a miss).
	Hits, Misses, Corrupt int64
	// Puts counts successful stores.
	Puts int64
}

// Repo is a handle on one repository directory. Safe for concurrent
// use; multiple processes may share a directory (atomic renames keep
// readers consistent, and identical keys imply identical bodies).
type Repo struct {
	dir string

	mu      sync.Mutex
	index   map[uint64]struct{}
	hits    int64
	misses  int64
	corrupt int64
	puts    int64
}

// Open creates (if needed) and indexes the repository at dir. Malformed
// file names and leftover temp files are ignored; entry content is
// validated lazily at Get, so Open cost scales with entry count, not
// entry size.
func Open(dir string) (*Repo, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultrepo: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultrepo: %w", err)
	}
	r := &Repo{dir: dir, index: make(map[uint64]struct{})}
	shards, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("resultrepo: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || len(sh.Name()) != 2 {
			continue
		}
		files, err := os.ReadDir(filepath.Join(dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			name := f.Name()
			if len(name) != len("0123456789abcdef.json") || filepath.Ext(name) != ".json" {
				continue
			}
			key, err := strconv.ParseUint(name[:16], 16, 64)
			if err != nil || shard(key) != sh.Name() {
				continue
			}
			r.index[key] = struct{}{}
		}
	}
	return r, nil
}

// Dir returns the repository root directory.
func (r *Repo) Dir() string { return r.dir }

func shard(key uint64) string { return fmt.Sprintf("%02x", byte(key>>56)) }

func (r *Repo) path(key uint64) string {
	return filepath.Join(r.dir, shard(key), fmt.Sprintf("%016x.json", key))
}

// Has reports whether the index holds key. A true answer can still turn
// into a Get miss if the entry proves corrupt.
func (r *Repo) Has(key uint64) bool {
	r.mu.Lock()
	_, ok := r.index[key]
	r.mu.Unlock()
	return ok
}

// Get returns the stored body for key, or (nil, false) on a miss. A
// torn, truncated or bit-flipped entry counts as corrupt, is dropped
// from the index (and best-effort removed from disk), and reads as a
// miss — corruption can cost a recompute, never an error or a wrong
// result.
func (r *Repo) Get(key uint64) ([]byte, bool) {
	r.mu.Lock()
	_, ok := r.index[key]
	r.mu.Unlock()
	if !ok {
		r.count(&r.misses)
		return nil, false
	}
	path := r.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		r.drop(key, path)
		return nil, false
	}
	body, ok := decode(data, key)
	if !ok {
		r.drop(key, path)
		return nil, false
	}
	r.count(&r.hits)
	return body, true
}

// decode validates one on-disk entry against the key it was filed
// under. Every failure mode — a missing, extra, torn or damaged record,
// another layout, a header naming another key — reads as corrupt.
func decode(data []byte, key uint64) ([]byte, bool) {
	head, body, ok := fsx.ReadEntry(data)
	if !ok || !bytes.Equal(head, header(key)) {
		return nil, false
	}
	return body, true
}

// drop records a corrupt entry: counted, de-indexed, best-effort
// removed so the next writer starts clean.
func (r *Repo) drop(key uint64, path string) {
	r.mu.Lock()
	delete(r.index, key)
	r.corrupt++
	r.misses++
	r.mu.Unlock()
	os.Remove(path)
}

// Invalidate drops key as corrupt: counted, de-indexed, best-effort
// removed. Callers use it when a body passes the envelope checksum but
// fails a higher-level integrity check (e.g. a stored fingerprint that
// does not match the reconstructed result).
func (r *Repo) Invalidate(key uint64) {
	r.drop(key, r.path(key))
}

// Put stores body under key via the fsync-hardened atomic write path.
// body must be valid JSON; it is compacted, because a sealed record
// holds its body verbatim on one line, and Get returns the compacted
// bytes. Re-putting an existing key rewrites it — identical keys imply
// identical bodies, so this is idempotent in correct use. Puts are
// serialized (they share the index lock): a results repository sees one
// Put per completed tuning run, so write contention is not a concern,
// and serializing keeps concurrent same-key writers off each other's
// staging files.
func (r *Repo) Put(key uint64, body []byte) error {
	data, err := fsx.AppendEntry(nil, header(key), body)
	if err != nil {
		return fmt.Errorf("resultrepo: body for key %016x is not valid JSON: %w", key, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := fsx.WriteFileAtomic(r.path(key), data, 0o644); err != nil {
		return fmt.Errorf("resultrepo: %w", err)
	}
	r.index[key] = struct{}{}
	r.puts++
	return nil
}

// Keys returns every indexed key in ascending order. It snapshots the
// index under the lock; entries may still prove corrupt at Get. Used by
// warm-start scans, which read the whole repository looking for related
// prior runs.
func (r *Repo) Keys() []uint64 {
	r.mu.Lock()
	keys := make([]uint64, 0, len(r.index))
	for k := range r.index {
		keys = append(keys, k)
	}
	r.mu.Unlock()
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Len returns the current index size.
func (r *Repo) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.index)
}

// Stats snapshots repository activity.
func (r *Repo) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return Stats{
		Entries: len(r.index),
		Hits:    r.hits,
		Misses:  r.misses,
		Corrupt: r.corrupt,
		Puts:    r.puts,
	}
}

func (r *Repo) count(p *int64) {
	r.mu.Lock()
	*p++
	r.mu.Unlock()
}

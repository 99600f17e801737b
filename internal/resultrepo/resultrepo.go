// Package resultrepo is the content-addressed, persistent tuning-results
// repository. It stores opaque entries under opaque 64-bit keys, which
// the caller derives the way internal/objcache keys compiles: a content
// hash of everything that determines a tuning outcome (the funcytuner
// facade hashes the run identity), so identical submissions from any
// number of clients resolve to one stored entry.
//
// An Entry has two parts: the JSON result body, and a trace stored as
// raw bytes, which a reader that does not want it never parses.
//
// The repository is a cache with a durability contract, not a database:
// writes go through the fsync-hardened atomic-commit path (a crash
// leaves the old entry or the new one, never a torn file), and loading
// is corruption-tolerant — a truncated, bit-flipped or otherwise
// unreadable entry is a counted miss, never an error and never a wrong
// result. An entry file is one fsx entry: a header record naming the
// key it was filed under and the length and checksum of its trace, then
// the body record, then the trace's raw bytes. GetEntry verifies the two
// records and the trace against the header before returning anything, so
// an entry in any other layout (including the ones older builds wrote)
// is a counted miss too.
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

// Entry is what one repository entry holds.
type Entry struct {
	// Body is the JSON result body.
	Body []byte
	// Trace is stored verbatim; it is empty when the entry has none.
	Trace []byte
}

// header is the first record of key's entry file: the key the entry is
// filed under and the length and checksum of its trace, so that one
// comparison checks where the entry belongs and that its trace is the
// one stored with it.
func header(key uint64, trace []byte) []byte {
	return fmt.Appendf(nil, `{"key":"%016x","trace_len":%d,"trace_sum":"%s"}`, key, len(trace), fsx.Checksum(trace))
}

// Stats is a snapshot of repository activity since Open.
type Stats struct {
	// Entries is the current index size.
	Entries int
	// Hits and Misses count Get and GetEntry outcomes; Corrupt counts
	// entries that failed validation when read (each corrupt read is
	// also a miss).
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

// Get returns the body of key's entry, or (nil, false) on a miss. It is
// GetEntry's body: the whole entry is verified.
func (r *Repo) Get(key uint64) ([]byte, bool) {
	e, ok := r.GetEntry(key)
	return e.Body, ok
}

// GetEntry returns key's entry, or false on a miss. A torn, truncated or
// bit-flipped entry — damage in any of its three parts — counts as
// corrupt, is dropped from the index (and best-effort removed from
// disk), and reads as a miss: corruption can cost a recompute, never an
// error or a wrong result.
func (r *Repo) GetEntry(key uint64) (Entry, bool) {
	r.mu.Lock()
	_, ok := r.index[key]
	r.mu.Unlock()
	if !ok {
		r.count(&r.misses)
		return Entry{}, false
	}
	path := r.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		r.drop(key, path)
		return Entry{}, false
	}
	e, ok := decode(data, key)
	if !ok {
		r.drop(key, path)
		return Entry{}, false
	}
	r.count(&r.hits)
	return e, true
}

// decode validates one on-disk entry against the key it was filed
// under. Every failure mode — a missing, torn or damaged record, a
// damaged, cut or extended trace, another layout, a header naming
// another key — reads as corrupt.
func decode(data []byte, key uint64) (Entry, bool) {
	head, body, trace, ok := fsx.ReadEntry(data)
	if !ok || !bytes.Equal(head, header(key, trace)) {
		return Entry{}, false
	}
	return Entry{Body: body, Trace: trace}, true
}

// encode is the entry file of e under key. e's body must be valid JSON.
func encode(key uint64, e Entry) ([]byte, error) {
	return fsx.AppendEntry(nil, header(key, e.Trace), e.Body, e.Trace)
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
// removed. Callers use it when an entry passes its checksums but fails a
// higher-level integrity check (e.g. a stored fingerprint that does not
// match the reconstructed result, or a trace that does not decode).
func (r *Repo) Invalidate(key uint64) {
	r.drop(key, r.path(key))
}

// Put stores body alone under key: an entry with no trace.
func (r *Repo) Put(key uint64, body []byte) error { return r.PutEntry(key, Entry{Body: body}) }

// PutEntry stores e under key via the fsync-hardened atomic write path.
// Its body must be valid JSON; it is compacted, because a sealed record
// holds its body verbatim on one line, and GetEntry returns the
// compacted bytes. The trace is stored as it is. Re-putting an
// existing key rewrites it — identical keys imply identical entries, so
// this is idempotent in correct use. Puts are serialized (they share the
// index lock): a results repository sees one Put per completed tuning
// run, so write contention is not a concern, and serializing keeps
// concurrent same-key writers off each other's staging files.
func (r *Repo) PutEntry(key uint64, e Entry) error {
	data, err := encode(key, e)
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

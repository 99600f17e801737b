package objcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"funcytuner/internal/fsx"
)

// The spill tier persists evicted and resident entries to disk so a
// restarted process starts warm instead of cold. It is strictly a
// third tier under the in-memory LRU:
//
//   - write-behind: entries evicted by the LRU bound are encoded and
//     committed to <dir>/<kk>/<key16>.json after the shard lock is
//     released; SpillAll does the same for every resident entry (the
//     shutdown flush).
//   - read-through: a Get that misses memory probes the spill file
//     before running compute. The probe happens after singleflight
//     registration, so concurrent Gets of one key do one disk read.
//
// Values are opaque to the cache, so spilling needs a caller-provided
// SpillCodec. A codec may decline values that cannot round-trip
// (Encode returns false) — those entries simply stay memory-only.
//
// A spill file is one fsx entry: a header record naming the key and the
// entry's work, then the codec's bytes (compacted) as the body record.
// Durability is deliberately weaker than the results repository's:
// files are committed by rename without fsync (readers never see a
// partial write from a live process), and any torn, truncated or
// bit-flipped file — or one in another layout, such as older builds
// wrote — reads as a counted miss that falls through to compute.
// Because compilation is a pure function of the key, a lost or corrupt
// spill entry can only cost work, never change a result — the spill
// bit-identity tests prove exactly that.

// SpillCodec serializes cache values for the spill tier. Encode
// returns the value's portable form (must be valid JSON) or ok=false
// for values that should not be spilled; Decode inverts it. Decode
// must return a value functionally identical to the encoded one.
type SpillCodec interface {
	Encode(key uint64, val any) (data []byte, ok bool)
	Decode(key uint64, data []byte) (val any, ok bool)
}

// spillHeader is the first record of key's spill file.
func spillHeader(key uint64, work int64) []byte {
	return fmt.Appendf(nil, `{"key":"%016x","work":%d}`, key, work)
}

type spillState struct {
	dir   string
	codec SpillCodec
	// wmu serializes write-behind commits so concurrent evictions of
	// the same key (or SpillAll racing an eviction) never collide on a
	// staging file. Writes are off the hot path — eviction already
	// dropped the shard lock — so serializing them is cheap.
	wmu sync.Mutex

	hits, writes, corrupt, errs atomic.Int64
}

// spillItem is one evicted entry captured under the shard lock for
// write-behind after unlock.
type spillItem struct {
	key  uint64
	val  any
	work int64
}

// AttachSpill adds an on-disk spill tier rooted at dir, using codec to
// serialize values. Attach before the cache sees concurrent traffic
// (like SetObserver, it is a plain field). The directory may already
// hold spill files from a previous process — that is the point.
func (c *Cache) AttachSpill(dir string, codec SpillCodec) error {
	if dir == "" || codec == nil {
		return fmt.Errorf("objcache: AttachSpill needs a directory and a codec")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("objcache: %w", err)
	}
	c.spill = &spillState{dir: dir, codec: codec}
	return nil
}

func (sp *spillState) path(key uint64) string {
	return filepath.Join(sp.dir, fmt.Sprintf("%02x", byte(key>>56)), fmt.Sprintf("%016x.json", key))
}

// load probes the spill tier for key. A missing file is a silent miss;
// an unreadable or damaged file is a counted corrupt miss and is
// removed so the next eviction rewrites it cleanly.
func (c *Cache) spillLoad(key uint64) (val any, work int64, ok bool) {
	sp := c.spill
	if sp == nil {
		return nil, 0, false
	}
	path := sp.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if !os.IsNotExist(err) {
			sp.corrupt.Add(1)
			os.Remove(path)
		}
		return nil, 0, false
	}
	head, body, tail, ok := fsx.ReadEntry(data)
	var h struct {
		Work int64 `json:"work"`
	}
	if !ok || tail != nil || json.Unmarshal(head, &h) != nil || h.Work < 0 || !bytes.Equal(head, spillHeader(key, h.Work)) {
		sp.corrupt.Add(1)
		os.Remove(path)
		return nil, 0, false
	}
	v, ok := sp.codec.Decode(key, body)
	if !ok {
		sp.corrupt.Add(1)
		os.Remove(path)
		return nil, 0, false
	}
	sp.hits.Add(1)
	return v, h.Work, true
}

// spillWrite commits one entry, best-effort: encode failures mean the
// value stays memory-only, write failures are counted and dropped (a
// spill tier must never fail a Get).
func (c *Cache) spillWrite(it spillItem) {
	sp := c.spill
	data, ok := sp.codec.Encode(it.key, it.val)
	if !ok {
		return
	}
	out, err := fsx.AppendEntry(nil, spillHeader(it.key, it.work), data, nil)
	if err != nil {
		sp.errs.Add(1)
		return
	}
	sp.wmu.Lock()
	err = fsx.WriteFileAtomicFast(sp.path(it.key), out, 0o644)
	sp.wmu.Unlock()
	if err != nil {
		sp.errs.Add(1)
		return
	}
	sp.writes.Add(1)
}

// writeBehind spills entries the LRU just evicted. Called without the
// shard lock.
func (c *Cache) writeBehind(evicted []spillItem) {
	if c.spill == nil {
		return
	}
	for _, it := range evicted {
		c.spillWrite(it)
	}
}

// SpillAll writes every resident entry to the spill tier — the
// shutdown flush that lets the next process start warm. No-op without
// an attached spill. Entries added concurrently with the walk may or
// may not be included; call it after traffic has drained.
func (c *Cache) SpillAll() {
	if c.spill == nil {
		return
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		items := make([]spillItem, 0, len(sh.items))
		for k, e := range sh.items {
			items = append(items, spillItem{key: k, val: e.val, work: e.work})
		}
		sh.mu.Unlock()
		for _, it := range items {
			c.spillWrite(it)
		}
	}
}

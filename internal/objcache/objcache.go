// Package objcache is a sharded, content-addressed, bounded LRU cache
// with singleflight deduplication, built for memoizing compilation work
// on the evaluation pipeline (ccache for the simulated toolchain).
//
// Keys are 64-bit content fingerprints (the caller derives them from the
// program, module identity, compilation vector and machine); values are
// opaque. Because the modeled compiler is a pure function of its key
// inputs, a cached value is bit-identical to a recomputation, so the
// cache can only change how much work runs — never what any evaluation
// observes. See DESIGN.md §9 for the purity argument.
//
// Three properties matter at paper scale (K=1000 samples × J modules ×
// several machines):
//
//   - sharding: keys are spread over power-of-two shards, each with its
//     own lock, so GOMAXPROCS evaluation workers don't serialize on one
//     mutex;
//   - singleflight: concurrent Gets of the same missing key do the work
//     once — the first caller computes, the rest wait and share the
//     result (they are counted as "coalesced", not as hits or misses);
//   - bounded memory: each shard holds an LRU list capped at
//     capacity/shards entries, so a week-long campaign cannot grow the
//     cache without bound.
//
// The hot paths are deliberately allocation-lean: the LRU list is
// intrusive (entries carry their own links, no container/list elements),
// stats are plain per-shard counters folded on demand (no cross-core
// atomic traffic), and the singleflight wait channel is only allocated
// when a second caller actually shows up — the common uncontended miss
// pays for the entry, and nothing else.
package objcache

import (
	"sync"
	"sync/atomic"
)

// shardCount is the number of independently locked shards. Power of two
// so shard selection is a mask of the (already well-mixed) key. 16 is
// enough to keep worker pools off each other's locks without inflating
// the fixed per-cache footprint (a cold session builds three tiers of
// shard maps before doing any work).
const shardCount = 16

// Stats is a point-in-time snapshot of cache activity. Hits, Misses,
// Coalesced and SpillHits partition completed Gets; how a given Get
// classifies can
// depend on goroutine scheduling (a racing worker may turn a would-be
// miss into a coalesced wait), so stats are observability, never part of
// any deterministic output.
type Stats struct {
	// Hits counts Gets served from a resident entry.
	Hits int64
	// Misses counts Gets that ran the compute function.
	Misses int64
	// Coalesced counts Gets that piggybacked on another goroutine's
	// in-flight compute for the same key (singleflight dedup).
	Coalesced int64
	// Evictions counts entries dropped by the LRU bound.
	Evictions int64
	// WorkSaved accumulates the caller-declared work units (the second
	// return of the compute function) of every hit, coalesced and
	// spill-served Get — the work that would have run without the cache.
	WorkSaved int64

	// SpillHits counts Gets served from the on-disk spill tier;
	// SpillWrites counts entries committed to it (write-behind on
	// eviction plus SpillAll). SpillCorrupt counts damaged spill files
	// that degraded to misses; SpillErrors counts failed spill commits.
	// All zero without an attached spill tier.
	SpillHits, SpillWrites, SpillCorrupt, SpillErrors int64
}

// Outcome classifies one completed Get for observers: served resident
// (hit), computed (miss), or deduplicated onto another goroutine's
// in-flight compute (coalesced).
type Outcome uint8

const (
	// OutcomeHit is a Get served from a resident entry.
	OutcomeHit Outcome = iota
	// OutcomeMiss is a Get that ran the compute function.
	OutcomeMiss
	// OutcomeCoalesced is a Get that waited on an in-flight compute.
	OutcomeCoalesced
	// OutcomeSpillHit is a Get served from the on-disk spill tier
	// (memory miss, disk hit — no compute ran).
	OutcomeSpillHit
)

// String returns the outcome's wire name.
func (o Outcome) String() string {
	switch o {
	case OutcomeHit:
		return "hit"
	case OutcomeMiss:
		return "miss"
	case OutcomeCoalesced:
		return "coalesced"
	case OutcomeSpillHit:
		return "spill_hit"
	default:
		return "unknown"
	}
}

// Cache is a sharded LRU keyed by uint64 fingerprints.
type Cache struct {
	shards   [shardCount]shard
	perShard int
	// obs, when set, is called once per completed Get with its outcome,
	// outside any shard lock. Atomic because observers are swapped while
	// concurrent Gets are in flight (every new session sharing the cache
	// re-wires it). Like Stats, outcomes depend on goroutine scheduling,
	// so observers feed observability only — never deterministic outputs.
	obs atomic.Pointer[func(Outcome)]
	// spill, when set via AttachSpill, is the on-disk third tier (see
	// spill.go).
	spill *spillState
}

type shard struct {
	mu     sync.Mutex
	items  map[uint64]*entry
	flight map[uint64]*flightCall
	// Intrusive LRU list: head = most recently used.
	head, tail *entry

	// Entry storage: new entries come from slab (block allocation, one
	// malloc per entrySlab entries) and evicted entries are recycled
	// through freeE, so a cache's fill phase — the dominant allocation
	// site of a cold tuning session — costs ~1/entrySlab allocations per
	// miss instead of one.
	freeE *entry
	slab  []entry
	// freeF recycles flightCalls from uncontended misses (the common
	// case). A flightCall that ever had a waiter is never recycled: the
	// waiter still reads it after the computing goroutine moves on.
	freeF *flightCall

	hits, misses, coalesced, evictions, workSaved, spillHits int64
}

// entrySlab is the block size for entry allocation.
const entrySlab = 256

type entry struct {
	key        uint64
	val        any
	work       int64
	prev, next *entry
}

// newEntry returns a zero-linked entry, recycled or slab-allocated.
// Caller holds the shard lock.
func (sh *shard) newEntry(key uint64, val any, work int64) *entry {
	e := sh.freeE
	if e != nil {
		sh.freeE = e.next
		e.next = nil
	} else {
		if len(sh.slab) == 0 {
			sh.slab = make([]entry, entrySlab)
		}
		e = &sh.slab[0]
		sh.slab = sh.slab[1:]
	}
	e.key, e.val, e.work = key, val, work
	return e
}

// freeEntry recycles an evicted entry. Caller holds the shard lock; e
// must already be unlinked.
func (sh *shard) freeEntry(e *entry) {
	e.val = nil // release the value to the GC; the LRU no longer owns it
	e.prev = nil
	e.next = sh.freeE
	sh.freeE = e
}

// flightCall is one in-progress compute shared by coalesced waiters.
// done is nil until the first waiter arrives (created under the shard
// lock); the computing goroutine closes it — if present — after val/work
// (or panicked) are written, so waiters read them race-free.
type flightCall struct {
	done     chan struct{}
	val      any
	work     int64
	panicked any
	next     *flightCall // freelist link, only while recycled
}

// newFlight returns a reset flightCall. Caller holds the shard lock.
func (sh *shard) newFlight() *flightCall {
	fc := sh.freeF
	if fc == nil {
		return &flightCall{}
	}
	sh.freeF = fc.next
	*fc = flightCall{}
	return fc
}

// New returns a cache bounded to roughly `capacity` entries (split
// evenly across shards, minimum one entry per shard). capacity must be
// positive.
func New(capacity int) *Cache {
	if capacity < 1 {
		panic("objcache: capacity must be >= 1")
	}
	perShard := (capacity + shardCount - 1) / shardCount
	c := &Cache{perShard: perShard}
	for i := range c.shards {
		c.shards[i].items = make(map[uint64]*entry)
		c.shards[i].flight = make(map[uint64]*flightCall)
	}
	return c
}

// SetObserver registers fn to observe each completed Get; pass nil to
// detach. Safe to swap while Gets are in flight: in-flight requests
// observe to whichever function they load. A panicking compute is not
// observed — the Get never completed.
func (c *Cache) SetObserver(fn func(Outcome)) {
	if fn == nil {
		c.obs.Store(nil)
		return
	}
	c.obs.Store(&fn)
}

// observe reports one completed Get. Must be called without shard locks
// held: an observer is arbitrary code and may take locks of its own.
func (c *Cache) observe(o Outcome) {
	if fn := c.obs.Load(); fn != nil {
		(*fn)(o)
	}
}

// unlink removes e from the LRU list (e must be resident).
func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry.
func (sh *shard) pushFront(e *entry) {
	e.prev, e.next = nil, sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

// Get returns the value for key, computing it at most once across
// concurrent callers. compute returns the value plus its cost in
// caller-defined work units (credited to Stats.WorkSaved whenever the
// cached value is reused). A panic in compute is propagated to every
// waiting caller and nothing is cached.
func (c *Cache) Get(key uint64, compute func() (any, int64)) any {
	sh := &c.shards[key&(shardCount-1)]
	sh.mu.Lock()
	if e, ok := sh.items[key]; ok {
		if sh.head != e {
			sh.unlink(e)
			sh.pushFront(e)
		}
		sh.hits++
		sh.workSaved += e.work
		v := e.val
		sh.mu.Unlock()
		c.observe(OutcomeHit)
		return v
	}
	if fc, ok := sh.flight[key]; ok {
		if fc.done == nil {
			fc.done = make(chan struct{})
		}
		done := fc.done
		sh.coalesced++
		sh.mu.Unlock()
		<-done
		if fc.panicked != nil {
			panic(fc.panicked)
		}
		sh.mu.Lock()
		sh.workSaved += fc.work
		sh.mu.Unlock()
		c.observe(OutcomeCoalesced)
		return fc.val
	}
	fc := sh.newFlight()
	sh.flight[key] = fc
	sh.mu.Unlock()

	// Memory miss: probe the spill tier before running compute. The
	// probe sits after singleflight registration, so concurrent Gets of
	// one key do a single disk read (the rest coalesce as usual).
	if val, work, ok := c.spillLoad(key); ok {
		fc.val, fc.work = val, work
		c.commit(sh, key, fc, val, work, true)
		c.observe(OutcomeSpillHit)
		return val
	}

	completed := false
	defer func() {
		if completed {
			return
		}
		// compute panicked: unpark waiters with the panic value and
		// leave the key uncached so a later Get retries.
		fc.panicked = recover()
		sh.mu.Lock()
		delete(sh.flight, key)
		done := fc.done
		sh.mu.Unlock()
		if done != nil {
			close(done)
		}
		panic(fc.panicked)
	}()
	val, work := compute()
	completed = true

	fc.val, fc.work = val, work
	c.commit(sh, key, fc, val, work, false)
	c.observe(OutcomeMiss)
	return val
}

// commit finishes a Get that produced a value (computed or
// spill-loaded): it installs the entry, applies the LRU bound, unparks
// waiters, and write-behind-spills whatever the bound evicted. Called
// without the shard lock held.
func (c *Cache) commit(sh *shard, key uint64, fc *flightCall, val any, work int64, fromSpill bool) {
	var evicted []spillItem
	sh.mu.Lock()
	delete(sh.flight, key)
	if fromSpill {
		sh.spillHits++
		sh.workSaved += work
	} else {
		sh.misses++
	}
	if _, ok := sh.items[key]; !ok {
		e := sh.newEntry(key, val, work)
		sh.pushFront(e)
		sh.items[key] = e
		for len(sh.items) > c.perShard {
			old := sh.tail
			sh.unlink(old)
			delete(sh.items, old.key)
			if c.spill != nil {
				// Capture before freeEntry releases the value; the
				// write happens after unlock.
				evicted = append(evicted, spillItem{key: old.key, val: old.val, work: old.work})
			}
			sh.freeEntry(old)
			sh.evictions++
		}
	}
	done := fc.done
	if done == nil {
		// No waiter ever saw this flightCall (waiters set done under the
		// lock before the final delete above), so it is exclusively ours
		// to recycle.
		fc.val = nil
		fc.next = sh.freeF
		sh.freeF = fc
	}
	sh.mu.Unlock()
	if done != nil {
		close(done)
	}
	c.writeBehind(evicted)
}

// Lookup returns the value for key if it is resident, behaving exactly
// like the hit path of Get (LRU touch, hit count, work-saved credit,
// observer callback). It exists so hot paths can probe the cache without
// constructing the compute closure a Get requires even on a hit; a miss
// returns (nil, false) with no side effects, and the caller falls back to
// Get.
func (c *Cache) Lookup(key uint64) (any, bool) {
	sh := &c.shards[key&(shardCount-1)]
	sh.mu.Lock()
	e, ok := sh.items[key]
	if !ok {
		sh.mu.Unlock()
		return nil, false
	}
	if sh.head != e {
		sh.unlink(e)
		sh.pushFront(e)
	}
	sh.hits++
	sh.workSaved += e.work
	v := e.val
	sh.mu.Unlock()
	c.observe(OutcomeHit)
	return v, true
}

// Peek reports whether key is resident, without touching LRU order or
// stats (test/introspection hook).
func (c *Cache) Peek(key uint64) bool {
	sh := &c.shards[key&(shardCount-1)]
	sh.mu.Lock()
	_, ok := sh.items[key]
	sh.mu.Unlock()
	return ok
}

// Len returns the number of resident entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Capacity returns the total entry bound.
func (c *Cache) Capacity() int { return c.perShard * shardCount }

// Stats snapshots the activity counters.
func (c *Cache) Stats() Stats {
	var s Stats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		s.Hits += sh.hits
		s.Misses += sh.misses
		s.Coalesced += sh.coalesced
		s.Evictions += sh.evictions
		s.WorkSaved += sh.workSaved
		s.SpillHits += sh.spillHits
		sh.mu.Unlock()
	}
	if sp := c.spill; sp != nil {
		s.SpillWrites = sp.writes.Load()
		s.SpillCorrupt = sp.corrupt.Load()
		s.SpillErrors = sp.errs.Load()
	}
	return s
}

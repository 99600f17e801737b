package compiler

import (
	"fmt"
	"sync"
	"unsafe"

	"funcytuner/internal/arch"
	"funcytuner/internal/flagspec"
	"funcytuner/internal/ir"
	"funcytuner/internal/objcache"
	"funcytuner/internal/xrand"
)

// This file is the memoization layer over the pure pass pipeline: a
// content-addressed compile/link cache in the spirit of ccache + a
// deduplicating build farm. Compilation in this model is a pure function
// of (program, module identity, CV, machine, flavor, LTO mode), and
// linking is a pure function of the full assembly fingerprint, so caching
// is invisible to every consumer: a cache hit returns an ObjectModule or
// Executable bit-identical to what a fresh compile would produce.
//
// Two tiers mirror the real-toolchain economics:
//
//   - object tier, keyed per (module, CV): FuncyTuner's search phases
//     re-compile mostly-identical assemblies — CFR's pruned pools are a
//     subset of the CVs the collection phase already compiled per module,
//     so at paper scale (K=1000, top-50) nearly all of CFR's module
//     compilations are eliminated;
//   - link tier, keyed per assembly: repeated assemblies (the baseline
//     recompiled by every finish(), Random's uniform variants re-used by
//     Collect, the winner's TrueTime re-measurement) skip even the link.
//
// Injected compile failures (internal/faults) never reach this layer:
// the session's icePass draws on the CV fingerprint *before* any compile
// is attempted, so a poisoned CV's evaluation is abandoned without
// touching — or polluting — the cache, and quarantine decisions stay
// byte-for-byte identical with the cache on or off.

// DefaultCacheSize is the default total entry bound of a CompileCache,
// sized for a paper-scale campaign (K=1000 CVs × ~30 modules of object
// entries, plus link entries) within tens of MB.
const DefaultCacheSize = 1 << 16

// loopCodeBytes approximates the codegen payload of one compiled loop,
// for the bytes-equivalent-saved accounting.
const loopCodeBytes = int64(unsafe.Sizeof(LoopCode{}))

// CacheStats snapshots a CompileCache's activity. All counters are
// real-work observability: they depend on scheduling and cache
// configuration and are deliberately excluded from deterministic outputs
// (a Report's Fingerprint ignores them).
type CacheStats struct {
	// ObjectHits/ObjectMisses/ObjectCoalesced classify module-level
	// compilations: served from cache, actually compiled, or deduplicated
	// onto another worker's in-flight compile of the same key.
	ObjectHits, ObjectMisses, ObjectCoalesced int64
	// LinkHits/LinkMisses/LinkCoalesced classify whole-assembly
	// compile+link requests the same way.
	LinkHits, LinkMisses, LinkCoalesced int64
	// Evictions counts entries dropped by the LRU bound, both tiers.
	Evictions int64
	// LoopCompilesSaved counts per-loop pass-pipeline executions the
	// cache elided (the unit of real compile work in this model).
	LoopCompilesSaved int64
	// BytesSaved is the bytes-equivalent of the elided codegen
	// (LoopCompilesSaved × the per-loop code footprint) — the ccache-style
	// "object bytes you did not rebuild" figure.
	BytesSaved int64
	// SpillHits counts object compiles served from the on-disk spill
	// tier (memory miss, disk hit); SpillWrites counts objects committed
	// to it. SpillCorrupt counts damaged spill files that degraded to
	// plain misses; SpillErrors counts failed spill commits. All zero
	// without AttachSpill.
	SpillHits, SpillWrites, SpillCorrupt, SpillErrors int64
}

// Hits returns total cache hits across both tiers.
func (s CacheStats) Hits() int64 { return s.ObjectHits + s.LinkHits }

// Misses returns total cache misses across both tiers.
func (s CacheStats) Misses() int64 { return s.ObjectMisses + s.LinkMisses }

// Coalesced returns total singleflight-deduplicated requests.
func (s CacheStats) Coalesced() int64 { return s.ObjectCoalesced + s.LinkCoalesced }

// CompileCache memoizes CompileModule (object tier) and Compile/Link
// (executable tier) results, plus a small front-end tier deduplicating
// knob materialization per CV (a uniform assembly materializes the same
// knob set once, not once per module). Attach one to a Toolchain with
// AttachCache; a nil *CompileCache is valid everywhere and means
// "uncached".
type CompileCache struct {
	objects *objcache.Cache
	links   *objcache.Cache
	knobs   *objcache.Cache
}

// NewCompileCache builds a cache bounded to roughly `capacity` total
// entries (capacity <= 0 selects DefaultCacheSize). Object entries get
// the bulk of the budget — they are small and numerous (J modules × K
// CVs) — linked executables a quarter, and the tiny per-CV knob sets an
// eighth.
func NewCompileCache(capacity int) *CompileCache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	linkCap := max(capacity/4, 1)
	knobCap := max(capacity/8, 1)
	objCap := max(capacity-linkCap-knobCap, 1)
	return &CompileCache{
		objects: objcache.New(objCap),
		links:   objcache.New(linkCap),
		knobs:   objcache.New(knobCap),
	}
}

// Stats snapshots both tiers.
func (cc *CompileCache) Stats() CacheStats {
	if cc == nil {
		return CacheStats{}
	}
	obj, lnk := cc.objects.Stats(), cc.links.Stats()
	saved := obj.WorkSaved + lnk.WorkSaved
	return CacheStats{
		ObjectHits: obj.Hits, ObjectMisses: obj.Misses, ObjectCoalesced: obj.Coalesced,
		LinkHits: lnk.Hits, LinkMisses: lnk.Misses, LinkCoalesced: lnk.Coalesced,
		Evictions:         obj.Evictions + lnk.Evictions,
		LoopCompilesSaved: saved,
		BytesSaved:        saved * loopCodeBytes,
		SpillHits:         obj.SpillHits,
		SpillWrites:       obj.SpillWrites,
		SpillCorrupt:      obj.SpillCorrupt,
		SpillErrors:       obj.SpillErrors,
	}
}

// Tier names reported to Observe callbacks.
const (
	// ObjectTier is the per-(module, CV) object cache.
	ObjectTier = "object"
	// LinkTier is the per-assembly compile+link cache.
	LinkTier = "link"
)

// Observe registers fn for per-request activity on the object and link
// tiers (the knobs front-end tier stays internal, matching Stats). fn
// runs on the requesting goroutine, outside cache locks; pass nil to
// detach. Register before concurrent use. Like Stats, outcomes depend
// on goroutine scheduling, so observers feed observability only.
func (cc *CompileCache) Observe(fn func(tier string, oc objcache.Outcome)) {
	if cc == nil {
		return
	}
	if fn == nil {
		cc.objects.SetObserver(nil)
		cc.links.SetObserver(nil)
		return
	}
	cc.objects.SetObserver(func(oc objcache.Outcome) { fn(ObjectTier, oc) })
	cc.links.SetObserver(func(oc objcache.Outcome) { fn(LinkTier, oc) })
}

// Len returns resident entries across both tiers (tests, introspection).
func (cc *CompileCache) Len() int {
	if cc == nil {
		return 0
	}
	return cc.objects.Len() + cc.links.Len()
}

// AttachCache enables content-addressed compile/link memoization on the
// toolchain. Pass nil to detach. Because compilation is pure, attaching a
// cache never changes any compile or run result — only how much pass-
// pipeline work physically executes.
func (tc *Toolchain) AttachCache(cc *CompileCache) { tc.cache = cc }

// knobsFor materializes cv's knob set, through the cache's front-end
// tier when one is attached. Knob materialization applies every flag of
// the space; a collection-phase assembly applies the same CV to all J
// modules and FuncyTuner revisits pool CVs constantly, so the same knob
// sets recur far more often than they change. The tier's counters are
// internal (its entries elide front-end work, not loop compiles).
func (tc *Toolchain) knobsFor(cv flagspec.CV) *flagspec.Knobs {
	if tc.cache == nil {
		// No cache tier, but the shapes that dominate uncached compiles —
		// uniform assemblies, CFR's mostly-baseline variants — still hand
		// the same CV to module after module. A single-entry last-knobs
		// memo catches those without a full tier; entries are immutable
		// once published, so racing stores only waste a materialization.
		key := cv.Key()
		if e := tc.lastKnobs.Load(); e != nil && e.key == key {
			return &e.k
		}
		e := &knobsEntry{key: key, k: cv.Knobs()}
		tc.lastKnobs.Store(e)
		return &e.k
	}
	// Lookup first: the hit path then costs no closure allocation.
	if v, ok := tc.cache.knobs.Lookup(cv.Key()); ok {
		return v.(*flagspec.Knobs)
	}
	k := tc.cache.knobs.Get(cv.Key(), func() (any, int64) {
		k := cv.Knobs()
		return &k, 0
	})
	return k.(*flagspec.Knobs)
}

// Cache returns the attached cache (nil when uncached).
func (tc *Toolchain) Cache() *CompileCache { return tc.cache }

// Domain tags keep the two key spaces disjoint even for degenerate
// inputs.
const (
	objectKeyTag = 0x6f626a63 // "objc"
	linkKeyTag   = 0x6c696e6b // "link"
)

// moduleStatic fingerprints everything about one module compilation
// except the CV: program identity, module identity (name, base-ness,
// exact loop set), machine and flag-space flavor. Partitions are rebuilt
// freely (ir.WholeProgram allocates a fresh one per call), so the key is
// structural, never based on pointer identity. The returned hasher state
// can be snapshotted (Prepare) so repeated compiles of the same partition
// only ever hash the varying suffix — the CV key.
func (tc *Toolchain) moduleStatic(prog *ir.Program, mod ir.Module, m *arch.Machine) xrand.Hasher {
	var h xrand.Hasher
	h.Add(objectKeyTag)
	h.Add(prog.Seed)
	h.Add(xrand.HashString(prog.Name))
	h.Add(xrand.HashString(mod.Name))
	h.Add(boolKey(mod.IsBase))
	h.Add(m.ID)
	h.Add(uint64(tc.Space.Flavor))
	h.Add(uint64(len(mod.LoopIdx)))
	for _, li := range mod.LoopIdx {
		h.Add(uint64(li))
	}
	return h
}

// moduleKey is the full object-tier key: the static module fingerprint
// plus the CV content. The streaming hasher keeps key derivation
// allocation-free — at paper scale keys are computed millions of times
// and must cost far less than the work they deduplicate.
func (tc *Toolchain) moduleKey(prog *ir.Program, mod ir.Module, cv flagspec.CV, m *arch.Machine) uint64 {
	h := tc.moduleStatic(prog, mod, m)
	h.Add(cv.Key())
	return h.Sum()
}

// assemblyStatic fingerprints the per-assembly constants of the link-tier
// key: program identity, machine, flavor, LTO mode (link interference
// exists only with LTO on) and module count.
func (tc *Toolchain) assemblyStatic(prog *ir.Program, m *arch.Machine, nModules int) xrand.Hasher {
	var h xrand.Hasher
	h.Add(linkKeyTag)
	h.Add(prog.Seed)
	h.Add(xrand.HashString(prog.Name))
	h.Add(m.ID)
	h.Add(uint64(tc.Space.Flavor))
	h.Add(boolKey(tc.DisableLTO))
	h.Add(uint64(nModules))
	return h
}

// assemblyKey fingerprints a full compile+link: the assembly constants
// plus every module key in partition order. The per-module keys are
// written into moduleKeys (len(part.Modules)) as a side effect, so a
// link-tier miss can feed them straight to the object tier instead of
// re-deriving them.
func (tc *Toolchain) assemblyKey(prog *ir.Program, part ir.Partition, cvs []flagspec.CV, m *arch.Machine, moduleKeys []uint64) uint64 {
	h := tc.assemblyStatic(prog, m, len(part.Modules))
	for i, mod := range part.Modules {
		moduleKeys[i] = tc.moduleKey(prog, mod, cvs[i], m)
		h.Add(moduleKeys[i])
	}
	return h.Sum()
}

// Prepared binds a (program, partition, machine) triple to the toolchain
// with every static key prefix snapshotted. A tuning session compiles the
// same partition thousands of times with only the CVs varying; through a
// Prepared, each compile hashes just the CV keys into the saved prefixes
// instead of re-fingerprinting program and module identities every call.
// Keys are identical to the ones Toolchain.Compile derives, so Prepared
// and direct compiles share cache entries freely.
//
// A Prepared snapshots the partition's structure (module names and loop
// sets) at creation; the bound program's structure must not change for
// its lifetime — the same immutability a session already requires.
type Prepared struct {
	tc        *Toolchain
	prog      *ir.Program
	part      ir.Partition
	m         *arch.Machine
	modStatic []xrand.Hasher
	asmStatic xrand.Hasher

	// scratch recycles per-compile module-key buffers across the
	// thousands of compiles a session issues through one Prepared. The
	// buffers are fully overwritten before each use and nothing
	// downstream retains them: keys feed the cache tiers by value.
	scratch sync.Pool
}

// prepScratch is one compile's worth of reusable working buffers, sized
// to the partition's module count.
type prepScratch struct {
	keys []uint64
}

func (pp *Prepared) getScratch() *prepScratch {
	if v := pp.scratch.Get(); v != nil {
		return v.(*prepScratch)
	}
	return &prepScratch{keys: make([]uint64, len(pp.part.Modules))}
}

// Prepare validates the partition and snapshots the static key prefixes.
func (tc *Toolchain) Prepare(prog *ir.Program, part ir.Partition, m *arch.Machine) (*Prepared, error) {
	if err := part.Validate(); err != nil {
		return nil, err
	}
	pp := &Prepared{
		tc:        tc,
		prog:      prog,
		part:      part,
		m:         m,
		modStatic: make([]xrand.Hasher, len(part.Modules)),
		asmStatic: tc.assemblyStatic(prog, m, len(part.Modules)),
	}
	for i, mod := range part.Modules {
		pp.modStatic[i] = tc.moduleStatic(prog, mod, m)
	}
	return pp, nil
}

// Compile is Toolchain.Compile over the prepared partition. It does not
// retain cvs (an Executable records no CVs), so callers may pass a
// reused buffer.
func (pp *Prepared) Compile(cvs []flagspec.CV) (*Executable, error) {
	tc := pp.tc
	if len(cvs) != len(pp.part.Modules) {
		return nil, fmt.Errorf("compiler: %d CVs for %d modules", len(cvs), len(pp.part.Modules))
	}
	if tc.cache == nil {
		return tc.compile(pp.prog, pp.part, cvs, pp.m, nil)
	}
	sc := pp.getScratch()
	moduleKeys := sc.keys
	h := pp.asmStatic
	for i := range cvs {
		mh := pp.modStatic[i]
		mh.Add(cvs[i].Key())
		moduleKeys[i] = mh.Sum()
		h.Add(moduleKeys[i])
	}
	akey := h.Sum()
	// Lookup first: a warm session's compiles are almost all link-tier
	// hits, and the hit path then costs no closure or key-slice
	// allocation at all.
	if v, ok := tc.cache.links.Lookup(akey); ok {
		pp.scratch.Put(sc)
		res := v.(compiled)
		return res.exe, res.err
	}
	res := tc.cache.links.Get(akey, func() (any, int64) {
		exe, err := tc.compile(pp.prog, pp.part, cvs, pp.m, moduleKeys)
		return compiled{exe: exe, err: err}, int64(len(pp.prog.Loops)) + 1
	}).(compiled)
	pp.scratch.Put(sc)
	return res.exe, res.err
}

func boolKey(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// moduleWork is the real compile work a module represents, in per-loop
// pass-pipeline executions (the base module's non-loop codegen counts as
// one more).
func moduleWork(mod ir.Module) int64 {
	w := int64(len(mod.LoopIdx))
	if mod.IsBase {
		w++
	}
	return w
}

// compiled pairs a link result with its (deterministic) error for
// storage in the executable tier.
type compiled struct {
	exe *Executable
	err error
}

// Package xrand provides a small, fast, splittable pseudo-random number
// generator used throughout the FuncyTuner reproduction.
//
// Every stochastic decision in the repository — flag sampling, measurement
// noise, search-algorithm draws — flows from streams created by this
// package, keyed by descriptive strings. That makes every experiment
// bit-reproducible, independent of goroutine scheduling order: a worker
// evaluating sample #517 derives its stream from the experiment key and the
// index 517, not from a shared mutable generator.
//
// The core generator is xoshiro256**, seeded via splitmix64, following the
// reference implementations by Blackman and Vigna. Both are public-domain
// algorithms with excellent statistical quality for simulation workloads.
package xrand

import "math"

// splitMix64 advances the splitmix64 state and returns the next value.
// It is used for seeding and for key hashing; it is a bijective mixer, so
// distinct inputs yield distinct outputs.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// HashString folds a string into a 64-bit seed using an FNV-1a pass
// followed by a splitmix64 finalizer. It is stable across runs and
// platforms.
func HashString(s string) uint64 { return hash(s) }

// HashBytes is HashString over a byte slice, without converting it.
func HashBytes(b []byte) uint64 { return hash(b) }

func hash[T string | []byte](s T) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return splitMix64(&h)
}

// combineInit is the Combine fold's initial state: fractional bits of
// sqrt(2).
const combineInit uint64 = 0x6a09e667f3bcc908

// Combine mixes a sequence of 64-bit values into a single seed. It is used
// to derive child stream seeds from (parentSeed, key, index) tuples.
func Combine(vs ...uint64) uint64 {
	var h Hasher
	for _, v := range vs {
		h.Add(v)
	}
	return h.Sum()
}

// Hasher is the streaming form of Combine: adding v1..vn and calling Sum
// returns exactly Combine(v1, ..., vn), with no allocation. The zero value
// is ready to use. Hot paths (cache keys, fault-draw fingerprints) use it
// to avoid materializing argument slices; everything keyed on Combine
// values — fault draws, quarantine sets, checkpoints — therefore sees
// identical fingerprints whichever form produced them.
type Hasher struct {
	state uint64
	n     int
}

// Add folds one value into the hash.
func (h *Hasher) Add(v uint64) {
	if h.n == 0 {
		h.state = combineInit
	}
	h.n++
	h.state ^= v
	h.state = splitMix64(&h.state)
}

// Sum finalizes and returns the hash. The Hasher itself is not consumed:
// further Adds continue the same stream.
func (h *Hasher) Sum() uint64 {
	s := h.state
	if h.n == 0 {
		s = combineInit
	}
	return splitMix64(&s)
}

// Rand is a xoshiro256** generator. The zero value is NOT usable; construct
// with New or NewFromString.
type Rand struct {
	s [4]uint64
	// gauss caches the second value of the Box-Muller pair.
	gauss    float64
	hasGauss bool
}

// New returns a generator seeded from the given 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	st := seed
	for i := range r.s {
		r.s[i] = splitMix64(&st)
	}
	// xoshiro must not be seeded with all zeros; splitmix64 of any seed
	// cannot produce four zeros, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	return r
}

// NewFromString returns a generator seeded from a descriptive key.
func NewFromString(key string) *Rand { return New(HashString(key)) }

// Reseed re-initializes r in place from seed — the allocation-free
// counterpart of New for callers that reuse a scratch generator. After
// Reseed(s), r is bit-identical to New(s): the Box–Muller pair cache is
// cleared along with the xoshiro state.
func (r *Rand) Reseed(seed uint64) {
	st := seed
	for i := range r.s {
		r.s[i] = splitMix64(&st)
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 1
	}
	r.gauss, r.hasGauss = 0, false
}

// Split derives an independent child generator identified by key and index.
// The parent's state is not consumed: splitting is a pure function of the
// parent's seed material, so the order in which children are created does
// not matter.
func (r *Rand) Split(key string, index int) *Rand {
	return New(Combine(r.s[0], r.s[2], HashString(key), uint64(index)))
}

// Stream snapshots the parent's split material together with a hashed key,
// so per-index child streams can be derived without re-hashing the key
// string on every call. For any parent r that has not been advanced in
// between, r.Stream(key).Rand(i) is bit-identical to r.Split(key, i).
type Stream struct {
	s0, s2, key uint64
}

// Stream returns the derivation stream for key rooted at r's current seed
// material.
func (r *Rand) Stream(key string) Stream {
	return Stream{s0: r.s[0], s2: r.s[2], key: HashString(key)}
}

// Seed returns the child seed for index — exactly the seed Split would
// construct, with no allocation.
func (st Stream) Seed(index int) uint64 {
	var h Hasher
	h.Add(st.s0)
	h.Add(st.s2)
	h.Add(st.key)
	h.Add(uint64(index))
	return h.Sum()
}

// Rand returns the child generator for index (equivalent to Split).
func (st Stream) Rand(index int) *Rand { return New(st.Seed(index)) }

// Into reseeds dst in place as the child generator for index, avoiding the
// allocation of Rand. dst afterwards is bit-identical to Rand(index).
func (st Stream) Into(dst *Rand, index int) { dst.Reseed(st.Seed(index)) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Rand) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless method would be overkill here; simple
	// rejection keeps the distribution exactly uniform.
	max := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Range returns a uniform float64 in [lo, hi).
func (r *Rand) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool { return r.Float64() < p }

// Norm returns a standard-normal variate (Box–Muller, cached pair).
func (r *Rand) Norm() float64 {
	if r.hasGauss {
		r.hasGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.Float64() - 1
		v = 2*r.Float64() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := math.Sqrt(-2 * math.Log(s) / s)
	r.gauss = v * f
	r.hasGauss = true
	return u * f
}

// LogNormal returns exp(mu + sigma*N(0,1)).
func (r *Rand) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.Norm())
}

// Perm returns a random permutation of [0, n).
func (r *Rand) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Choice returns a uniformly chosen index weighted by w (all weights must
// be non-negative and not all zero).
func (r *Rand) Choice(w []float64) int {
	var total float64
	for _, x := range w {
		if x < 0 {
			panic("xrand: negative weight")
		}
		total += x
	}
	if total <= 0 {
		panic("xrand: all weights zero")
	}
	target := r.Float64() * total
	acc := 0.0
	for i, x := range w {
		acc += x
		if target < acc {
			return i
		}
	}
	return len(w) - 1
}

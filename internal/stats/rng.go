// Package stats provides deterministic pseudo-random number generation and
// the small statistical toolkit used throughout the ProfileMe reproduction:
// histograms, running moments, weighted statistics and confidence envelopes.
//
// Everything here is seeded and reproducible: experiments must produce the
// same tables on every run so that EXPERIMENTS.md stays meaningful.
package stats

import "math"

// RNG is a small, fast, deterministic pseudo-random number generator
// (xoshiro256** seeded via splitmix64). It is not safe for concurrent use;
// give each goroutine its own RNG via Split.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed. Distinct seeds yield
// decorrelated streams.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm = splitmix64(&sm)
		r.s[i] = sm
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split returns a new RNG whose stream is decorrelated from r's. The parent
// stream advances by one draw.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xa5a5a5a5a5a5a5a5)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	rotl := func(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }
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

// Intn returns a uniformly random integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// IntRange returns a uniformly random integer in [lo, hi] inclusive.
// It panics if hi < lo.
func (r *RNG) IntRange(lo, hi int) int {
	if hi < lo {
		panic("stats: IntRange called with hi < lo")
	}
	return lo + r.Intn(hi-lo+1)
}

// Float64 returns a uniformly random float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Geometric returns a draw from a geometric distribution with mean m >= 1:
// the number of trials up to and including the first success with success
// probability 1/m. This is the natural randomization for sampling intervals
// (each fetched instruction is independently selected with probability 1/m),
// giving an unbiased, alias-free instruction sample.
func (r *RNG) Geometric(m float64) int {
	if m <= 1 {
		return 1
	}
	u := r.Float64()
	// Inverse CDF of the geometric distribution with p = 1/m.
	n := int(math.Ceil(math.Log(1-u) / math.Log(1-1/m)))
	if n < 1 {
		n = 1
	}
	return n
}

// UniformInterval returns a draw uniform on [1, 2m-1], an alternative
// randomized sampling interval with mean m used by the interval ablation.
func (r *RNG) UniformInterval(m int) int {
	if m <= 1 {
		return 1
	}
	return r.IntRange(1, 2*m-1)
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

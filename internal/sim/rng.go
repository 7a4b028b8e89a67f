// Package sim provides the cycle-driven simulation kernel shared by every
// model in the repository: a global clock, deterministic random numbers,
// and the Component contract clocked models implement to advance one cycle.
package sim

import "math"

// RNG is a small, fast, deterministic xorshift64* generator.
//
// The simulator must be bit-reproducible across runs and platforms, so all
// stochastic decisions (workload address streams, mix shuffles) draw from
// explicitly seeded RNG instances instead of math/rand global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed odd constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Threshold returns the integer form of probability p for Below:
// r.Below(Threshold(p)) draws what r.Bool(p) draws, bit for bit, without
// the float conversion. Float64 is k/2^53 for the draw's top 53 bits k, and
// k/2^53 < p exactly when k < ⌈p·2^53⌉, a product that scaling by a power
// of two leaves exact.
func Threshold(p float64) uint64 {
	switch {
	case !(p > 0): // NaN included: Float64() < NaN is false
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Below reports whether the next draw's top 53 bits are below t: true
// with probability t/2^53.
func (r *RNG) Below(t uint64) bool {
	return r.Uint64()>>11 < t
}

// Package stats provides the deterministic random-number generation,
// descriptive statistics, confidence intervals, and histogram utilities used
// throughout the FFIS reproduction.
//
// Everything in this package is seedable and allocation-light so that fault
// injection campaigns are exactly reproducible: the same seed yields the same
// fault targets, the same synthetic datasets, and therefore the same outcome
// classification, run after run.
package stats

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, seedable pseudo-random generator
// (xoshiro256** seeded via SplitMix64). It is NOT safe for concurrent use;
// campaigns hand each worker its own RNG derived with Split. Uint64 and
// PolarPair share one inlined step, so the polar rejection loop keeps the
// state in registers and stores it once per accepted pair.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from the given value. Any seed, including
// zero, produces a well-mixed state.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	// SplitMix64 expansion of the seed into the xoshiro state.
	x := seed
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
	return r
}

// step advances the xoshiro256** state (s0, s1, s2, s3) once, returning
// the output word and the new state.
func step(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, bits.RotateLeft64(s3, 45)
}

// Uint64 returns the next 64 random bits. It assigns the new state in
// place, which keeps it inlinable (go build -gcflags=-m ./internal/stats/).
func (r *RNG) Uint64() (out uint64) {
	out, r.s[0], r.s[1], r.s[2], r.s[3] = step(r.s[0], r.s[1], r.s[2], r.s[3])
	return out
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn called with non-positive n")
	}
	// Same stream, same draws as Int64n for any shared bound; the result
	// fits back into int because the bound did.
	return int(r.Int64n(int64(n)))
}

// Int64n returns a uniform int64 in [0, n). It panics if n <= 0. Unlike
// Intn, the bound is never squeezed through the platform int — campaign
// target draws over dynamic-instance counts beyond math.MaxInt32 stay
// exact on 32-bit platforms.
func (r *RNG) Int64n(n int64) int64 {
	if n <= 0 {
		panic("stats: Int64n called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int64(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t&mask32 + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// unit maps 64 random bits to a uniform float64 in [0, 1).
func unit(x uint64) float64 { return float64(x>>11) / float64(1<<53) }

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 { return Polar(r.PolarPair()) }

// PolarPair is the sequential half of the polar method: it draws points
// (u, v) in [-1, 1)² until one falls strictly inside the unit disc and
// returns u and s = u²+v². Polar(PolarPair()) is NormFloat64.
func (r *RNG) PolarPair() (u, s float64) {
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for {
		var x, y uint64
		x, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		y, s0, s1, s2, s3 = step(s0, s1, s2, s3)
		u = 2*unit(x) - 1
		v := 2*unit(y) - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			r.s = [4]uint64{s0, s1, s2, s3}
			return u, s
		}
	}
}

// Polar is the pure half of the polar method: the normal variate of an
// accepted pair from PolarPair.
func Polar(u, s float64) float64 { return u * math.Sqrt(-2*math.Log(s)/s) }

package model

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/deeprecinfra/deeprecsys/internal/tensor"
)

// Stream is the lanes' input-draw generator: what a live CPU worker, the
// accelerator lane and the offline RealEngine fabricate a query's features
// from. It is a definition, not an implementation detail — stream_test.go
// restates every clause below one Uint64 at a time:
//
//   - State: eight lanes of four uint64 words, each lane a xoshiro256++
//     (Blackman & Vigna). Seed(seed) fills them with 32 successive splitmix64
//     outputs from x = uint64(seed), lane 0's four words first:
//     x += 0x9e3779b97f4a7c15; z = x; z = (z ^ z>>30) * 0xbf58476d1ce4e5b9;
//     z = (z ^ z>>27) * 0x94d049bb133111eb; word = z ^ z>>31.
//   - Round: every lane steps once and yields u₀…u₇, lane i's step being
//     out = rotl(s0+s3, 23) + s0, then t = s1<<17; s2 ^= s0; s3 ^= s1;
//     s1 ^= s2; s0 ^= s3; s2 ^= t; s3 = rotl(s3, 45).
//   - Halves: a fill reads a round as sixteen 32-bit halves, the high halves
//     of u₀…u₇ and then their low halves. A fill that ends mid-round drops
//     the rest of that round: the next fill starts on a fresh round.
//   - Indices below 2^32 rows (Lemire's multiply-shift): a half x gives
//     m = x*rows; it is rejected when uint32(m) < (2^32-rows) % rows and
//     the next half tried, else the index is m>>32. From 2^32 rows up the
//     same rule runs on whole outputs, u₀…u₇ in lane order, and the 128-bit
//     product: rejected when its low word < (2^64-rows) % rows, else the
//     index is its high word.
//   - Dense: a half x gives float32(x>>8) * 2^-23 - 1, exact in float32 and
//     in [-1, 1); nothing is rejected.
//   - View: Uint64 returns u₀…u₇ in lane order, then steps a new round;
//     Int63 is Uint64()>>1. A fill first discards whatever outputs the view
//     left of the current round.
//
// A Stream is a rand.Source64, so rand.New(st) is that view of the same
// state: internal/workload's skewed access distributions draw through it,
// interleaved with the direct fills, on one seeded stream. It is not safe
// for concurrent use; each lane owns its own.
//
// Under a vector backend the fills run an amd64 kernel that steps all eight
// lanes in registers (stream_amd64.s); everything above is integer-exact, so
// every backend draws the same values. The stream Recommend, the goldens and
// cmd/bench's pin are defined on is the other one: *rand.Rand through
// NewInput / NewInputInto.
type Stream struct {
	s    [4][8]uint64 // s[w][i]: word w of lane i, so a word of every lane is two YMM registers
	u    [8]uint64    // the current round's outputs
	left int          // outputs of u the view has not returned
}

// NewStream returns a Stream seeded with seed.
func NewStream(seed int64) *Stream {
	st := &Stream{}
	st.Seed(seed)
	return st
}

// Seed implements rand.Source: it resets the stream to the state NewStream(seed) has.
func (st *Stream) Seed(seed int64) {
	x := uint64(seed)
	for k := range 4 * len(st.u) {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		st.s[k%4][k/4] = z ^ z>>31
	}
	st.left = 0
}

// xoshiro is one xoshiro256++ step on a state held in values; it inlines.
func xoshiro(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = bits.RotateLeft64(s0+s3, 23) + s0
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	return out, s0, s1, s2, bits.RotateLeft64(s3, 45)
}

// round steps every lane once into u.
func (st *Stream) round() {
	s := &st.s
	for i := range st.u {
		st.u[i], s[0][i], s[1][i], s[2][i], s[3][i] = xoshiro(s[0][i], s[1][i], s[2][i], s[3][i])
	}
}

// half returns the current round's h-th half: the high halves of u₀…u₇,
// then their low halves.
func (st *Stream) half(h int) uint64 {
	if h < 8 {
		return st.u[h] >> 32
	}
	return st.u[h-8] & math.MaxUint32
}

// Uint64 implements rand.Source64.
func (st *Stream) Uint64() uint64 {
	if st.left == 0 {
		st.round()
		st.left = len(st.u)
	}
	st.left--
	return st.u[len(st.u)-1-st.left]
}

// Int63 implements rand.Source.
func (st *Stream) Int63() int64 { return int64(st.Uint64() >> 1) }

// vectorFills reports whether the fills run the amd64 kernels: under either
// vector backend, since one 256-bit kernel per fill serves both tiers.
func vectorFills() bool { return tensor.ActiveBackend() != tensor.Scalar }

// indices fills idx with uniform draws from [0, rows): no division and no
// call per draw, the rejection threshold computed once. The kernel fills
// whole rounds until one rejects a half or would overrun idx; it leaves that
// round in u, and the loop below finishes it by the rule.
func (st *Stream) indices(idx []int, rows int) {
	if rows <= 0 {
		panic(fmt.Sprintf("model: index draw over %d rows", rows))
	}
	st.left = 0
	n := uint64(rows)
	if n > math.MaxUint32 {
		reject := -n % n
		for j := 0; j < len(idx); {
			st.round()
			for _, u := range st.u {
				if hi, lo := bits.Mul64(u, n); lo >= reject {
					idx[j] = int(hi)
					if j++; j == len(idx) {
						break
					}
				}
			}
		}
		return
	}
	reject := -uint32(n) % uint32(n)
	vector := vectorFills()
	for j := 0; j < len(idx); {
		if !vector {
			st.round()
		} else if j += indicesAVX2(st, idx[j:], n, uint64(reject)); j == len(idx) {
			break
		}
		for h := range 16 {
			if m := st.half(h) * n; uint32(m) >= reject {
				idx[j] = int(m >> 32)
				if j++; j == len(idx) {
					break
				}
			}
		}
	}
}

// dense fills x with uniform draws from [-1, 1), sixteen per round, the
// kernel's way as indices' (it never rejects, so it stops only at the tail).
func (st *Stream) dense(x []float32) {
	st.left = 0
	vector := vectorFills()
	for i := 0; i < len(x); {
		if !vector {
			st.round()
		} else if i += denseAVX2(st, x[i:]); i == len(x) {
			break
		}
		for h := range 16 {
			x[i] = float32(float32(int32(st.half(h)>>8))*(1.0/(1<<23))) - 1
			if i++; i == len(x) {
				break
			}
		}
	}
}

package model

import (
	"fmt"
	"math"
	"math/bits"
)

// Stream is the lanes' input-draw generator: what a live CPU worker, the
// accelerator lane and the offline RealEngine fabricate a query's features
// from. It is a definition, not an implementation detail — stream_test.go
// restates every clause below one Uint64 at a time:
//
//   - State: four uint64 words, xoshiro256++ (Blackman & Vigna). Seed(seed)
//     sets them to four successive splitmix64 outputs from x = uint64(seed):
//     x += 0x9e3779b97f4a7c15; z = x; z = (z ^ z>>30) * 0xbf58476d1ce4e5b9;
//     z = (z ^ z>>27) * 0x94d049bb133111eb; word = z ^ z>>31.
//   - Step: Uint64 returns rotl(s0+s3, 23) + s0, then t = s1<<17; s2 ^= s0;
//     s3 ^= s1; s1 ^= s2; s0 ^= s3; s2 ^= t; s3 = rotl(s3, 45).
//     Int63 is Uint64()>>1.
//   - Halves: a fill reads each step's output as two 32-bit halves, the
//     high one first. A fill that ends on a high half drops the low one:
//     the next fill starts on a fresh step.
//   - Indices below 2^32 rows (Lemire's multiply-shift): a half x gives
//     m = x*rows; it is rejected when uint32(m) < (2^32-rows) % rows and
//     the next half tried, else the index is m>>32. From 2^32 rows up the
//     same rule runs on whole steps and the 128-bit product: rejected when
//     its low word < (2^64-rows) % rows, else the index is its high word.
//   - Dense: a half x gives float32(x>>8) * 2^-23 - 1, exact in float32 and
//     in [-1, 1); nothing is rejected.
//
// A Stream is also a rand.Source64, so rand.New(st) is a view of the same
// state: internal/workload's skewed access distributions draw through that
// view, interleaved with the direct fills, on one seeded stream. It is not
// safe for concurrent use; each lane owns its own.
//
// The stream Recommend, the goldens and cmd/bench's pin are defined on is
// the other one: *rand.Rand through NewInput / NewInputInto.
type Stream struct{ s [4]uint64 }

// NewStream returns a Stream seeded with seed.
func NewStream(seed int64) *Stream {
	st := &Stream{}
	st.Seed(seed)
	return st
}

// Seed implements rand.Source: it resets the stream to the state NewStream(seed) has.
func (st *Stream) Seed(seed int64) {
	x := uint64(seed)
	for i := range st.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		st.s[i] = z ^ z>>31
	}
}

// xoshiro is one xoshiro256++ step on a state held in values, so the bulk
// fills keep it in registers across a whole table; it inlines.
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

// Uint64 implements rand.Source64.
func (st *Stream) Uint64() (out uint64) {
	out, st.s[0], st.s[1], st.s[2], st.s[3] = xoshiro(st.s[0], st.s[1], st.s[2], st.s[3])
	return out
}

// Int63 implements rand.Source.
func (st *Stream) Int63() int64 { return int64(st.Uint64() >> 1) }

// indices fills idx with uniform draws from [0, rows): no division and no
// call per draw, the rejection threshold computed once.
func (st *Stream) indices(idx []int, rows int) {
	if rows <= 0 {
		panic(fmt.Sprintf("model: index draw over %d rows", rows))
	}
	s0, s1, s2, s3 := st.s[0], st.s[1], st.s[2], st.s[3]
	var u uint64
	if n := uint64(rows); n > math.MaxUint32 {
		reject := -n % n
		for j := 0; j < len(idx); {
			u, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			if hi, lo := bits.Mul64(u, n); lo >= reject {
				idx[j] = int(hi)
				j++
			}
		}
	} else {
		reject := -uint32(n) % uint32(n)
		for j := 0; j < len(idx); {
			u, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
			if m := u >> 32 * n; uint32(m) >= reject {
				idx[j] = int(m >> 32)
				if j++; j == len(idx) {
					break
				}
			}
			if m := u & math.MaxUint32 * n; uint32(m) >= reject {
				idx[j] = int(m >> 32)
				j++
			}
		}
	}
	st.s = [4]uint64{s0, s1, s2, s3}
}

// dense fills x with uniform draws from [-1, 1), two per step.
func (st *Stream) dense(x []float32) {
	s0, s1, s2, s3 := st.s[0], st.s[1], st.s[2], st.s[3]
	var u uint64
	for i := 0; i < len(x); i += 2 {
		u, s0, s1, s2, s3 = xoshiro(s0, s1, s2, s3)
		x[i] = float32(int32(u>>40))*(1.0/(1<<23)) - 1
		if i+1 < len(x) {
			x[i+1] = float32(int32(uint32(u)>>8))*(1.0/(1<<23)) - 1
		}
	}
	st.s = [4]uint64{s0, s1, s2, s3}
}

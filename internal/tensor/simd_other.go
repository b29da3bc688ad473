//go:build !amd64

package tensor

// Non-amd64 stubs. detectBackend is constant-Scalar off amd64, so simdActive
// can never be true and none of these are reachable; they exist only to keep
// the dispatchers portable.

func axpySIMD(alpha float32, x, y []float32) { panic("tensor: SIMD backend unavailable") }

func addToSIMD(y, x []float32) { panic("tensor: SIMD backend unavailable") }

func addTo8SIMD(dst []float32, s0, s1, s2, s3, s4, s5, s6, s7 []float32) {
	panic("tensor: SIMD backend unavailable")
}

func poolSumSIMD(dst, table []float32, dim int, lists [][]int) (list, pos int) {
	panic("tensor: SIMD backend unavailable")
}

func fcSIMD(out, a *Tensor, w *Panel, bias []float32, relu bool) {
	panic("tensor: SIMD backend unavailable")
}

func reluSIMD(x []float32) { panic("tensor: SIMD backend unavailable") }

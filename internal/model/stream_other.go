//go:build !amd64

package model

// Off amd64 the active backend is always scalar, so the fills never reach
// these; they keep the dispatch portable.

func indicesAVX2(st *Stream, idx []int, rows, reject uint64) (n int) {
	panic("model: vector fills unavailable")
}

func denseAVX2(st *Stream, x []float32) (n int) { panic("model: vector fills unavailable") }

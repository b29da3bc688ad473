package model

// The fills' kernels (stream_amd64.s). Neither retains or escapes a pointer.

//go:noescape
func indicesAVX2(st *Stream, idx []int, rows, reject uint64) (n int)

//go:noescape
func denseAVX2(st *Stream, x []float32) (n int)

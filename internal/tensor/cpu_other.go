//go:build !amd64

package tensor

// detectBackend is the non-amd64 stub: the vector backends only exist on
// amd64, so detection is constant-Scalar and dispatch always stays scalar.
func detectBackend() Backend { return Scalar }

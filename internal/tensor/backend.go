package tensor

import (
	"fmt"
	"os"
	"sync/atomic"
)

// Backend identifies a kernel implementation family for the hot vector and
// GEMM kernels (FCInto and the MatMul* built on it, ReLU, AXPY, AddTo,
// AddTo8, PoolSum).
//
// The backends form two numerical tiers:
//
//   - Scalar preserves the historical floating-point evaluation order
//     bit-for-bit (pinned against the retained naive references and the
//     end-to-end goldens). It is the portable fallback and the reference.
//     Its kernels write every product that feeds an add as float32(a*b):
//     without the conversion the Go spec lets a compiler fuse the two, and
//     arm64's does.
//   - AVX2 uses fused multiply-add, which changes rounding. Its GEMM
//     contract is exact: every output element starts from its bias and
//     receives fma(a[i,k], b[k,j], acc) in strictly increasing k, no element
//     of a skipped, except the under-8-column tail, which rounds the
//     multiply and then the add. Against the scalar backend the contract is
//     tolerance-based: small relative/ULP error (pinned by the differential
//     tests in simd_test.go), with the kernels that only add (AddTo, AddTo8,
//     PoolSum) still bit-identical because vectorizing an elementwise add
//     reorders nothing.
//   - AVX512 is AVX2 with a wider register tile for the GEMM (FCInto) and
//     nothing else: the same contract, so it is bit-identical to AVX2 on
//     every kernel — one vector tier, held by bits. AXPY, AddTo, AddTo8,
//     ReLU and PoolSum run the 256-bit kernels under it: the pooling kernel
//     is bound by the µops it issues per lookup, not by register width — ZMM
//     accumulators measured 2% better inside an RMC1 forward pass, and a
//     second kernel has to earn 10% (see poolSumAVX2).
//
// Each backend's requirements include the previous one's, so the backends a
// process can run are always a prefix of this list.
type Backend int32

// The available backends, narrowest first.
const (
	// Scalar is the pure-Go portable backend, bit-identical to the
	// pre-SIMD kernels on every platform.
	Scalar Backend = iota
	// AVX2 is the amd64 AVX2+FMA assembly backend.
	AVX2
	// AVX512 is the AVX2 backend with AVX-512F GEMM micro-kernels.
	AVX512
)

// String implements fmt.Stringer.
func (b Backend) String() string {
	switch b {
	case Scalar:
		return "scalar"
	case AVX2:
		return "avx2"
	case AVX512:
		return "avx512"
	default:
		return fmt.Sprintf("Backend(%d)", int32(b))
	}
}

// BackendEnv is the environment variable consulted once at package init. It
// can only restrict what the hardware offers: the starting backend is the
// widest one still allowed, and SetBackend refuses anything wider for the
// whole process.
//
//	DEEPRECSYS_BACKEND=        auto (default): the widest backend the CPU
//	                           and OS support — AVX512, else AVX2, else scalar
//	DEEPRECSYS_BACKEND=auto    same
//	DEEPRECSYS_BACKEND=simd    same
//	DEEPRECSYS_BACKEND=avx2    at most the 256-bit tier (scalar when
//	                           unsupported), reproducing a host without
//	                           AVX-512 exactly
//	DEEPRECSYS_BACKEND=scalar  force scalar, reproducing a non-AVX2 host
//	                           exactly
//
// Unrecognized values behave as auto. The scalar force is the reproducibility
// switch: every result produced before the SIMD backend existed is
// bit-identical under it.
const BackendEnv = "DEEPRECSYS_BACKEND"

var (
	supported Backend // widest backend the CPU and OS support, probed once at init
	allowed   Backend // supported, minus any BackendEnv restriction
	active    atomic.Int32
)

func init() {
	supported = detectBackend()
	allowed = supported
	switch os.Getenv(BackendEnv) {
	case "scalar":
		allowed = Scalar
	case "avx2":
		allowed = min(supported, AVX2)
	}
	active.Store(int32(allowed))
}

// Backends returns the backends this process can activate, Scalar first and
// the widest — the one serving kernel calls unless SetBackend changed it —
// last. Tests loop over it to cover every tier the host can run, and gate
// (or skip) their vector-path assertions on it having more than one entry.
func Backends() []Backend {
	bs := make([]Backend, 0, allowed+1)
	for b := Scalar; b <= allowed; b++ {
		bs = append(bs, b)
	}
	return bs
}

// ActiveBackend returns the backend currently serving kernel calls.
func ActiveBackend() Backend { return Backend(active.Load()) }

// SetBackend pins the kernel backend, overriding the init-time choice. It is
// the explicit hook for tests and benchmarks to run every path; switching is
// safe at any time (kernels read the backend atomically per call), though
// callers comparing outputs should not switch mid-operation. Requesting a
// backend this host (or, under BackendEnv, this process) cannot run returns
// an error and leaves the active backend unchanged.
func SetBackend(b Backend) error {
	switch {
	case b < Scalar || b > AVX512:
		return fmt.Errorf("tensor: unknown backend %v", b)
	case b > supported:
		return fmt.Errorf("tensor: %v backend unsupported on this CPU", b)
	case b > allowed:
		return fmt.Errorf("tensor: %v backend disabled by %s=%s", b, BackendEnv, os.Getenv(BackendEnv))
	}
	active.Store(int32(b))
	return nil
}

// simdActive reports whether kernel calls should take the vector path. It
// compiles to a single atomic load (a plain MOV on amd64), so per-call
// dispatch costs nothing measurable even for short vectors.
func simdActive() bool { return active.Load() != int32(Scalar) }

// zmmActive reports whether the vector path's GEMM loops may use the 512-bit
// micro-kernel for full register tiles.
func zmmActive() bool { return active.Load() == int32(AVX512) }

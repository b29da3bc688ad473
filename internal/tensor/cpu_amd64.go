package tensor

// Implemented in cpu_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv0() (eax, edx uint32)

// detectBackend returns the widest backend this CPU and OS together support.
//
// AVX2 needs the AVX2 and FMA instruction sets plus OS-managed YMM state
// (OSXSAVE set and XCR0 enabling both XMM and YMM saves — without the
// latter, executing a VEX-256 instruction faults even on capable silicon).
// AVX512 needs all of that plus AVX-512F (the only extension its kernels
// encode — no DQ/VL/BW) and XCR0 enabling the three AVX-512 state
// components: opmask registers, the upper halves of ZMM0–15, and ZMM16–31.
func detectBackend() Backend {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return Scalar
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
		avxBit     = 1 << 28
	)
	if ecx1&fmaBit == 0 || ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 {
		return Scalar
	}
	xcr0, _ := xgetbv0()
	if xcr0&0x6 != 0x6 { // XMM (bit 1) and YMM (bit 2) state enabled
		return Scalar
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const (
		avx2Bit    = 1 << 5
		avx512fBit = 1 << 16
	)
	if ebx7&avx2Bit == 0 {
		return Scalar
	}
	if ebx7&avx512fBit == 0 || xcr0&0xe0 != 0xe0 { // opmask (5), ZMM_Hi256 (6), Hi16_ZMM (7)
		return AVX2
	}
	return AVX512
}

//go:build amd64 && !purego

package kernel

// useAVX2 reports whether the AVX2 kernel bodies are safe to execute: the CPU
// must advertise AVX2 and the OS must have enabled YMM state saving. Detected
// once at startup; the unrolled Go bodies remain the fallback (and the tail
// path inside the assembly).
var useAVX2 = detectAVX2()

func init() {
	if useAVX2 {
		Impl = "avx2"
	}
}

// cpuidAsm executes CPUID for the given leaf and subleaf.
func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0. Only valid after OSXSAVE has been verified.
func xgetbvAsm() (eax, edx uint32)

func detectAVX2() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx, _ := cpuidAsm(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX) must both be set for YMM state to be
	// preserved across context switches.
	xlo, _ := xgetbvAsm()
	if xlo&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuidAsm(7, 0)
	return ebx&(1<<5) != 0
}

// The assembly kernels take raw pointers plus an explicit length: the Go
// wrappers have already bounds-checked every operand against len(dst), so the
// assembly only needs the element count. Each body processes 8 doubles per
// iteration on two independent accumulator chains, then a 4-wide block, then
// a scalar tail; per-lane multiply and add roundings — and x86 NaN-operand
// selection — match the unrolled Go bodies exactly.

func f64MulAddAVX2(dst, row *float64, n int, w float64)
func f64MulAdd2AVX2(dst, r1, r2 *float64, n int, w1, w2 float64)
func f64MulAdd4AVX2(dst, r1, r2, r3, r4 *float64, n int, w1, w2, w3, w4 float64)

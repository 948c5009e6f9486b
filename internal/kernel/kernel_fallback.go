//go:build !amd64 && !purego

package kernel

// useAVX2 is constant-false off amd64, so the dispatch branches in the
// unrolled bodies compile away and the stubs below are never reached.
const useAVX2 = false

func f64MulAddAVX2(dst, row *float64, n int, w float64) {
	panic("kernel: no asm")
}

func f64MulAdd2AVX2(dst, r1, r2 *float64, n int, w1, w2 float64) {
	panic("kernel: no asm")
}

func f64MulAdd4AVX2(dst, r1, r2, r3, r4 *float64, n int, w1, w2, w3, w4 float64) {
	panic("kernel: no asm")
}

//go:build purego

package kernel

// Impl names the compiled-in kernel implementation.
const Impl = "purego"

// F64MulAdd folds one weighted row into the accumulator: for every lane j,
// dst[j] += w * row[j]. Reference scalar form of the unrolled kernel; the
// per-lane evaluation order and roundings are identical.
func F64MulAdd(dst, row []float64, w float64) {
	for j := range dst {
		dst[j] += w * row[j]
	}
}

// F64MulAdd2 folds two weighted rows: dst[j] = (dst[j] + w1*r1[j]) + w2*r2[j]
// in exactly that association.
func F64MulAdd2(dst, r1, r2 []float64, w1, w2 float64) {
	for j := range dst {
		dst[j] = (dst[j] + w1*r1[j]) + w2*r2[j]
	}
}

// F64MulAdd4 folds four weighted rows:
// dst[j] = ((((dst[j] + w1*r1[j]) + w2*r2[j]) + w3*r3[j]) + w4*r4[j]).
func F64MulAdd4(dst, r1, r2, r3, r4 []float64, w1, w2, w3, w4 float64) {
	for j := range dst {
		dst[j] = (((dst[j] + w1*r1[j]) + w2*r2[j]) + w3*r3[j]) + w4*r4[j]
	}
}

// F64MulAdd4Set writes the first four weighted rows:
// dst[j] = ((w1*r1[j] + w2*r2[j]) + w3*r3[j]) + w4*r4[j].
func F64MulAdd4Set(dst, r1, r2, r3, r4 []float64, w1, w2, w3, w4 float64) {
	for j := range dst {
		dst[j] = ((w1*r1[j] + w2*r2[j]) + w3*r3[j]) + w4*r4[j]
	}
}

// F64MulAddSet writes the first weighted row: dst[j] = w * row[j]. See the
// unrolled variant for the exact-zero sign caveat versus folding into a
// zeroed accumulator.
func F64MulAddSet(dst, row []float64, w float64) {
	for j := range dst {
		dst[j] = w * row[j]
	}
}

// F64MulAdd2Set writes the first two weighted rows:
// dst[j] = w1*r1[j] + w2*r2[j].
func F64MulAdd2Set(dst, r1, r2 []float64, w1, w2 float64) {
	for j := range dst {
		dst[j] = w1*r1[j] + w2*r2[j]
	}
}

// U64Min folds a row of ranks into the running minima.
func U64Min(dst, row []uint64) {
	for j := range dst {
		if row[j] < dst[j] {
			dst[j] = row[j]
		}
	}
}

// U64Min2 folds two rank rows into the running minima.
func U64Min2(dst, r1, r2 []uint64) {
	for j := range dst {
		m := dst[j]
		if r1[j] < m {
			m = r1[j]
		}
		if r2[j] < m {
			m = r2[j]
		}
		dst[j] = m
	}
}

// Package kernel holds the vectorizable inner loops of batch signing: the
// multiply-add accumulation that projects a vector entry onto a fused row of
// ℓ·k hyperplane components (SimHash) and the element-wise min scan that
// folds a row of keyed ranks into the running minima (MinHash). These loops
// dominate corpus signing once keyed-stream values are cached per dimension,
// so they are written gonum-style: manually unrolled 4-wide with the
// remainder peeled, bounds checks hoisted by reslicing, and independent
// accumulator chains so out-of-order cores overlap the latency.
//
// Every kernel adds into an accumulator the caller has already initialized;
// the signing engine (internal/lsh) clears it first and then makes one fold
// per hash family, foldSim or foldMin, call these kernels for every entry of
// a vector. Every kernel documents — and the purego fallback preserves — its
// exact floating-point evaluation order, because the engine's acceptance bar
// is byte-identical signatures to the naive per-vector path: for a given
// lane index j, contributions must fold in exactly the order given, with one
// rounding per multiply and one per add. Unrolling across j is always safe
// (lanes are independent); unrolling across *calls* is the caller's business
// and must keep the per-lane order too, which is why the fused multi-entry
// variants (F64MulAdd2, F64MulAdd4, U64Min2) exist: they cut the accumulator
// load/store traffic while evaluating (dst[j] + w1·r1[j]) + w2·r2[j] (and
// so on) in that exact association. Folding into a zeroed accumulator in
// entry order therefore reproduces the naive dot product bit for bit.
//
// Builds tagged `purego` swap every unrolled body for the plain range loop
// (kernel_purego.go), keeping a reference implementation compiled and tested
// in CI; kernel_test.go proves the two produce bit-identical results on
// randomized lengths, including the NaN/Inf edge cases the engine can feed
// through non-finite weights. Impl names the compiled-in implementation so
// benchmarks and test failures can report which kernels ran.
package kernel

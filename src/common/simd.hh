/**
 * @file
 * Portable SIMD kernel layer with runtime ISA dispatch.
 *
 * The MiniMKL kernels are written against a *virtual* fixed-width
 * vector machine: 8-lane f32 vectors for maps, 8-lane f64 accumulators
 * for reductions, and 4-lane cfloat vectors for complex work. One
 * generic implementation (simd_backend.inc, plain compiler vector
 * extensions) is compiled once per ISA level: the baseline ISA for the
 * scalar level (`-march=x86-64` on x86, the target default elsewhere),
 * and on x86 also SSE4.2, AVX2 and (compiler permitting) AVX-512, each
 * with `-O3 -ffp-contract=off -fno-tree-vectorize`. The best table the
 * CPU supports is selected at startup via cpuid.
 *
 * Determinism contract (see docs/KERNELS.md): every level executes the
 * *same* generic source with the same fixed 8-lane layout (element i
 * lives in lane i mod 8) and the same fixed-order lane-combine trees,
 * with FP contraction and auto-vectorization off, so all levels
 * produce bit-identical results to each other — for any thread count,
 * since the deterministicReduce chunk tree is unchanged and lanes are
 * re-seeded per chunk. The level selects speed, never bits.
 *
 * Selection: `MEALIB_SIMD=scalar|sse4|avx2|avx512|auto` (default auto)
 * is read into KernelTuning once at startup and can be overridden at
 * runtime via kernelTuning().simd; requests above what the CPU (or the
 * build) supports clamp down to the best available level.
 */

#ifndef MEALIB_COMMON_SIMD_HH
#define MEALIB_COMMON_SIMD_HH

#include <cstdint>
#include <vector>

namespace mealib::simd {

/** ISA levels of the virtual-vector backends, in capability order. */
enum class SimdLevel : int
{
    Scalar = 0, //!< baseline ISA (x86-64 SSE2, or the target default)
    Sse4 = 1,   //!< 128-bit vectors (SSE4.2)
    Avx2 = 2,   //!< 256-bit vectors (AVX2)
    Avx512 = 3, //!< 512-bit vectors (AVX-512 F/VL/DQ)
    Auto = 4,   //!< resolve to the best level the CPU supports
};

/** Lower-case name used by MEALIB_SIMD, --simd and the bench JSON. */
const char *name(SimdLevel level);

/** Parse a MEALIB_SIMD-style string. @return false on junk. */
bool parseLevel(const char *text, SimdLevel *out);

/**
 * Best level both the CPU (cpuid) and the build support. Computed once
 * per process.
 */
SimdLevel detectedLevel();

/** Resolve a request: Auto -> detected, else min(request, detected). */
SimdLevel resolveLevel(SimdLevel request);

/** The level the kernels run at right now (kernelTuning().simd). */
SimdLevel activeLevel();

/** Every level this process can actually run, scalar first. */
std::vector<SimdLevel> availableLevels();

/**
 * One virtual-vector kernel table. All pointers are contiguous
 * (unit-stride) arrays; complex arguments are interleaved re/im float
 * pairs and `n` counts complex elements. Reduction kernels implement
 * the fixed 8-lane accumulator layout described above and are meant to
 * be called per deterministicReduce chunk.
 */
struct Kernels
{
    // --- f32 maps (elementwise: bit-identical to a plain loop) -------
    /** y[i] += a * x[i] */
    void (*saxpy)(std::int64_t n, float a, const float *x, float *y);
    /** y[i] = a * x[i] + b * y[i] */
    void (*saxpby)(std::int64_t n, float a, const float *x, float b,
                   float *y);
    /** x[i] *= a */
    void (*sscal)(std::int64_t n, float a, float *x);
    /** y[i] = x[i] */
    void (*scopy)(std::int64_t n, const float *x, float *y);
    /** y[i] = alpha * x[i] */
    void (*scopyScale)(std::int64_t n, float alpha, const float *x,
                       float *y);
    /** y[k] += (ar + i*ai) * x[k] over n interleaved complex elements */
    void (*caxpy)(std::int64_t n, float ar, float ai, const float *x,
                  float *y);

    // --- fixed-width reductions (8 f64 lanes, fixed combine tree) ----
    /** sum x[i] * y[i] in f64 */
    double (*sdot)(std::int64_t n, const float *x, const float *y);
    /** sum |x[i]| in f64 */
    double (*sasum)(std::int64_t n, const float *x);
    /** slassq-style partial: scale = max|x|, ssq = sum (x/scale)^2 */
    void (*slassq)(std::int64_t n, const float *x, double *scale,
                   double *ssq);
    /**
     * Complex dot over n interleaved elements: conj(x).y when @p conjx,
     * else x.y, accumulated in 4 complex f64 lanes.
     */
    void (*cdot)(std::int64_t n, const float *x, const float *y,
                 bool conjx, double *re, double *im);
    /** CSR row gather-dot: sum vals[k] * x[cols[k] - base] in f64 */
    double (*csrdot)(std::int64_t n, const float *vals,
                     const std::int32_t *cols, std::int32_t base,
                     const float *x);

    // --- structured kernels ------------------------------------------
    /**
     * FFT butterfly over s interleaved complex elements:
     * ya[q] = xa[q] + xb[q]; yb[q] = (xa[q] - xb[q]) * (wr + i*wi).
     * Same elementwise ops as a plain complex loop (bit-identical).
     */
    void (*fftButterfly)(std::int64_t s, const float *xa, const float *xb,
                         float *ya, float *yb, float wr, float wi);
    /**
     * Transposing tile copy: b[j*ldb + i] = alpha * a[i*lda + j] for
     * i < rows, j < cols (8x8 in-register micro blocks, scalar edges;
     * bit-identical to the elementwise loop).
     */
    void (*somatTile)(std::int64_t rows, std::int64_t cols, float alpha,
                      const float *a, std::int64_t lda, float *b,
                      std::int64_t ldb);
};

/** Table for @p level, clamped to what this process can run. */
const Kernels &tableFor(SimdLevel level);

/** The active table. Resolve once per kernel entry, not per chunk. */
const Kernels &active();

} // namespace mealib::simd

#endif // MEALIB_COMMON_SIMD_HH

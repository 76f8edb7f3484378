/**
 * @file
 * 1D data resampling (Table 1: RESMP; MKL's data-fitting
 * dfsInterpolate1D). Uniform-grid interpolation of real or complex
 * signals with linear, Catmull-Rom and windowed-sinc kernels — the
 * range-interpolation step of SAR backprojection uses the complex
 * windowed-sinc path.
 */

#ifndef MEALIB_MINIMKL_RESAMPLE_HH
#define MEALIB_MINIMKL_RESAMPLE_HH

#include <cstdint>

#include "minimkl/types.hh"

namespace mealib::mkl {

/** Interpolation kernel selector. */
enum class InterpKind
{
    Linear,     //!< 2-tap linear
    CatmullRom, //!< 4-tap cubic
    Sinc8,      //!< 8-tap Hann-windowed sinc
};

/**
 * Resample @p n input samples (uniform grid over [0, n-1]) to @p m
 * output samples (uniform grid over the same span). Edge taps clamp.
 */
void resample1d(const float *in, std::int64_t n, float *out,
                std::int64_t m, InterpKind kind);

/** Complex-signal variant of resample1d(). */
void resample1dc(const cfloat *in, std::int64_t n, cfloat *out,
                 std::int64_t m, InterpKind kind);

/**
 * Interpolate @p in (length @p n, uniform grid over [0, n-1]) at the
 * arbitrary sites @p x (length @p m) — the general dfsInterpolate1D
 * shape. Sites outside the grid clamp to the edges.
 */
void interpolate1dAt(const float *in, std::int64_t n, const double *x,
                     std::int64_t m, float *out, InterpKind kind);

} // namespace mealib::mkl

#endif // MEALIB_MINIMKL_RESAMPLE_HH

/**
 * @file
 * Complex single-precision FFT with an FFTW-guru-style plan interface.
 *
 * The STAP program in the paper (Listing 1) drives FFTW through
 * fftwf_plan_guru_dft: rank-0 plans perform pure strided data copies
 * (mapped by MEALib to the RESHP accelerator) and rank-1/2 plans perform
 * batched transforms (mapped to the FFT accelerator). This module
 * implements that interface subset over an iterative Stockham autosort
 * kernel (power-of-two sizes, unnormalized, FFTW sign conventions).
 */

#ifndef MEALIB_MINIMKL_FFT_HH
#define MEALIB_MINIMKL_FFT_HH

#include <cstdint>
#include <vector>

#include "minimkl/types.hh"

namespace mealib::mkl {

/** Transform direction; values follow FFTW (forward = -1). */
enum class FftDirection : int
{
    Forward = -1,
    Inverse = +1,
};

/** One transform or loop dimension (FFTW guru iodim). */
struct FftDim
{
    std::int64_t n;  //!< extent
    std::int64_t is; //!< input stride in elements
    std::int64_t os; //!< output stride in elements
};

/**
 * A prepared transform: @p dims are the transform dimensions (rank 0, 1
 * or 2; extents must be powers of two) and @p loops are batch dimensions
 * iterated around it. Twiddle tables are precomputed at plan time.
 */
class FftPlan
{
  public:
    /**
     * Build a guru-style plan. Rank 0 (empty @p dims) is a strided copy.
     * fatal() on non-power-of-two transform extents or rank > 2.
     */
    FftPlan(std::vector<FftDim> dims, std::vector<FftDim> loops,
            FftDirection dir);

    /** Convenience: 1D contiguous transform of length @p n. */
    static FftPlan dft1d(std::int64_t n, FftDirection dir);

    /**
     * Convenience: @p howmany contiguous transforms of length @p n with
     * batch distance @p dist (elements).
     */
    static FftPlan dft1dBatched(std::int64_t n, std::int64_t howmany,
                                std::int64_t dist, FftDirection dir);

    /** Convenience: row-major 2D transform of @p rows x @p cols. */
    static FftPlan dft2d(std::int64_t rows, std::int64_t cols,
                         FftDirection dir);

    /**
     * Execute on @p in / @p out. in == out (in-place) is supported;
     * partially overlapping distinct buffers are not.
     */
    void execute(const cfloat *in, cfloat *out) const;

    /** Transform points per batch iteration (1 for rank 0 copies). */
    std::int64_t transformPoints() const { return points_; }

    /** Number of batch iterations. */
    std::int64_t batchCount() const { return batch_; }

    /** True for rank-0 (pure data motion) plans. */
    bool isCopy() const { return dims_.empty(); }

    /** Transform dimensions (rank 0-2), outermost first. */
    const std::vector<FftDim> &dims() const { return dims_; }

    FftDirection direction() const { return dir_; }

  private:
    /** Contiguous power-of-two Stockham kernel; result ends in @p x. */
    void kernel(cfloat *x, cfloat *y, std::int64_t n) const;

    /** Strided 1D transform via gather / kernel / scatter. */
    void dft1dStrided(const cfloat *in, std::int64_t is, cfloat *out,
                      std::int64_t os, std::int64_t n) const;

    /** Apply the rank-dims transform at one batch offset pair. */
    void applyOne(const cfloat *in, cfloat *out) const;

    std::vector<FftDim> dims_;
    std::vector<FftDim> loops_;
    FftDirection dir_;
    std::int64_t points_ = 1;
    std::int64_t batch_ = 1;
    std::vector<cfloat> twiddles_; //!< exp(dir*2*pi*i*k/nmax), k < nmax/2
    std::int64_t twiddleN_ = 0;    //!< nmax the table was built for
};

/** Scale @p buf by 1/n (apply after an Inverse transform to round-trip). */
void fftNormalize(cfloat *buf, std::int64_t count, std::int64_t n);

/** O(n^2) reference DFT used by tests and tiny problems. */
void naiveDft(const cfloat *in, cfloat *out, std::int64_t n,
              FftDirection dir);

} // namespace mealib::mkl

#endif // MEALIB_MINIMKL_FFT_HH

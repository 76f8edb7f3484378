/**
 * @file
 * Deliberately straightforward reference implementations.
 *
 * Two uses: (1) differential oracles for the optimized MiniMKL kernels in
 * the test suite, and (2) the "original code" side of the paper's Figure 1,
 * which compares handwritten loops against library implementations.
 */

#ifndef MEALIB_MINIMKL_NAIVE_HH
#define MEALIB_MINIMKL_NAIVE_HH

#include <cstdint>
#include <vector>

#include "minimkl/sparse.hh"
#include "minimkl/types.hh"

namespace mealib::mkl::naive {

/** Textbook axpy loop. */
void saxpy(std::int64_t n, float a, const float *x, float *y);

/** Textbook dot product (single-precision accumulation). */
float sdot(std::int64_t n, const float *x, const float *y);

/** Textbook row-major gemv: y := A*x. */
void sgemv(std::int64_t m, std::int64_t n, const float *a,
           std::int64_t lda, const float *x, float *y);

/** Unblocked transpose: b := a^T (a is rows x cols row-major). */
void transpose(std::int64_t rows, std::int64_t cols, const float *a,
               float *b);

/** Textbook CSR SpMV. */
void spmv(const CsrMatrix &a, const float *x, float *y);

/** Recursive radix-2 Cooley-Tukey DFT (power-of-two n, out-of-place). */
void fftRecursive(const cfloat *in, cfloat *out, std::int64_t n,
                  int dir);

} // namespace mealib::mkl::naive

#endif // MEALIB_MINIMKL_NAIVE_HH

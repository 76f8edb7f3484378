/**
 * @file
 * Level-2 BLAS: matrix-vector operations (Table 1: GEMV).
 */

#ifndef MEALIB_MINIMKL_BLAS2_HH
#define MEALIB_MINIMKL_BLAS2_HH

#include <cstdint>

#include "minimkl/types.hh"

namespace mealib::mkl {

/**
 * y := alpha*op(A)*x + beta*y for a dense m x n matrix A with leading
 * dimension @p lda in storage order @p order.
 */
void sgemv(Order order, Transpose trans, std::int64_t m, std::int64_t n,
           float alpha, const float *a, std::int64_t lda, const float *x,
           std::int64_t incx, float beta, float *y, std::int64_t incy);

} // namespace mealib::mkl

#endif // MEALIB_MINIMKL_BLAS2_HH

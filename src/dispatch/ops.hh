/**
 * @file
 * Dispatched library entry points for application code.
 *
 * Same signatures and numerics as the mkl:: kernels they wrap — under
 * the default HostOnly policy each wrapper is exactly one mkl:: call —
 * but every invocation lowers into an OpDesc and flows through the
 * calling thread's current dispatcher (the bound session's, else
 * Dispatcher::global()), so the apps' library calls are counted,
 * policy-routed and offloadable without touching the call sites again.
 */

#ifndef MEALIB_DISPATCH_OPS_HH
#define MEALIB_DISPATCH_OPS_HH

#include <cstdint>

#include "minimkl/sparse.hh"
#include "minimkl/types.hh"

namespace mealib::dispatch::ops {

void saxpy(std::int64_t n, float a, const float *x, std::int64_t incx,
           float *y, std::int64_t incy);
void saxpby(std::int64_t n, float a, const float *x, std::int64_t incx,
            float b, float *y, std::int64_t incy);
void caxpy(std::int64_t n, mkl::cfloat a, const mkl::cfloat *x,
           std::int64_t incx, mkl::cfloat *y, std::int64_t incy);
float sdot(std::int64_t n, const float *x, std::int64_t incx,
           const float *y, std::int64_t incy);
mkl::cfloat cdotc(std::int64_t n, const mkl::cfloat *x,
                  std::int64_t incx, const mkl::cfloat *y,
                  std::int64_t incy);
void scsrmv(const mkl::CsrMatrix &a, const float *x, float *y);
void cherk(mkl::Order order, mkl::Uplo uplo, mkl::Transpose trans,
           std::int64_t n, std::int64_t k, float alpha,
           const mkl::cfloat *a, std::int64_t lda, float beta,
           mkl::cfloat *c, std::int64_t ldc);
void ctrsm(mkl::Order order, mkl::Side side, mkl::Uplo uplo,
           mkl::Transpose trans, mkl::Diag diag, std::int64_t m,
           std::int64_t n, mkl::cfloat alpha, const mkl::cfloat *a,
           std::int64_t lda, mkl::cfloat *b, std::int64_t ldb);
void comatcopy(mkl::Order order, mkl::Transpose trans, std::int64_t rows,
               std::int64_t cols, mkl::cfloat alpha, const mkl::cfloat *a,
               std::int64_t lda, mkl::cfloat *b, std::int64_t ldb);

} // namespace mealib::dispatch::ops

#endif // MEALIB_DISPATCH_OPS_HH

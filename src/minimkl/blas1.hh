/**
 * @file
 * Level-1 BLAS: vector-vector operations. These are the memory-bounded
 * routines MEALib accelerates (Table 1: AXPY, DOT) plus the complex
 * variants the STAP application needs (caxpy, cdotc).
 *
 * All routines accept strides (inc) following BLAS conventions; negative
 * strides address vectors back-to-front as in the standard.
 */

#ifndef MEALIB_MINIMKL_BLAS1_HH
#define MEALIB_MINIMKL_BLAS1_HH

#include <cstdint>

#include "minimkl/types.hh"

namespace mealib::mkl {

/** y := a*x + y (single precision). */
void saxpy(std::int64_t n, float a, const float *x, std::int64_t incx,
           float *y, std::int64_t incy);

/**
 * y := a*x + b*y (single precision; MKL's cblas_saxpby). Matching MKL's
 * observed leniency, x (and its stride) is ignored — and may be null —
 * when a == 0.
 */
void saxpby(std::int64_t n, float a, const float *x, std::int64_t incx,
            float b, float *y, std::int64_t incy);

/** x := a*x (single precision). */
void sscal(std::int64_t n, float a, float *x, std::int64_t incx);

/** y := x (single precision). */
void scopy(std::int64_t n, const float *x, std::int64_t incx, float *y,
           std::int64_t incy);

/** @return sum_i x[i]*y[i] (single precision). */
float sdot(std::int64_t n, const float *x, std::int64_t incx,
           const float *y, std::int64_t incy);

/** @return Euclidean norm of x (single precision, overflow-safe). */
float snrm2(std::int64_t n, const float *x, std::int64_t incx);

/** @return sum of absolute values of x. */
float sasum(std::int64_t n, const float *x, std::int64_t incx);

/** y := a*x + y (complex single precision). */
void caxpy(std::int64_t n, cfloat a, const cfloat *x, std::int64_t incx,
           cfloat *y, std::int64_t incy);

/** @return sum_i conj(x[i])*y[i] (complex dot, conjugated). */
cfloat cdotc(std::int64_t n, const cfloat *x, std::int64_t incx,
             const cfloat *y, std::int64_t incy);

/** @return sum_i x[i]*y[i] (complex dot, unconjugated). */
cfloat cdotu(std::int64_t n, const cfloat *x, std::int64_t incx,
             const cfloat *y, std::int64_t incy);

} // namespace mealib::mkl

#endif // MEALIB_MINIMKL_BLAS1_HH

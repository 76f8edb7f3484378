#include "minimkl/blas2.hh"

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"
#include "minimkl/blas1.hh"

namespace mealib::mkl {

namespace {

/**
 * Reduce every (order, trans) combination to the row-major cases by
 * flipping trans for column-major input: a column-major m x n matrix is a
 * row-major n x m matrix.
 */
struct Canon
{
    std::int64_t rows; //!< logical rows of op(A) in row-major walk
    std::int64_t cols;
    bool transposed;   //!< walk A column-wise instead of row-wise
    bool conj;
};

Canon
canonicalize(Order order, Transpose trans, std::int64_t m, std::int64_t n)
{
    bool t = trans != Transpose::NoTrans;
    bool conj = trans == Transpose::ConjTrans;
    if (order == Order::ColMajor)
        t = !t;
    // With row-major storage: NoTrans walks rows (m x n); Trans walks
    // columns (result length n).
    if (!t)
        return {m, n, false, conj};
    return {n, m, true, conj};
}

} // namespace

void
sgemv(Order order, Transpose trans, std::int64_t m, std::int64_t n,
      float alpha, const float *a, std::int64_t lda, const float *x,
      std::int64_t incx, float beta, float *y, std::int64_t incy)
{
    fatalIf(m < 0 || n < 0, "sgemv: negative dimension");
    fatalIf(incy == 0, "sgemv: zero stride");
    // A and x are unused when alpha == 0 (and may be null, matching the
    // saxpby leniency): validate incx only when x is actually walked.
    fatalIf(alpha != 0.0f && incx == 0, "sgemv: zero stride");
    if (m == 0 || n == 0)
        return;

    // Storage rows/cols as laid out (row-major view of the buffer).
    std::int64_t srows = order == Order::RowMajor ? m : n;
    std::int64_t scols = order == Order::RowMajor ? n : m;
    fatalIf(alpha != 0.0f && lda < scols, "sgemv: lda too small");

    Canon c = canonicalize(order, trans, srows, scols);
    std::int64_t ylen = c.rows;
    std::int64_t xlen = c.cols;

    // y := beta*y
    if (beta == 0.0f) {
        std::int64_t iy = incy >= 0 ? 0 : (1 - ylen) * incy;
        for (std::int64_t i = 0; i < ylen; ++i, iy += incy)
            y[iy] = 0.0f;
    } else if (beta != 1.0f) {
        sscal(ylen, beta, y, incy);
    }
    if (alpha == 0.0f)
        return;

    std::int64_t ybase = incy >= 0 ? 0 : (1 - ylen) * incy;
    std::int64_t xbase = incx >= 0 ? 0 : (1 - xlen) * incx;

    const KernelTuning &tun = kernelTuning();
    const int threads = tun.threadsFor(ylen * xlen);

    const simd::Kernels &sk = simd::active();

    if (!c.transposed) {
        // Row-wise: each output element is a dot product over one stored
        // row — the streaming-friendly case. Rows are independent, so
        // the row range is statically partitioned across the pool; each
        // row's accumulation stays sequential (the SIMD kernel uses the
        // fixed 8-lane accumulator layout), keeping the result
        // bit-identical for any thread count.
        const bool vecRow = incx == 1;
        parallelFor(0, ylen, threads, 1,
                    [&](std::int64_t rb, std::int64_t re) {
                        for (std::int64_t i = rb; i < re; ++i) {
                            double acc = 0.0;
                            const float *row = a + i * lda;
                            if (vecRow) {
                                acc = sk.sdot(xlen, row, x);
                            } else {
                                std::int64_t jx = xbase;
                                for (std::int64_t j = 0; j < xlen;
                                     ++j, jx += incx)
                                    acc += static_cast<double>(row[j]) *
                                           static_cast<double>(x[jx]);
                            }
                            y[ybase + i * incy] +=
                                alpha * static_cast<float>(acc);
                        }
                    });
    } else {
        // Column-wise as saxpy over rows: keeps the matrix walk unit
        // stride. Each thread owns a contiguous slice of y and walks
        // every stored row's slice, so writes never overlap and the
        // per-element accumulation order (j ascending) is unchanged.
        const bool vecCol = incy == 1;
        parallelFor(0, ylen, threads, 256,
                    [&](std::int64_t lb, std::int64_t le) {
                        std::int64_t jx = xbase;
                        for (std::int64_t j = 0; j < xlen;
                             ++j, jx += incx) {
                            float ax = alpha * x[jx];
                            if (ax == 0.0f)
                                continue;
                            const float *row = a + j * lda;
                            if (vecCol) {
                                sk.saxpy(le - lb, ax, row + lb, y + lb);
                                continue;
                            }
                            for (std::int64_t i = lb; i < le; ++i)
                                y[ybase + i * incy] += ax * row[i];
                        }
                    });
    }
}

void
cgemv(Order order, Transpose trans, std::int64_t m, std::int64_t n,
      cfloat alpha, const cfloat *a, std::int64_t lda, const cfloat *x,
      std::int64_t incx, cfloat beta, cfloat *y, std::int64_t incy)
{
    fatalIf(m < 0 || n < 0, "cgemv: negative dimension");
    fatalIf(incy == 0, "cgemv: zero stride");
    // Same leniency as sgemv: A and x are untouched when alpha == 0.
    fatalIf(alpha != cfloat{} && incx == 0, "cgemv: zero stride");
    if (m == 0 || n == 0)
        return;

    std::int64_t srows = order == Order::RowMajor ? m : n;
    std::int64_t scols = order == Order::RowMajor ? n : m;
    fatalIf(alpha != cfloat{} && lda < scols, "cgemv: lda too small");

    Canon c = canonicalize(order, trans, srows, scols);
    std::int64_t ylen = c.rows;
    std::int64_t xlen = c.cols;

    std::int64_t ybase = incy >= 0 ? 0 : (1 - ylen) * incy;
    std::int64_t xbase = incx >= 0 ? 0 : (1 - xlen) * incx;

    if (beta == cfloat{}) {
        for (std::int64_t i = 0; i < ylen; ++i)
            y[ybase + i * incy] = cfloat{};
    } else if (beta != cfloat{1.0f, 0.0f}) {
        for (std::int64_t i = 0; i < ylen; ++i)
            y[ybase + i * incy] *= beta;
    }
    if (alpha == cfloat{})
        return;

    auto maybe_conj = [&](cfloat v) { return c.conj ? std::conj(v) : v; };

    const KernelTuning &tun = kernelTuning();
    const int threads = tun.threadsFor(2 * ylen * xlen);

    const simd::Kernels &sk = simd::active();

    if (!c.transposed) {
        // Unit-stride rows accumulate the dot in 4 complex f64 lanes;
        // strided x keeps the float accumulator.
        const bool vecRow = incx == 1;
        parallelFor(0, ylen, threads, 1,
                    [&](std::int64_t rb, std::int64_t re) {
                        for (std::int64_t i = rb; i < re; ++i) {
                            cfloat acc{};
                            const cfloat *row = a + i * lda;
                            if (vecRow) {
                                double re_ = 0.0;
                                double im_ = 0.0;
                                sk.cdot(
                                    xlen,
                                    reinterpret_cast<const float *>(row),
                                    reinterpret_cast<const float *>(x),
                                    c.conj, &re_, &im_);
                                acc = cfloat{static_cast<float>(re_),
                                             static_cast<float>(im_)};
                            } else {
                                std::int64_t jx = xbase;
                                for (std::int64_t j = 0; j < xlen;
                                     ++j, jx += incx)
                                    acc += maybe_conj(row[j]) * x[jx];
                            }
                            y[ybase + i * incy] += alpha * acc;
                        }
                    });
    } else {
        // Same y-slice ownership scheme as sgemv's transposed path.
        const bool vecCol = incy == 1 && !c.conj;
        parallelFor(0, ylen, threads, 256,
                    [&](std::int64_t lb, std::int64_t le) {
                        std::int64_t jx = xbase;
                        for (std::int64_t j = 0; j < xlen;
                             ++j, jx += incx) {
                            cfloat ax = alpha * x[jx];
                            if (ax == cfloat{})
                                continue;
                            const cfloat *row = a + j * lda;
                            if (vecCol) {
                                sk.caxpy(
                                    le - lb, ax.real(), ax.imag(),
                                    reinterpret_cast<const float *>(row
                                                                    + lb),
                                    reinterpret_cast<float *>(y + lb));
                                continue;
                            }
                            for (std::int64_t i = lb; i < le; ++i)
                                y[ybase + i * incy] +=
                                    ax * maybe_conj(row[i]);
                        }
                    });
    }
}

void
sger(Order order, std::int64_t m, std::int64_t n, float alpha,
     const float *x, std::int64_t incx, const float *y, std::int64_t incy,
     float *a, std::int64_t lda)
{
    fatalIf(m < 0 || n < 0, "sger: negative dimension");
    fatalIf(incx == 0 || incy == 0, "sger: zero stride");
    if (m == 0 || n == 0 || alpha == 0.0f)
        return;

    // Canonical row-major walk: column-major A is the transpose, so swap
    // the roles of x and y.
    if (order == Order::ColMajor) {
        sger(Order::RowMajor, n, m, alpha, y, incy, x, incx, a, lda);
        return;
    }
    fatalIf(lda < n, "sger: lda too small");
    std::int64_t ix = incx >= 0 ? 0 : (1 - m) * incx;
    for (std::int64_t i = 0; i < m; ++i, ix += incx) {
        float ax = alpha * x[ix];
        float *row = a + i * lda;
        std::int64_t jy = incy >= 0 ? 0 : (1 - n) * incy;
        for (std::int64_t j = 0; j < n; ++j, jy += incy)
            row[j] += ax * y[jy];
    }
}

} // namespace mealib::mkl

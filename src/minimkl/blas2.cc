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
};

Canon
canonicalize(Order order, Transpose trans, std::int64_t m, std::int64_t n)
{
    bool t = trans != Transpose::NoTrans;
    if (order == Order::ColMajor)
        t = !t;
    // With row-major storage: NoTrans walks rows (m x n); Trans walks
    // columns (result length n).
    if (!t)
        return {m, n, false};
    return {n, m, true};
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

} // namespace mealib::mkl

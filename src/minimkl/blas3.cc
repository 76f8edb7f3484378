#include "minimkl/blas3.hh"

#include <algorithm>
#include <complex>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"

namespace mealib::mkl {

namespace {

inline float
conjOf(float v)
{
    return v;
}

inline cfloat
conjOf(cfloat v)
{
    return std::conj(v);
}

/** Element accessor for op(A) of a row-major stored matrix. */
template <typename T>
class OpView
{
  public:
    OpView(const T *a, std::int64_t lda, Transpose trans)
        : a_(a), lda_(lda),
          trans_(trans != Transpose::NoTrans),
          conj_(trans == Transpose::ConjTrans)
    {}

    T
    operator()(std::int64_t i, std::int64_t j) const
    {
        T v = trans_ ? a_[j * lda_ + i] : a_[i * lda_ + j];
        return conj_ ? conjOf(v) : v;
    }

    /** @return true when op(A) walks A column-wise. */
    bool
    transposed() const
    {
        return trans_;
    }

    /** Raw stored row @p i — valid only when !transposed() (no conj). */
    const T *
    rowPtr(std::int64_t i) const
    {
        return a_ + i * lda_;
    }

  private:
    const T *a_;
    std::int64_t lda_;
    bool trans_;
    bool conj_;
};

/** Square blocking factor of the level-3 loops (gemm blocks, herk
 * k-panels). */
constexpr std::int64_t kGemmBlock = 64;

/** Row-major blocked GEMM core: C := alpha*op(A)*op(B) + beta*C. */
void
gemmRowMajor(Transpose transa, Transpose transb, std::int64_t m,
             std::int64_t n, std::int64_t k, float alpha, const float *a,
             std::int64_t lda, const float *b, std::int64_t ldb, float beta,
             float *c, std::int64_t ldc)
{
    fatalIf(m < 0 || n < 0 || k < 0, "gemm: negative dimension");
    fatalIf(ldc < n && m > 0, "gemm: ldc too small");
    if (m == 0 || n == 0)
        return;

    const KernelTuning &tun = kernelTuning();
    const int threads = tun.threadsFor(m * n);

    parallelFor(0, m, threads, 16, [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t i = rb; i < re; ++i) {
            float *row = c + i * ldc;
            if (beta == 0.0f) {
                std::fill(row, row + n, 0.0f);
            } else if (beta != 1.0f) {
                for (std::int64_t j = 0; j < n; ++j)
                    row[j] *= beta;
            }
        }
    });
    if (alpha == 0.0f || k == 0)
        return;

    OpView<float> A(a, lda, transa);
    OpView<float> B(b, ldb, transb);

    // i-k-j loop nest with square blocking: the kj inner loops stream
    // over rows of op(B) and C, which keeps the walk unit-stride when
    // op(B) is untransposed. Row bands own disjoint C rows, so the
    // outer band loop fans out across the pool; within a row the
    // kk-ascending update order is unchanged by the partition.
    const std::int64_t BS = kGemmBlock;
    const std::int64_t mult = tun.threadsFor(2 * m * n * k);
    // When op(B) is untransposed its rows are contiguous, so the j map
    // runs through the SIMD axpy kernel (bit-identical to the scalar
    // elementwise update at every level).
    const simd::Kernels &sk = simd::active();
    const bool vecB = !B.transposed();
    parallelFor(0, m, mult, BS, [&](std::int64_t mb, std::int64_t me) {
        for (std::int64_t ii = mb; ii < me; ii += BS) {
            std::int64_t ie = std::min(ii + BS, me);
            for (std::int64_t kk = 0; kk < k; kk += BS) {
                std::int64_t ke = std::min(kk + BS, k);
                for (std::int64_t jj = 0; jj < n; jj += BS) {
                    std::int64_t je = std::min(jj + BS, n);
                    for (std::int64_t i = ii; i < ie; ++i) {
                        float *crow = c + i * ldc;
                        for (std::int64_t p = kk; p < ke; ++p) {
                            float av = alpha * A(i, p);
                            if (av == 0.0f)
                                continue;
                            if (vecB) {
                                sk.saxpy(je - jj, av, B.rowPtr(p) + jj,
                                         crow + jj);
                                continue;
                            }
                            for (std::int64_t j = jj; j < je; ++j)
                                crow[j] += av * B(p, j);
                        }
                    }
                }
            }
        }
    });
}

Uplo
flipUplo(Uplo u)
{
    return u == Uplo::Upper ? Uplo::Lower : Uplo::Upper;
}

/** Row-major CHERK core. */
void
cherkRowMajor(Uplo uplo, Transpose trans, std::int64_t n, std::int64_t k,
              float alpha, const cfloat *a, std::int64_t lda, float beta,
              cfloat *c, std::int64_t ldc)
{
    fatalIf(n < 0 || k < 0, "cherk: negative dimension");
    fatalIf(trans == Transpose::Trans,
            "cherk: trans must be NoTrans or ConjTrans");
    if (n == 0)
        return;
    fatalIf(ldc < n, "cherk: ldc too small");

    const bool upper = uplo == Uplo::Upper;
    const KernelTuning &tun = kernelTuning();
    const int threads = tun.threadsFor(4 * n * n);

    // Scale the referenced triangle; the diagonal of a Hermitian matrix
    // is real, and BLAS guarantees the imaginary part is cleared.
    parallelFor(0, n, threads, 16, [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t i = rb; i < re; ++i) {
            std::int64_t j0 = upper ? i : 0;
            std::int64_t j1 = upper ? n : i + 1;
            for (std::int64_t j = j0; j < j1; ++j) {
                cfloat v = c[i * ldc + j] * beta;
                if (i == j)
                    v = cfloat{v.real(), 0.0f};
                c[i * ldc + j] = v;
            }
        }
    });
    if (alpha == 0.0f || k == 0)
        return;

    const bool notrans = trans == Transpose::NoTrans;
    // NoTrans: C += alpha * A * A^H with A n x k (row-major).
    // ConjTrans: C += alpha * A^H * A with A k x n.
    //
    // Panel loop: k is cut into kGemmBlock-sized panels so that in the
    // NoTrans case row i's panel stays L1-resident while row j streams.
    // Each (i, j) keeps one double accumulator across all panels, so
    // the summation order (p ascending) — and hence the result — is
    // identical to the unblocked walk for every thread count. Rows of
    // the triangle are independent and fan out across the pool.
    const std::int64_t PS = kGemmBlock;
    const int rowThreads = tun.threadsFor(4 * n * n * k);
    // NoTrans rows are contiguous: each panel dot runs through the
    // fixed-width complex dot kernel (conj(a_i).a_j is the conjugate of
    // a_i.conj(a_j), so only the imaginary sign flips), and
    // the panel partials accumulate in pp-ascending order — identical
    // across ISA levels and thread counts.
    const simd::Kernels &sk = simd::active();
    parallelFor(0, n, rowThreads, 1,
                [&](std::int64_t rb, std::int64_t re) {
                    for (std::int64_t i = rb; i < re; ++i) {
                        std::int64_t j0 = upper ? i : 0;
                        std::int64_t j1 = upper ? n : i + 1;
                        for (std::int64_t j = j0; j < j1; ++j) {
                            double racc = 0.0, iacc = 0.0;
                            for (std::int64_t pp = 0; pp < k; pp += PS) {
                                std::int64_t pe = std::min(pp + PS, k);
                                if (notrans) {
                                    double re_ = 0.0, im_ = 0.0;
                                    sk.cdot(
                                        pe - pp,
                                        reinterpret_cast<const float *>(
                                            a + i * lda + pp),
                                        reinterpret_cast<const float *>(
                                            a + j * lda + pp),
                                        /*conjx=*/true, &re_, &im_);
                                    racc += re_;
                                    iacc -= im_;
                                    continue;
                                }
                                // ConjTrans: columns are strided.
                                for (std::int64_t p = pp; p < pe; ++p) {
                                    cfloat x = std::conj(a[p * lda + i]);
                                    cfloat y = a[p * lda + j];
                                    racc +=
                                        static_cast<double>(x.real()) *
                                            y.real() -
                                        static_cast<double>(x.imag()) *
                                            y.imag();
                                    iacc +=
                                        static_cast<double>(x.real()) *
                                            y.imag() +
                                        static_cast<double>(x.imag()) *
                                            y.real();
                                }
                            }
                            cfloat acc{static_cast<float>(racc),
                                       static_cast<float>(iacc)};
                            cfloat v = c[i * ldc + j] + alpha * acc;
                            if (i == j)
                                v = cfloat{v.real(), 0.0f};
                            c[i * ldc + j] = v;
                        }
                    }
                });
}

/** Row-major TRSM core. B is m x n; see header for semantics. */
void
trsmRowMajor(Side side, Uplo uplo, Transpose trans, Diag diag,
             std::int64_t m, std::int64_t n, cfloat alpha, const cfloat *a,
             std::int64_t lda, cfloat *b, std::int64_t ldb)
{
    fatalIf(m < 0 || n < 0, "trsm: negative dimension");
    if (m == 0 || n == 0)
        return;
    fatalIf(ldb < n, "trsm: ldb too small");
    std::int64_t adim = side == Side::Left ? m : n;
    fatalIf(lda < adim, "trsm: lda too small");

    OpView<cfloat> A(a, lda, trans);
    // Transposing a triangular matrix flips which triangle holds data.
    Uplo eff = trans == Transpose::NoTrans ? uplo : flipUplo(uplo);
    const bool unit = diag == Diag::Unit;

    const KernelTuning &tun = kernelTuning();
    const std::int64_t solveDim = side == Side::Left ? m : n;
    const int threads = tun.threadsFor(2 * m * n * solveDim);

    parallelFor(0, m, threads, 16, [&](std::int64_t rb, std::int64_t re) {
        for (std::int64_t i = rb; i < re; ++i)
            for (std::int64_t j = 0; j < n; ++j)
                b[i * ldb + j] *= alpha;
    });

    if (side == Side::Left) {
        // Solve op(A) * X = B row-block-wise. The row recurrence is
        // sequential, but B's columns are independent right-hand sides:
        // each pool lane runs the full recurrence over its own column
        // panel [jb, je), so writes are disjoint and each element's
        // update order is exactly the sequential one.
        auto panel = [&](std::int64_t jb, std::int64_t je) {
            if (eff == Uplo::Lower) {
                for (std::int64_t i = 0; i < m; ++i) {
                    for (std::int64_t p = 0; p < i; ++p) {
                        cfloat f = A(i, p);
                        if (f == cfloat{})
                            continue;
                        for (std::int64_t j = jb; j < je; ++j)
                            b[i * ldb + j] -= f * b[p * ldb + j];
                    }
                    if (!unit) {
                        cfloat d = A(i, i);
                        for (std::int64_t j = jb; j < je; ++j)
                            b[i * ldb + j] /= d;
                    }
                }
            } else {
                for (std::int64_t i = m - 1; i >= 0; --i) {
                    for (std::int64_t p = i + 1; p < m; ++p) {
                        cfloat f = A(i, p);
                        if (f == cfloat{})
                            continue;
                        for (std::int64_t j = jb; j < je; ++j)
                            b[i * ldb + j] -= f * b[p * ldb + j];
                    }
                    if (!unit) {
                        cfloat d = A(i, i);
                        for (std::int64_t j = jb; j < je; ++j)
                            b[i * ldb + j] /= d;
                    }
                }
            }
        };
        parallelFor(0, n, threads, 16, panel);
    } else {
        // Solve X * op(A) = B: each row of B is an independent solve
        // against op(A) from the right.
        auto rows = [&](std::int64_t rb, std::int64_t re) {
            if (eff == Uplo::Upper) {
                for (std::int64_t r = rb; r < re; ++r) {
                    cfloat *row = b + r * ldb;
                    for (std::int64_t j = 0; j < n; ++j) {
                        cfloat acc = row[j];
                        for (std::int64_t p = 0; p < j; ++p)
                            acc -= row[p] * A(p, j);
                        row[j] = unit ? acc : acc / A(j, j);
                    }
                }
            } else {
                for (std::int64_t r = rb; r < re; ++r) {
                    cfloat *row = b + r * ldb;
                    for (std::int64_t j = n - 1; j >= 0; --j) {
                        cfloat acc = row[j];
                        for (std::int64_t p = j + 1; p < n; ++p)
                            acc -= row[p] * A(p, j);
                        row[j] = unit ? acc : acc / A(j, j);
                    }
                }
            }
        };
        parallelFor(0, m, threads, 1, rows);
    }
}

Side
flipSide(Side s)
{
    return s == Side::Left ? Side::Right : Side::Left;
}

} // namespace

void
sgemm(Order order, Transpose transa, Transpose transb, std::int64_t m,
      std::int64_t n, std::int64_t k, float alpha, const float *a,
      std::int64_t lda, const float *b, std::int64_t ldb, float beta,
      float *c, std::int64_t ldc)
{
    if (order == Order::RowMajor) {
        gemmRowMajor(transa, transb, m, n, k, alpha, a, lda, b, ldb, beta,
                     c, ldc);
    } else {
        // Column-major C = op(A)op(B) is row-major C^T = op(B)^T op(A)^T.
        gemmRowMajor(transb, transa, n, m, k, alpha, b, ldb, a, lda, beta,
                     c, ldc);
    }
}

void
cherk(Order order, Uplo uplo, Transpose trans, std::int64_t n,
      std::int64_t k, float alpha, const cfloat *a, std::int64_t lda,
      float beta, cfloat *c, std::int64_t ldc)
{
    if (order == Order::RowMajor) {
        cherkRowMajor(uplo, trans, n, k, alpha, a, lda, beta, c, ldc);
    } else {
        // Column-major Hermitian update maps to the row-major core with
        // the triangle and the transposition flipped (CBLAS convention).
        Transpose t = trans == Transpose::NoTrans ? Transpose::ConjTrans
                                                  : Transpose::NoTrans;
        cherkRowMajor(flipUplo(uplo), t, n, k, alpha, a, lda, beta, c,
                      ldc);
    }
}

void
ctrsm(Order order, Side side, Uplo uplo, Transpose trans, Diag diag,
      std::int64_t m, std::int64_t n, cfloat alpha, const cfloat *a,
      std::int64_t lda, cfloat *b, std::int64_t ldb)
{
    if (order == Order::RowMajor) {
        trsmRowMajor(side, uplo, trans, diag, m, n, alpha, a, lda, b, ldb);
    } else {
        // Column-major B is row-major B^T: flip the side and the
        // triangle, and swap the dimensions.
        trsmRowMajor(flipSide(side), flipUplo(uplo), trans, diag, n, m,
                     alpha, a, lda, b, ldb);
    }
}

} // namespace mealib::mkl

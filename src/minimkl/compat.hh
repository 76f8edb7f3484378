/**
 * @file
 * Legacy-interface shims: the exact MKL / CBLAS / FFTW entry points the
 * paper's target applications call (Table 1, Table 4 and Listing 1),
 * implemented over MiniMKL. These live in the global namespace on
 * purpose — the point of MEALib is that legacy code keeps compiling
 * against the same API — and they are the apps' entry points: the
 * STAP and CG host paths (src/apps) call these shims. Every shim lowers
 * into an OpDesc and runs through the calling thread's current
 * dispatcher.
 *
 * The surface is the subset the paper's applications call; MEALib
 * treats the library interface as fixed, so a small surface is the
 * design point, not a limitation.
 */

#ifndef MEALIB_MINIMKL_COMPAT_HH
#define MEALIB_MINIMKL_COMPAT_HH

#include <cstddef>

// --- CBLAS enums (values match the standard cblas.h) -----------------------

enum CBLAS_LAYOUT
{
    CblasRowMajor = 101,
    CblasColMajor = 102,
};
enum CBLAS_TRANSPOSE
{
    CblasNoTrans = 111,
    CblasTrans = 112,
    CblasConjTrans = 113,
};
enum CBLAS_UPLO
{
    CblasUpper = 121,
    CblasLower = 122,
};
enum CBLAS_DIAG
{
    CblasNonUnit = 131,
    CblasUnit = 132,
};
enum CBLAS_SIDE
{
    CblasLeft = 141,
    CblasRight = 142,
};

// --- BLAS level 1 -----------------------------------------------------------

void cblas_saxpy(int n, float a, const float *x, int incx, float *y,
                 int incy);
float cblas_sdot(int n, const float *x, int incx, const float *y,
                 int incy);
void cblas_sscal(int n, float a, float *x, int incx);
void cblas_saxpby(int n, float a, const float *x, int incx, float b,
                  float *y, int incy);
void cblas_scopy(int n, const float *x, int incx, float *y, int incy);

/** Complex dot (conjugated); result via out parameter as in CBLAS. */
void cblas_cdotc_sub(int n, const void *x, int incx, const void *y,
                     int incy, void *dotc);
void cblas_caxpy(int n, const void *a, const void *x, int incx, void *y,
                 int incy);

// --- BLAS level 2 / 3 -------------------------------------------------------

void cblas_sgemv(CBLAS_LAYOUT layout, CBLAS_TRANSPOSE trans, int m, int n,
                 float alpha, const float *a, int lda, const float *x,
                 int incx, float beta, float *y, int incy);
void cblas_sgemm(CBLAS_LAYOUT layout, CBLAS_TRANSPOSE transa,
                 CBLAS_TRANSPOSE transb, int m, int n, int k, float alpha,
                 const float *a, int lda, const float *b, int ldb,
                 float beta, float *c, int ldc);
void cblas_cherk(CBLAS_LAYOUT layout, CBLAS_UPLO uplo,
                 CBLAS_TRANSPOSE trans, int n, int k, float alpha,
                 const void *a, int lda, float beta, void *c, int ldc);
void cblas_ctrsm(CBLAS_LAYOUT layout, CBLAS_SIDE side, CBLAS_UPLO uplo,
                 CBLAS_TRANSPOSE trans, CBLAS_DIAG diag, int m, int n,
                 const void *alpha, const void *a, int lda, void *b,
                 int ldb);

// --- MKL sparse (classic 1-based Fortran-flavoured interface) --------------

/**
 * y := op(A)*x for CSR A with 1-based ia/ja as in MKL's mkl_scsrgemv.
 * @p transa is "N"/"n" or "T"/"t".
 */
void mkl_scsrgemv(const char *transa, const int *m, const float *a,
                  const int *ia, const int *ja, const float *x, float *y);

// --- MKL transpose ----------------------------------------------------------

/**
 * In-place scaled transpose as in mkl_simatcopy: @p ordering is 'R'/'r'
 * or 'C'/'c'; @p trans is 'N', 'T', 'R' (conj, no transpose) or 'C'.
 */
void mkl_simatcopy(char ordering, char trans, std::size_t rows,
                   std::size_t cols, float alpha, float *ab,
                   std::size_t lda, std::size_t ldb);

/** Out-of-place variant (mkl_somatcopy). */
void mkl_somatcopy(char ordering, char trans, std::size_t rows,
                   std::size_t cols, float alpha, const float *a,
                   std::size_t lda, float *b, std::size_t ldb);

/** Single-precision complex, laid out as in MKL's mkl_types.h. */
struct MKL_Complex8
{
    float real;
    float imag;
};

/**
 * Out-of-place complex scaled transpose (mkl_comatcopy): @p trans is
 * 'N', 'T' or 'C'; the conjugate-only 'R' is not supported.
 */
void mkl_comatcopy(char ordering, char trans, std::size_t rows,
                   std::size_t cols, MKL_Complex8 alpha,
                   const MKL_Complex8 *a, std::size_t lda,
                   MKL_Complex8 *b, std::size_t ldb);

// --- MKL data fitting (simplified dfsInterpolate1D) -------------------------

/**
 * Uniform-grid linear interpolation of @p nx samples onto @p nsite
 * uniformly spaced sites spanning the same interval — the shape of the
 * paper's dfsInterpolate1D use. @return 0 on success.
 */
int dfsInterpolate1D(const float *x, int nx, float *site, int nsite);

// --- FFTW single-precision guru subset --------------------------------------

using fftwf_complex = float[2];

struct fftwf_iodim
{
    int n;
    int is;
    int os;
};

struct fftwf_plan_s;
using fftwf_plan = fftwf_plan_s *;

inline constexpr int FFTW_FORWARD = -1;
inline constexpr int FFTW_BACKWARD = +1;
inline constexpr unsigned FFTW_WISDOM_ONLY = 1u << 21;
inline constexpr unsigned FFTW_ESTIMATE = 1u << 6;

/**
 * Guru complex DFT planner (the only planner Listing 1 uses). Rank 0
 * plans are strided copies; rank 1/2 are transforms. The buffers are
 * captured in the plan, as in FFTW.
 */
fftwf_plan fftwf_plan_guru_dft(int rank, const fftwf_iodim *dims,
                               int howmany_rank,
                               const fftwf_iodim *howmany_dims,
                               fftwf_complex *in, fftwf_complex *out,
                               int sign, unsigned flags);

void fftwf_execute(const fftwf_plan plan);
void fftwf_destroy_plan(fftwf_plan plan);

#endif // MEALIB_MINIMKL_COMPAT_HH

#include "dispatch/opdesc.hh"

#include <algorithm>

#include "common/logging.hh"
#include "minimkl/resample.hh"

namespace mealib::dispatch {

using accel::AccelKind;
using mkl::cfloat;

const char *
name(OpKind kind)
{
    switch (kind) {
      case OpKind::Axpy:
        return "axpy";
      case OpKind::Dot:
        return "dot";
      case OpKind::Gemv:
        return "gemv";
      case OpKind::Spmv:
        return "spmv";
      case OpKind::Resample:
        return "resample";
      case OpKind::Fft:
        return "fft";
      case OpKind::Transpose:
        return "transpose";
      case OpKind::Gemm:
        return "gemm";
      case OpKind::Herk:
        return "herk";
      case OpKind::Trsm:
        return "trsm";
      case OpKind::Scal:
        return "scal";
      case OpKind::Copy:
        return "copy";
      default:
        panic("name: bad OpKind");
    }
}

bool
accelerable(OpKind kind)
{
    return static_cast<std::uint8_t>(kind) <
           static_cast<std::uint8_t>(AccelKind::kCount);
}

OpKind
opKindOf(accel::AccelKind kind)
{
    return static_cast<OpKind>(kind);
}

double
OpDesc::flops() const
{
    if (flopsOverride >= 0.0)
        return flopsOverride;
    return call.flops() * static_cast<double>(loop.iterations());
}

double
OpDesc::bytes() const
{
    if (bytesOverride >= 0.0)
        return bytesOverride;
    return accel::loopedTrafficBytes(call, loop);
}

namespace {

/** Bytes a strided vector of @p n elements spans. */
std::uint64_t
spanBytes(std::int64_t n, std::int64_t inc, std::uint64_t elem)
{
    if (n <= 0)
        return 0;
    std::uint64_t mag = static_cast<std::uint64_t>(inc < 0 ? -inc : inc);
    return (1 + static_cast<std::uint64_t>(n - 1) * mag) * elem;
}

OpDesc
axpyCommon(const char *entry, std::int64_t n, float alpha, float beta,
           bool complexData, const void *x, std::int64_t incx, void *y,
           std::int64_t incy)
{
    const std::uint64_t es = complexData ? 8 : 4;
    OpDesc d;
    d.kind = OpKind::Axpy;
    d.entry = entry;
    d.call.kind = AccelKind::AXPY;
    d.call.n = n > 0 ? static_cast<std::uint64_t>(n) : 0;
    d.call.inc0 = incx;
    d.call.inc1 = incy;
    d.call.alpha = alpha;
    d.call.beta = beta;
    d.call.complexData = complexData;
    d.operands[0] = {x, spanBytes(n, incx, es), false};
    d.operands[4] = {y, spanBytes(n, incy, es), true};
    d.accelSupported = n > 0;
    return d;
}

} // namespace

OpDesc
lowerSaxpy(std::int64_t n, float a, const float *x, std::int64_t incx,
           float *y, std::int64_t incy)
{
    return axpyCommon("cblas_saxpy", n, a, 1.0f, false, x, incx, y,
                      incy);
}

OpDesc
lowerSaxpby(std::int64_t n, float a, const float *x, std::int64_t incx,
            float b, float *y, std::int64_t incy)
{
    return axpyCommon("cblas_saxpby", n, a, b, false, x, incx, y, incy);
}

OpDesc
lowerCaxpy(std::int64_t n, cfloat a, const cfloat *x, std::int64_t incx,
           cfloat *y, std::int64_t incy)
{
    // The AXPY accelerator packs a complex scalar as (alpha, beta).
    OpDesc d = axpyCommon("cblas_caxpy", n, a.real(), a.imag(), true, x,
                          incx, y, incy);
    return d;
}

OpDesc
lowerSdot(std::int64_t n, const float *x, std::int64_t incx,
          const float *y, std::int64_t incy, float *result)
{
    OpDesc d;
    d.kind = OpKind::Dot;
    d.entry = "cblas_sdot";
    d.call.kind = AccelKind::DOT;
    d.call.n = n > 0 ? static_cast<std::uint64_t>(n) : 0;
    d.call.inc0 = incx;
    d.call.inc1 = incy;
    d.operands[0] = {x, spanBytes(n, incx, 4), false};
    d.operands[1] = {y, spanBytes(n, incy, 4), false};
    d.operands[4] = {result, 4, true};
    d.accelSupported = n > 0;
    return d;
}

OpDesc
lowerCdotc(std::int64_t n, const cfloat *x, std::int64_t incx,
           const cfloat *y, std::int64_t incy, cfloat *result)
{
    OpDesc d;
    d.kind = OpKind::Dot;
    d.entry = "cblas_cdotc_sub";
    d.call.kind = AccelKind::DOT;
    d.call.n = n > 0 ? static_cast<std::uint64_t>(n) : 0;
    d.call.inc0 = incx;
    d.call.inc1 = incy;
    d.call.complexData = true;
    d.call.conjugate = true;
    d.operands[0] = {x, spanBytes(n, incx, 8), false};
    d.operands[1] = {y, spanBytes(n, incy, 8), false};
    d.operands[4] = {result, 8, true};
    d.accelSupported = n > 0;
    return d;
}

OpDesc
lowerSgemv(mkl::Order order, mkl::Transpose trans, std::int64_t m,
           std::int64_t n, float alpha, const float *a, std::int64_t lda,
           const float *x, std::int64_t incx, float beta, float *y,
           std::int64_t incy)
{
    const bool noTrans =
        order == mkl::Order::RowMajor && trans == mkl::Transpose::NoTrans;
    const std::int64_t xlen = noTrans ? n : m;
    const std::int64_t ylen = noTrans ? m : n;

    OpDesc d;
    d.kind = OpKind::Gemv;
    d.entry = "cblas_sgemv";
    d.call.kind = AccelKind::GEMV;
    d.call.m = ylen > 0 ? static_cast<std::uint64_t>(ylen) : 0;
    d.call.n = xlen > 0 ? static_cast<std::uint64_t>(xlen) : 0;
    d.call.inc0 = incx;
    d.call.alpha = alpha;
    d.call.beta = beta;
    const std::uint64_t abytes =
        m > 0 && n > 0
            ? static_cast<std::uint64_t>(
                  (order == mkl::Order::RowMajor ? m : n)) *
                  static_cast<std::uint64_t>(lda) * 4
            : 0;
    d.operands[0] = {a, abytes, false};
    d.operands[1] = {x, spanBytes(xlen, incx, 4), false};
    d.operands[4] = {y, spanBytes(ylen, incy, 4), true};
    // The GEMV accelerator implements the row-major no-transpose walk
    // with a packed matrix and unit-stride y (accel/layer.cc).
    d.accelSupported =
        noTrans && m > 0 && n > 0 && lda == n && incy == 1;
    return d;
}

OpDesc
lowerScsrgemv1(std::int64_t rows, const float *a, const std::int32_t *ia,
               const std::int32_t *ja, const float *x, float *y,
               bool transposed)
{
    const std::int64_t nnz =
        ia != nullptr && rows > 0 ? ia[rows] - 1 : 0;
    OpDesc d;
    d.kind = OpKind::Spmv;
    d.entry = "mkl_scsrgemv";
    d.call.kind = AccelKind::SPMV;
    d.call.m = rows > 0 ? static_cast<std::uint64_t>(rows) : 0;
    d.call.n = d.call.m;
    d.call.k = nnz > 0 ? static_cast<std::uint64_t>(nnz) : 0;
    d.operands[0] = {ia, static_cast<std::uint64_t>(rows + 1) * 4,
                     false};
    d.operands[1] = {ja, static_cast<std::uint64_t>(nnz) * 4, false};
    d.operands[2] = {a, static_cast<std::uint64_t>(nnz) * 4, false};
    d.operands[3] = {x, static_cast<std::uint64_t>(rows) * 4, false};
    d.operands[4] = {y, static_cast<std::uint64_t>(rows) * 4, true};
    d.accelSupported = rows > 0 && nnz > 0 && !transposed;
    // Classic 1-based int32 row pointers: the SPMV accelerator consumes
    // int64 0-based ones, so the backend cannot map these arrays.
    d.backendMappable = false;
    return d;
}

OpDesc
lowerScsrmv(const mkl::CsrMatrix &a, const float *x, float *y)
{
    OpDesc d;
    d.kind = OpKind::Spmv;
    d.entry = "mkl::scsrmv";
    d.call.kind = AccelKind::SPMV;
    d.call.m = static_cast<std::uint64_t>(a.rows);
    d.call.n = static_cast<std::uint64_t>(a.cols);
    d.call.k = static_cast<std::uint64_t>(a.nnz());
    d.operands[0] = {a.rowPtr.data(),
                     static_cast<std::uint64_t>(a.rows + 1) * 8, false};
    d.operands[1] = {a.colIdx.data(),
                     static_cast<std::uint64_t>(a.nnz()) * 4, false};
    d.operands[2] = {a.vals.data(),
                     static_cast<std::uint64_t>(a.nnz()) * 4, false};
    d.operands[3] = {x, static_cast<std::uint64_t>(a.cols) * 4, false};
    d.operands[4] = {y, static_cast<std::uint64_t>(a.rows) * 4, true};
    d.accelSupported = a.rows > 0 && a.nnz() > 0;
    return d;
}

OpDesc
lowerResample(const float *x, std::int64_t nx, float *site,
              std::int64_t nsite)
{
    OpDesc d;
    d.kind = OpKind::Resample;
    d.entry = "dfsInterpolate1D";
    d.call.kind = AccelKind::RESMP;
    d.call.n = nx > 0 ? static_cast<std::uint64_t>(nx) : 0;
    d.call.m = nsite > 0 ? static_cast<std::uint64_t>(nsite) : 0;
    d.call.resampleKind =
        static_cast<std::uint32_t>(mkl::InterpKind::Linear);
    d.operands[0] = {x, static_cast<std::uint64_t>(nx) * 4, false};
    d.operands[4] = {site, static_cast<std::uint64_t>(nsite) * 4, true};
    d.accelSupported = nx > 0 && nsite > 0;
    return d;
}

OpDesc
lowerTranspose(std::int64_t rows, std::int64_t cols, float alpha,
               const float *a, float *b, bool complexData, bool mappable)
{
    const std::uint64_t es = complexData ? 8 : 4;
    const bool inPlace = static_cast<const void *>(a) == b;
    OpDesc d;
    d.kind = OpKind::Transpose;
    d.entry = inPlace       ? "mkl_simatcopy"
              : complexData ? "mkl_comatcopy"
                            : "mkl_somatcopy";
    d.call.kind = AccelKind::RESHP;
    d.call.m = rows > 0 ? static_cast<std::uint64_t>(rows) : 0;
    d.call.n = cols > 0 ? static_cast<std::uint64_t>(cols) : 0;
    d.call.alpha = alpha;
    d.call.complexData = complexData;
    const std::uint64_t bytes = d.call.m * d.call.n * es;
    d.operands[0] = {a, bytes, false};
    d.operands[4] = {b, bytes, true};
    d.accelSupported = mappable && rows > 0 && cols > 0;
    return d;
}

OpDesc
lowerFft(const mkl::FftPlan &plan, const cfloat *in, cfloat *out)
{
    OpDesc d;
    d.entry = "fftwf_execute";
    const std::uint64_t batch =
        static_cast<std::uint64_t>(plan.batchCount());
    const std::uint64_t pts =
        static_cast<std::uint64_t>(plan.transformPoints());
    if (plan.isCopy()) {
        // Rank-0 guru plans are pure strided data motion; MEALib maps
        // those to RESHP, but the copy geometry lives in the loop
        // strides, so we account them as host-side copies here.
        d.kind = OpKind::Copy;
        d.flopsOverride = 0.0;
        d.bytesOverride = static_cast<double>(batch) * 16.0;
        d.operands[0] = {in, batch * 8, false};
        d.operands[4] = {out, batch * 8, true};
        return d;
    }
    d.kind = OpKind::Fft;
    d.call.kind = AccelKind::FFT;
    d.call.complexData = true;
    d.call.fftDir =
        plan.direction() == mkl::FftDirection::Forward ? -1 : 1;
    const auto &dims = plan.dims();
    if (dims.size() == 2) {
        d.call.k = static_cast<std::uint64_t>(dims[0].n);
        d.call.n = static_cast<std::uint64_t>(dims[1].n);
    } else {
        d.call.n = pts;
        d.call.k = 0;
    }
    d.call.m = batch;
    const std::uint64_t bytes = pts * batch * 8;
    d.operands[0] = {in, bytes, false};
    d.operands[4] = {out, bytes, true};
    // The FFT accelerator assumes contiguous transforms with the batch
    // laid out at a `pts` distance (accel/layer.cc).
    d.accelSupported = !dims.empty() && dims.back().is == 1 &&
                       dims.back().os == 1;
    return d;
}

OpDesc
lowerSgemm(std::int64_t m, std::int64_t n, std::int64_t k,
           const float *a, const float *b, float *c)
{
    OpDesc d;
    d.kind = OpKind::Gemm;
    d.entry = "cblas_sgemm";
    d.call.n = n > 0 ? static_cast<std::uint64_t>(n) : 0;
    d.call.m = m > 0 ? static_cast<std::uint64_t>(m) : 0;
    d.call.k = k > 0 ? static_cast<std::uint64_t>(k) : 0;
    d.flopsOverride = 2.0 * static_cast<double>(m) *
                      static_cast<double>(n) * static_cast<double>(k);
    d.bytesOverride =
        4.0 * (static_cast<double>(m) * static_cast<double>(k) +
               static_cast<double>(k) * static_cast<double>(n) +
               2.0 * static_cast<double>(m) * static_cast<double>(n));
    d.operands[0] = {a, static_cast<std::uint64_t>(m * k) * 4, false};
    d.operands[1] = {b, static_cast<std::uint64_t>(k * n) * 4, false};
    d.operands[4] = {c, static_cast<std::uint64_t>(m * n) * 4, true};
    return d;
}

OpDesc
lowerCherk(std::int64_t n, std::int64_t k, const cfloat *a, cfloat *c)
{
    OpDesc d;
    d.kind = OpKind::Herk;
    d.entry = "cblas_cherk";
    d.call.n = n > 0 ? static_cast<std::uint64_t>(n) : 0;
    d.call.k = k > 0 ? static_cast<std::uint64_t>(k) : 0;
    // Half the n x n result is computed; 8 flops per complex MAC.
    d.flopsOverride = 4.0 * static_cast<double>(n) *
                      static_cast<double>(n) * static_cast<double>(k);
    d.bytesOverride =
        8.0 * (static_cast<double>(n) * static_cast<double>(k) +
               static_cast<double>(n) * static_cast<double>(n));
    d.operands[0] = {a, static_cast<std::uint64_t>(n * k) * 8, false};
    d.operands[4] = {c, static_cast<std::uint64_t>(n * n) * 8, true};
    return d;
}

OpDesc
lowerCtrsm(std::int64_t m, std::int64_t n, const cfloat *a, cfloat *b)
{
    OpDesc d;
    d.kind = OpKind::Trsm;
    d.entry = "cblas_ctrsm";
    d.call.m = m > 0 ? static_cast<std::uint64_t>(m) : 0;
    d.call.n = n > 0 ? static_cast<std::uint64_t>(n) : 0;
    d.flopsOverride = 4.0 * static_cast<double>(m) *
                      static_cast<double>(m) * static_cast<double>(n);
    d.bytesOverride =
        8.0 * (0.5 * static_cast<double>(m) * static_cast<double>(m) +
               2.0 * static_cast<double>(m) * static_cast<double>(n));
    d.operands[0] = {a, static_cast<std::uint64_t>(m * m) * 8, false};
    d.operands[4] = {b, static_cast<std::uint64_t>(m * n) * 8, true};
    return d;
}

OpDesc
lowerSscal(std::int64_t n, const float *x, std::int64_t incx)
{
    OpDesc d;
    d.kind = OpKind::Scal;
    d.entry = "cblas_sscal";
    d.call.n = n > 0 ? static_cast<std::uint64_t>(n) : 0;
    d.flopsOverride = static_cast<double>(n > 0 ? n : 0);
    d.bytesOverride = 8.0 * static_cast<double>(n > 0 ? n : 0);
    d.operands[4] = {x, spanBytes(n, incx, 4), true};
    return d;
}

OpDesc
lowerScopy(std::int64_t n, const float *x, std::int64_t incx, float *y,
           std::int64_t incy)
{
    OpDesc d;
    d.kind = OpKind::Copy;
    d.entry = "cblas_scopy";
    d.call.n = n > 0 ? static_cast<std::uint64_t>(n) : 0;
    d.flopsOverride = 0.0;
    d.bytesOverride = 8.0 * static_cast<double>(n > 0 ? n : 0);
    d.operands[0] = {x, spanBytes(n, incx, 4), false};
    d.operands[4] = {y, spanBytes(n, incy, 4), true};
    return d;
}

OpDesc
opDescFromCall(const accel::OpCall &call, const accel::LoopSpec &loop)
{
    OpDesc d;
    d.kind = opKindOf(call.kind);
    d.entry = "tdl";
    d.call = call;
    d.loop = loop;
    d.accelSupported = true;
    return d;
}

bool
rerunSafe(const OpDesc &desc)
{
    // TDL calls carry physical bases: no host operand to rerun on.
    const Operand &out = desc.operands[4];
    if (!accelerable(desc.kind) || accel::readsOutput(desc.call) ||
        out.host == nullptr)
        return false;
    const auto lo = reinterpret_cast<std::uintptr_t>(out.host);
    for (const Operand &in : desc.operands) {
        const auto inLo = reinterpret_cast<std::uintptr_t>(in.host);
        // In place: the write destroys an input a rerun would read.
        if (!in.written && in.host != nullptr && inLo < lo + out.bytes &&
            lo < inLo + in.bytes)
            return false;
    }
    return true;
}

} // namespace mealib::dispatch

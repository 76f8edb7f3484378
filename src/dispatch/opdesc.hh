/**
 * @file
 * The unified op-IR of the dispatch core (docs/DISPATCH.md).
 *
 * Every MKL-compatible entry point — the cblas_* / mkl_* / fftwf_*
 * shims in minimkl/compat.cc, the dispatch::ops wrappers the apps call,
 * and the COMP blocks mealib-run executes — lowers into one OpDesc: the
 * operation kind, its dimensions and strides (an accel::OpCall for the
 * Table-1 accelerable kinds), host-side operand pointers and footprints,
 * derived flop/byte counts, and the provenance string of the legacy
 * entry point. The Dispatcher consumes OpDescs and decides, per call,
 * whether the host kernel runs or the operation is submitted to the
 * memory-side accelerators.
 */

#ifndef MEALIB_DISPATCH_OPDESC_HH
#define MEALIB_DISPATCH_OPDESC_HH

#include <array>
#include <cstdint>

#include "accel/ops.hh"
#include "minimkl/fft.hh"
#include "minimkl/sparse.hh"
#include "minimkl/types.hh"

namespace mealib::dispatch {

/**
 * Operation kinds the dispatcher understands. The first seven mirror
 * accel::AccelKind (Table 1) in opcode order and may be offloaded; the
 * rest are compute-bounded library calls that only ever run on the host
 * but still flow through the dispatcher for telemetry and policy
 * accounting (the paper's memory-bound/compute-bound split).
 */
enum class OpKind : std::uint8_t
{
    Axpy = 0,  //!< cblas_saxpy / cblas_saxpby / cblas_caxpy
    Dot,       //!< cblas_sdot / cblas_cdotc_sub
    Gemv,      //!< cblas_sgemv
    Spmv,      //!< mkl_scsrgemv / mkl::scsrmv
    Resample,  //!< dfsInterpolate1D
    Fft,       //!< fftwf_execute
    Transpose, //!< mkl_simatcopy / mkl_somatcopy
    Gemm,      //!< cblas_sgemm (host-only)
    Herk,      //!< cblas_cherk (host-only)
    Trsm,      //!< cblas_ctrsm (host-only)
    Scal,      //!< cblas_sscal (host-only)
    Copy,      //!< cblas_scopy / rank-0 FFTW copy plans (host-only)
    kCount,
};

/** Printable kind name ("axpy", "gemm", ...). */
const char *name(OpKind kind);

/** Whether a Table-1 accelerator exists for @p kind. */
bool accelerable(OpKind kind);

/** The accelerator for an accelerable kind; fatal() otherwise. */
accel::AccelKind accelKindOf(OpKind kind);

/** OpKind for a Table-1 accelerator kind. */
OpKind opKindOf(accel::AccelKind kind);

/** One operand as the host sees it: pointer + byte footprint. */
struct Operand
{
    const void *host = nullptr; //!< host virtual address (may be null)
    std::uint64_t bytes = 0;    //!< span the operation touches
    bool written = false;       //!< out operand vs. read-only
};

/** The op-IR record every entry point lowers into. */
struct OpDesc
{
    OpKind kind = OpKind::Axpy;
    /** Legacy entry point this call came from ("cblas_saxpy", ...). */
    const char *entry = "";

    /**
     * Dimensions, strides and scalars in accel::OpCall form. For
     * accelerable kinds this is a complete COMP parameter block except
     * for the physical base addresses, which the backend fills in by
     * translating the host operand pointers. Host-only kinds use it for
     * n/m/k bookkeeping only.
     */
    accel::OpCall call;
    accel::LoopSpec loop;

    /**
     * Whether the call can be expressed as a Table-1 COMP at all: the
     * kind is accelerable AND the argument combination maps onto the
     * accelerator's conventions (e.g. GEMV offload needs row-major
     * no-transpose real data; a column-major sgemv stays host-side).
     */
    bool accelSupported = false;

    /**
     * Whether the operand layout matches the accelerator's conventions
     * so the backend may actually build a COMP from it. False e.g. for
     * mkl_scsrgemv's 1-based int32 row pointers (the accelerator reads
     * int64 0-based ones): the policy may still *decide* to offload —
     * the decision is what Table 2 prices — but the backend declines
     * and the dispatcher records an unmappable-fallback.
     */
    bool backendMappable = true;

    /** Operands in OpCall slot order: in0, in1, in2, in3, out. */
    std::array<Operand, 5> operands{};

    // Explicit work/traffic for host-only kinds (OpCall::flops() only
    // understands the accelerable kinds). Negative = use the OpCall.
    double flopsOverride = -1.0;
    double bytesOverride = -1.0;

    /** Floating-point work of the whole (looped) call. */
    double flops() const;

    /** DRAM traffic (bytes) of the whole (looped) call. */
    double bytes() const;
};

// --- lowering helpers --------------------------------------------------
//
// One helper per legacy entry point. Each fills dimensions, operand
// spans, provenance and the accel-support verdict; the caller pairs the
// returned OpDesc with a host closure executing the original kernel.

OpDesc lowerSaxpy(std::int64_t n, float a, const float *x,
                  std::int64_t incx, float *y, std::int64_t incy);
OpDesc lowerSaxpby(std::int64_t n, float a, const float *x,
                   std::int64_t incx, float b, float *y,
                   std::int64_t incy);
OpDesc lowerCaxpy(std::int64_t n, mkl::cfloat a, const mkl::cfloat *x,
                  std::int64_t incx, mkl::cfloat *y, std::int64_t incy);
OpDesc lowerSdot(std::int64_t n, const float *x, std::int64_t incx,
                 const float *y, std::int64_t incy, float *result);
OpDesc lowerCdotc(std::int64_t n, const mkl::cfloat *x, std::int64_t incx,
                  const mkl::cfloat *y, std::int64_t incy,
                  mkl::cfloat *result);
OpDesc lowerSgemv(mkl::Order order, mkl::Transpose trans, std::int64_t m,
                  std::int64_t n, float alpha, const float *a,
                  std::int64_t lda, const float *x, std::int64_t incx,
                  float beta, float *y, std::int64_t incy);
/** The classic 1-based mkl_scsrgemv arrays (square matrix). The index
 * layout differs from the accelerator's (int64 0-based rowPtr), so the
 * policy may choose offload but the backend will decline the mapping. */
OpDesc lowerScsrgemv1(std::int64_t rows, const float *a,
                      const std::int32_t *ia, const std::int32_t *ja,
                      const float *x, float *y, bool transposed);
/** CsrMatrix spmv (0-based, int64 rowPtr) — offloadable as-is. */
OpDesc lowerScsrmv(const mkl::CsrMatrix &a, const float *x, float *y);
OpDesc lowerResample(const float *x, std::int64_t nx, float *site,
                     std::int64_t nsite);
OpDesc lowerTranspose(std::int64_t rows, std::int64_t cols, float alpha,
                      const float *a, float *b, bool complexData,
                      bool mappable);
OpDesc lowerFft(const mkl::FftPlan &plan, const mkl::cfloat *in,
                mkl::cfloat *out);

// Host-only kinds (the paper's compute-bounded calls).
OpDesc lowerSgemm(std::int64_t m, std::int64_t n, std::int64_t k,
                  const float *a, const float *b, float *c);
OpDesc lowerCherk(std::int64_t n, std::int64_t k, const mkl::cfloat *a,
                  mkl::cfloat *c);
OpDesc lowerCtrsm(std::int64_t m, std::int64_t n, const mkl::cfloat *a,
                  mkl::cfloat *b);
OpDesc lowerSscal(std::int64_t n, const float *x, std::int64_t incx);
OpDesc lowerScopy(std::int64_t n, const float *x, std::int64_t incx,
                  float *y, std::int64_t incy);

/**
 * OpDesc for a COMP already expressed as an OpCall (mealib-run's TDL
 * path): physical bases are preset in @p call, host pointers stay null
 * and the backend keeps the preset addresses.
 */
OpDesc opDescFromCall(const accel::OpCall &call,
                      const accel::LoopSpec &loop);

/**
 * Whether the host kernel may rerun after a failed offload of @p desc.
 * True only for an accelerable kind that does not read its output
 * (accel::readsOutput) and whose written host operand overlaps no read
 * one: rerunning anything else after a partial accelerator run would
 * apply the update twice. TDL calls (no host operand) and host-only
 * kinds (never offloaded) are not rerun-safe.
 */
bool rerunSafe(const OpDesc &desc);

} // namespace mealib::dispatch

#endif // MEALIB_DISPATCH_OPDESC_HH

#include "minimkl/fft.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"

namespace mealib::mkl {

namespace {

bool
isPow2(std::int64_t n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

std::int64_t
log2i(std::int64_t n)
{
    std::int64_t l = 0;
    while ((std::int64_t{1} << l) < n)
        ++l;
    return l;
}

} // namespace

FftPlan::FftPlan(std::vector<FftDim> dims, std::vector<FftDim> loops,
                 FftDirection dir)
    : dims_(std::move(dims)), loops_(std::move(loops)), dir_(dir)
{
    fatalIf(dims_.size() > 2, "fft: rank > 2 not supported");
    fatalIf(loops_.size() > 4, "fft: more than 4 loop dims not supported");
    for (const FftDim &d : dims_) {
        fatalIf(!isPow2(d.n), "fft: transform extent ", d.n,
                " is not a power of two");
        fatalIf(d.is == 0 || d.os == 0, "fft: zero stride");
        points_ *= d.n;
        twiddleN_ = std::max(twiddleN_, d.n);
    }
    for (const FftDim &d : loops_) {
        fatalIf(d.n <= 0, "fft: loop extent must be positive");
        batch_ *= d.n;
    }

    if (twiddleN_ >= 2) {
        twiddles_.resize(static_cast<std::size_t>(twiddleN_ / 2));
        const double theta = 2.0 * M_PI / static_cast<double>(twiddleN_) *
                             static_cast<double>(static_cast<int>(dir_));
        for (std::int64_t k = 0; k < twiddleN_ / 2; ++k) {
            double a = theta * static_cast<double>(k);
            twiddles_[static_cast<std::size_t>(k)] = {
                static_cast<float>(std::cos(a)),
                static_cast<float>(std::sin(a))};
        }
    }
}

FftPlan
FftPlan::dft1d(std::int64_t n, FftDirection dir)
{
    return FftPlan({{n, 1, 1}}, {}, dir);
}

FftPlan
FftPlan::dft1dBatched(std::int64_t n, std::int64_t howmany,
                      std::int64_t dist, FftDirection dir)
{
    return FftPlan({{n, 1, 1}}, {{howmany, dist, dist}}, dir);
}

FftPlan
FftPlan::dft2d(std::int64_t rows, std::int64_t cols, FftDirection dir)
{
    return FftPlan({{rows, cols, cols}, {cols, 1, 1}}, {}, dir);
}

double
FftPlan::flopEstimate() const
{
    if (isCopy())
        return 0.0;
    double n = static_cast<double>(points_);
    double lg = 0.0;
    for (const FftDim &d : dims_)
        lg += static_cast<double>(log2i(d.n));
    return 5.0 * n * lg * static_cast<double>(batch_);
}

void
FftPlan::kernel(cfloat *x, cfloat *y, std::int64_t n) const
{
    // Iterative Stockham autosort (decimation in frequency). The
    // invariant nn * s == n lets twiddle lookups index the master table
    // with stride s. After log2(n) ping-pong stages the result is in x.
    panicIf(n > twiddleN_, "fft kernel size exceeds twiddle table");
    const std::int64_t step = twiddleN_ / n;
    const simd::Kernels &sk = simd::active();
    for (std::int64_t nn = n, s = 1; nn > 1; nn >>= 1, s <<= 1) {
        const std::int64_t m = nn >> 1;
        for (std::int64_t p = 0; p < m; ++p) {
            const cfloat w =
                twiddles_[static_cast<std::size_t>(p * s * step)];
            const cfloat *xa = x + s * p;
            const cfloat *xb = x + s * (p + m);
            cfloat *ya = y + s * 2 * p;
            cfloat *yb = ya + s;
            // ya = xa + xb; yb = (xa - xb) * w, 4 complex lanes at a
            // time (bit-identical at every level).
            sk.fftButterfly(s, reinterpret_cast<const float *>(xa),
                            reinterpret_cast<const float *>(xb),
                            reinterpret_cast<float *>(ya),
                            reinterpret_cast<float *>(yb), w.real(),
                            w.imag());
        }
        std::swap(x, y);
    }
    // After log2(n) ping-pong swaps the result is in the caller's first
    // buffer when log2(n) is even, else in the second; callers pick the
    // buffer by parity (see dft1dStrided).
}

void
FftPlan::dft1dStrided(const cfloat *in, std::int64_t is, cfloat *out,
                      std::int64_t os, std::int64_t n) const
{
    if (n == 1) {
        out[0] = in[0];
        return;
    }
    std::vector<cfloat> a(static_cast<std::size_t>(n));
    std::vector<cfloat> b(static_cast<std::size_t>(n));
    for (std::int64_t i = 0; i < n; ++i)
        a[static_cast<std::size_t>(i)] = in[i * is];
    kernel(a.data(), b.data(), n);
    const cfloat *res = (log2i(n) & 1) ? b.data() : a.data();
    for (std::int64_t i = 0; i < n; ++i)
        out[i * os] = res[i];
}

void
FftPlan::applyOne(const cfloat *in, cfloat *out) const
{
    if (dims_.empty()) {
        out[0] = in[0]; // rank-0: loops do the copying
        return;
    }
    if (dims_.size() == 1) {
        dft1dStrided(in, dims_[0].is, out, dims_[0].os, dims_[0].n);
        return;
    }
    // Rank 2: transform dim 1 per row into out, then dim 0 in-place.
    // Rows (and then columns) are independent transforms, so each pass
    // fans out across the pool; the two parallelFor calls form a
    // barrier between the passes.
    const FftDim &d0 = dims_[0];
    const FftDim &d1 = dims_[1];
    const KernelTuning &t = kernelTuning();
    parallelFor(0, d0.n, t.threadsFor(2 * points_), 1,
                [&](std::int64_t rb, std::int64_t re) {
                    for (std::int64_t r = rb; r < re; ++r)
                        dft1dStrided(in + r * d0.is, d1.is,
                                     out + r * d0.os, d1.os, d1.n);
                });
    parallelFor(0, d1.n, t.threadsFor(2 * points_), 1,
                [&](std::int64_t cb, std::int64_t ce) {
                    for (std::int64_t c = cb; c < ce; ++c)
                        dft1dStrided(out + c * d1.os, d0.os,
                                     out + c * d1.os, d0.os, d0.n);
                });
}

void
FftPlan::execute(const cfloat *in, cfloat *out) const
{
    // Batch iterations are independent transforms over disjoint offsets,
    // so the flat batch index range is statically partitioned across the
    // pool. Each index is decomposed into the nested loop counters
    // (last loop dim fastest, matching the sequential iteration order) —
    // rank-0 plans rely on these to enumerate every copied element.
    auto runRange = [&](std::int64_t b0, std::int64_t b1) {
        for (std::int64_t b = b0; b < b1; ++b) {
            std::int64_t rest = b;
            std::int64_t ioff = 0, ooff = 0;
            for (std::size_t d = loops_.size(); d-- > 0;) {
                std::int64_t c = rest % loops_[d].n;
                rest /= loops_[d].n;
                ioff += c * loops_[d].is;
                ooff += c * loops_[d].os;
            }
            applyOne(in + ioff, out + ooff);
        }
    };
    const KernelTuning &t = kernelTuning();
    const std::int64_t work = 2 * points_ * batch_;
    parallelFor(0, batch_, batch_ > 1 ? t.threadsFor(work) : 1, 1,
                runRange);
}

void
fftNormalize(cfloat *buf, std::int64_t count, std::int64_t n)
{
    const float s = 1.0f / static_cast<float>(n);
    for (std::int64_t i = 0; i < count; ++i)
        buf[i] *= s;
}

void
rfft(const float *in, std::int64_t n, cfloat *out)
{
    fatalIf(n < 2 || (n & (n - 1)) != 0,
            "rfft: n must be a power of two >= 2");
    const std::int64_t m = n / 2;

    // Pack adjacent real samples into complex points and transform at
    // half size, then untangle the even/odd spectra.
    std::vector<cfloat> z(static_cast<std::size_t>(m));
    for (std::int64_t k = 0; k < m; ++k)
        z[static_cast<std::size_t>(k)] = {in[2 * k], in[2 * k + 1]};
    std::vector<cfloat> big(static_cast<std::size_t>(m));
    FftPlan::dft1d(m, FftDirection::Forward).execute(z.data(),
                                                     big.data());

    for (std::int64_t k = 0; k <= m; ++k) {
        cfloat zk = big[static_cast<std::size_t>(k % m)];
        cfloat zmk = std::conj(big[static_cast<std::size_t>(
            (m - k) % m)]);
        cfloat even = 0.5f * (zk + zmk);
        cfloat odd = cfloat{0.0f, -0.5f} * (zk - zmk);
        double a = -2.0 * M_PI * static_cast<double>(k) /
                   static_cast<double>(n);
        cfloat w{static_cast<float>(std::cos(a)),
                 static_cast<float>(std::sin(a))};
        out[k] = even + w * odd;
    }
}

void
irfft(const cfloat *in, std::int64_t n, float *out)
{
    fatalIf(n < 2 || (n & (n - 1)) != 0,
            "irfft: n must be a power of two >= 2");
    const std::int64_t m = n / 2;

    // Re-tangle the half spectra and invert at half size.
    std::vector<cfloat> z(static_cast<std::size_t>(m));
    for (std::int64_t k = 0; k < m; ++k) {
        cfloat xk = in[k];
        cfloat xmk = std::conj(in[m - k]);
        cfloat even = 0.5f * (xk + xmk);
        double a = 2.0 * M_PI * static_cast<double>(k) /
                   static_cast<double>(n);
        cfloat w{static_cast<float>(std::cos(a)),
                 static_cast<float>(std::sin(a))};
        cfloat odd = w * (0.5f * (xk - xmk));
        z[static_cast<std::size_t>(k)] =
            even + cfloat{0.0f, 1.0f} * odd;
    }
    std::vector<cfloat> small(static_cast<std::size_t>(m));
    FftPlan::dft1d(m, FftDirection::Inverse).execute(z.data(),
                                                     small.data());
    const float s = 1.0f / static_cast<float>(m);
    for (std::int64_t k = 0; k < m; ++k) {
        out[2 * k] = small[static_cast<std::size_t>(k)].real() * s;
        out[2 * k + 1] = small[static_cast<std::size_t>(k)].imag() * s;
    }
}

void
naiveDft(const cfloat *in, cfloat *out, std::int64_t n, FftDirection dir)
{
    fatalIf(in == out, "naiveDft: in-place not supported");
    const double theta = 2.0 * M_PI / static_cast<double>(n) *
                         static_cast<double>(static_cast<int>(dir));
    for (std::int64_t k = 0; k < n; ++k) {
        double re = 0.0, im = 0.0;
        for (std::int64_t j = 0; j < n; ++j) {
            double a = theta * static_cast<double>(k) *
                       static_cast<double>(j);
            double c = std::cos(a), s = std::sin(a);
            re += in[j].real() * c - in[j].imag() * s;
            im += in[j].real() * s + in[j].imag() * c;
        }
        out[k] = {static_cast<float>(re), static_cast<float>(im)};
    }
}

} // namespace mealib::mkl

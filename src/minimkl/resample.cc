#include "minimkl/resample.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace mealib::mkl {

namespace {

/** Clamped sample fetch. */
template <typename T>
inline T
at(const T *in, std::int64_t n, std::int64_t i)
{
    i = std::clamp<std::int64_t>(i, 0, n - 1);
    return in[i];
}

template <typename T>
T
interpOne(const T *in, std::int64_t n, double x, InterpKind kind)
{
    x = std::clamp(x, 0.0, static_cast<double>(n - 1));
    const std::int64_t i0 = static_cast<std::int64_t>(std::floor(x));
    const double f = x - static_cast<double>(i0);

    switch (kind) {
      case InterpKind::Linear: {
        T a = at(in, n, i0);
        T b = at(in, n, i0 + 1);
        return a + (b - a) * static_cast<float>(f);
      }
      case InterpKind::CatmullRom: {
        T p0 = at(in, n, i0 - 1);
        T p1 = at(in, n, i0);
        T p2 = at(in, n, i0 + 1);
        T p3 = at(in, n, i0 + 2);
        float t = static_cast<float>(f);
        float t2 = t * t, t3 = t2 * t;
        return p1 * (1.0f - 2.5f * t2 + 1.5f * t3) +
               p0 * (-0.5f * t + t2 - 0.5f * t3) +
               p2 * (0.5f * t + 2.0f * t2 - 1.5f * t3) +
               p3 * (-0.5f * t2 + 0.5f * t3);
      }
      case InterpKind::Sinc8: {
        // 8-tap Hann-windowed sinc centred on x.
        T acc{};
        double wsum = 0.0;
        for (std::int64_t k = i0 - 3; k <= i0 + 4; ++k) {
            double d = x - static_cast<double>(k);
            double sinc =
                d == 0.0 ? 1.0 : std::sin(M_PI * d) / (M_PI * d);
            double hann =
                0.5 * (1.0 + std::cos(M_PI * d / 4.0)); // |d| <= 4
            double w = sinc * hann;
            acc += at(in, n, k) * static_cast<float>(w);
            wsum += w;
        }
        // Renormalize so constants are reproduced exactly at the edges.
        return acc * static_cast<float>(1.0 / wsum);
      }
    }
    panic("interpOne: unknown kind");
}

template <typename T>
void
resampleUniform(const T *in, std::int64_t n, T *out, std::int64_t m,
                InterpKind kind)
{
    fatalIf(n <= 0 || m <= 0, "resample: empty signal");
    if (n == 1) {
        for (std::int64_t j = 0; j < m; ++j)
            out[j] = in[0];
        return;
    }
    const double step = m > 1 ? static_cast<double>(n - 1) /
                                    static_cast<double>(m - 1)
                              : 0.0;
    for (std::int64_t j = 0; j < m; ++j)
        out[j] = interpOne(in, n, static_cast<double>(j) * step, kind);
}

template <typename T>
void
interpolateAt(const T *in, std::int64_t n, const double *x,
              std::int64_t m, T *out, InterpKind kind)
{
    fatalIf(n <= 0, "interpolate: empty signal");
    for (std::int64_t j = 0; j < m; ++j)
        out[j] = interpOne(in, n, x[j], kind);
}

} // namespace

void
resample1d(const float *in, std::int64_t n, float *out, std::int64_t m,
           InterpKind kind)
{
    resampleUniform(in, n, out, m, kind);
}

void
resample1dc(const cfloat *in, std::int64_t n, cfloat *out, std::int64_t m,
            InterpKind kind)
{
    resampleUniform(in, n, out, m, kind);
}

void
interpolate1dAt(const float *in, std::int64_t n, const double *x,
                std::int64_t m, float *out, InterpKind kind)
{
    interpolateAt(in, n, x, m, out, kind);
}

} // namespace mealib::mkl

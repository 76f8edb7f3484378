#include "minimkl/naive.hh"

#include <cmath>

#include "common/logging.hh"

namespace mealib::mkl::naive {

void
saxpy(std::int64_t n, float a, const float *x, float *y)
{
    for (std::int64_t i = 0; i < n; ++i)
        y[i] = a * x[i] + y[i];
}

float
sdot(std::int64_t n, const float *x, const float *y)
{
    float acc = 0.0f;
    for (std::int64_t i = 0; i < n; ++i)
        acc += x[i] * y[i];
    return acc;
}

void
sgemv(std::int64_t m, std::int64_t n, const float *a, std::int64_t lda,
      const float *x, float *y)
{
    for (std::int64_t i = 0; i < m; ++i) {
        float acc = 0.0f;
        for (std::int64_t j = 0; j < n; ++j)
            acc += a[i * lda + j] * x[j];
        y[i] = acc;
    }
}

void
transpose(std::int64_t rows, std::int64_t cols, const float *a, float *b)
{
    for (std::int64_t i = 0; i < rows; ++i)
        for (std::int64_t j = 0; j < cols; ++j)
            b[j * rows + i] = a[i * cols + j];
}

void
spmv(const CsrMatrix &a, const float *x, float *y)
{
    for (std::int64_t r = 0; r < a.rows; ++r) {
        float acc = 0.0f;
        for (std::int64_t k = a.rowPtr[r]; k < a.rowPtr[r + 1]; ++k)
            acc += a.vals[k] * x[a.colIdx[k]];
        y[r] = acc;
    }
}

void
fftRecursive(const cfloat *in, cfloat *out, std::int64_t n, int dir)
{
    fatalIf(n <= 0 || (n & (n - 1)) != 0,
            "fftRecursive: n must be a power of two");
    if (n == 1) {
        out[0] = in[0];
        return;
    }
    // Split even/odd, recurse, combine — O(n log n) time but O(n log n)
    // extra space; fine as an oracle.
    std::vector<cfloat> even(static_cast<std::size_t>(n / 2));
    std::vector<cfloat> odd(static_cast<std::size_t>(n / 2));
    std::vector<cfloat> fe(static_cast<std::size_t>(n / 2));
    std::vector<cfloat> fo(static_cast<std::size_t>(n / 2));
    for (std::int64_t i = 0; i < n / 2; ++i) {
        even[static_cast<std::size_t>(i)] = in[2 * i];
        odd[static_cast<std::size_t>(i)] = in[2 * i + 1];
    }
    fftRecursive(even.data(), fe.data(), n / 2, dir);
    fftRecursive(odd.data(), fo.data(), n / 2, dir);
    for (std::int64_t k = 0; k < n / 2; ++k) {
        double a = 2.0 * M_PI * static_cast<double>(k) /
                   static_cast<double>(n) * static_cast<double>(dir);
        cfloat w{static_cast<float>(std::cos(a)),
                 static_cast<float>(std::sin(a))};
        cfloat t = w * fo[static_cast<std::size_t>(k)];
        out[k] = fe[static_cast<std::size_t>(k)] + t;
        out[k + n / 2] = fe[static_cast<std::size_t>(k)] - t;
    }
}

} // namespace mealib::mkl::naive

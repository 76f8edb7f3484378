#include "common/simd.hh"

#include <cstring>

#include "common/parallel.hh"

namespace mealib::simd {

namespace generic {
const Kernels &table();
}
#if defined(MEALIB_SIMD_X86_BACKENDS)
namespace sse4 {
const Kernels &table();
}
namespace avx2 {
const Kernels &table();
}
#if defined(MEALIB_HAVE_AVX512_BACKEND)
namespace avx512 {
const Kernels &table();
}
#endif
#endif

const char *name(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Scalar:
        return "scalar";
    case SimdLevel::Sse4:
        return "sse4";
    case SimdLevel::Avx2:
        return "avx2";
    case SimdLevel::Avx512:
        return "avx512";
    case SimdLevel::Auto:
        return "auto";
    }
    return "scalar";
}

bool parseLevel(const char *text, SimdLevel *out)
{
    if (text == nullptr || out == nullptr)
        return false;
    if (std::strcmp(text, "scalar") == 0)
        *out = SimdLevel::Scalar;
    else if (std::strcmp(text, "sse4") == 0
             || std::strcmp(text, "sse4.2") == 0)
        *out = SimdLevel::Sse4;
    else if (std::strcmp(text, "avx2") == 0)
        *out = SimdLevel::Avx2;
    else if (std::strcmp(text, "avx512") == 0)
        *out = SimdLevel::Avx512;
    else if (std::strcmp(text, "auto") == 0)
        *out = SimdLevel::Auto;
    else
        return false;
    return true;
}

SimdLevel detectedLevel()
{
    static const SimdLevel level = [] {
#if defined(MEALIB_SIMD_X86_BACKENDS)
#if defined(MEALIB_HAVE_AVX512_BACKEND)
        if (__builtin_cpu_supports("avx512f")
            && __builtin_cpu_supports("avx512vl")
            && __builtin_cpu_supports("avx512dq")
            && __builtin_cpu_supports("avx512bw"))
            return SimdLevel::Avx512;
#endif
        if (__builtin_cpu_supports("avx2"))
            return SimdLevel::Avx2;
        if (__builtin_cpu_supports("sse4.2"))
            return SimdLevel::Sse4;
#endif
        return SimdLevel::Scalar;
    }();
    return level;
}

SimdLevel resolveLevel(SimdLevel request)
{
    const SimdLevel best = detectedLevel();
    if (request == SimdLevel::Auto)
        return best;
    return static_cast<int>(request) <= static_cast<int>(best) ? request
                                                               : best;
}

SimdLevel activeLevel() { return resolveLevel(kernelTuning().simd); }

std::vector<SimdLevel> availableLevels()
{
    std::vector<SimdLevel> levels = {SimdLevel::Scalar};
    const int best = static_cast<int>(detectedLevel());
    for (int l = static_cast<int>(SimdLevel::Sse4); l <= best; ++l)
        levels.push_back(static_cast<SimdLevel>(l));
    return levels;
}

const Kernels &tableFor(SimdLevel level)
{
    switch (resolveLevel(level)) {
#if defined(MEALIB_SIMD_X86_BACKENDS)
    case SimdLevel::Sse4:
        return sse4::table();
    case SimdLevel::Avx2:
        return avx2::table();
#if defined(MEALIB_HAVE_AVX512_BACKEND)
    case SimdLevel::Avx512:
        return avx512::table();
#endif
#endif
    default:
        return generic::table();
    }
}

const Kernels &active() { return tableFor(kernelTuning().simd); }

} // namespace mealib::simd

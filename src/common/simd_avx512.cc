// AVX-512 instance of the generic virtual-vector backend. Compiled with
// -march=x86-64 -mavx512f -mavx512vl -mavx512dq -mavx512bw -O3
// -ffp-contract=off -fno-tree-vectorize, and only when the compiler
// supports those flags (see src/common/CMakeLists.txt).
#define MEALIB_SIMD_NS avx512
#include "common/simd_backend.inc"

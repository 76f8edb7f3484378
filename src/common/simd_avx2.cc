// AVX2 instance of the generic virtual-vector backend. Compiled with
// -march=x86-64 -mavx2 -O3 -ffp-contract=off -fno-tree-vectorize (see
// src/common/CMakeLists.txt).
#define MEALIB_SIMD_NS avx2
#include "common/simd_backend.inc"

// SSE4.2 instance of the generic virtual-vector backend. Compiled with
// -march=x86-64 -msse4.2 -O3 -ffp-contract=off -fno-tree-vectorize (see
// src/common/CMakeLists.txt).
#define MEALIB_SIMD_NS sse4
#include "common/simd_backend.inc"

// Baseline-ISA instance of the generic virtual-vector backend: the
// table behind the scalar level. Compiled with -O3 -ffp-contract=off
// -fno-tree-vectorize, plus -march=x86-64 on x86 (see
// src/common/CMakeLists.txt).
#define MEALIB_SIMD_NS generic
#include "common/simd_backend.inc"

/**
 * @file
 * Sparse BLAS: CSR storage, sparse matrix-vector multiply (Table 1:
 * SPMV), and matrix generators.
 *
 * The paper evaluates SPMV on `rgg_n_2_20` from the UF Sparse Matrix
 * Collection. That matrix is the adjacency matrix of a random geometric
 * graph; since the collection is not bundled, randomGeometricGraph()
 * generates one with the same construction (n points in the unit square,
 * edges below a distance threshold), which exercises the identical
 * irregular-gather access pattern.
 */

#ifndef MEALIB_MINIMKL_SPARSE_HH
#define MEALIB_MINIMKL_SPARSE_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "minimkl/types.hh"

namespace mealib::mkl {

/** Compressed-sparse-row matrix, 0-based indexing. */
struct CsrMatrix
{
    std::int64_t rows = 0;
    std::int64_t cols = 0;
    std::vector<std::int64_t> rowPtr; //!< size rows+1
    std::vector<std::int32_t> colIdx; //!< size nnz
    std::vector<float> vals;          //!< size nnz

    std::int64_t
    nnz() const
    {
        return static_cast<std::int64_t>(vals.size());
    }

    /** Average nonzeros per row. */
    double
    avgDegree() const
    {
        return rows > 0 ? static_cast<double>(nnz()) /
                              static_cast<double>(rows)
                        : 0.0;
    }

    /** fatal() if the structure is inconsistent. */
    void validate() const;
};

/** y := A*x for CSR A. x has A.cols elements, y has A.rows. */
void scsrmv(const CsrMatrix &a, const float *x, float *y);

/**
 * Raw-pointer SpMV over CSR arrays that live in simulated physical
 * memory (used by the SPMV accelerator's functional executor, which must
 * not copy the matrix out of the arena).
 */
void scsrmvRaw(std::int64_t rows, const std::int64_t *rowPtr,
               const std::int32_t *colIdx, const float *vals,
               const float *x, float *y);

/**
 * SpMV over classic 1-based MKL CSR arrays (square matrix), used by the
 * mkl_scsrgemv shim so legacy callers get the parallel path without the
 * matrix being copied into a CsrMatrix first.
 */
void scsrmvRaw1(std::int64_t rows, const std::int32_t *rowPtr,
                const std::int32_t *colIdx, const float *vals,
                const float *x, float *y);

/** Transposed variant of scsrmvRaw1 (y := A^T*x, 1-based arrays). */
void scsrmvTransRaw1(std::int64_t rows, const std::int32_t *rowPtr,
                     const std::int32_t *colIdx, const float *vals,
                     const float *x, float *y);

/** Triplet (COO) entry used by the builder. */
struct Triplet
{
    std::int64_t row;
    std::int64_t col;
    float val;
};

/** Build CSR from unordered triplets; duplicates are summed. */
CsrMatrix csrFromTriplets(std::int64_t rows, std::int64_t cols,
                          std::vector<Triplet> triplets);

/**
 * Random geometric graph adjacency matrix (UF `rgg_n_2_*` family):
 * @p n points uniform in the unit square, symmetric edges where the
 * Euclidean distance is below a radius chosen so the expected average
 * degree is @p avgDegree. Edge weights are uniform in (0, 1].
 */
CsrMatrix randomGeometricGraph(std::int64_t n, double avgDegree, Rng &rng);

} // namespace mealib::mkl

#endif // MEALIB_MINIMKL_SPARSE_HH

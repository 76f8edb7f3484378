#include "minimkl/sparse.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/simd.hh"

namespace mealib::mkl {

namespace {

/**
 * Split [0, rows) into at most @p parts row ranges of roughly equal
 * nonzero count using the CSR row-pointer prefix sums. Skewed matrices
 * (a few dense rows) would starve most threads under naive equal-row
 * partitioning; equal-nnz bounds keep the per-thread work balanced.
 * @p PtrT is the row-pointer element type (int64 CSR, int32 legacy),
 * @p base its index base (0 or 1).
 */
template <typename PtrT>
std::vector<std::int64_t>
nnzBalancedBounds(std::int64_t rows, const PtrT *rowPtr, PtrT base,
                  int parts)
{
    std::vector<std::int64_t> bounds;
    bounds.reserve(static_cast<std::size_t>(parts) + 1);
    bounds.push_back(0);
    const std::int64_t nnz = rowPtr[rows] - base;
    for (int p = 1; p < parts; ++p) {
        const PtrT target =
            static_cast<PtrT>(base + nnz * p / parts);
        const PtrT *it =
            std::lower_bound(rowPtr, rowPtr + rows + 1, target);
        std::int64_t r = it - rowPtr;
        bounds.push_back(std::clamp<std::int64_t>(r, bounds.back(), rows));
    }
    bounds.push_back(rows);
    return bounds;
}

/** Core row-range SpMV shared by the CSR and raw entry points. */
template <typename PtrT>
void
spmvRows(std::int64_t rb, std::int64_t re, const PtrT *rowPtr, PtrT base,
         const std::int32_t *colIdx, const float *vals, const float *x,
         float *y)
{
    const simd::Kernels &sk = simd::active();
    for (std::int64_t r = rb; r < re; ++r) {
        double acc = 0.0;
        const std::int64_t k0 = rowPtr[r] - base;
        const std::int64_t k1 = rowPtr[r + 1] - base;
        // Short rows stay scalar: the lane-by-lane x gather only pays
        // off once a row spans several full vectors. The cutoff is a
        // fixed constant (row length only), so results remain
        // bit-identical across thread counts and ISA levels.
        if (k1 - k0 >= 32) {
            acc = sk.csrdot(k1 - k0, vals + k0, colIdx + k0,
                            static_cast<std::int32_t>(base), x);
        } else {
            for (std::int64_t k = k0; k < k1; ++k)
                acc += static_cast<double>(vals[k]) *
                       static_cast<double>(x[colIdx[k] - base]);
        }
        y[r] = static_cast<float>(acc);
    }
}

/** nnz-balanced parallel driver over any row-pointer flavour. */
template <typename PtrT>
void
spmvParallel(std::int64_t rows, const PtrT *rowPtr, PtrT base,
             const std::int32_t *colIdx, const float *vals,
             const float *x, float *y)
{
    if (rows <= 0)
        return;
    const std::int64_t nnz = rowPtr[rows] - base;
    const KernelTuning &t = kernelTuning();
    const int threads = t.threadsFor(2 * nnz);
    if (threads <= 1) {
        spmvRows<PtrT>(0, rows, rowPtr, base, colIdx, vals, x, y);
        return;
    }
    // Rows are partitioned by nnz share; every row is still summed
    // sequentially by exactly one thread, so the output is bit-identical
    // to the serial walk regardless of the partition.
    std::vector<std::int64_t> bounds =
        nnzBalancedBounds(rows, rowPtr, base, threads);
    const int parts = static_cast<int>(bounds.size()) - 1;
    parallelFor(0, parts, parts, 1,
                [&](std::int64_t pb, std::int64_t pe) {
                    for (std::int64_t p = pb; p < pe; ++p)
                        spmvRows<PtrT>(bounds[static_cast<std::size_t>(p)],
                                       bounds[static_cast<std::size_t>(
                                           p + 1)],
                                       rowPtr, base, colIdx, vals, x, y);
                });
}

} // namespace

void
CsrMatrix::validate() const
{
    fatalIf(rows < 0 || cols < 0, "csr: negative dimension");
    fatalIf(rowPtr.size() != static_cast<std::size_t>(rows) + 1,
            "csr: rowPtr size ", rowPtr.size(), " != rows+1");
    fatalIf(rowPtr.front() != 0, "csr: rowPtr[0] != 0");
    fatalIf(rowPtr.back() != nnz(), "csr: rowPtr[rows] != nnz");
    fatalIf(colIdx.size() != vals.size(), "csr: colIdx/vals size mismatch");
    for (std::int64_t r = 0; r < rows; ++r) {
        fatalIf(rowPtr[r] > rowPtr[r + 1], "csr: rowPtr not monotone at ",
                r);
        for (std::int64_t k = rowPtr[r]; k < rowPtr[r + 1]; ++k) {
            fatalIf(colIdx[k] < 0 || colIdx[k] >= cols,
                    "csr: column index out of range at entry ", k);
            fatalIf(k > rowPtr[r] && colIdx[k] <= colIdx[k - 1],
                    "csr: columns not strictly increasing in row ", r);
        }
    }
}

void
scsrmv(const CsrMatrix &a, const float *x, float *y)
{
    spmvParallel<std::int64_t>(a.rows, a.rowPtr.data(), 0,
                               a.colIdx.data(), a.vals.data(), x, y);
}

void
scsrmvRaw(std::int64_t rows, const std::int64_t *rowPtr,
          const std::int32_t *colIdx, const float *vals, const float *x,
          float *y)
{
    spmvParallel<std::int64_t>(rows, rowPtr, 0, colIdx, vals, x, y);
}

void
scsrmvRaw1(std::int64_t rows, const std::int32_t *rowPtr,
           const std::int32_t *colIdx, const float *vals, const float *x,
           float *y)
{
    spmvParallel<std::int32_t>(rows, rowPtr, 1, colIdx, vals, x, y);
}

void
scsrmvTransRaw1(std::int64_t rows, const std::int32_t *rowPtr,
                const std::int32_t *colIdx, const float *vals,
                const float *x, float *y)
{
    // The scatter formulation writes y[colIdx[k]] across rows, so the
    // transposed walk stays serial: parallelizing it would need
    // per-thread output buffers whose merge order depends on the thread
    // count, breaking bit-reproducibility. The classic interface
    // assumes a square matrix, so y has `rows` elements.
    std::memset(y, 0, static_cast<std::size_t>(rows) * sizeof(float));
    for (std::int64_t r = 0; r < rows; ++r) {
        float xv = x[r];
        if (xv == 0.0f)
            continue;
        for (std::int64_t k = rowPtr[r] - 1; k < rowPtr[r + 1] - 1; ++k)
            y[colIdx[k] - 1] += vals[k] * xv;
    }
}

void
scsrmvTrans(const CsrMatrix &a, const float *x, float *y)
{
    std::memset(y, 0, static_cast<std::size_t>(a.cols) * sizeof(float));
    for (std::int64_t r = 0; r < a.rows; ++r) {
        float xv = x[r];
        if (xv == 0.0f)
            continue;
        for (std::int64_t k = a.rowPtr[r]; k < a.rowPtr[r + 1]; ++k)
            y[a.colIdx[k]] += a.vals[k] * xv;
    }
}

CsrMatrix
csrFromTriplets(std::int64_t rows, std::int64_t cols,
                std::vector<Triplet> triplets)
{
    for (const Triplet &t : triplets) {
        fatalIf(t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols,
                "triplet (", t.row, ",", t.col, ") out of range");
    }
    std::sort(triplets.begin(), triplets.end(),
              [](const Triplet &a, const Triplet &b) {
                  return a.row != b.row ? a.row < b.row : a.col < b.col;
              });

    CsrMatrix m;
    m.rows = rows;
    m.cols = cols;
    m.rowPtr.assign(static_cast<std::size_t>(rows) + 1, 0);

    for (std::size_t i = 0; i < triplets.size();) {
        std::size_t j = i;
        float sum = 0.0f;
        while (j < triplets.size() && triplets[j].row == triplets[i].row &&
               triplets[j].col == triplets[i].col) {
            sum += triplets[j].val;
            ++j;
        }
        m.colIdx.push_back(static_cast<std::int32_t>(triplets[i].col));
        m.vals.push_back(sum);
        m.rowPtr[static_cast<std::size_t>(triplets[i].row) + 1]++;
        i = j;
    }
    for (std::int64_t r = 0; r < rows; ++r)
        m.rowPtr[static_cast<std::size_t>(r) + 1] +=
            m.rowPtr[static_cast<std::size_t>(r)];
    return m;
}

CsrMatrix
randomGeometricGraph(std::int64_t n, double avgDegree, Rng &rng)
{
    fatalIf(n <= 0, "rgg: need at least one node");
    fatalIf(avgDegree < 0.0, "rgg: negative degree");

    // Expected degree of an interior node is n * pi * r^2.
    double radius = std::sqrt(avgDegree / (M_PI * static_cast<double>(n)));
    radius = std::min(radius, 1.0);

    struct Pt
    {
        float x, y;
    };
    std::vector<Pt> pts(static_cast<std::size_t>(n));
    for (auto &p : pts) {
        p.x = static_cast<float>(rng.uniform());
        p.y = static_cast<float>(rng.uniform());
    }

    // Bucket grid with cell size >= radius: neighbours lie in the 3x3
    // cell neighbourhood, making generation O(n * degree).
    std::int64_t grid = std::max<std::int64_t>(
        1, static_cast<std::int64_t>(1.0 / std::max(radius, 1e-9)));
    grid = std::min<std::int64_t>(grid, 4096);
    double cell = 1.0 / static_cast<double>(grid);

    std::vector<std::vector<std::int32_t>> buckets(
        static_cast<std::size_t>(grid * grid));
    auto cellOf = [&](const Pt &p) {
        std::int64_t cx = std::min<std::int64_t>(
            grid - 1, static_cast<std::int64_t>(p.x / cell));
        std::int64_t cy = std::min<std::int64_t>(
            grid - 1, static_cast<std::int64_t>(p.y / cell));
        return cy * grid + cx;
    };
    for (std::int64_t i = 0; i < n; ++i)
        buckets[static_cast<std::size_t>(cellOf(pts[static_cast<
            std::size_t>(i)]))].push_back(static_cast<std::int32_t>(i));

    const float r2 = static_cast<float>(radius * radius);
    std::vector<Triplet> trip;
    for (std::int64_t i = 0; i < n; ++i) {
        const Pt &p = pts[static_cast<std::size_t>(i)];
        std::int64_t cx = std::min<std::int64_t>(
            grid - 1, static_cast<std::int64_t>(p.x / cell));
        std::int64_t cy = std::min<std::int64_t>(
            grid - 1, static_cast<std::int64_t>(p.y / cell));
        for (std::int64_t dy = -1; dy <= 1; ++dy) {
            for (std::int64_t dx = -1; dx <= 1; ++dx) {
                std::int64_t nx = cx + dx, ny = cy + dy;
                if (nx < 0 || ny < 0 || nx >= grid || ny >= grid)
                    continue;
                for (std::int32_t j :
                     buckets[static_cast<std::size_t>(ny * grid + nx)]) {
                    if (j <= i)
                        continue; // emit each undirected edge once
                    const Pt &q = pts[static_cast<std::size_t>(j)];
                    float ddx = p.x - q.x, ddy = p.y - q.y;
                    if (ddx * ddx + ddy * ddy <= r2) {
                        float w =
                            static_cast<float>(rng.uniform()) * 0.999f +
                            0.001f;
                        trip.push_back({i, j, w});
                        trip.push_back({j, i, w});
                    }
                }
            }
        }
    }
    return csrFromTriplets(n, n, std::move(trip));
}

CsrMatrix
readMatrixMarket(const std::string &text)
{
    std::istringstream in(text);
    std::string line;

    // Header: %%MatrixMarket matrix coordinate <field> <symmetry>
    fatalIf(!std::getline(in, line), "mtx: empty input");
    std::istringstream hs(line);
    std::string banner, object, format, field, symmetry;
    hs >> banner >> object >> format >> field >> symmetry;
    fatalIf(banner != "%%MatrixMarket", "mtx: missing banner");
    fatalIf(object != "matrix" || format != "coordinate",
            "mtx: only coordinate-format matrices are supported");
    bool pattern = field == "pattern";
    fatalIf(!pattern && field != "real" && field != "integer",
            "mtx: unsupported field '", field, "'");
    bool symmetric = symmetry == "symmetric";
    fatalIf(!symmetric && symmetry != "general",
            "mtx: unsupported symmetry '", symmetry, "'");

    // Skip comments, read the size line.
    do {
        fatalIf(!std::getline(in, line), "mtx: missing size line");
    } while (!line.empty() && line[0] == '%');
    std::istringstream ss(line);
    std::int64_t rows = 0, cols = 0, entries = 0;
    ss >> rows >> cols >> entries;
    fatalIf(rows <= 0 || cols <= 0 || entries < 0,
            "mtx: bad size line '", line, "'");

    std::vector<Triplet> trip;
    trip.reserve(static_cast<std::size_t>(entries) * (symmetric ? 2 : 1));
    for (std::int64_t e = 0; e < entries; ++e) {
        do {
            fatalIf(!std::getline(in, line), "mtx: truncated after ", e,
                    " of ", entries, " entries");
        } while (line.empty() || line[0] == '%');
        std::istringstream es(line);
        std::int64_t r = 0, c = 0;
        double v = 1.0;
        es >> r >> c;
        if (!pattern)
            es >> v;
        fatalIf(es.fail(), "mtx: bad entry '", line, "'");
        fatalIf(r < 1 || r > rows || c < 1 || c > cols,
                "mtx: entry (", r, ",", c, ") out of range");
        trip.push_back({r - 1, c - 1, static_cast<float>(v)});
        if (symmetric && r != c)
            trip.push_back({c - 1, r - 1, static_cast<float>(v)});
    }
    return csrFromTriplets(rows, cols, std::move(trip));
}

std::string
writeMatrixMarket(const CsrMatrix &m)
{
    std::ostringstream os;
    os << "%%MatrixMarket matrix coordinate real general\n";
    os << "% written by MEALib MiniMKL\n";
    os << m.rows << " " << m.cols << " " << m.nnz() << "\n";
    for (std::int64_t r = 0; r < m.rows; ++r)
        for (std::int64_t k = m.rowPtr[r]; k < m.rowPtr[r + 1]; ++k)
            os << r + 1 << " " << m.colIdx[k] + 1 << " "
               << m.vals[static_cast<std::size_t>(k)] << "\n";
    return os.str();
}

CsrMatrix
bandMatrix(std::int64_t n, std::int64_t halfBandwidth)
{
    fatalIf(n <= 0, "band: need at least one row");
    std::vector<Triplet> trip;
    for (std::int64_t i = 0; i < n; ++i) {
        std::int64_t lo = std::max<std::int64_t>(0, i - halfBandwidth);
        std::int64_t hi = std::min<std::int64_t>(n - 1, i + halfBandwidth);
        for (std::int64_t j = lo; j <= hi; ++j) {
            float v = i == j ? 2.0f : -1.0f / static_cast<float>(
                                                 1 + std::llabs(i - j));
            trip.push_back({i, j, v});
        }
    }
    return csrFromTriplets(n, n, std::move(trip));
}

} // namespace mealib::mkl

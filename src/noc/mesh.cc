#include "noc/mesh.hh"

#include <algorithm>
#include <cstdlib>

#include "common/logging.hh"

namespace mealib::noc {

Mesh::Mesh(const MeshParams &params) : params_(params)
{
    fatalIf(params_.width == 0 || params_.height == 0,
            "mesh dimensions must be nonzero");
    fatalIf(params_.clock <= 0.0, "mesh clock must be positive");
    fatalIf(params_.linkBytesPerCycle == 0, "flit width must be nonzero");
}

unsigned
Mesh::hops(unsigned a, unsigned b) const
{
    fatalIf(a >= numTiles() || b >= numTiles(), "tile index out of range");
    int ax = static_cast<int>(a % params_.width);
    int ay = static_cast<int>(a / params_.width);
    int bx = static_cast<int>(b % params_.width);
    int by = static_cast<int>(b / params_.width);
    return static_cast<unsigned>(std::abs(ax - bx) + std::abs(ay - by));
}

double
Mesh::transferSeconds(unsigned a, unsigned b, std::uint64_t bytes) const
{
    if (bytes == 0)
        return 0.0;
    unsigned h = hops(a, b);
    // Wormhole: head flit pays per-hop latency; body streams behind at
    // link bandwidth.
    double head = static_cast<double>(h) *
                  static_cast<double>(params_.hopCycles) / params_.clock;
    double body_cycles = static_cast<double>(
        (bytes + params_.linkBytesPerCycle - 1) /
        params_.linkBytesPerCycle);
    return head + body_cycles / params_.clock;
}

double
Mesh::transferJoules(unsigned nhops, std::uint64_t bytes) const
{
    return static_cast<double>(nhops) * static_cast<double>(bytes) *
           params_.energyPerByteHop;
}

Cost
Mesh::reduceToTile0(std::uint64_t bytesPerTile) const
{
    // Dimension-order reduction tree: log-depth in each dimension; model
    // as every tile sending its partial to tile 0 with transfers down a
    // binomial tree. Latency is the deepest path; energy is total traffic.
    Cost c;
    unsigned worst = 0;
    double joules = 0.0;
    for (unsigned t = 1; t < numTiles(); ++t) {
        unsigned h = hops(t, 0);
        worst = std::max(worst, h);
        joules += transferJoules(h, bytesPerTile);
    }
    // Tree depth ~ log2(tiles); each level forwards one payload.
    unsigned levels = 0;
    for (unsigned n = numTiles(); n > 1; n >>= 1)
        ++levels;
    double per_level =
        transferSeconds(0, params_.width > 1 ? 1 : 0, bytesPerTile);
    c.seconds = static_cast<double>(levels) * per_level +
                static_cast<double>(worst) *
                    static_cast<double>(params_.hopCycles) / params_.clock;
    c.joules = joules;
    return c;
}

Cost
Mesh::crcReplayCost(std::uint64_t packetBytes) const
{
    // NACK travels back across the mesh diameter, then the source
    // retransmits the packet over the same worst-case path.
    const unsigned diameter = (params_.width - 1) + (params_.height - 1);
    Cost c;
    c.seconds = static_cast<double>(diameter) *
                    static_cast<double>(params_.hopCycles) /
                    params_.clock +
                transferSeconds(0, numTiles() - 1, packetBytes);
    c.joules = 2.0 * transferJoules(diameter, packetBytes);
    return c;
}

double
Mesh::leakageW() const
{
    return params_.routerLeakageW * static_cast<double>(numTiles());
}

double
Mesh::areaMm2() const
{
    return params_.routerAreaMm2 * static_cast<double>(numTiles());
}

} // namespace mealib::noc

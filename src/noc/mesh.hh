/**
 * @file
 * 2D mesh network-on-chip model for the accelerator layer (paper Fig. 4:
 * one tile per vault, tiles connected in a mesh that is distinct from the
 * DRAM-logic-layer interconnect).
 *
 * The model is analytical: XY dimension-order routing gives deterministic
 * hop counts; per-hop latency and per-byte link energy turn traffic
 * summaries into time/energy; router/link constants at 32 nm provide the
 * Table 5 power/area rows.
 */

#ifndef MEALIB_NOC_MESH_HH
#define MEALIB_NOC_MESH_HH

#include <cstdint>

#include "common/units.hh"

namespace mealib::noc {

/** NoC design constants (32 nm, mesh of wormhole routers). */
struct MeshParams
{
    unsigned width = 0;   //!< tiles per row
    unsigned height = 0;  //!< tiles per column
    double clock = 0.0;   //!< router clock, Hz
    unsigned hopCycles = 3;          //!< router pipeline + link traversal
    std::uint64_t linkBytesPerCycle = 16; //!< flit width
    double energyPerByteHop = 0.0;   //!< dynamic energy per byte per hop
    double routerLeakageW = 0.0;     //!< static power per router
    double routerAreaMm2 = 0.0;      //!< area per router (incl. links)

    bool operator==(const MeshParams &) const = default;
};

/** Analytical mesh model. */
class Mesh
{
  public:
    explicit Mesh(const MeshParams &params);

    /** Manhattan hop count between tiles @p a and @p b (XY routing). */
    unsigned hops(unsigned a, unsigned b) const;

    /** Latency of moving @p bytes from tile @p a to tile @p b. */
    double transferSeconds(unsigned a, unsigned b,
                           std::uint64_t bytes) const;

    /** Dynamic energy of moving @p bytes over @p nhops hops. */
    double transferJoules(unsigned nhops, std::uint64_t bytes) const;

    /** Cost of an all-to-one reduction of @p bytesPerTile to tile 0. */
    Cost reduceToTile0(std::uint64_t bytesPerTile) const;

    /**
     * Cost of replaying one link packet after a CRC failure (fault
     * injection, docs/FAULTS.md): the NACK round trip across the mesh
     * diameter plus retransmission of @p packetBytes.
     */
    Cost crcReplayCost(std::uint64_t packetBytes) const;

    /** Total router leakage power of the mesh, watts. */
    double leakageW() const;

    /** Total NoC area (routers + links), mm^2. */
    double areaMm2() const;

    unsigned numTiles() const { return params_.width * params_.height; }
    const MeshParams &params() const { return params_; }

  private:
    MeshParams params_;
};

} // namespace mealib::noc

#endif // MEALIB_NOC_MESH_HH

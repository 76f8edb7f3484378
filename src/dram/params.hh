/**
 * @file
 * Timing, energy and organization parameters of the simulated DRAM
 * devices.
 *
 * Two presets are provided: an HMC-like 3D stack (the MEALib substrate,
 * 510 GB/s aggregate internal bandwidth as in Table 3 of the paper) and a
 * conventional DDR3-1600 channel group used for the host, PSAS and MSAS
 * baselines. Parameter values follow CACTI-3DD-style estimates for a
 * 32 nm-generation part; they are inputs to the model, not measurements.
 */

#ifndef MEALIB_DRAM_PARAMS_HH
#define MEALIB_DRAM_PARAMS_HH

#include <cstdint>
#include <string>

#include "common/units.hh"
#include "hwmodel/constants.hh"

namespace mealib::dram {

/** Per-vault (or per-channel) DRAM timing, in device clock cycles. */
struct TimingParams
{
    double tCK = 0.0;        //!< clock period in seconds
    Cycles tRCD = 0;         //!< activate to column command
    Cycles tCAS = 0;         //!< column command to first data
    Cycles tRP = 0;          //!< precharge latency
    Cycles tRAS = 0;         //!< minimum row-open time
    Cycles tWR = 0;          //!< write recovery
    Cycles tBURST = 0;       //!< data bus occupancy per burst
    std::uint64_t burstBytes = 0; //!< bytes transferred per burst
    Cycles tREFI = 0;        //!< refresh interval (0 = refresh ignored)
    Cycles tRFC = 0;         //!< refresh cycle time (vault blocked)

    bool operator==(const TimingParams &) const = default;
};

/** Energy model parameters (CACTI-3DD-style). */
struct EnergyParams
{
    double activateJ = 0.0;     //!< energy per row activation
    double readJPerByte = 0.0;  //!< array read energy per byte
    double writeJPerByte = 0.0; //!< array write energy per byte
    double tsvJPerByte = 0.0;   //!< TSV (or channel I/O) energy per byte
    double backgroundWPerVault = 0.0; //!< standby power per vault
    double refreshJPerVault = 0.0;    //!< energy of one all-bank refresh

    bool operator==(const EnergyParams &) const = default;
};

/** Organization of one stack (or channel group). */
struct OrgParams
{
    unsigned numVaults = 0;       //!< vaults (3D) or channels (2D)
    unsigned banksPerVault = 0;   //!< banks per vault
    std::uint64_t rowBytes = 0;   //!< row-buffer size per bank
    std::uint64_t interleaveBytes = 0; //!< vault-interleaving granularity
    std::uint64_t capacityBytes = 0;   //!< total capacity
    double linkBandwidth = 0.0;   //!< external (host-visible) bandwidth, B/s

    bool operator==(const OrgParams &) const = default;
};

/** Complete description of one DRAM device. */
struct DramParams
{
    std::string name;
    TimingParams timing;
    EnergyParams energy;
    OrgParams org;

    bool operator==(const DramParams &) const = default;

    /** Peak internal data bandwidth across all vaults, bytes/second. */
    double
    peakInternalBandwidth() const
    {
        double per_vault = static_cast<double>(timing.burstBytes) /
                           (static_cast<double>(timing.tBURST) * timing.tCK);
        return per_vault * org.numVaults;
    }
};

/**
 * DRAM-logic-layer additions of MEALib (Sec. 5.2): the (de)multiplexers on
 * the vault/link controllers plus the data-reshape unit. Fixed cost
 * constants reported by the paper: 0.25 W and 0.45 mm^2 at 32 nm.
 */
struct LogicLayerExtras
{
    double powerW = hwmodel::kLogicLayerMuxPowerW;
    double areaMm2 = hwmodel::kLogicLayerMuxAreaMm2;
    //! HMC 2011 logic layer area
    double logicLayerAreaMm2 = hwmodel::kLogicLayerAreaMm2;
};

} // namespace mealib::dram

#endif // MEALIB_DRAM_PARAMS_HH

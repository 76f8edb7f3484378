/**
 * @file
 * Leaf constants of the hardware-model registry: the fixed Table 5
 * areas, the DRAM-logic-layer extras (Sec. 5.2), the inter-stack link
 * energy and the cost oracle's invocation overhead. This header is
 * include-graph terminal (it includes nothing from the model layers) so
 * that dram/params.hh and accel/config.hh can alias these values
 * without creating a cycle with hwmodel/profile.hh, which includes
 * both.
 *
 * Every other Table 3/5/CACTI constant lives in hwmodel/presets.cc;
 * nothing outside src/hwmodel may define one (docs/MODEL.md).
 */

#ifndef MEALIB_HWMODEL_CONSTANTS_HH
#define MEALIB_HWMODEL_CONSTANTS_HH

namespace mealib::hwmodel {

/** TSV array area on the accelerator layer (Table 5). */
inline constexpr double kTsvAreaMm2 = 1.75;

/** Accelerator-layer area budget (HMC 2011 die, Sec. 5.2). */
inline constexpr double kAccelLayerAreaMm2 = 68.0;

/** DRAM-logic-layer (de)multiplexer + reshape-unit power (Sec. 5.2). */
inline constexpr double kLogicLayerMuxPowerW = 0.25;

/** DRAM-logic-layer (de)multiplexer + reshape-unit area (Sec. 5.2). */
inline constexpr double kLogicLayerMuxAreaMm2 = 0.45;

/** HMC 2011 logic-layer die area the extras are compared against. */
inline constexpr double kLogicLayerAreaMm2 = 68.0;

/** The dispatch cost oracle's fixed per-invocation overhead: descriptor
 * copy plus the START/DONE handshake over the host links (excludes the
 * size-dependent cache flush). Only the oracle reads it. The runtime
 * prices a submitted command's handshake as descBytes / link bandwidth
 * + 2 us, and the accelerator layer adds its fetch, configure and
 * pass-start costs (accel::ConfigCosts), so the two prices differ. */
inline constexpr double kHandshakeSeconds = 20.0e-6;

/** Inter-stack SerDes link energy (HMC-style high-speed links), per byte
 * of an operand read from a remote memory stack. */
inline constexpr double kLinkJPerByte = 10.0e-12;

} // namespace mealib::hwmodel

#endif // MEALIB_HWMODEL_CONSTANTS_HH

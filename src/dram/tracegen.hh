/**
 * @file
 * Trace construction for the DRAM simulator.
 *
 * Accelerators are streaming engines: they read/write a handful of
 * concurrent address streams (plus gathers for sparse operands). The
 * TraceBuilder describes an operation as a set of such streams, samples a
 * bounded window of the full traffic, and interleaves the streams with
 * smooth weighted round-robin — the arbitration a multi-stream DMA engine
 * performs in hardware.
 */

#ifndef MEALIB_DRAM_TRACEGEN_HH
#define MEALIB_DRAM_TRACEGEN_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "dram/params.hh"
#include "dram/request.hh"

namespace mealib::dram {

/** Builds sampled, interleaved request traces from stream descriptions. */
class TraceBuilder
{
  public:
    /**
     * @param params device whose burst size chunks the streams
     * @param maxSampledBytes cap on the simulated window (the rest of the
     *        traffic is extrapolated from the window's steady state)
     */
    explicit TraceBuilder(const DramParams &params,
                          std::uint64_t maxSampledBytes = 2_MiB);

    /** Contiguous stream of @p bytes starting at @p base. */
    void addLinear(Addr base, std::uint64_t bytes, bool write);

    /**
     * Strided stream: @p count chunks of @p chunkBytes, consecutive chunk
     * starts separated by @p strideBytes (>= chunkBytes).
     */
    void addStrided(Addr base, std::uint64_t chunkBytes,
                    std::uint64_t strideBytes, std::uint64_t count,
                    bool write);

    /**
     * Random gather/scatter: @p count accesses of @p elemBytes uniformly
     * distributed in [base, base+regionBytes), drawn from @p rng.
     */
    void addGather(Addr base, std::uint64_t regionBytes,
                   std::uint64_t count, std::uint32_t elemBytes, bool write,
                   Rng &rng);

    /**
     * Finalize. Streams are scaled so the window covers at most the
     * configured cap, chunked into device bursts, and interleaved
     * proportionally to each stream's share of total traffic.
     */
    Trace build() const;

  private:
    struct Stream
    {
        std::vector<Request> bursts;  //!< sampled portion, in burst units
        std::uint64_t totalBytes = 0; //!< full (unsampled) traffic
        std::uint64_t sampledBytes = 0;
    };

    /** Split [base, base+bytes) into burst-sized requests. */
    void chunk(Stream &s, Addr base, std::uint64_t bytes, bool write);

    DramParams params_;
    std::uint64_t cap_;
    std::vector<Stream> streams_;
    std::uint64_t totalBytes_ = 0;
};

} // namespace mealib::dram

#endif // MEALIB_DRAM_TRACEGEN_HH

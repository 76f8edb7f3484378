#include "dispatch/models.hh"

#include <algorithm>
#include <limits>

#include "accel/model.hh"

namespace mealib::dispatch {

host::KernelProfile
hostKernelProfile(const hwmodel::MachineProfile &m,
                  const accel::OpCall &call, const accel::LoopSpec &loop)
{
    const hwmodel::HostOpEfficiency &p = m.opEfficiency(call.kind);
    double iters = static_cast<double>(loop.iterations());

    host::KernelProfile k;
    k.name = accel::name(call.kind);
    k.flops = call.flops() * iters;
    // Reuse-aware traffic: loop dimensions with zero operand stride hit
    // the host's caches, symmetric with the accelerator-side modeling.
    double traffic =
        accel::loopedTrafficBytes(call, loop) * p.trafficFactor;
    k.bytesRead = traffic * 0.75;
    k.bytesWritten = traffic * 0.25;
    k.simdEff = p.simdEff;
    // Short vectors leave the SIMD pipeline mostly empty (ramp-up,
    // horizontal reductions): the 36-element STAP dots reach a fraction
    // of the streaming kernels' issue efficiency.
    if (call.n < m.shortVectorElems)
        k.simdEff *= m.shortVectorSimdFactor;
    k.memEff = p.memEff;
    k.parallelFraction = p.parallelFraction;
    // Library call dispatch + thread wakeup; heavier on the Phi.
    k.callOverheads = m.callOverheadSeconds;
    return k;
}

RooflineCostModel::RooflineCostModel()
    : RooflineCostModel(hwmodel::activeProfile())
{
}

RooflineCostModel::RooflineCostModel(
    const hwmodel::MachineProfile &machine)
    : machine_(machine), cpu_(machine.cpu)
{
}

RooflineCostModel::Key
RooflineCostModel::keyOf(const OpDesc &desc, unsigned window)
{
    return {static_cast<std::uint8_t>(desc.kind), desc.call.n,
            desc.call.m, desc.call.k, desc.call.complexData,
            desc.loop.iterations(), window};
}

double
RooflineCostModel::hostSeconds(const OpDesc &desc) const
{
    // The fusion window only affects accelerator-side amortization.
    Key key = keyOf(desc, 1);
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = hostCache_.find(key);
        if (it != hostCache_.end())
            return it->second;
    }

    host::KernelProfile p;
    if (accelerable(desc.kind)) {
        p = hostKernelProfile(machine_, desc.call, desc.loop);
    } else {
        // Host-only kinds (GEMM, HERK, TRSM, SCAL, COPY): build a
        // generic profile from the descriptor's flop/byte overrides.
        // Efficiencies are MKL-level-3-ish; these kinds are only ever
        // priced so the policy can confirm they stay on the host.
        p.name = name(desc.kind);
        p.flops = desc.flops();
        double traffic = desc.bytes();
        p.bytesRead = traffic * 0.75;
        p.bytesWritten = traffic * 0.25;
        p.simdEff = 0.8;
        p.memEff = 0.6;
        p.parallelFraction = 0.95;
        p.callOverheads = machine_.callOverheadSeconds;
    }
    double s = cpu_.run(p).seconds;

    std::lock_guard<std::mutex> lock(mu_);
    hostCache_.emplace(key, s);
    return s;
}

void
RooflineCostModel::setFusionWindow(unsigned window)
{
    std::lock_guard<std::mutex> lock(mu_);
    // No cache clear: accel estimates are keyed by the window they were
    // priced under, so toggling back reuses the earlier entries.
    fusionWindow_ = window < 1 ? 1 : window;
}

double
RooflineCostModel::accelSeconds(const OpDesc &desc) const
{
    if (!desc.accelSupported || !accelerable(desc.kind))
        return std::numeric_limits<double>::infinity();

    unsigned window = 1;
    {
        std::lock_guard<std::mutex> lock(mu_);
        window = fusionWindow_;
        auto it = accelCache_.find(keyOf(desc, window));
        if (it != accelCache_.end())
            return it->second;
    }
    Key key = keyOf(desc, window);

    accel::AccelEstimate e = accel::estimate(
        desc.call, desc.loop, machine_.stackDram, machine_.mesh);
    // Invocation overhead: the host must flush the input footprint out
    // of its caches before the memory-side units read DRAM directly,
    // then copy the descriptor and ring the START doorbell.
    double inputs = desc.call.inputBytes() *
                    static_cast<double>(desc.loop.iterations());
    // Loop reuse keeps the footprint smaller than inputs x iterations;
    // never flush more than the reuse-aware traffic of the whole plan.
    inputs = std::min(inputs, accel::loopedTrafficBytes(desc.call,
                                                        desc.loop));
    double flush =
        cpu_.flushCost(static_cast<std::uint64_t>(inputs)).seconds;
    // With a fusion window the backend packs up to `window` adjacent
    // calls into one descriptor program: one flush + handshake per
    // window instead of per call.
    double s = e.total.seconds +
               (flush + kHandshakeSeconds) / static_cast<double>(window);

    std::lock_guard<std::mutex> lock(mu_);
    accelCache_.emplace(key, s);
    return s;
}

} // namespace mealib::dispatch

#include "hwmodel/profile.hh"

#include <cstdlib>
#include <mutex>

#include "common/logging.hh"

namespace mealib::hwmodel {

namespace {

using accel::AccelKind;

constexpr std::size_t
idx(AccelKind kind)
{
    return static_cast<std::size_t>(kind);
}

/** Per-op calibration of the Haswell host (Fig. 9/10 bands). */
std::array<HostOpEfficiency, kNumAccelKinds>
haswellHostOps()
{
    std::array<HostOpEfficiency, kNumAccelKinds> t{};
    // Write-allocate turns 3 B/B into 4 B/B of bus traffic;
    // STREAM-like loops sustain ~60% of the 25.6 GB/s pair.
    t[idx(AccelKind::AXPY)] = {4.0 / 3.0, 0.60, 0.9, 0.95};
    // Pure reads, but the reduction and threading sync cost some
    // steady-state bandwidth.
    t[idx(AccelKind::DOT)] = {1.0, 0.50, 0.9, 0.90};
    t[idx(AccelKind::GEMV)] = {1.05, 0.60, 0.9, 0.95};
    // rgg's vector mostly fits the LLC: traffic is ~the matrix stream,
    // but the gather-dependent loads cap efficiency.
    t[idx(AccelKind::SPMV)] = {0.55, 0.35, 0.3, 0.90};
    // Windowed-sinc interpolation is compute-bound on the host: short
    // gather-heavy dots vectorize poorly.
    t[idx(AccelKind::RESMP)] = {1.2, 0.60, 0.30, 0.95};
    // Large 2D FFT: multiple blocked passes plus transposes push
    // traffic to ~2x the accelerator's two-pass scheme.
    t[idx(AccelKind::FFT)] = {2.0, 0.50, 0.35, 0.90};
    // Strided writes use a fraction of each cache line; blocked MKL
    // recovers some locality but efficiency stays low — hence the
    // paper's largest gain (88x).
    t[idx(AccelKind::RESHP)] = {1.5, 0.20, 1.0, 0.90};
    return t;
}

/**
 * Per-op calibration of the Xeon Phi host. The paper observes
 * (Sec. 5.1) that Xeon Phi barely beats — and often trails — Haswell on
 * these data sets: per-op efficiencies on the 320 GB/s card are poor
 * (60 in-order cores need far more parallel slack than these kernels
 * expose). Factors calibrated to the paper's observations: AXPY 2.23x
 * over Haswell, RESHP 0.024x.
 */
std::array<HostOpEfficiency, kNumAccelKinds>
xeonPhiHostOps()
{
    std::array<HostOpEfficiency, kNumAccelKinds> t{};
    t[idx(AccelKind::AXPY)] = {4.0 / 3.0, 0.11, 0.5, 0.98};
    t[idx(AccelKind::DOT)] = {1.0, 0.075, 0.5, 0.95};
    t[idx(AccelKind::GEMV)] = {1.05, 0.06, 0.5, 0.95};
    t[idx(AccelKind::SPMV)] = {0.55, 0.022, 0.2, 0.90};
    t[idx(AccelKind::RESMP)] = {1.2, 0.30, 0.012, 0.95};
    t[idx(AccelKind::FFT)] = {2.0, 0.065, 0.2, 0.90};
    // In-place strided transpose is pathological on the ring-based
    // in-order card: the paper measures 2.4% of Haswell.
    t[idx(AccelKind::RESHP)] = {1.5, 0.00045, 1.0, 0.90};
    return t;
}

MachineProfile
makeHaswellProfile()
{
    MachineProfile m;
    m.name = "haswell4770k";
    m.cpu = haswell4770kParams();
    m.callOverheadSeconds = 5.0e-6;
    m.hostOps = haswellHostOps();
    m.stackDram = hmcStackParams();
    m.mesh = mealibMeshParams();
    // SSE4.2 CRC32C sustains ~1 byte/cycle/core; one core at 3.5 GHz
    // with some pipelining overlap gives ~20 GB/s of verification
    // throughput at a few pJ/byte of core energy.
    m.checksumBytesPerSecond = 20.0e9;
    m.checksumJPerByte = 4.0e-12;
    // Journal write = stack-internal read + write (~8.4 pJ/B) plus TSV
    // and bookkeeping overheads.
    m.journalJPerByte = 15.0e-12;
    return m;
}

MachineProfile
makeXeonPhiProfile()
{
    MachineProfile m;
    m.name = "xeonphi5110p";
    m.cpu = xeonPhi5110pParams();
    // Library call dispatch + thread wakeup across 240 threads is far
    // heavier on the card than on the 4-core host.
    m.callOverheadSeconds = 100.0e-6;
    m.hostOps = xeonPhiHostOps();
    m.stackDram = hmcStackParams();
    m.mesh = mealibMeshParams();
    // The in-order cores checksum far slower per core but there are 60
    // of them; net throughput lands lower than Haswell's CRC32C unit
    // and costs more energy per byte on the wide ring.
    m.checksumBytesPerSecond = 8.0e9;
    m.checksumJPerByte = 9.0e-12;
    m.journalJPerByte = 15.0e-12;
    return m;
}

struct Registry
{
    MachineProfile haswell = makeHaswellProfile();
    MachineProfile xeonphi = makeXeonPhiProfile();
};

const Registry &
registry()
{
    static const Registry r;
    return r;
}

/** Canonical name for @p name, or nullptr if unknown. */
const MachineProfile *
lookup(const std::string &name)
{
    const Registry &r = registry();
    if (name == "haswell4770k" || name == "haswell")
        return &r.haswell;
    if (name == "xeonphi5110p" || name == "phi" || name == "xeonphi")
        return &r.xeonphi;
    return nullptr;
}

std::mutex activeMu;
int activePins = 0; // guarded by activeMu

const MachineProfile *&
activeSlot()
{
    static const MachineProfile *active = nullptr;
    return active;
}

/** The canonical profile names, comma-separated, for messages. */
std::string
knownNames()
{
    std::string known;
    for (const std::string &n : profileNames())
        known += (known.empty() ? "" : ", ") + n;
    return known;
}

const MachineProfile *
resolveInitialActive()
{
    const char *env = std::getenv("MEALIB_MACHINE");
    if (env != nullptr && env[0] != '\0') {
        if (const MachineProfile *p = lookup(env))
            return p;
        warn("MEALIB_MACHINE='", env, "' is not one of ", knownNames(),
             "; using haswell4770k");
    }
    return &registry().haswell;
}

} // namespace

const MachineProfile &
profile(const std::string &name)
{
    const MachineProfile *p = lookup(name);
    if (p == nullptr) {
        fatal("unknown machine profile '", name, "' (known: ",
              knownNames(), ")");
    }
    return *p;
}

std::vector<std::string>
profileNames()
{
    return {registry().haswell.name, registry().xeonphi.name};
}

const MachineProfile &
activeProfile()
{
    std::lock_guard<std::mutex> lock(activeMu);
    const MachineProfile *&slot = activeSlot();
    if (slot == nullptr)
        slot = resolveInitialActive();
    return *slot;
}

const std::string &
activeMachineName()
{
    return activeProfile().name;
}

Status
setActiveMachine(const std::string &name)
{
    const MachineProfile *p = lookup(name);
    if (p == nullptr) {
        return Status::error(ErrorCode::InvalidArgument,
                             "unknown machine profile '" + name +
                                 "' (known: " + knownNames() + ")");
    }
    std::lock_guard<std::mutex> lock(activeMu);
    if (activePins > 0)
        return Status::error(
            ErrorCode::InvalidArgument,
            "cannot switch active machine to '" + name + "': " +
                std::to_string(activePins) +
                " live session(s) pin the current profile");
    activeSlot() = p;
    return Status{};
}

void
pinActiveMachine()
{
    std::lock_guard<std::mutex> lock(activeMu);
    ++activePins;
}

void
unpinActiveMachine()
{
    std::lock_guard<std::mutex> lock(activeMu);
    fatalIf(activePins <= 0, "unpinActiveMachine without a pin");
    --activePins;
}

} // namespace mealib::hwmodel

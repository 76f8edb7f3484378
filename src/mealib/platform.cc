#include "mealib/platform.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "dispatch/models.hh"
#include "hwmodel/profile.hh"
#include "noc/mesh.hh"

namespace mealib::eval {

using accel::AccelKind;
using accel::LoopSpec;
using accel::OpCall;

const char *
name(Platform p)
{
    switch (p) {
      case Platform::HaswellMkl:
        return "Haswell-MKL";
      case Platform::XeonPhiMkl:
        return "XeonPhi-MKL";
      case Platform::Psas:
        return "PSAS";
      case Platform::Msas:
        return "MSAS";
      case Platform::MeaLib:
        return "MEALib";
      default:
        panic("name: bad platform");
    }
}

Workload
table2Workload(AccelKind kind, double scale)
{
    fatalIf(scale <= 0.0 || scale > 1.0, "workload scale must be in "
            "(0, 1], got ", scale);
    auto sz = [&](double full) {
        return static_cast<std::uint64_t>(
            std::max(full * scale, 1024.0));
    };
    // Floor an (already-scaled) extent to a power of two, at least 256.
    auto pow2 = [](double want) {
        std::uint64_t p = 256;
        while (static_cast<double>(p) * 2.0 <= want)
            p *= 2;
        return p;
    };

    Workload w;
    w.call.kind = kind;
    switch (kind) {
      case AccelKind::AXPY:
        w.call.n = sz(256.0 * (1 << 20)); // 256M floats = 1 GiB
        w.desc = "256M-element saxpy (1 GiB)";
        break;
      case AccelKind::DOT:
        w.call.n = sz(256.0 * (1 << 20));
        w.desc = "256M-element sdot (1 GiB)";
        break;
      case AccelKind::GEMV: {
        // Square matrix whose footprint scales linearly with `scale`.
        auto d = static_cast<std::uint64_t>(16384.0 * std::sqrt(scale));
        d = std::max<std::uint64_t>(d, 256);
        w.call.m = d;
        w.call.n = d;
        w.desc = "16384x16384 sgemv (1 GiB)";
        break;
      }
      case AccelKind::SPMV:
        // UF rgg_n_2_20: 2^20 nodes, ~13.8M nonzeros (avg degree 13.1).
        w.call.m = sz(1048576.0);
        w.call.n = w.call.m;
        w.call.k = static_cast<std::uint64_t>(
            13.1 * static_cast<double>(w.call.m));
        w.desc = "rgg_n_2_20 spmv (13.8M nnz)";
        break;
      case AccelKind::RESMP:
        // "16384 blocks": resample 16384-sample blocks, upsampling 2x.
        w.call.n = sz(16384.0 * 16384.0);
        w.call.m = 2 * w.call.n;
        w.call.resampleKind = 2; // windowed sinc
        w.desc = "16384 blocks of 16384-sample sinc resampling";
        break;
      case AccelKind::FFT:
        w.call.k = pow2(8192.0 * std::sqrt(scale));
        w.call.n = w.call.k;
        w.call.complexData = true;
        w.desc = "8192x8192 complex 2D FFT (512 MiB)";
        break;
      case AccelKind::RESHP: {
        auto d = static_cast<std::uint64_t>(16384.0 * std::sqrt(scale));
        d = std::max<std::uint64_t>(d, 256);
        w.call.m = d;
        w.call.n = d;
        w.desc = "16384x16384 simatcopy transpose (1 GiB)";
        break;
      }
      default:
        panic("table2Workload: bad kind");
    }
    return w;
}

host::KernelProfile
hostProfile(Platform platform, const OpCall &call, const LoopSpec &loop)
{
    fatalIf(platform != Platform::HaswellMkl &&
                platform != Platform::XeonPhiMkl,
            "hostProfile: not a host platform");
    // The same pricing the offload policies use (dispatch/models.cc).
    return dispatch::hostKernelProfile(
        hwmodel::profile(platform == Platform::HaswellMkl
                             ? "haswell4770k"
                             : "xeonphi5110p"),
        call, loop);
}

OpResult
evaluateOp(Platform platform, const Workload &w)
{
    OpResult r;
    double iters = static_cast<double>(w.loop.iterations());
    r.flops = w.call.flops() * iters;

    switch (platform) {
      // r.bytes is the operation's logical traffic on every platform so
      // the GB/s metric (used for RESHP) compares like with like; the
      // platform-specific bus traffic only shapes the time/energy.
      // Platform evaluation is a cross-machine comparison (Figs. 9/10
      // put Haswell and Phi side by side), so it pulls both registry
      // profiles explicitly rather than consulting the active machine.
      case Platform::HaswellMkl: {
        host::CpuModel cpu(hwmodel::profile("haswell4770k").cpu);
        host::KernelProfile p = hostProfile(platform, w.call, w.loop);
        r.cost = cpu.run(p);
        r.bytes = w.call.trafficBytes() * iters;
        return r;
      }
      case Platform::XeonPhiMkl: {
        host::CpuModel cpu(hwmodel::profile("xeonphi5110p").cpu);
        host::KernelProfile p = hostProfile(platform, w.call, w.loop);
        r.cost = cpu.run(p);
        r.bytes = w.call.trafficBytes() * iters;
        return r;
      }
      case Platform::Psas:
      case Platform::Msas:
      case Platform::MeaLib: {
        dram::DramParams d =
            platform == Platform::Psas   ? hwmodel::ddr3Params(2)
            : platform == Platform::Msas ? hwmodel::ddr3Params(8)
                                         : hwmodel::hmcStackParams();
        r.cost = accel::estimate(w.call, w.loop, d,
                                 hwmodel::mealibMeshParams())
                     .total;
        r.bytes = w.call.trafficBytes() * iters;
        return r;
      }
      default:
        panic("evaluateOp: bad platform");
    }
}

} // namespace mealib::eval

#include "runtime/runtime.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "hwmodel/constants.hh"
#include "hwmodel/profile.hh"

namespace mealib::runtime {

RuntimeConfig::RuntimeConfig() : RuntimeConfig(hwmodel::activeProfile())
{
    // Defaults come from the active machine profile (MEALIB_MACHINE /
    // hwmodel::setActiveMachine), so a profile switch reconfigures every
    // runtime constructed afterwards. Sessions use the explicit-profile
    // constructor instead and never touch the mutable global.
}

RuntimeConfig::RuntimeConfig(const hwmodel::MachineProfile &m)
{
    dram = m.stackDram;
    hostCpu = m.cpu;
    mesh = m.mesh;
    integrity.checksumSecondsPerByte =
        m.checksumBytesPerSecond > 0.0
            ? 1.0 / m.checksumBytesPerSecond
            : 0.0;
    integrity.checksumJPerByte = m.checksumJPerByte;
    checkpoint.journalJPerByte = m.journalJPerByte;
}

Status
RuntimeConfig::validate() const
{
    // A bad configuration is a caller error an embedding system must be
    // able to reject and survive — report InvalidArgument instead of
    // killing the process. The constructor turns a non-ok Status into a
    // MealibError via orThrow().
    auto err = [](std::string msg) {
        return Status::error(ErrorCode::InvalidArgument,
                             std::move(msg));
    };
    if (numStacks == 0) {
        return err("runtime config: need at least one memory stack "
                   "(numStacks == 0)");
    }
    if (backingBytes == 0) {
        return err("runtime config: backing arena must be non-empty "
                   "(backingBytes == 0)");
    }
    const std::uint64_t span = backingBytes / numStacks;
    if (kCommandBytes >= span) {
        return err("runtime config: command space (" +
                   std::to_string(kCommandBytes) +
                   " B) swallows stack 0's data region (" +
                   std::to_string(span) +
                   " B per stack); grow backingBytes or use fewer "
                   "stacks");
    }
    if (queueDepth == 0) {
        return err("runtime config: per-stack command queues need a "
                   "depth of at least 1 (queueDepth == 0)");
    }
    if (Status s = fault.validate(); !s.ok())
        return s;
    if (fault.failStack != fault::kNoStack &&
        fault.failStack >= numStacks) {
        return err("runtime config: scripted failure targets stack " +
                   std::to_string(fault.failStack) + " but only " +
                   std::to_string(numStacks) +
                   " stacks are configured");
    }
    if (watchdogSeconds <= 0.0)
        return err("runtime config: watchdog timeout must be positive");
    if (Status s = integrity.validate(); !s.ok())
        return s;
    if (Status s = checkpoint.validate(); !s.ok())
        return s;
    if (Status s = health.validate(); !s.ok())
        return s;
    return Status();
}

namespace {

/** Validate before any member construction touches the config. */
const RuntimeConfig &
validated(const RuntimeConfig &cfg)
{
    cfg.validate().orThrow();
    return cfg;
}

/** The thread's session ledger; runtime posts go to it as well. */
thread_local EnergyLedger *tlSessionLedger = nullptr;

/** Apply @p post to the runtime's aggregate ledger and to the calling
 * thread's bound session ledger, if any (docs/SESSIONS.md). */
template <typename Fn>
void
postEach(EnergyLedger &aggregate, Fn &&post)
{
    post(aggregate);
    if (tlSessionLedger != nullptr && tlSessionLedger != &aggregate)
        post(*tlSessionLedger);
}

} // namespace

EnergyLedger *
bindSessionLedger(EnergyLedger *ledger)
{
    EnergyLedger *previous = tlSessionLedger;
    tlSessionLedger = ledger;
    return previous;
}

MealibRuntime::MealibRuntime(const RuntimeConfig &cfg)
    : cfg_(validated(cfg)),
      mem_(std::make_unique<dram::PhysMem>(cfg.backingBytes)),
      layer_(cfg.dram, cfg.mesh, cfg.functional), host_(cfg.hostCpu),
      sched_(cfg.scheduler), faults_(cfg.fault), mesh_(cfg.mesh),
      health_(cfg.health, cfg.numStacks)
{
    const std::uint64_t span = cfg.backingBytes / cfg.numStacks;
    // The driver reserves the contiguous region and splits it: command
    // space first (monitored by the configuration unit), then one data
    // region per memory stack (Sec. 3.3: data should be allocated on
    // the accelerator's Local Memory Stack). Each stack has its own
    // command queue, so independent queues execute in parallel.
    cmdAlloc_ = std::make_unique<ContigAllocator>(0, kCommandBytes);
    for (unsigned st = 0; st < cfg.numStacks; ++st) {
        std::uint64_t base = static_cast<std::uint64_t>(st) * span +
                             (st == 0 ? kCommandBytes : 0);
        std::uint64_t size = span - (st == 0 ? kCommandBytes : 0);
        dataAllocs_.push_back(
            std::make_unique<ContigAllocator>(base, size));
        stacks_.push_back(std::make_unique<dram::Stack>(cfg.dram));
        queues_.emplace_back(cfg.queueDepth);
    }
}

unsigned
MealibRuntime::stackOf(Addr paddr) const
{
    const std::uint64_t span = cfg_.backingBytes / cfg_.numStacks;
    unsigned st = static_cast<unsigned>(paddr / span);
    return st < cfg_.numStacks ? st : cfg_.numStacks - 1;
}

void *
MealibRuntime::memAlloc(std::uint64_t bytes)
{
    return memAllocOn(0, bytes);
}

void *
MealibRuntime::memAllocOn(unsigned stack, std::uint64_t bytes)
{
    fatalIf(stack >= cfg_.numStacks, "memAllocOn: stack ", stack,
            " out of range (", cfg_.numStacks, " stacks)");
    std::lock_guard<std::mutex> lock(mu_);
    Addr p = dataAllocs_[stack]->alloc(bytes);
    return mem_->raw(p, bytes);
}

void
MealibRuntime::memFree(void *vptr)
{
    const Addr p = physOf(vptr);
    std::lock_guard<std::mutex> lock(mu_);
    std::uint64_t freed = 0;
    dataAllocs_[stackOf(p)]->tryFree(p, &freed).orThrow();
    // A freed block's residency must die with it: the allocator may
    // hand the range to a new array the accelerators have never seen.
    residency_.dropRange(p, p + freed);
}

Addr
MealibRuntime::physOf(const void *vptr) const
{
    const std::uint8_t *base = mem_->raw(0, 0);
    const auto *p = static_cast<const std::uint8_t *>(vptr);
    fatalIf(p < base || p >= base + mem_->size(),
            "physOf: pointer is not in the mapped region");
    return static_cast<Addr>(p - base);
}

bool
MealibRuntime::tryPhysOf(const void *vptr, Addr *paddr) const
{
    const std::uint8_t *base = mem_->raw(0, 0);
    const auto *p = static_cast<const std::uint8_t *>(vptr);
    if (p < base || p >= base + mem_->size())
        return false;
    *paddr = static_cast<Addr>(p - base);
    return true;
}

void *
MealibRuntime::virtOf(Addr paddr)
{
    return mem_->raw(paddr, 0);
}

dram::Stack &
MealibRuntime::stack(unsigned stack)
{
    fatalIf(stack >= cfg_.numStacks, "stack: stack ", stack,
            " out of range (", cfg_.numStacks, " stacks)");
    return *stacks_[stack];
}

const CommandQueue &
MealibRuntime::queue(unsigned stack) const
{
    fatalIf(stack >= cfg_.numStacks, "queue: stack ", stack,
            " out of range (", cfg_.numStacks, " stacks)");
    return queues_[stack];
}

std::uint64_t
MealibRuntime::evictDeadImages(std::size_t keep)
{
    // Collect dead (unreferenced) memo entries oldest-first and free
    // all but the `keep` most recently used.
    std::vector<std::pair<std::uint64_t, std::uint64_t>> dead; // use,hash
    for (const auto &[hash, img] : images_)
        if (img.refs == 0)
            dead.emplace_back(img.lastUse, hash);
    if (dead.size() <= keep)
        return 0;
    std::sort(dead.begin(), dead.end());
    std::uint64_t reclaimed = 0;
    for (std::size_t i = 0; i + keep < dead.size(); ++i) {
        auto it = images_.find(dead[i].second);
        cmdAlloc_->free(it->second.descAddr);
        reclaimed += it->second.descBytes;
        images_.erase(it);
    }
    return reclaimed;
}

AccPlanHandle
MealibRuntime::accPlan(const accel::DescriptorProgram &prog)
{
    std::lock_guard<std::mutex> lock(mu_);
    Plan plan;
    plan.prog = prog;
    const std::vector<std::uint8_t> image = accel::encode(prog);
    fault::Checksum ck;
    ck.update(image.data(), image.size());
    plan.imageHash = ck.value();

    // Descriptor-image memo: a program that encodes to the bytes of an
    // image already sitting in the command space reuses it instead of
    // copying a new one. A hash hit is confirmed byte for byte past the
    // CR command word, which execution rewrites to DONE.
    constexpr std::size_t kCmdWord = sizeof(accel::Command);
    auto cached = images_.find(plan.imageHash);
    const std::uint8_t *prior =
        cached != images_.end() && cached->second.descBytes == image.size()
            ? mem_->raw(cached->second.descAddr, image.size())
            : nullptr;
    if (prior != nullptr &&
        std::memcmp(prior + kCmdWord, image.data() + kCmdWord,
                    image.size() - kCmdWord) == 0) {
        CachedImage &img = cached->second;
        img.refs++;
        img.lastUse = ++imageUseTick_;
        plan.descAddr = img.descAddr;
        plan.descBytes = img.descBytes;
        plan.imageCached = true;
        postEach(ledger_,
                 [](EnergyLedger &l) { l.count("plan_image_reuses"); });
    } else {
        const bool collision = cached != images_.end();
        plan.descBytes = image.size();
        Status s = cmdAlloc_->tryAlloc(plan.descBytes, &plan.descAddr);
        if (!s.ok() && s.code() == ErrorCode::Exhausted) {
            // Dead memo entries are a cache, not a reservation: give
            // their space back and retry before reporting exhaustion.
            if (evictDeadImages(0) > 0)
                s = cmdAlloc_->tryAlloc(plan.descBytes, &plan.descAddr);
        }
        if (!s.ok()) {
            throw MealibError(Status::error(
                s.code(), "accPlan: command space exhausted (" +
                              s.message() + ")"));
        }
        std::memcpy(mem_->raw(plan.descAddr, plan.descBytes),
                    image.data(), image.size());
        if (!collision) {
            CachedImage img;
            img.descAddr = plan.descAddr;
            img.descBytes = plan.descBytes;
            img.refs = 1;
            img.lastUse = ++imageUseTick_;
            images_.emplace(plan.imageHash, img);
            plan.imageCached = true;
        }
    }

    // Footprint the host may hold dirty in its caches: one iteration's
    // input operands per COMP (flushCost clamps at LLC capacity).
    double dirty = 0.0;
    for (const accel::Instr &in : prog.instrs)
        if (in.type == accel::Instr::Type::Comp)
            dirty += in.call.inputBytes();
    plan.dirtyBytes = static_cast<std::uint64_t>(
        std::min(dirty, 1.0e9));

    // Hazard footprint for the asynchronous submit path.
    plan.intervals = accessIntervals(prog);

    // Integrity/checkpoint footprint: the operand bytes a verification
    // pass streams, and the written bytes a snapshot journals.
    plan.expandedComps = prog.expandedCompCount();
    plan.rerunSafe = rerunSafe(prog);
    for (const AccessInterval &iv : plan.intervals) {
        const std::uint64_t n = iv.hi > iv.lo ? iv.hi - iv.lo : 0;
        plan.transferBytes += n;
        if (iv.write)
            plan.writeBytes += n;
    }

    AccPlanHandle h = nextHandle_++;
    plans_.emplace(h, std::move(plan));
    return h;
}

unsigned
MealibRuntime::homeStackOf(const accel::DescriptorProgram &prog) const
{
    for (const accel::Instr &in : prog.instrs)
        if (in.type == accel::Instr::Type::Comp)
            return stackOf(in.call.out.base);
    return 0;
}

unsigned
MealibRuntime::homeStackOf(AccPlanHandle handle) const
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(handle);
    fatalIf(it == plans_.end(), "homeStackOf: unknown plan handle ",
            handle);
    return homeStackOf(it->second.prog);
}

Cost
MealibRuntime::remotePenalty(const accel::DescriptorProgram &prog,
                             unsigned home, double *remoteBytes) const
{
    // Operands on Remote Memory Stacks cross the HMC-style serial
    // links: cheaper than going through the host, but far below the
    // internal TSV bandwidth (Sec. 3.3).
    double bytes = 0.0;
    accel::forEachComp(prog, [&](const accel::OpCall &c,
                                 const accel::LoopSpec &loop) {
        for (const accel::OperandTraffic &t : accel::operandTraffic(c, loop))
            if (stackOf(t.op->base) != home)
                bytes += t.bytes;
    });
    if (remoteBytes)
        *remoteBytes = bytes;

    Cost c;
    if (bytes > 0.0) {
        double link_bw = cfg_.dram.org.linkBandwidth;
        double internal_bw = cfg_.dram.peakInternalBandwidth();
        double slowdown = 1.0 / link_bw - 1.0 / internal_bw;
        c.seconds = bytes * (slowdown > 0.0 ? slowdown : 0.0);
        c.joules = bytes * hwmodel::kLinkJPerByte;
    }
    return c;
}

void
MealibRuntime::hostWork(double seconds)
{
    hostSeconds_ += seconds;
    hostBusySeconds_ += seconds;
}

void
MealibRuntime::hostWaitUntil(double seconds)
{
    if (seconds > hostSeconds_)
        hostSeconds_ = seconds;
}

void
MealibRuntime::updateMakespan()
{
    double frontier = hostSeconds_;
    for (const CommandQueue &q : queues_)
        frontier = std::max(frontier, q.busyUntilSeconds());
    makespanSeconds_ = std::max(makespanSeconds_, frontier);
}

double
MealibRuntime::hazardReady(const std::vector<AccessInterval> &intervals,
                           double from,
                           const detail::EventState *self) const
{
    for (const auto &state : inflight_) {
        if (state.get() == self || state->finishSeconds <= from)
            continue;
        for (const AccessInterval &other : state->intervals)
            for (const AccessInterval &iv : intervals)
                if (iv.conflictsWith(other))
                    from = std::max(from, state->finishSeconds);
    }
    return from;
}

std::shared_ptr<detail::EventState>
MealibRuntime::newEventState()
{
    auto state = std::make_shared<detail::EventState>();
    state->id = nextEventId_++;
    state->epoch = epoch_;
    return state;
}

MealibRuntime::Plan &
MealibRuntime::planOf(AccPlanHandle handle, const char *who)
{
    auto it = plans_.find(handle);
    fatalIf(it == plans_.end(), who, ": unknown plan handle ", handle);
    return it->second;
}

void
MealibRuntime::beginCommandLocked()
{
    const fault::FaultConfig &fc = cfg_.fault;
    if (fc.failStack != fault::kNoStack && health_.live(fc.failStack) &&
        cmdIndex_ >= fc.failStackAfter)
        failStackLocked(fc.failStack);
    health_.beginCommand(cmdIndex_);
}

Event
MealibRuntime::accSubmit(AccPlanHandle handle)
{
    std::lock_guard<std::mutex> lock(mu_);
    Plan &plan = planOf(handle, "accSubmit");
    beginCommandLocked();
    const unsigned home = homeStackOf(plan.prog);
    // With no survivor left the target is moot: accSubmitOnLocked
    // reroutes an unhealthy target to the host (or a FAILED event).
    unsigned target =
        health_.liveCount() > 0 ? sched_.pick(home, health_) : home;
    // Any probation stack takes this scheduler-routed command as its
    // canary: the probe costs one real command, not synthetic traffic.
    const unsigned canary = health_.canaryTarget();
    if (canary != StackHealthMonitor::kNone)
        target = canary;
    return accSubmitOnLocked(plan, target);
}

Event
MealibRuntime::accSubmitOn(AccPlanHandle handle, unsigned stackIdx)
{
    std::lock_guard<std::mutex> lock(mu_);
    Plan &plan = planOf(handle, "accSubmit");
    // An out-of-range stack is a recoverable caller error, not a
    // process-killing one: report it on the returned event.
    if (stackIdx >= cfg_.numStacks) {
        return submitError(Status::error(
            ErrorCode::InvalidArgument,
            "accSubmitOn: stack " + std::to_string(stackIdx) +
                " out of range (" + std::to_string(cfg_.numStacks) +
                " stacks)"));
    }
    beginCommandLocked();
    return accSubmitOnLocked(plan, stackIdx);
}

/** Each submit stage fills its part of the command; post() writes it to
 * the ledgers once, and place() puts it on the timeline. */
struct MealibRuntime::Submission
{
    Submission(Plan &p, unsigned st) : plan(p), stack(st) {}

    Plan &plan;
    unsigned stack;
    std::uint64_t cmd = 0; //!< global submission index
    // coherence(): the host-side hand-off
    Cost flush;     //!< residency-elided cache flush
    Cost handshake; //!< descriptor copy + START write + DONE poll
    Cost integHost; //!< host-side source checksum
    std::uint64_t verifyBytes = 0;  //!< verification footprint
    std::uint64_t flushElided = 0;  //!< flush bytes skipped
    std::uint64_t verifyElided = 0; //!< verify bytes skipped
    // executeFunctional(), then resolveAttempts() fills in the retries,
    // fault penalty, checkpoints and resume flag
    accel::ExecStats es;
    // resolveAttempts(): on success occupancySeconds is the total stack
    // occupancy; on exhaustion it covers the failed attempts and
    // lastFault is set
    bool success = true;
    double occupancySeconds = 0.0;
    fault::FaultKind lastFault = fault::FaultKind::None;
    Cost stackIntegrity; //!< stack-side verify + journal cost
    std::uint64_t silentDetected = 0;
    std::uint64_t silentUndetected = 0;
    std::uint64_t eccCorrected = 0;  //!< in-line ECC corrections
    std::uint64_t watchdogFires = 0; //!< hung attempts reclaimed
};

Event
MealibRuntime::accSubmitOnLocked(Plan &plan, unsigned stackIdx)
{
    if (!health_.live(stackIdx)) {
        // The caller's target is dead: steer to a survivor, fall back
        // to the host, or report the loss — never submit to it.
        if (health_.liveCount() > 0) {
            stackIdx = sched_.pick(stackIdx, health_);
        } else if (cfg_.retry.hostFallback) {
            return submitOnHost(plan, stackIdx);
        } else {
            return submitError(Status::error(
                ErrorCode::DeviceFailed,
                "accSubmitOn: every stack has failed and host "
                "fallback is disabled"));
        }
    }

    Submission s{plan, stackIdx};
    coherence(s);

    // Hand the arrays to the accelerators (exclusive ownership).
    // Functional execution happens eagerly in submission order; hazard
    // chains guarantee that any order the timeline could legally
    // report computes these same values.
    std::uint8_t *desc = mem_->raw(plan.descAddr, plan.descBytes);
    accel::writeCommand(desc, plan.descBytes, accel::Command::Start);
    s.es = executeFunctional(plan, stackIdx);
    accel::writeCommand(desc, plan.descBytes, accel::Command::Done);

    // Roll the fault ladder. The functional results above were computed
    // exactly once and are final either way: faults only shape cost,
    // occupancy and the event's terminal state.
    s.cmd = cmdIndex_++;
    resolveAttempts(s);
    accel::ExecStats &es = s.es;
    es.total += es.faultPenalty;
    es.integrity = s.stackIntegrity + s.integHost;
    es.total += es.integrity;

    const unsigned strikeOut = recordHealth(s);

    // Fold the software-side invocation costs into the stats.
    es.invocation += s.flush + s.handshake;
    es.total += s.flush + s.handshake;
    post(s);
    return place(s, strikeOut);
}

void
MealibRuntime::coherence(Submission &s) const
{
    const Plan &plan = s.plan;
    // Write back dirty lines so the memory-side view is current
    // (wbinvd, Sec. 3.5). With residency tracking on, read operands the
    // accelerators produced — and the host has not touched since — are
    // already coherent in stack memory, so the flush shrinks to the
    // host-dirtied remainder (and disappears entirely when the whole
    // read set is clean-on-stack).
    const bool residencyOn = cfg_.residency.enabled;
    std::uint64_t dirty = plan.dirtyBytes;
    if (residencyOn) {
        const std::uint64_t readB =
            ResidencyTracker::readBytes(plan.intervals);
        const std::uint64_t cleanB =
            residency_.flushCleanReadBytes(plan.intervals);
        if (readB > 0 && cleanB >= readB) {
            dirty = 0;
        } else if (readB > 0 && cleanB > 0) {
            const double frac = static_cast<double>(cleanB) /
                                static_cast<double>(readB);
            dirty = static_cast<std::uint64_t>(
                static_cast<double>(plan.dirtyBytes) * (1.0 - frac));
        }
        s.flushElided = plan.dirtyBytes - dirty;
    }
    s.flush = dirty > 0 || !residencyOn ? host_.flushCost(dirty) : Cost{};

    // Descriptor copy + START write + DONE poll over the host links.
    s.handshake.seconds =
        static_cast<double>(plan.descBytes) /
            cfg_.dram.org.linkBandwidth +
        2.0e-6; // two link round trips
    s.handshake.joules = cfg_.hostCpu.idleW * s.handshake.seconds;

    s.verifyBytes = plan.transferBytes;
    if (!cfg_.integrity.enabled())
        return;
    // Verification footprint: with residency on, intervals whose cached
    // checksum is still valid (verified earlier, untouched since) are
    // skipped by both the host-side and stack-side passes.
    if (residencyOn) {
        const std::uint64_t cleanV =
            residency_.verifyCleanBytes(plan.intervals);
        s.verifyBytes = cleanV < plan.transferBytes
                            ? plan.transferBytes - cleanV
                            : 0;
        s.verifyElided = 2 * (plan.transferBytes - s.verifyBytes);
    }
    // Host-side source checksum: one pass over the operand footprint
    // before the transfer (the re-verify passes after link crossings
    // and vault reads are stack-side, charged per attempt).
    s.integHost = fault::checksumCost(
        cfg_.integrity, static_cast<double>(s.verifyBytes));
}

accel::ExecStats
MealibRuntime::executeFunctional(const Plan &plan, unsigned stackIdx)
{
    accel::DescriptorProgram prog = accel::decode(
        mem_->raw(plan.descAddr, plan.descBytes), plan.descBytes);

    // End-to-end verification, functional side: checksum the read-only
    // operand intervals before and after the execute. The fault model
    // never corrupts real buffers (faults shape cost, not values), so
    // a mismatch here means the functional engine itself scribbled
    // over an input — a broken invariant worth catching in situ.
    const bool verifyFunctional =
        cfg_.functional && cfg_.integrity.enabled();
    auto readChecksum = [&]() {
        fault::Checksum ck;
        for (const AccessInterval &iv : plan.intervals) {
            if (iv.write)
                continue;
            const Addr lo = std::min<Addr>(iv.lo, mem_->size());
            const Addr hi = std::min<Addr>(iv.hi, mem_->size());
            if (hi > lo)
                ck.update(mem_->raw(lo, hi - lo), hi - lo);
        }
        return ck.value();
    };
    const std::uint64_t srcSum = verifyFunctional ? readChecksum() : 0;

    accel::ExecStats es;
    {
        dram::StackOwnership own(*stacks_[stackIdx],
                                 dram::Owner::Accelerator);
        es = layer_.execute(prog, *mem_);
    }

    if (verifyFunctional) {
        panicIf(readChecksum() != srcSum,
                "integrity: read-only operand bytes changed during "
                "execution (functional engine corrupted an input "
                "interval)");
    }

    // Inter-stack traffic for operands left on stacks remote to the
    // one that executed the plan.
    if (cfg_.numStacks > 1) {
        Cost remote = remotePenalty(prog, stackIdx, &es.remoteBytes);
        es.total += remote;
        es.remote = remote;
    }
    return es;
}

void
MealibRuntime::post(const Submission &s)
{
    const accel::ExecStats &es = s.es;
    const Cost accelOnly{es.total.seconds - es.invocation.seconds -
                             es.integrity.seconds,
                         es.total.joules - es.invocation.joules -
                             es.integrity.joules};
    // The component attribution covers the whole posted energy:
    // dram+logic+noc+link+fault == the accel track, "invocation" the
    // invocation track, "integrity" the integrity track.
    postEach(ledger_, [&](EnergyLedger &l) {
        l.post("invocation", es.invocation, "flush+handshake");
        l.post("accel", accelOnly, "execute");
        for (const auto &[k, v] : es.energyByComponent.parts())
            l.attribute(k, v);
        if (es.remote.joules != 0.0)
            l.attribute("link", es.remote.joules);
        if (es.faultPenalty.joules != 0.0)
            l.attribute("fault", es.faultPenalty.joules);
        l.attribute("invocation", es.invocation.joules);
        if (es.integrity.seconds != 0.0 || es.integrity.joules != 0.0) {
            l.post("integrity", es.integrity, "verify+journal");
            l.attribute("integrity", es.integrity.joules);
        }
        l.addFlops(es.flops);
        for (const auto &[k, v] : es.timeByAccel.parts())
            l.attributeAccel(k, {v, es.energyByAccel.get(k)});
        l.count("flush_bytes_elided", s.flushElided);
        l.count("verify_bytes_elided", s.verifyElided);
        l.count("retries", es.retries);
        l.count("ecc_corrected", s.eccCorrected);
        l.count("watchdog_fires", s.watchdogFires);
        l.count("silent_detected", s.silentDetected);
        l.count("silent_undetected", s.silentUndetected);
        l.count("checkpoints", es.checkpoints);
        l.count("resumed", s.success && es.resumed ? 1 : 0);
    });
}

Event
MealibRuntime::place(Submission &s, unsigned strikeOut)
{
    const Plan &plan = s.plan;
    hostWork(s.flush.seconds + s.handshake.seconds + s.integHost.seconds);
    CommandQueue &q = queues_[s.stack];
    hostWaitUntil(q.admitSeconds(hostSeconds_)); // stall on a full queue
    q.retireUpTo(hostSeconds_);

    // Stack occupancy: clean span plus verification, journaling and any
    // fault-recovery time.
    const double start = std::max(hazardReady(plan.intervals, hostSeconds_),
                                  q.busyUntilSeconds());
    const double finish = start + s.occupancySeconds;
    q.push(start, finish);

    auto state = newEventState();
    state->stack = s.stack;
    state->submitSeconds = hostSeconds_;
    state->startSeconds = start;
    state->finishSeconds = finish;
    state->spanSeconds = s.occupancySeconds;
    state->intervals = plan.intervals;
    state->command = s.cmd;
    state->stats = s.es;
    // Replay granularity for a post-hoc stack death: the fraction of
    // the command one checkpoint interval covers (0 = not replayable).
    state->checkpointStep =
        checkpointed(plan) && plan.expandedComps > 0
            ? static_cast<double>(cfg_.checkpoint.intervalComps) /
                  static_cast<double>(plan.expandedComps)
            : 0.0;

    const bool residencyOn = cfg_.residency.enabled;
    if (s.success) {
        state->state = s.es.resumed   ? EventState::Resumed
                       : s.es.retries ? EventState::Retried
                                      : EventState::Done;
        inflight_.push_back(state);
        // The command's operands now live clean on the stack: reads
        // were flushed (or already clean), writes were produced there.
        // With integrity on they were also verified this command, so
        // the cached checksum stays valid until a host write.
        if (residencyOn)
            residency_.commit(plan.intervals, cfg_.integrity.enabled());
    } else if (cfg_.retry.hostFallback) {
        // Retry budget exhausted on the accelerator: the stack burned
        // `occupancy` on dead attempts, then the host re-executes the
        // plan natively. The fallback is synchronous on the host track,
        // so the event is already complete when the submit returns.
        hostWaitUntil(finish);
        chargeHostFallback(*state);
    } else {
        // No recovery left: the command terminates without a result.
        state->state = s.lastFault == fault::FaultKind::CommandHang
                           ? EventState::TimedOut
                           : EventState::Failed;
        state->status = Status::error(
            state->state == EventState::TimedOut
                ? ErrorCode::Timeout
                : ErrorCode::DeviceFailed,
            std::string("command ") + std::to_string(s.cmd) +
                " exhausted its retry budget on stack " +
                std::to_string(s.stack) + " (last fault: " +
                fault::name(s.lastFault) + ")");
        inflight_.push_back(state);
        // A failed/timed-out command leaves its output intervals in an
        // untrusted state: drop any residency they had.
        if (residencyOn)
            residency_.invalidateAll(plan.intervals);
    }
    updateMakespan();
    // A struck-out stack dies only after this command's event has been
    // placed, so the failStack drain re-homes it along with the rest.
    if (strikeOut != StackHealthMonitor::kNone)
        failStackLocked(strikeOut);
    return Event(this, state);
}

const accel::ExecStats &
MealibRuntime::eventWaitLocked(
    const std::shared_ptr<detail::EventState> &state)
{
    // Events submitted before a resetAccounting() are stale: their
    // times belong to a discarded timeline, so waiting is a no-op.
    if (state->epoch == epoch_ && !state->waited) {
        hostWaitUntil(state->finishSeconds);
        std::erase(inflight_, state);
        updateMakespan();
    }
    state->waited = true;
    return state->stats;
}

void
MealibRuntime::waitAll()
{
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto &state : inflight_) {
        hostWaitUntil(state->finishSeconds);
        state->waited = true;
    }
    inflight_.clear();
    for (CommandQueue &q : queues_)
        q.retireUpTo(hostSeconds_);
    updateMakespan();
}

accel::ExecStats
MealibRuntime::accExecute(AccPlanHandle handle)
{
    std::lock_guard<std::mutex> lock(mu_);
    Plan &plan = planOf(handle, "accExecute");
    beginCommandLocked();
    // The paper's blocking Listing-2 semantics: submit on the plan's
    // home stack, then poll DONE. One lock span covers both so another
    // session cannot interleave between a blocking submit and its wait.
    Event ev = accSubmitOnLocked(plan, homeStackOf(plan.prog));
    return eventWaitLocked(ev.state_);
}

void
MealibRuntime::accDestroy(AccPlanHandle handle)
{
    // A handful of dead images stay memoized so plan/destroy loops over
    // the same program hit the cache; beyond that they are evicted LRU
    // so the command space is not pinned by history.
    constexpr std::size_t kDeadImageCap = 16;

    std::lock_guard<std::mutex> lock(mu_);
    const Plan &plan = planOf(handle, "accDestroy");
    auto cached = images_.find(plan.imageHash);
    if (plan.imageCached && cached != images_.end() &&
        cached->second.descAddr == plan.descAddr) {
        fatalIf(cached->second.refs == 0,
                "accDestroy: image refcount underflow");
        cached->second.refs--;
        evictDeadImages(kDeadImageCap);
    } else {
        cmdAlloc_->free(plan.descAddr);
    }
    plans_.erase(handle);
}

// --- degradation & fault injection (docs/FAULTS.md) -------------------

void
MealibRuntime::failStack(unsigned stackIdx)
{
    std::lock_guard<std::mutex> lock(mu_);
    failStackLocked(stackIdx);
}

void
MealibRuntime::failStackLocked(unsigned stackIdx)
{
    fatalIf(stackIdx >= cfg_.numStacks, "failStack: stack ", stackIdx,
            " out of range (", cfg_.numStacks, " stacks)");
    if (!health_.live(stackIdx))
        return;
    health_.markDead(stackIdx);
    faults_.record({fault::FaultKind::StackFailure, stackIdx,
                    cmdIndex_, 0});

    // Nothing on a dead stack can be trusted as clean or verified.
    dropStackResidency(stackIdx);

    // Cancel everything still occupying the dead stack past `now`.
    const double now = hostSeconds_;
    queues_[stackIdx].cancelFrom(now);

    // Re-home the killed commands in submission order. Their functional
    // results are already final (computed eagerly at submit), so the
    // drain only re-places occupancy: on a survivor the scheduler
    // picks, or — with none left — on the host track.
    std::vector<std::shared_ptr<detail::EventState>> drained;
    for (const auto &state : inflight_)
        if (state->stack == stackIdx && !state->onHost &&
            !state->waited && state->finishSeconds > now)
            drained.push_back(state);

    std::uint64_t resumed = 0;
    for (const auto &state : drained) {
        state->stats.retries++;
        // A drained command's destination is decided below; until it
        // completes there, none of its intervals count as resident.
        residency_.invalidateAll(state->intervals);
        if (health_.liveCount() > 0) {
            unsigned dest = sched_.pick(stackIdx, health_);
            CommandQueue &q2 = queues_[dest];
            const double ready =
                hazardReady(state->intervals,
                            std::max(now, q2.busyUntilSeconds()),
                            state.get());
            // Checkpoint replay: resume from the last snapshot the
            // dead stack committed before the command's execution
            // point, instead of re-running the command from scratch.
            double resumeFrac = 0.0;
            if (state->checkpointStep > 0.0) {
                const double total =
                    state->finishSeconds - state->startSeconds;
                const double execFrac =
                    total > 0.0
                        ? std::clamp((now - state->startSeconds) /
                                         total,
                                     0.0, 1.0)
                        : 0.0;
                resumeFrac = journal_.lastFractionAtOrBefore(
                    state->command, execFrac);
            }
            const double span = state->spanSeconds * (1.0 - resumeFrac);
            q2.push(ready, ready + span);
            state->stack = dest;
            state->startSeconds = ready;
            state->finishSeconds = ready + span;
            if (resumeFrac > 0.0) {
                state->state = EventState::Resumed;
                state->stats.resumed = true;
                resumed++;
            } else {
                state->state = EventState::Retried;
            }
        } else if (cfg_.retry.hostFallback) {
            const Cost c = chargeHostFallback(*state);
            state->startSeconds = hostSeconds_ - c.seconds;
        } else {
            state->state = EventState::Failed;
            state->status = Status::error(
                ErrorCode::DeviceFailed,
                "stack " + std::to_string(stackIdx) +
                    " failed with no survivor and host fallback "
                    "disabled");
            state->finishSeconds = now;
        }
    }
    postEach(ledger_, [&](EnergyLedger &l) {
        l.count("retries", drained.size());
        l.count("resumed", resumed);
    });
    updateMakespan();
}

bool
MealibRuntime::stackFailed(unsigned stackIdx) const
{
    return stackHealth(stackIdx) == StackHealth::Dead;
}

unsigned
MealibRuntime::healthyStackCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return health_.liveCount();
}

StackHealth
MealibRuntime::stackHealth(unsigned stackIdx) const
{
    fatalIf(stackIdx >= cfg_.numStacks, "stackHealth: stack ",
            stackIdx, " out of range (", cfg_.numStacks, " stacks)");
    std::lock_guard<std::mutex> lock(mu_);
    return health_.state(stackIdx);
}

unsigned
MealibRuntime::selectableStackCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return health_.selectableCount();
}

unsigned
MealibRuntime::recordHealth(const Submission &s)
{
    // A command counts as faulted when it needed the recovery ladder
    // (in-line corrected ECC is latency, not a health signal).
    if (!faults_.enabled() || !health_.enabled())
        return StackHealthMonitor::kNone;
    const bool faulted =
        s.es.retries > 0 || !s.success || s.silentDetected > 0;
    using Action = StackHealthMonitor::Action;
    const Action act = health_.recordOutcome(s.stack, s.cmd, faulted);
    if (act != Action::Quarantine && act != Action::Die)
        return StackHealthMonitor::kNone;
    // Quarantine and death both mean the stack's recent behaviour is
    // suspect: anything it holds loses clean/verified status.
    dropStackResidency(s.stack);
    return act == Action::Die ? s.stack : StackHealthMonitor::kNone;
}

void
MealibRuntime::dropStackResidency(unsigned stackIdx)
{
    const std::uint64_t span = cfg_.backingBytes / cfg_.numStacks;
    residency_.dropRange(static_cast<Addr>(stackIdx) * span,
                         static_cast<Addr>(stackIdx + 1) * span);
}

bool
MealibRuntime::checkpointed(const Plan &plan) const
{
    // Only rerun-safe programs checkpoint: resuming an unsafe one from
    // a snapshot would re-apply an accumulation or re-read an already
    // overwritten input, so those keep whole-command retry semantics.
    return cfg_.checkpoint.enabled() && plan.rerunSafe &&
           plan.expandedComps > 0;
}

Cost
MealibRuntime::snapshotCost(const Plan &plan) const
{
    // One snapshot journals the command's written intervals through the
    // stack-internal TSV bandwidth — a read+write round trip priced by
    // the machine profile's journal energy.
    Cost c;
    const double bw = cfg_.dram.peakInternalBandwidth();
    const double bytes = static_cast<double>(plan.writeBytes);
    if (bw > 0.0)
        c.seconds = bytes / bw;
    c.joules = bytes * cfg_.checkpoint.journalJPerByte;
    return c;
}

void
MealibRuntime::resolveAttempts(Submission &s)
{
    /** HMC-style request packet re-sent after a CRC failure. */
    constexpr std::uint64_t kCrcPacketBytes = 128;
    /** Backoff before the first retry; it doubles for each one after. */
    constexpr double kBackoffBaseSeconds = 2.0e-6;

    const Plan &plan = s.plan;
    accel::ExecStats &es = s.es;
    const std::uint64_t cmd = s.cmd;
    const unsigned stackIdx = s.stack;
    const double spanSeconds = es.total.seconds;
    const double accelJoules = es.total.joules;
    const bool integrityOn = cfg_.integrity.enabled();
    const bool ckpt = checkpointed(plan);
    const std::uint64_t comps = plan.expandedComps;
    const std::uint64_t ival = ckpt ? cfg_.checkpoint.intervalComps : 0;
    const std::uint64_t kmax = ckpt ? (comps - 1) / ival : 0;
    const Cost snap = ckpt ? snapshotCost(plan) : Cost{};
    const Cost verify =
        integrityOn
            ? fault::checksumCost(cfg_.integrity,
                                  static_cast<double>(s.verifyBytes))
            : Cost{};

    const dram::Stack &st = *stacks_[stackIdx];
    // Comps whose results a *committed* checkpoint already holds: a
    // retry resumes past them instead of re-running the whole command.
    // Snapshots commit only once their provenance is trusted —
    // immediately at the failure point for detected faults (the
    // hardware knows where it died), but only after the end-of-attempt
    // verification for silent corruption (commit-on-verify).
    std::uint64_t committed = 0;
    auto commitUpTo = [&](std::uint64_t newK) {
        for (std::uint64_t k = committed / ival + 1; k <= newK; ++k) {
            s.stackIntegrity += snap;
            journal_.record({cmd, stackIdx, k * ival,
                             static_cast<double>(k * ival) /
                                 static_cast<double>(comps),
                             plan.writeBytes});
            es.checkpoints++;
        }
        committed = newK * ival;
    };
    double backoff = kBackoffBaseSeconds;
    for (unsigned attempt = 0;; ++attempt) {
        // Fraction of the command this attempt still has to execute.
        const double base =
            ckpt && comps ? static_cast<double>(committed) /
                                static_cast<double>(comps)
                          : 0.0;
        const double attemptFrac = 1.0 - base;
        if (base > 0.0)
            es.resumed = true;
        fault::FaultPlan p = faults_.roll(cmd, attempt);
        if (p.eccCorrected > 0) {
            // In-line vault ECC corrections: latency-only, the attempt
            // still completes.
            es.faultPenalty.seconds +=
                p.eccCorrected * st.eccCorrectPenaltySeconds();
            s.eccCorrected += p.eccCorrected;
            faults_.record({fault::FaultKind::EccCorrectable, stackIdx,
                            cmd, attempt});
        }
        if (p.succeeds()) {
            // The attempt ran to completion; the stack-side re-verify
            // pass is the end-to-end integrity check.
            if (integrityOn)
                s.stackIntegrity += verify;
            const bool detected = p.silent && integrityOn;
            if (p.silent && !integrityOn) {
                // Undetected silent corruption: the run "succeeds"
                // carrying wrong data. Counted for the chaos harness;
                // the functional results stay the clean ones (the
                // fault model shapes cost, never values).
                s.silentUndetected++;
                faults_.record({fault::FaultKind::SilentCorruption,
                                stackIdx, cmd, attempt});
            }
            if (!detected) {
                if (ckpt && kmax > 0)
                    commitUpTo(kmax);
                s.success = true;
                es.retries = attempt;
                if (base > 0.0) {
                    // The resumed attempt skipped the committed
                    // prefix; credit the span it never executed.
                    es.faultPenalty.seconds -= base * spanSeconds;
                    es.faultPenalty.joules -= base * accelJoules;
                }
                s.occupancySeconds = spanSeconds +
                                     es.faultPenalty.seconds +
                                     s.stackIntegrity.seconds;
                return;
            }
            // Verification caught the corruption at end of attempt:
            // the whole attempt span is wasted, and its snapshots were
            // written but never commit — the corruption point is
            // unknown, so none of them can be trusted.
            s.silentDetected++;
            faults_.record({fault::FaultKind::SilentCorruption,
                            stackIdx, cmd, attempt});
            s.lastFault = fault::FaultKind::SilentCorruption;
            es.faultPenalty.seconds += spanSeconds * attemptFrac;
            es.faultPenalty.joules += accelJoules * attemptFrac;
            if (ckpt) {
                const std::uint64_t crossed = kmax - committed / ival;
                for (std::uint64_t k = 0; k < crossed; ++k)
                    s.stackIntegrity += snap;
                es.checkpoints += crossed;
            }
        } else if (p.hang) {
            // DONE never arrives; the watchdog reclaims the stack.
            // Nothing executed, so no verify pass and no checkpoint
            // advances.
            es.faultPenalty.seconds += cfg_.watchdogSeconds;
            s.watchdogFires++;
            faults_.record({fault::FaultKind::CommandHang, stackIdx,
                            cmd, attempt});
            s.lastFault = fault::FaultKind::CommandHang;
        } else {
            // A transient fault killed the attempt partway through:
            // the attempt-span fraction already executed is wasted,
            // plus the fault's own detection / replay penalty.
            es.faultPenalty.seconds +=
                spanSeconds * attemptFrac * p.failFraction;
            es.faultPenalty.joules +=
                accelJoules * attemptFrac * p.failFraction;
            if (p.failure == fault::FaultKind::LinkCrc)
                es.faultPenalty += mesh_.crcReplayCost(kCrcPacketBytes);
            else if (p.failure == fault::FaultKind::EccUncorrectable)
                es.faultPenalty.seconds +=
                    st.eccUncorrectableDetectSeconds();
            faults_.record({p.failure, stackIdx, cmd, attempt});
            s.lastFault = p.failure;
            // The fault was *detected* at the failure point, so every
            // snapshot crossed before it is trusted and commits — the
            // next attempt resumes from the last of them.
            if (ckpt) {
                const std::uint64_t execComps =
                    committed +
                    static_cast<std::uint64_t>(
                        static_cast<double>(comps - committed) *
                        p.failFraction);
                const std::uint64_t newK =
                    std::min(execComps / ival, kmax);
                if (newK > committed / ival)
                    commitUpTo(newK);
            }
        }
        if (attempt >= cfg_.retry.maxRetries) {
            s.success = false;
            es.retries = cfg_.retry.maxRetries;
            s.occupancySeconds =
                es.faultPenalty.seconds + s.stackIntegrity.seconds;
            return;
        }
        es.faultPenalty.seconds += backoff;
        backoff *= 2.0;
    }
}

Event
MealibRuntime::submitError(Status status)
{
    auto state = newEventState();
    state->waited = true;
    state->state = EventState::Failed;
    state->status = std::move(status);
    return Event(this, state);
}

Cost
MealibRuntime::chargeHostFallback(detail::EventState &state)
{
    // The minimkl naive kernels the host falls back to: scalar
    // (1/8 of SIMD issue), single-threaded, cache-unfriendly streaming.
    host::KernelProfile p;
    p.name = "fault_fallback";
    p.flops = state.stats.flops;
    p.bytesRead = 0.5 * state.stats.bytesMoved;
    p.bytesWritten = 0.5 * state.stats.bytesMoved;
    p.simdEff = 0.125;
    p.parallelFraction = 0.0;
    p.memEff = 0.5;
    const Cost c = host_.run(p);
    hostWork(c.seconds);
    postEach(ledger_, [&](EnergyLedger &l) {
        l.post("host", c, "fault_fallback");
        l.attribute("host", c.joules);
    });
    state.stats.fellBack = true;
    state.stats.total += c;
    state.state = EventState::FellBack;
    state.onHost = true;
    state.finishSeconds = hostSeconds_;
    state.waited = true;
    // The host produced the results: its caches hold them dirty, so
    // the written intervals are no longer clean-on-stack.
    if (cfg_.residency.enabled)
        residency_.invalidateWrites(state.intervals);
    return c;
}

Event
MealibRuntime::submitOnHost(Plan &plan, unsigned targetStack)
{
    cmdIndex_++;
    // Functional results still come from the shared functional engine,
    // so fallback numerics are bit-identical to the accelerated path
    // (docs/FAULTS.md); only the *cost* is priced as host execution.
    const accel::ExecStats es = executeFunctional(plan, targetStack);
    auto state = newEventState();
    state->stack = targetStack;
    state->intervals = plan.intervals;
    state->stats.compsExecuted = es.compsExecuted;
    state->stats.passes = es.passes;
    state->stats.bytesMoved = es.bytesMoved;
    state->stats.flops = es.flops;

    // The host executes after every conflicting in-flight command.
    hostWaitUntil(hazardReady(plan.intervals, hostSeconds_));
    const Cost c = chargeHostFallback(*state);
    state->submitSeconds = hostSeconds_;
    state->startSeconds = hostSeconds_ - c.seconds;
    state->spanSeconds = c.seconds;
    updateMakespan();
    return Event(this, state);
}

void
MealibRuntime::noteHostWrite(const void *vptr, std::uint64_t bytes)
{
    if (!cfg_.residency.enabled || bytes == 0)
        return;
    Addr lo = 0;
    if (!tryPhysOf(vptr, &lo))
        return;
    std::lock_guard<std::mutex> lock(mu_);
    residency_.hostWrite(lo, lo + bytes);
}

void
MealibRuntime::noteFusion(std::uint64_t comps)
{
    if (comps <= 1)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    postEach(ledger_, [&](EnergyLedger &l) {
        l.count("fused_programs");
        l.count("handshakes_elided", comps - 1);
    });
}

Cost
MealibRuntime::runOnHost(const host::KernelProfile &profile)
{
    std::lock_guard<std::mutex> lock(mu_);
    Cost c = host_.run(profile);
    postEach(ledger_, [&](EnergyLedger &l) {
        l.post("host", c,
               profile.name.empty() ? "host_kernel" : profile.name);
        l.attribute("host", c.joules);
        l.addFlops(profile.flops);
    });
    hostWork(c.seconds);
    updateMakespan();
    return c;
}

RuntimeAccounting
MealibRuntime::accounting() const
{
    std::lock_guard<std::mutex> lock(mu_);
    RuntimeAccounting a;
    a.host = ledger_.track("host");
    a.accel = ledger_.track("accel");
    a.invocation = ledger_.track("invocation");
    a.integrity = ledger_.track("integrity");
    for (const auto &[name, c] : ledger_.costByAccel()) {
        a.timeByAccel.add(name, c.seconds);
        a.energyByAccel.add(name, c.joules);
    }
    a.makespanSeconds = makespanSeconds_;
    a.hostBusySeconds = hostBusySeconds_;
    for (unsigned st = 0; st < cfg_.numStacks; ++st)
        a.busyByStack.add("stack" + std::to_string(st),
                          queues_[st].busySeconds());
    // Every fallback posts one host/fault_fallback event, so the event
    // already holds the fallback count and host seconds.
    const EnergyLedger::EventStat fallback =
        ledger_.event("host/fault_fallback");
    a.fallbackSeconds = fallback.cost.seconds;
    a.fallbackCount = fallback.count;
    a.retryCount = ledger_.counter("retries");
    a.watchdogFires = ledger_.counter("watchdog_fires");
    a.eccCorrected = ledger_.counter("ecc_corrected");
    a.silentDetected = ledger_.counter("silent_detected");
    a.silentUndetected = ledger_.counter("silent_undetected");
    a.checkpointsTaken = ledger_.counter("checkpoints");
    a.resumedFromCheckpoint = ledger_.counter("resumed");
    a.quarantines = health_.quarantines();
    a.readmissions = health_.readmissions();
    a.flushBytesElided = ledger_.counter("flush_bytes_elided");
    a.verifyBytesElided = ledger_.counter("verify_bytes_elided");
    a.handshakesElided = ledger_.counter("handshakes_elided");
    a.fusedPrograms = ledger_.counter("fused_programs");
    a.planImageReuses = ledger_.counter("plan_image_reuses");
    return a;
}

void
MealibRuntime::resetAccounting()
{
    std::lock_guard<std::mutex> lock(mu_);
    ledger_.reset();
    hostSeconds_ = 0.0;
    hostBusySeconds_ = 0.0;
    makespanSeconds_ = 0.0;
    inflight_.clear();
    for (CommandQueue &q : queues_)
        q.reset();
    sched_.reset();
    nextEventId_ = 1;
    epoch_++;
    cmdIndex_ = 0;
    faults_.reset();
    health_.reset();
    journal_.reset();
    residency_.reset();
}

const accel::ExecStats &
Event::wait()
{
    fatalIf(!valid(), "Event::wait: invalid event");
    std::lock_guard<std::mutex> lock(rt_->mu_);
    return rt_->eventWaitLocked(state_);
}

} // namespace mealib::runtime

#include "dispatch/dispatcher.hh"

#include <limits>

#include "dispatch/models.hh"

namespace mealib::dispatch {

namespace {

/**
 * Cost adapter for a partially degraded accelerator substrate: with
 * only a fraction of the stacks selectable, per-call accelerator
 * throughput shrinks proportionally (commands queue behind each other
 * on the survivors), so modeled accelSeconds is divided by the healthy
 * fraction before the policy compares sides.
 */
class DegradedCosts final : public CostModel
{
  public:
    DegradedCosts(const CostModel &base, double healthyFraction)
        : base_(base), frac_(healthyFraction)
    {
    }

    double
    hostSeconds(const OpDesc &desc) const override
    {
        return base_.hostSeconds(desc);
    }

    double
    accelSeconds(const OpDesc &desc) const override
    {
        if (frac_ <= 0.0)
            return std::numeric_limits<double>::infinity();
        return base_.accelSeconds(desc) / frac_;
    }

  private:
    const CostModel &base_;
    double frac_;
};

} // namespace

Dispatcher::Dispatcher() : policy_(std::make_unique<HostOnly>()) {}

Dispatcher::Dispatcher(std::unique_ptr<OffloadPolicy> policy)
    : policy_(policy ? std::move(policy)
                     : std::make_unique<HostOnly>())
{
}

void
Dispatcher::setPolicy(std::unique_ptr<OffloadPolicy> policy)
{
    std::lock_guard<std::mutex> lock(mu_);
    policy_ = policy ? std::move(policy) : std::make_unique<HostOnly>();
}

OffloadPolicy &
Dispatcher::policy()
{
    std::lock_guard<std::mutex> lock(mu_);
    return *policy_;
}

void
Dispatcher::setCostModel(std::shared_ptr<const CostModel> costs)
{
    std::lock_guard<std::mutex> lock(mu_);
    costs_ = std::move(costs);
}

void
Dispatcher::attachBackend(AccelBackend *backend)
{
    std::lock_guard<std::mutex> lock(mu_);
    backend_ = backend;
}

void
Dispatcher::detachBackend()
{
    AccelBackend *backend;
    {
        std::lock_guard<std::mutex> lock(mu_);
        backend = backend_;
        backend_ = nullptr;
    }
    // Flush any batched work outside the lock, as run() does: the flush
    // submits runtime commands, and other threads sharing this
    // dispatcher need not wait behind them.
    if (backend != nullptr)
        backend->sync();
}

Backend
Dispatcher::decideLocked(const OpDesc &desc)
{
    const CostModel *costs = costs_.get();
    if (costs != nullptr && backend_ != nullptr) {
        const double frac = backend_->healthyFraction();
        if (frac < 1.0) {
            DegradedCosts adapted(*costs, frac);
            return policy_->decide(desc, &adapted);
        }
    }
    return policy_->decide(desc, costs);
}

void
Dispatcher::run(const OpDesc &desc, const std::function<void()> &hostFn)
{
    Backend side;
    AccelBackend *backend;
    {
        std::lock_guard<std::mutex> lock(mu_);
        side = decideLocked(desc);
        backend = backend_;

        OpStats &s = stats_.of(desc.kind);
        s.calls++;
        s.flops += desc.flops();
        s.bytes += desc.bytes();
        if (side == Backend::Accel)
            s.accelDecisions++;
        else
            s.hostDecisions++;
    }

    if (side == Backend::Host) {
        // Host code may read results a batching backend still buffers.
        if (backend != nullptr)
            backend->sync();
        hostFn();
        return;
    }

    // Accel decision: pre-execution declines always fall back (nothing
    // has run yet, so the host path is trivially safe).
    FallbackReason reason = FallbackReason::None;
    if (backend == nullptr)
        reason = FallbackReason::NoBackend;
    else if (!desc.accelSupported)
        reason = FallbackReason::Unsupported;
    else if (!desc.backendMappable)
        reason = FallbackReason::Unmappable;

    if (reason == FallbackReason::None) {
        Status st = backend->execute(desc);
        if (st.ok()) {
            std::lock_guard<std::mutex> lock(mu_);
            OpStats &s = stats_.of(desc.kind);
            s.offloaded++;
            s.bytesOffloaded += desc.bytes();
            return;
        }
        // InvalidArgument is a decline before submission: nothing ran.
        // Any other error may follow a partial run; rerunning the host
        // path is only correct when the op does not read what it
        // writes (rerunSafe). Otherwise surface the error.
        reason = st.code() == ErrorCode::InvalidArgument
                     ? FallbackReason::Unmappable
                     : FallbackReason::BackendError;
        if (reason == FallbackReason::BackendError && !rerunSafe(desc)) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                OpStats &s = stats_.of(desc.kind);
                s.fallbacks++;
                s.fallbackBy[static_cast<std::size_t>(reason)]++;
            }
            throw MealibError(st);
        }
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        OpStats &s = stats_.of(desc.kind);
        s.fallbacks++;
        s.fallbackBy[static_cast<std::size_t>(reason)]++;
    }
    if (backend != nullptr)
        backend->sync();
    hostFn();
}

DispatchStats
Dispatcher::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

Dispatcher &
Dispatcher::global()
{
    // Function-local static *object* (not a leaked pointer): it is
    // destroyed at exit in reverse order of construction, after any
    // later-constructed session dispatchers, so LSan sees no leak once
    // telemetry holds allocations.
    struct GlobalDispatcher
    {
        Dispatcher d;
        GlobalDispatcher() : d(policyFromEnv())
        {
            d.setCostModel(std::make_shared<RooflineCostModel>());
        }
    };
    static GlobalDispatcher instance;
    return instance.d;
}

namespace {
/** The thread's bound dispatcher; null routes to Dispatcher::global(). */
thread_local Dispatcher *tlDispatcher = nullptr;
} // namespace

Dispatcher *
bindCurrentDispatcher(Dispatcher *dispatcher)
{
    Dispatcher *previous = tlDispatcher;
    tlDispatcher = dispatcher;
    return previous;
}

Dispatcher &
currentDispatcher()
{
    return tlDispatcher != nullptr ? *tlDispatcher : Dispatcher::global();
}

} // namespace mealib::dispatch

/**
 * @file
 * perf_e2e: one benchmark for the wall-clock and modeled cost of the
 * library over five workloads, with a traced run that splits the
 * wall-clock time by layer (perfbench/README.md).
 *
 * Usage:
 *   perf_e2e [--workload=NAME|all] [--seed=S] [--seconds=T]
 *            [--threads=2] [--trace=DIR] [--json=PATH]
 *   perf_e2e --smoke      every workload, 2 iterations, all checks on
 *   perf_e2e --selftest   corrupts one expected digest; must fail
 *
 * Every workload is a closed loop: each caller waits for its call to
 * return before issuing the next. After set-up and 3 untimed warm-up
 * iterations, iterations run for --seconds; each is timed, then its
 * outputs are checked against an oracle computed in set-up. `all`
 * re-executes this binary once per workload, so RSS and thread-pool
 * state never carry over between workloads. With --trace the same
 * iterations run twice, first untraced and then with spans on, and the
 * per-layer metrics come from the traced half.
 *
 * Prints every metric as `workload metric value unit`; the last stdout
 * line is one JSON object {correct, attempted, failed, metrics}.
 * Exit status: 0 when every check passed, 1 when any failed, 2 on a
 * usage error or when a MEALIB_* environment variable is set (such a
 * variable silently changes the program being measured).
 */

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "apps/cg.hh"
#include "apps/stap.hh"
#include "common/cli.hh"
#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"
#include "dispatch/backend.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/models.hh"
#include "dispatch/policy.hh"
#include "harness.hh"
#include "hwmodel/profile.hh"
#include "mealib/platform.hh"
#include "minimkl/compat.hh"
#include "runtime/runtime.hh"
#include "session/session.hh"

extern char **environ;

using namespace mealib;
using perfbench::ScopedSpan;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kWarmupIters = 3;
constexpr const char *kWorkloads[] = {"stap", "cg", "offload_stream",
                                      "tenants", "model_sweep"};

/** Report the first few failures; a broken build fails every check. */
void
reportFailure(const std::string &what)
{
    static int reported = 0;
    if (reported++ < 8)
        std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

/** What the checks of one iteration found. */
struct Outcome
{
    std::uint64_t attempted = 0; //!< checks plus status-bearing calls
    std::uint64_t failed = 0;
    Cost modeled; //!< MEALib-side modeled cost of the iteration
    std::map<std::string, double> counters; //!< per-iteration app counters

    void
    expect(bool ok, const std::string &what, std::uint64_t iter)
    {
        attempted++;
        if (!ok) {
            failed++;
            reportFailure(what + " (iteration " + std::to_string(iter) +
                          ")");
        }
    }
};

/** Dispatcher telemetry summed over kinds (and dispatchers). */
struct DispatchTotals
{
    double calls = 0.0;
    double offloaded = 0.0;
    double fallbacks = 0.0;
    double bytesOffloaded = 0.0;

    void
    add(const dispatch::DispatchStats &s)
    {
        calls += static_cast<double>(s.totalCalls());
        offloaded += static_cast<double>(s.totalOffloaded());
        bytesOffloaded += s.totalBytesOffloaded();
        for (const dispatch::OpStats &k : s.byKind)
            fallbacks += static_cast<double>(k.fallbacks);
    }
};

// --- bench-side decorators on the public virtual seams ---------------------

/** Set when the current MKL-signature call reached the backend. */
thread_local bool tlOffloaded = false;

/** Issue one MKL-signature call inside a compat.* span, classified by
 * whether the call executed on the accelerator backend. */
template <typename Fn>
void
libraryCall(Fn &&fn)
{
    ScopedSpan span("compat.host_path");
    tlOffloaded = false;
    fn();
    if (tlOffloaded)
        span.rename("compat.offload_path");
}

/** Times every cost-model query as a dispatch.cost_model span. */
class TracedCostModel final : public dispatch::CostModel
{
  public:
    explicit TracedCostModel(std::shared_ptr<const dispatch::CostModel> inner)
        : inner_(std::move(inner))
    {
    }

    double
    hostSeconds(const dispatch::OpDesc &desc) const override
    {
        ScopedSpan span("dispatch.cost_model");
        return inner_->hostSeconds(desc);
    }

    double
    accelSeconds(const dispatch::OpDesc &desc) const override
    {
        ScopedSpan span("dispatch.cost_model");
        return inner_->accelSeconds(desc);
    }

  private:
    std::shared_ptr<const dispatch::CostModel> inner_;
};

/**
 * Forwards to a RuntimeBackend (which is final) inside
 * dispatch.backend_* spans, and counts execution errors. A decline
 * (InvalidArgument: the operands are not in accelerator memory, so
 * nothing ran and the dispatcher reruns the host kernel) is expected
 * for non-arena operands and is not an error.
 */
class TracedBackend final : public dispatch::AccelBackend
{
  public:
    explicit TracedBackend(dispatch::RuntimeBackend &inner) : inner_(inner)
    {
    }

    const char *name() const override { return inner_.name(); }

    Status
    execute(const dispatch::OpDesc &desc) override
    {
        ScopedSpan span("dispatch.backend_execute");
        Status st = inner_.execute(desc);
        if (st.ok())
            tlOffloaded = true;
        else if (st.code() != ErrorCode::InvalidArgument)
            errors_.fetch_add(1, std::memory_order_relaxed);
        return st;
    }

    void
    sync() override
    {
        ScopedSpan span("dispatch.backend_sync");
        inner_.sync();
    }

    double
    healthyFraction() const override
    {
        return inner_.healthyFraction();
    }

    std::uint64_t errors() const { return errors_.load(); }

  private:
    dispatch::RuntimeBackend &inner_;
    std::atomic<std::uint64_t> errors_{0};
};

/** Binds a dispatcher to the calling thread for one scope. */
class DispatcherBinding
{
  public:
    explicit DispatcherBinding(dispatch::Dispatcher &d)
        : prev_(dispatch::bindCurrentDispatcher(&d))
    {
    }
    ~DispatcherBinding() { dispatch::bindCurrentDispatcher(prev_); }
    DispatcherBinding(const DispatcherBinding &) = delete;
    DispatcherBinding &operator=(const DispatcherBinding &) = delete;

  private:
    dispatch::Dispatcher *prev_;
};

template <typename T>
void
shuffle(std::vector<T> &v, Rng &rng)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.below(i)]);
}

std::int64_t
floorPow2(std::int64_t v)
{
    std::int64_t p = 1;
    while (p * 2 <= v)
        p *= 2;
    return p;
}

// --- a seeded batch of MKL-signature calls ----------------------------------

/** The entry points a library caller issues in a call batch. */
enum class Entry : std::uint8_t
{
    Saxpy,
    Sdot,
    Sgemv,
    Csrgemv,
    Cdotc,
    Fft,
    Somatcopy,
    kCount,
};

/**
 * A seeded batch of MKL-signature calls over arena-resident buffers,
 * replayed identically every iteration. Each entry point gets the same
 * log-uniform size grid from 2^8 to 2^18 elements (stratum midpoints),
 * so the work of a batch does not depend on the seed; the seed draws
 * the call order, operand offsets, scalars and data. Every 7th size of
 * each entry point whose host kernel may rerun after a declined
 * offload (all but saxpy, which reads its output) uses heap operands
 * outside the arena: about one call in 8.
 */
class CallBatch
{
  public:
    static constexpr std::int64_t kCap = std::int64_t{1} << 19; //!< X/Y floats
    static constexpr std::int64_t kMatCap = std::int64_t{1} << 18;

    CallBatch(runtime::MealibRuntime &rt, unsigned stack,
              std::uint64_t seed, unsigned count)
        : rt_(rt)
    {
        Rng rng(seed);
        const auto kinds = static_cast<unsigned>(Entry::kCount);
        for (unsigned k = 0; k < kinds; ++k) {
            const auto entry = static_cast<Entry>(k);
            const unsigned n = count / kinds + (k < count % kinds ? 1 : 0);
            for (unsigned j = 0; j < n; ++j) {
                const double e = 8.0 + 10.0 * (j + 0.5) / n;
                const auto s = std::max<std::int64_t>(
                    256, static_cast<std::int64_t>(std::exp2(e)) / 16 * 16);
                Call c = makeCall(entry, s, rng);
                c.heap = entry != Entry::Saxpy && j % 7 == 3;
                calls_.push_back(std::move(c));
            }
        }
        shuffle(calls_, rng);
        for (std::size_t i = 0; i < calls_.size(); ++i)
            calls_[i].slot = static_cast<unsigned>(i);

        x_ = static_cast<float *>(rt_.memAllocOn(stack, kCap * 4));
        y_ = static_cast<float *>(rt_.memAllocOn(stack, kCap * 4));
        a_ = static_cast<float *>(rt_.memAllocOn(stack, kMatCap * 4));
        cres_ = static_cast<mkl::cfloat *>(
            rt_.memAllocOn(stack, calls_.size() * sizeof(mkl::cfloat)));
        xh_.resize(kCap);
        yh_.resize(kCap);
        ah_.resize(kMatCap);
        cresh_.resize(calls_.size());
        sres_.resize(calls_.size());
        pristineY_.resize(kCap);
        for (std::int64_t i = 0; i < kCap; ++i) {
            xh_[i] = x_[i] = rng.uniform(-1.0f, 1.0f);
            pristineY_[i] = rng.uniform(-1.0f, 1.0f);
        }
        for (std::int64_t i = 0; i < kMatCap; ++i)
            ah_[i] = a_[i] = rng.uniform(-1.0f, 1.0f);
        rt_.noteHostWrite(x_, kCap * 4);
        rt_.noteHostWrite(a_, kMatCap * 4);

        for (Call &c : calls_) {
            if (c.entry == Entry::Csrgemv)
                buildCsr(c, rng);
            if (c.entry == Entry::Fft) {
                auto *in = reinterpret_cast<fftwf_complex *>(
                    (c.heap ? xh_.data() : x_) + c.xoff);
                auto *out = reinterpret_cast<fftwf_complex *>(
                    (c.heap ? yh_.data() : y_) + c.yoff);
                const int len = static_cast<int>(c.cols);
                fftwf_iodim dim{len, 1, 1};
                fftwf_iodim many{static_cast<int>(c.rows), len, len};
                c.plan = fftwf_plan_guru_dft(1, &dim, 1, &many, in, out,
                                             FFTW_FORWARD, FFTW_ESTIMATE);
            }
        }
    }

    ~CallBatch()
    {
        for (Call &c : calls_)
            if (c.plan != nullptr)
                fftwf_destroy_plan(c.plan);
        for (void *p : {static_cast<void *>(x_), static_cast<void *>(y_),
                        static_cast<void *>(a_),
                        static_cast<void *>(cres_)})
            rt_.memFree(p);
    }

    CallBatch(const CallBatch &) = delete;
    CallBatch &operator=(const CallBatch &) = delete;

    unsigned size() const { return static_cast<unsigned>(calls_.size()); }

    /** Reset every output to its pristine state (a host write). */
    void
    restore()
    {
        std::copy(pristineY_.begin(), pristineY_.end(), y_);
        std::copy(pristineY_.begin(), pristineY_.end(), yh_.begin());
        std::fill(cres_, cres_ + calls_.size(), mkl::cfloat{});
        std::fill(cresh_.begin(), cresh_.end(), mkl::cfloat{});
        std::fill(sres_.begin(), sres_.end(), 0.0f);
        rt_.noteHostWrite(y_, kCap * 4);
        rt_.noteHostWrite(cres_, calls_.size() * sizeof(mkl::cfloat));
    }

    /** Issue every call, in order, through the calling thread's
     * current dispatcher. */
    void
    issue()
    {
        for (const Call &c : calls_)
            libraryCall([&] { issueOne(c); });
    }

    /** FNV-1a over every output the batch writes. */
    std::uint64_t
    digest() const
    {
        using perfbench::digestBytes;
        std::uint64_t h = perfbench::kFnvBasis;
        h = digestBytes(h, y_, kCap * 4);
        h = digestBytes(h, yh_.data(), kCap * 4);
        h = digestBytes(h, cres_, calls_.size() * sizeof(mkl::cfloat));
        h = digestBytes(h, cresh_.data(),
                        cresh_.size() * sizeof(mkl::cfloat));
        return digestBytes(h, sres_.data(), sres_.size() * 4);
    }

  private:
    /** One call: its dimensions, operand offsets and scalars. */
    struct Call
    {
        Entry entry = Entry::Saxpy;
        bool heap = false; //!< operands outside the arena
        std::int64_t rows = 0; //!< n, matrix rows, or FFT batch
        std::int64_t cols = 0; //!< matrix cols or FFT length
        std::int64_t xoff = 0, yoff = 0; //!< float offsets into X / Y
        float alpha = 1.0f;
        unsigned slot = 0; //!< scalar-result index
        std::vector<int> ia, ja; //!< 1-based CSR (mkl_scsrgemv)
        std::vector<float> vals;
        fftwf_plan plan = nullptr;
    };

    static Call
    makeCall(Entry e, std::int64_t s, Rng &rng)
    {
        Call c;
        c.entry = e;
        c.alpha = rng.uniform(-0.5f, 0.5f);
        std::int64_t xFloats = s, yFloats = s;
        switch (e) {
          case Entry::Saxpy:
          case Entry::Sdot:
            c.rows = s;
            break;
          case Entry::Sgemv:
          case Entry::Somatcopy:
            c.cols = floorPow2(static_cast<std::int64_t>(
                std::sqrt(static_cast<double>(s))));
            c.rows = s / c.cols;
            xFloats = e == Entry::Sgemv ? c.cols : c.rows * c.cols;
            yFloats = e == Entry::Sgemv ? c.rows : c.rows * c.cols;
            break;
          case Entry::Csrgemv:
            c.rows = s / 8;
            xFloats = yFloats = c.rows;
            break;
          case Entry::Cdotc:
            c.rows = s / 2;
            break;
          case Entry::Fft:
            c.cols = std::min<std::int64_t>(1024, floorPow2(s / 8));
            c.rows = s / 2 / c.cols;
            xFloats = yFloats = 2 * c.rows * c.cols;
            break;
          case Entry::kCount:
            break;
        }
        c.xoff = 16 * static_cast<std::int64_t>(rng.below(
                          static_cast<std::uint64_t>((kCap - xFloats) / 16 + 1)));
        c.yoff = 16 * static_cast<std::int64_t>(rng.below(
                          static_cast<std::uint64_t>((kCap - yFloats) / 16 + 1)));
        return c;
    }

    /** Square CSR with 8 nonzeros per row at distinct columns. */
    static void
    buildCsr(Call &c, Rng &rng)
    {
        const std::int64_t r = c.rows;
        const std::int64_t stride = std::max<std::int64_t>(1, r / 8);
        c.ia.resize(static_cast<std::size_t>(r + 1));
        for (std::int64_t i = 0; i < r; ++i) {
            c.ia[i] = static_cast<int>(1 + 8 * i);
            for (std::int64_t k = 0; k < 8; ++k) {
                c.ja.push_back(static_cast<int>((i + k * stride) % r + 1));
                c.vals.push_back(rng.uniform(-1.0f, 1.0f));
            }
        }
        c.ia[r] = static_cast<int>(1 + 8 * r);
    }

    void
    issueOne(const Call &c)
    {
        const float *x = (c.heap ? xh_.data() : x_) + c.xoff;
        float *y = (c.heap ? yh_.data() : y_) + c.yoff;
        const int rows = static_cast<int>(c.rows);
        const int cols = static_cast<int>(c.cols);
        switch (c.entry) {
          case Entry::Saxpy:
            cblas_saxpy(rows, c.alpha, x, 1, y, 1);
            break;
          case Entry::Sdot:
            sres_[c.slot] = cblas_sdot(rows, x, 1, y, 1);
            break;
          case Entry::Sgemv:
            cblas_sgemv(CblasRowMajor, CblasNoTrans, rows, cols, c.alpha,
                        c.heap ? ah_.data() : a_, cols, x, 1, 0.0f, y, 1);
            break;
          case Entry::Csrgemv:
            mkl_scsrgemv("N", &rows, c.vals.data(), c.ia.data(),
                         c.ja.data(), x, y);
            break;
          case Entry::Cdotc:
            cblas_cdotc_sub(rows, x, 1, y, 1,
                            c.heap ? &cresh_[c.slot] : &cres_[c.slot]);
            break;
          case Entry::Fft:
            fftwf_execute(c.plan);
            break;
          case Entry::Somatcopy:
            mkl_somatcopy('R', 'T', static_cast<std::size_t>(rows),
                          static_cast<std::size_t>(cols), c.alpha, x,
                          static_cast<std::size_t>(cols), y,
                          static_cast<std::size_t>(rows));
            break;
          case Entry::kCount:
            break;
        }
    }

    runtime::MealibRuntime &rt_;
    std::vector<Call> calls_;
    float *x_ = nullptr, *y_ = nullptr, *a_ = nullptr;
    mkl::cfloat *cres_ = nullptr;
    std::vector<float> xh_, yh_, ah_, pristineY_, sres_;
    std::vector<mkl::cfloat> cresh_;
};

// --- workloads ----------------------------------------------------------------

/** One workload: built from the seed, set up, run one iteration at a time. */
class Workload
{
  public:
    virtual ~Workload() = default;
    /** Build the user-visible state: runtime, dispatcher or sessions,
     * arena and inputs (timed as setup_s). */
    virtual void setup() = 0;
    /** Release what setup() built (untimed). */
    virtual void teardown() = 0;
    /** Compute the expected outputs (untimed, excluded from setup_s). */
    virtual void prepareOracle() = 0;
    /** One closed-loop iteration (timed). */
    virtual void run(std::uint64_t iter) = 0;
    /** Check the outputs of the iteration run() just finished. */
    virtual Outcome check(std::uint64_t iter) = 0;
    /** Items one iteration completes: pairs, solves or calls. */
    virtual std::uint64_t itemsPerIteration() const = 0;
    /** Make every later output check fail (the selftest). */
    virtual void corruptExpected() = 0;
    /** Relative tolerance between the modeled cost of any two
     * iterations; negative when iterations differ by design. */
    virtual double modeledTolerance() const { return 0.0; }
    /** The runtime the iterations submit to, if any. */
    virtual const runtime::MealibRuntime *runtime() const { return nullptr; }
    /** Telemetry of every dispatcher the iterations route through. */
    virtual DispatchTotals dispatchTotals() const { return {}; }
    /** Counters accumulated since the last call (and reset them). */
    virtual void takeLayerCounters(std::map<std::string, double> &) {}
};

std::unique_ptr<runtime::MealibRuntime>
makeRuntime(std::uint64_t arenaBytes, unsigned stacks = 1,
            bool residency = false)
{
    ScopedSpan span("runtime.setup");
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = arenaBytes;
    cfg.numStacks = stacks;
    cfg.residency.enabled = residency;
    return std::make_unique<runtime::MealibRuntime>(cfg);
}

std::uint64_t
digestFloats(const void *data, std::size_t bytes)
{
    return perfbench::digestBytes(perfbench::kFnvBasis, data, bytes);
}

/** STAP small set, host baseline plus MEALib pipeline per iteration. */
class StapWorkload final : public Workload
{
  public:
    explicit StapWorkload(std::uint64_t seed)
        : params_(apps::StapParams::smallSet())
    {
        params_.seed = seed;
    }

    void setup() override { rt_ = makeRuntime(32_MiB); }
    void teardown() override { rt_.reset(); }

    void
    prepareOracle() override
    {
        const apps::StapResult host = apps::runStapHost(params_);
        expected_ = digestFloats(host.prods.data(),
                                 host.prods.size() * sizeof(mkl::cfloat));
    }

    void
    run(std::uint64_t) override
    {
        {
            ScopedSpan span("apps.stap_host");
            host_ = apps::runStapHost(params_);
        }
        ScopedSpan span("apps.stap_mealib");
        mea_ = apps::runStapMealib(params_, *rt_);
    }

    Outcome
    check(std::uint64_t iter) override
    {
        Outcome o;
        const std::size_t bytes = host_.prods.size() * sizeof(mkl::cfloat);
        o.expect(host_.prods.size() == mea_.prods.size() &&
                     std::memcmp(host_.prods.data(), mea_.prods.data(),
                                 bytes) == 0,
                 "stap: host prods differ from MEALib prods", iter);
        o.expect(digestFloats(mea_.prods.data(), bytes) == expected_,
                 "stap: prods digest differs from the oracle", iter);
        o.modeled = mea_.total();
        o.counters["apps.stap_library_calls"] =
            static_cast<double>(mea_.libraryCalls);
        return o;
    }

    std::uint64_t itemsPerIteration() const override { return 1; }
    void corruptExpected() override { expected_ ^= 1; }
    const runtime::MealibRuntime *runtime() const override { return rt_.get(); }

    DispatchTotals
    dispatchTotals() const override
    {
        DispatchTotals t;
        t.add(dispatch::Dispatcher::global().snapshot());
        return t;
    }

  private:
    apps::StapParams params_;
    std::unique_ptr<runtime::MealibRuntime> rt_;
    apps::StapResult host_, mea_;
    std::uint64_t expected_ = 0;
};

/**
 * MEALib CG solve over reused plans, against a host-solve oracle. The
 * solve runs a fixed 20 iterations (tolerance 0): the iteration count
 * to a 1e-4 residual varies from 19 to 21 across seeds, and a fixed
 * count keeps the work per solve independent of the seed.
 */
class CgWorkload final : public Workload
{
  public:
    static constexpr std::int64_t kRows = 20000;
    static constexpr unsigned kIterations = 20;

    explicit CgWorkload(std::uint64_t seed) : seed_(seed)
    {
        opts_.maxIterations = kIterations;
        opts_.tolerance = 0.0;
    }

    void
    setup() override
    {
        rt_ = makeRuntime(32_MiB);
        a_ = apps::cgTestMatrix(kRows, seed_);
        Rng rng(seed_ ^ 0xc6a4a7935bd1e995ull);
        b_.resize(static_cast<std::size_t>(kRows));
        for (float &v : b_)
            v = rng.uniform(-1.0f, 1.0f);
    }

    void
    teardown() override
    {
        rt_.reset();
        a_ = {};
        b_.clear();
    }

    void
    prepareOracle() override
    {
        oracle_ = apps::solveCgHost(a_, b_, opts_);
        double bb = 0.0;
        for (float v : b_)
            bb += static_cast<double>(v) * v;
        bnorm_ = std::sqrt(bb);
    }

    void
    run(std::uint64_t) override
    {
        ScopedSpan span("apps.cg_mealib");
        res_ = apps::solveCgMealib(a_, b_, *rt_, opts_);
    }

    Outcome
    check(std::uint64_t iter) override
    {
        Outcome o;
        o.expect(res_.iterations == kIterations &&
                     oracle_.iterations == kIterations &&
                     res_.residualNorm <= 1e-3 * bnorm_,
                 "cg: solve did not reach a 1e-3 relative residual in " +
                     std::to_string(kIterations) + " iterations",
                 iter);
        o.expect(res_.x.size() == oracle_.x.size() &&
                     std::memcmp(res_.x.data(), oracle_.x.data(),
                                 res_.x.size() * sizeof(float)) == 0,
                 "cg: x differs from the host oracle", iter);
        o.modeled = rt_->accounting().total();
        o.counters["apps.cg_executes"] = static_cast<double>(res_.executes);
        return o;
    }

    std::uint64_t itemsPerIteration() const override { return 1; }
    void corruptExpected() override { oracle_.x.at(0) += 1.0f; }
    const runtime::MealibRuntime *runtime() const override { return rt_.get(); }

  private:
    std::uint64_t seed_;
    std::unique_ptr<runtime::MealibRuntime> rt_;
    mkl::CsrMatrix a_;
    std::vector<float> b_;
    apps::CgOptions opts_;
    double bnorm_ = 0.0;
    apps::CgResult oracle_, res_;
};

/**
 * A seeded batch of MKL-signature calls on one thread through a
 * bench-owned dispatcher: crossover policy, roofline cost model and
 * runtime backend with fusion window 4, residency on.
 */
class OffloadStreamWorkload final : public Workload
{
  public:
    static constexpr unsigned kCalls = 256;
    static constexpr unsigned kWindow = 4;

    explicit OffloadStreamWorkload(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        rt_ = makeRuntime(32_MiB, 1, true);
        auto model = std::make_shared<dispatch::RooflineCostModel>();
        model->setFusionWindow(kWindow);
        disp_ = std::make_unique<dispatch::Dispatcher>(
            dispatch::makePolicy("crossover"));
        disp_->setCostModel(std::make_shared<TracedCostModel>(model));
        backend_ = std::make_unique<dispatch::RuntimeBackend>(*rt_, kWindow);
        traced_ = std::make_unique<TracedBackend>(*backend_);
        disp_->attachBackend(traced_.get());
        batch_ = std::make_unique<CallBatch>(*rt_, 0, seed_, kCalls);
    }

    void
    teardown() override
    {
        batch_.reset();
        if (disp_)
            disp_->detachBackend();
        disp_.reset();
        traced_.reset();
        backend_.reset();
        rt_.reset();
    }

    void
    prepareOracle() override
    {
        dispatch::Dispatcher hostOnly;
        DispatcherBinding bound(hostOnly);
        batch_->restore();
        batch_->issue();
        expected_ = batch_->digest();
    }

    void
    run(std::uint64_t) override
    {
        rt_->resetAccounting();
        batch_->restore();
        DispatcherBinding bound(*disp_);
        batch_->issue();
        traced_->sync();
    }

    Outcome
    check(std::uint64_t iter) override
    {
        Outcome o;
        o.expect(batch_->digest() == expected_,
                 "offload_stream: batch digest differs from the host "
                 "oracle",
                 iter);
        const std::uint64_t errors = traced_->errors();
        o.attempted += batch_->size();
        o.failed += errors - errorsSeen_;
        errorsSeen_ = errors;
        o.modeled = rt_->accounting().total();
        return o;
    }

    std::uint64_t itemsPerIteration() const override { return kCalls; }
    void corruptExpected() override { expected_ ^= 1; }
    const runtime::MealibRuntime *runtime() const override { return rt_.get(); }

    DispatchTotals
    dispatchTotals() const override
    {
        DispatchTotals t;
        t.add(disp_->snapshot());
        return t;
    }

  private:
    std::uint64_t seed_;
    std::unique_ptr<runtime::MealibRuntime> rt_;
    std::unique_ptr<dispatch::Dispatcher> disp_;
    std::unique_ptr<dispatch::RuntimeBackend> backend_;
    std::unique_ptr<TracedBackend> traced_;
    std::unique_ptr<CallBatch> batch_;
    std::uint64_t expected_ = 0;
    std::uint64_t errorsSeen_ = 0;
};

/** Jain's fairness index over @p xs (1 when all are equal). */
double
jain(const std::vector<double> &xs)
{
    double sum = 0.0, sq = 0.0;
    for (double x : xs) {
        sum += x;
        sq += x * x;
    }
    return sq > 0.0 ? sum * sum / (static_cast<double>(xs.size()) * sq)
                    : 1.0;
}

/**
 * Two client threads, one Session each (accel policy, reuse layers at
 * their defaults), over one shared 2-stack runtime. Each client
 * replays its own seeded call batch; an iteration ends when both
 * finish.
 */
class TenantsWorkload final : public Workload
{
  public:
    static constexpr unsigned kClients = 2;
    static constexpr unsigned kCalls = 128;

    explicit TenantsWorkload(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        rt_ = makeRuntime(64_MiB, kClients);
        clients_.resize(kClients);
        for (unsigned i = 0; i < kClients; ++i) {
            Client &c = clients_[i];
            SessionOptions opts;
            opts.policy = "accel";
            opts.attachBackend = false;
            c.backend = std::make_unique<dispatch::RuntimeBackend>(*rt_);
            c.traced = std::make_unique<TracedBackend>(*c.backend);
            c.session = std::make_unique<Session>(*rt_, opts);
            c.session->dispatcher().setCostModel(
                std::make_shared<TracedCostModel>(
                    std::make_shared<dispatch::RooflineCostModel>(
                        c.session->machine())));
            c.session->dispatcher().attachBackend(c.traced.get());
            c.batch = std::make_unique<CallBatch>(
                *rt_, i, seed_ + 0x9e3779b97f4a7c15ull * (i + 1), kCalls);
        }
    }

    void
    teardown() override
    {
        clients_.clear();
        rt_.reset();
    }

    void
    prepareOracle() override
    {
        for (Client &c : clients_) {
            dispatch::Dispatcher hostOnly;
            DispatcherBinding bound(hostOnly);
            c.batch->restore();
            c.batch->issue();
            c.expected = c.batch->digest();
        }
    }

    void
    run(std::uint64_t iter) override
    {
        rt_->resetAccounting();
        for (Client &c : clients_) {
            c.session->ledger().reset();
            c.batch->restore();
        }
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < kClients; ++i)
            threads.emplace_back([this, i, iter] { clientMain(i, iter); });
        for (std::thread &t : threads)
            t.join();
        for (Client &c : clients_)
            if (c.error) {
                std::exception_ptr e = c.error;
                c.error = nullptr;
                std::rethrow_exception(e);
            }
    }

    Outcome
    check(std::uint64_t iter) override
    {
        Outcome o;
        Cost sum;
        for (unsigned i = 0; i < kClients; ++i) {
            Client &c = clients_[i];
            o.expect(c.batch->digest() == c.expected,
                     "tenants: client " + std::to_string(i) +
                         " digest differs from its solo oracle",
                     iter);
            const std::uint64_t errors = c.traced->errors();
            o.attempted += c.batch->size();
            o.failed += errors - c.errorsSeen;
            c.errorsSeen = errors;
            sum += c.session->ledger().total();
            wallS_[i] += c.lastWallS;
        }
        const Cost agg = rt_->accounting().total();
        const double residual =
            std::abs(sum.seconds - agg.seconds) / agg.seconds;
        maxResidual_ = std::max(maxResidual_, residual);
        o.expect(agg.seconds > 0.0 && residual <= 1e-9,
                 "tenants: session ledgers do not sum to the aggregate",
                 iter);
        o.modeled = agg;
        return o;
    }

    std::uint64_t
    itemsPerIteration() const override
    {
        return std::uint64_t{kClients} * kCalls;
    }

    void corruptExpected() override { clients_.at(0).expected ^= 1; }
    double modeledTolerance() const override { return 1e-9; }
    const runtime::MealibRuntime *runtime() const override { return rt_.get(); }

    DispatchTotals
    dispatchTotals() const override
    {
        DispatchTotals t;
        for (const Client &c : clients_)
            t.add(c.session->dispatcher().snapshot());
        return t;
    }

    void
    takeLayerCounters(std::map<std::string, double> &out) override
    {
        out["session.jain_fairness"] =
            jain(std::vector<double>(wallS_, wallS_ + kClients));
        out["session.ledger_residual"] = maxResidual_;
        std::fill(wallS_, wallS_ + kClients, 0.0);
        maxResidual_ = 0.0;
    }

  private:
    /** One tenant. Destroyed session first: it detaches (and syncs) the
     * traced backend, which forwards to the runtime backend. */
    struct Client
    {
        std::unique_ptr<dispatch::RuntimeBackend> backend;
        std::unique_ptr<TracedBackend> traced;
        std::unique_ptr<Session> session;
        std::unique_ptr<CallBatch> batch;
        std::uint64_t expected = 0;
        std::uint64_t errorsSeen = 0;
        double lastWallS = 0.0;
        std::exception_ptr error;
    };

    void
    clientMain(unsigned i, std::uint64_t iter)
    {
        Client &c = clients_[i];
        perfbench::setTraceTid(static_cast<int>(i) + 1);
        perfbench::setTraceIter(iter);
        const auto t0 = Clock::now();
        try {
            std::optional<SessionBinding> bound;
            {
                ScopedSpan span("session.bind");
                bound.emplace(c.session->bind());
            }
            c.batch->issue();
            c.traced->sync();
        } catch (...) {
            c.error = std::current_exception();
        }
        c.lastWallS = secondsSince(t0);
    }

    std::uint64_t seed_;
    std::unique_ptr<runtime::MealibRuntime> rt_;
    std::vector<Client> clients_;
    double wallS_[kClients] = {};
    double maxResidual_ = 0.0;
};

/**
 * Cost-only evaluation of the 7 Table-2 kinds on the 5 platforms, at a
 * scale drawn per iteration (log-uniform in [1/16, 1], stratified over
 * 16 strata so any run covers the range evenly). Set-up builds the
 * models a sweep reuses: one accelerator model (with its DRAM stack)
 * per kind and accelerated platform, and the two host CPU models. An
 * iteration prices every pair with them, which is eval::evaluateOp with
 * the model construction hoisted; every 16th iteration is checked
 * bit-for-bit against evaluateOp.
 */
class ModelSweepWorkload final : public Workload
{
  public:
    static constexpr unsigned kStrata = 16;
    static constexpr std::uint64_t kOracleEvery = 16;
    static constexpr accel::AccelKind kKinds[] = {
        accel::AccelKind::AXPY,  accel::AccelKind::DOT,
        accel::AccelKind::GEMV,  accel::AccelKind::SPMV,
        accel::AccelKind::RESMP, accel::AccelKind::FFT,
        accel::AccelKind::RESHP,
    };
    static constexpr eval::Platform kPlatforms[] = {
        eval::Platform::HaswellMkl, eval::Platform::XeonPhiMkl,
        eval::Platform::Psas,       eval::Platform::Msas,
        eval::Platform::MeaLib,
    };
    static constexpr std::size_t kNumKinds = std::size(kKinds);
    static constexpr std::size_t kNumPlatforms = std::size(kPlatforms);
    static constexpr std::size_t kNumHost = 2; //!< the host platforms lead

    explicit ModelSweepWorkload(std::uint64_t seed) : seed_(seed) {}

    void
    setup() override
    {
        cpus_[0].emplace(hwmodel::profile("haswell4770k").cpu);
        cpus_[1].emplace(hwmodel::profile("xeonphi5110p").cpu);
        const dram::DramParams drams[] = {hwmodel::ddr3Params(2),
                                          hwmodel::ddr3Params(8),
                                          hwmodel::hmcStackParams()};
        const noc::MeshParams mesh = hwmodel::mealibMeshParams();
        for (std::size_t k = 0; k < kNumKinds; ++k)
            for (std::size_t p = kNumHost; p < kNumPlatforms; ++p)
                models_[k][p] = std::make_unique<accel::AccelModel>(
                    kKinds[k], accel::defaultConfig(kKinds[k]),
                    drams[p - kNumHost], mesh);
        Rng rng(seed_);
        strata_.resize(kStrata);
        for (unsigned i = 0; i < kStrata; ++i)
            strata_[i] = i;
        shuffle(strata_, rng);
    }

    void
    teardown() override
    {
        for (auto &cpu : cpus_)
            cpu.reset();
        for (auto &row : models_)
            for (auto &m : row)
                m.reset();
        strata_.clear();
    }

    void prepareOracle() override {}

    void
    run(std::uint64_t iter) override
    {
        Rng rng(seed_ ^ (0x2545f4914f6cdd1dull * (iter + 1)));
        const double u = (strata_[iter % kStrata] + rng.uniform()) / kStrata;
        const double scale = std::min(1.0, std::exp2(-4.0 + 4.0 * u));
        for (std::size_t k = 0; k < kNumKinds; ++k) {
            const eval::Workload &w = workloads_[k] =
                eval::table2Workload(kKinds[k], scale);
            const double iters = static_cast<double>(w.loop.iterations());
            for (std::size_t p = 0; p < kNumPlatforms; ++p) {
                const bool host = p < kNumHost;
                ScopedSpan span(host ? "mealib.evaluate_op_host"
                                     : "mealib.evaluate_op_accel");
                eval::OpResult &r = results_[k][p];
                r.flops = w.call.flops() * iters;
                r.bytes = w.call.trafficBytes() * iters;
                r.cost = host ? cpus_[p]->run(eval::hostProfile(
                                    kPlatforms[p], w.call, w.loop))
                              : models_[k][p]->estimate(w.call, w.loop).total;
            }
        }
    }

    Outcome
    check(std::uint64_t iter) override
    {
        Outcome o;
        if (iter % kOracleEvery == 0)
            for (std::size_t k = 0; k < kNumKinds; ++k)
                for (std::size_t p = 0; p < kNumPlatforms; ++p) {
                    const eval::OpResult want =
                        eval::evaluateOp(kPlatforms[p], workloads_[k]);
                    const eval::OpResult &got = results_[k][p];
                    o.expect(got.cost.seconds == want.cost.seconds &&
                                 got.cost.joules == want.cost.joules &&
                                 got.flops == want.flops &&
                                 got.bytes == want.bytes,
                             std::string("model_sweep: ") +
                                 accel::name(kKinds[k]) + " on " +
                                 eval::name(kPlatforms[p]) +
                                 " differs from evaluateOp",
                             iter);
                }
        for (std::size_t k = 0; k < kNumKinds; ++k) {
            const double psas = results_[k][2].perf();
            const double msas = results_[k][3].perf();
            const double mea = results_[k][4].perf();
            o.expect(mea > msas && msas > psas && !corrupt_,
                     std::string("model_sweep: Fig. 9 ordering broken for ") +
                         accel::name(kKinds[k]),
                     iter);
            o.modeled += results_[k][4].cost;
        }
        return o;
    }

    std::uint64_t
    itemsPerIteration() const override
    {
        return kNumKinds * kNumPlatforms;
    }

    void corruptExpected() override { corrupt_ = true; }
    double modeledTolerance() const override { return -1.0; }

  private:
    std::uint64_t seed_;
    std::vector<unsigned> strata_;
    std::optional<host::CpuModel> cpus_[kNumHost];
    std::unique_ptr<accel::AccelModel> models_[kNumKinds][kNumPlatforms];
    eval::Workload workloads_[kNumKinds];
    eval::OpResult results_[kNumKinds][kNumPlatforms];
    bool corrupt_ = false;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "stap")
        return std::make_unique<StapWorkload>(seed);
    if (name == "cg")
        return std::make_unique<CgWorkload>(seed);
    if (name == "offload_stream")
        return std::make_unique<OffloadStreamWorkload>(seed);
    if (name == "tenants")
        return std::make_unique<TenantsWorkload>(seed);
    if (name == "model_sweep")
        return std::make_unique<ModelSweepWorkload>(seed);
    return nullptr;
}

// --- the measurement loop -----------------------------------------------------

/** Pinned modeled cost of a workload's first iteration at the default
 * seed (perfbench/pins.txt). */
struct Pin
{
    double seconds = 0.0;
    double joules = 0.0;
};

std::map<std::string, Pin>
readPins(const std::string &path)
{
    std::map<std::string, Pin> pins;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        char name[64];
        Pin p;
        if (std::sscanf(line.c_str(), "%63s %lf %lf", name, &p.seconds,
                        &p.joules) == 3)
            pins[name] = p;
    }
    return pins;
}

bool
closeEnough(double a, double b, double rel)
{
    return a == b || std::abs(a - b) <= rel * std::abs(b);
}

/** Runs, times and checks iterations; keeps the failure accounting. */
class Runner
{
  public:
    Runner(Workload &w, std::string name, const Pin *pin, bool checkPin)
        : w_(w), name_(std::move(name)), pin_(pin), checkPin_(checkPin)
    {
    }

    /** One iteration; its time goes to @p samples when given. */
    void
    iteration(std::vector<double> *samples)
    {
        const std::uint64_t iter = next_++;
        perfbench::setTraceIter(iter);
        try {
            const auto t0 = Clock::now();
            {
                ScopedSpan span("bench.iteration");
                w_.run(iter);
            }
            const double dt = secondsSince(t0);
            Outcome o = w_.check(iter);
            checkModeled(o, iter);
            attempted_ += o.attempted;
            failed_ += o.failed;
            if (samples != nullptr)
                samples->push_back(dt);
        } catch (const std::exception &e) {
            attempted_++;
            failed_++;
            reportFailure(name_ + ": iteration " + std::to_string(iter) +
                          " threw: " + e.what());
        }
    }

    /** Iterate for @p seconds of wall time, within [minIters, maxIters]. */
    std::vector<double>
    phase(double seconds, std::size_t minIters, std::size_t maxIters)
    {
        std::vector<double> samples;
        const auto t0 = Clock::now();
        for (std::size_t n = 0; n < maxIters; ++n) {
            if (n >= minIters && secondsSince(t0) >= seconds)
                break;
            iteration(&samples);
        }
        return samples;
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    /** The first iteration: its outcome and runtime accounting. */
    const Outcome &reference() const { return ref_; }
    const runtime::RuntimeAccounting &referenceAccounting() const
    {
        return refAcct_;
    }

  private:
    void
    checkModeled(Outcome &o, std::uint64_t iter)
    {
        const double tol = std::max(0.0, w_.modeledTolerance());
        if (!haveRef_) {
            haveRef_ = true;
            ref_ = o;
            if (const runtime::MealibRuntime *rt = w_.runtime())
                refAcct_ = rt->accounting();
            if (!checkPin_)
                return;
            const bool ok =
                pin_ != nullptr &&
                closeEnough(o.modeled.seconds, pin_->seconds, tol) &&
                closeEnough(o.modeled.joules, pin_->joules, tol);
            o.expect(ok, name_ + ": modeled cost differs from its pin",
                     iter);
            if (!ok)
                std::fprintf(stderr, "measured pin: %s %.17g %.17g\n",
                             name_.c_str(), o.modeled.seconds,
                             o.modeled.joules);
            return;
        }
        if (w_.modeledTolerance() < 0.0)
            return;
        o.expect(closeEnough(o.modeled.seconds, ref_.modeled.seconds, tol) &&
                     closeEnough(o.modeled.joules, ref_.modeled.joules, tol),
                 name_ + ": modeled cost differs between iterations", iter);
    }

    Workload &w_;
    std::string name_;
    const Pin *pin_;
    bool checkPin_;
    std::uint64_t next_ = 0;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    bool haveRef_ = false;
    Outcome ref_;
    runtime::RuntimeAccounting refAcct_;
};

// --- reporting ----------------------------------------------------------------

struct Options
{
    std::string workload = "all";
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    int threads = 2;
    std::string traceDir;
    std::string jsonPath;
    bool smoke = false;
    bool selftest = false;
    bool child = false; //!< spawned by an `all` run
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> endToEnd;
    std::vector<Metric> perLayer; //!< traced runs only
};

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
metaJson(const Options &opt)
{
    std::string m = "{\"bench\": \"perf_e2e\"";
    auto add = [&](const char *k, const std::string &v) {
        m += std::string(", \"") + k + "\": " + v;
    };
    add("machine", jsonString(hwmodel::activeMachineName()));
    add("simd_detected", jsonString(simd::name(simd::detectedLevel())));
    add("simd_active", jsonString(simd::name(simd::activeLevel())));
    add("kernel_threads", std::to_string(kernelTuning().numThreads));
    add("build_type", jsonString(PERF_E2E_BUILD_TYPE));
    add("build_flags", jsonString(PERF_E2E_BUILD_FLAGS));
    add("git_commit", jsonString(PERF_E2E_GIT_COMMIT));
    add("seed", std::to_string(opt.seed));
    add("seconds", perfbench::jsonNumber(opt.seconds));
    add("mode", jsonString(opt.smoke      ? "smoke"
                       : opt.selftest ? "selftest"
                       : opt.traceDir.empty() ? "plain"
                                              : "trace"));
    return m + "}";
}

/** The result object: the last stdout line of a single-workload run. */
std::string
resultJson(const Report &r, const std::vector<Metric> &metrics)
{
    std::string s = std::string("{\"correct\": ") +
                    (r.failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(r.attempted) +
                    ", \"failed\": " + std::to_string(r.failed) +
                    ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        s += (i ? ", " : "") + jsonString(metrics[i].name) +
             ": {\"value\": " + perfbench::jsonNumber(metrics[i].value) +
             ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    return s + "}}";
}

/** {meta, workloads: {name: result}} for --json and layers.json. */
bool
writeDocument(const std::string &path, const Options &opt,
              const std::vector<std::pair<std::string, std::string>> &results)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"meta\": %s,\n \"workloads\": {\n",
                 metaJson(opt).c_str());
    for (std::size_t i = 0; i < results.size(); ++i)
        std::fprintf(f, "  %s: %s%s\n", jsonString(results[i].first).c_str(),
                     results[i].second.c_str(),
                     i + 1 < results.size() ? "," : "");
    std::fprintf(f, "}}\n");
    return std::fclose(f) == 0;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/** Iteration-time statistics of one timed phase. */
struct IterStats
{
    double p50 = 0.0;
    double itemsPerS = 0.0;
};

/**
 * Every timing statistic is the median over 10 consecutive windows of
 * its phase, so contention from outside the process that hits only
 * part of the phase does not move it.
 */
constexpr std::size_t kWindows = 10;

double
windowedP50(const std::vector<double> &samples)
{
    return perfbench::windowedMedian(
        samples, kWindows, [](const std::vector<double> &w) {
            return perfbench::Summary::of(w).p50;
        });
}

IterStats
iterStats(const std::vector<double> &samples, std::uint64_t itemsPerIter)
{
    IterStats s;
    s.p50 = windowedP50(samples);
    s.itemsPerS = perfbench::windowedMedian(
        samples, kWindows, [&](const std::vector<double> &w) {
            const double sum = perfbench::Summary::of(w).sum;
            return sum > 0.0 ? static_cast<double>(w.size() * itemsPerIter) /
                                   sum
                             : 0.0;
        });
    return s;
}

/** Spans, each reported as .count, .total_s and .self_s per iteration
 * (runtime.setup: per set-up). */
constexpr const char *kSpanNames[] = {
    "bench.iteration",          "apps.stap_host",
    "apps.stap_mealib",         "apps.cg_mealib",
    "compat.host_path",         "compat.offload_path",
    "dispatch.cost_model",      "dispatch.backend_execute",
    "dispatch.backend_sync",    "session.bind",
    "mealib.evaluate_op_host",  "mealib.evaluate_op_accel",
    "runtime.setup",
};

std::vector<Metric>
layerMetrics(Workload &w, Runner &runner,
             const std::vector<perfbench::Span> &spans,
             std::size_t setups, const std::vector<double> &plain,
             const std::vector<double> &traced, const DispatchTotals &d0,
             const DispatchTotals &d1)
{
    std::vector<Metric> m;
    const double n = static_cast<double>(std::max<std::size_t>(1, traced.size()));
    const auto stats = perfbench::layerStats(spans);
    for (const char *name : kSpanNames) {
        const std::string s = name;
        const double per = s == "runtime.setup"
                               ? static_cast<double>(std::max<std::size_t>(1, setups))
                               : n;
        auto it = stats.find(s);
        const perfbench::LayerStat ls =
            it != stats.end() ? it->second : perfbench::LayerStat{};
        m.push_back({s + ".count", static_cast<double>(ls.count) / per,
                     "count"});
        m.push_back({s + ".total_s", ls.totalS / per, "s"});
        m.push_back({s + ".self_s", ls.selfS / per, "s"});
        if (s == "bench.iteration" || s == "compat.offload_path")
            m.push_back({s + ".p90_s",
                         perfbench::Summary::of(ls.durations).p90, "s"});
    }

    const double calls = (d1.calls - d0.calls) / n;
    const double offloaded = (d1.offloaded - d0.offloaded) / n;
    m.push_back({"dispatch.calls", calls, "count"});
    m.push_back({"dispatch.offloaded", offloaded, "count"});
    m.push_back({"dispatch.fallbacks", (d1.fallbacks - d0.fallbacks) / n,
                 "count"});
    m.push_back({"dispatch.offload_ratio",
                 calls > 0.0 ? offloaded / calls : 0.0, "ratio"});
    m.push_back({"dispatch.bytes_offloaded",
                 (d1.bytesOffloaded - d0.bytesOffloaded) / n, "B"});

    const runtime::RuntimeAccounting &a = runner.referenceAccounting();
    m.push_back({"runtime.modeled_host_s", a.host.seconds, "sim_s"});
    m.push_back({"runtime.modeled_accel_s", a.accel.seconds, "sim_s"});
    m.push_back({"runtime.modeled_invocation_s", a.invocation.seconds,
                 "sim_s"});
    m.push_back({"runtime.makespan_s", a.makespanSeconds, "sim_s"});
    m.push_back({"runtime.flush_bytes_elided",
                 static_cast<double>(a.flushBytesElided), "B"});
    m.push_back({"runtime.handshakes_elided",
                 static_cast<double>(a.handshakesElided), "count"});
    m.push_back({"runtime.fused_programs",
                 static_cast<double>(a.fusedPrograms), "count"});
    m.push_back({"runtime.plan_image_reuses",
                 static_cast<double>(a.planImageReuses), "count"});
    m.push_back({"runtime.retries", static_cast<double>(a.retryCount),
                 "count"});
    m.push_back({"runtime.fallbacks", static_cast<double>(a.fallbackCount),
                 "count"});

    const Outcome &ref = runner.reference();
    auto counter = [&](const char *k) {
        auto it = ref.counters.find(k);
        return it != ref.counters.end() ? it->second : 0.0;
    };
    m.push_back({"apps.cg_executes", counter("apps.cg_executes"), "count"});
    m.push_back({"apps.stap_library_calls",
                 counter("apps.stap_library_calls"), "count"});

    std::map<std::string, double> sess;
    w.takeLayerCounters(sess);
    m.push_back({"session.jain_fairness", sess["session.jain_fairness"],
                 "ratio"});
    m.push_back({"session.ledger_residual", sess["session.ledger_residual"],
                 "ratio"});

    const double p50 = iterStats(plain, 1).p50;
    m.push_back({"trace.overhead_frac",
                 p50 > 0.0 ? iterStats(traced, 1).p50 / p50 - 1.0 : 0.0,
                 "ratio"});
    m.push_back({"trace.iterations", static_cast<double>(traced.size()),
                 "count"});
    m.push_back({"modeled_s", ref.modeled.seconds, "sim_s"});
    m.push_back({"modeled_j", ref.modeled.joules, "J"});
    return m;
}

/** Set up, warm up, measure and (with --trace) trace one workload. */
Report
runWorkload(const Options &opt, const std::string &name,
            const std::map<std::string, Pin> &pins)
{
    std::unique_ptr<Workload> w = makeWorkload(name, opt.seed);
    const bool traced = !opt.traceDir.empty();
    perfbench::SpanRecorder &rec = perfbench::SpanRecorder::instance();

    // Set-up: constructions repeat for 2 s (at least 5), and setup_s is
    // their windowed median. The first constructions run cold: they
    // fault in the arena and take 0.2-0.5 s to settle, which the
    // windowed median leaves out. A set-up shorter than a millisecond
    // is timed in blocks of back-to-back constructions (one sample per
    // block, the block doubling until it takes a millisecond) so the
    // clock's resolution does not dominate.
    const bool quick = opt.smoke || opt.selftest;
    std::vector<double> setupS;
    std::size_t setups = 0;
    rec.enable(traced);
    const auto setupStart = Clock::now();
    const std::size_t minSetups = quick ? 1 : 5;
    const double setupBudget = quick ? 0.0 : 2.0;
    std::size_t block = 1;
    while (setupS.size() < minSetups ||
           secondsSince(setupStart) < setupBudget) {
        double s = 0.0;
        for (std::size_t k = 0; k < block; ++k) {
            w->teardown();
            const auto t0 = Clock::now();
            w->setup();
            s += secondsSince(t0);
        }
        setups += block;
        setupS.push_back(s / static_cast<double>(block));
        if (s < 1e-3)
            block *= 2;
    }
    rec.enable(false);
    std::vector<perfbench::Span> setupSpans = rec.take();

    w->prepareOracle();
    if (opt.selftest)
        w->corruptExpected();

    auto pin = pins.find(name);
    Runner runner(*w, name, pin != pins.end() ? &pin->second : nullptr,
                  opt.seed == kDefaultSeed);
    if (!quick)
        for (int i = 0; i < kWarmupIters; ++i)
            runner.iteration(nullptr);

    const std::size_t maxIters =
        quick ? 2 : std::numeric_limits<std::size_t>::max();
    const double budget = traced ? opt.seconds / 2 : opt.seconds;
    const std::vector<double> plain =
        runner.phase(quick ? 0.0 : budget, quick ? 2 : 1, maxIters);

    Report r;
    const IterStats it = iterStats(plain, w->itemsPerIteration());
    r.endToEnd = {
        {"setup_s", windowedP50(setupS), "s"},
        {"iter_p50_s", it.p50, "s"},
        {"items_per_s", it.itemsPerS, "1/s"},
        {"peak_rss_mib", peakRssMiB(), "MiB"},
    };

    if (traced) {
        std::map<std::string, double> discard;
        w->takeLayerCounters(discard);
        const DispatchTotals d0 = w->dispatchTotals();
        rec.enable(true);
        const std::vector<double> tracedS =
            runner.phase(quick ? 0.0 : budget, quick ? 2 : 1, maxIters);
        rec.enable(false);
        const DispatchTotals d1 = w->dispatchTotals();
        std::vector<perfbench::Span> spans = rec.take();
        spans.insert(spans.begin(), setupSpans.begin(), setupSpans.end());
        r.perLayer = layerMetrics(*w, runner, spans, setups, plain,
                                  tracedS, d0, d1);
        const std::string path = opt.traceDir + "/" + name + ".trace.json";
        if (!perfbench::writeChromeTrace(path, spans, metaJson(opt)))
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
    }
    w->teardown();
    r.attempted = runner.attempted();
    r.failed = runner.failed();
    return r;
}

void
printMetrics(const std::string &workload, const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("%s %s %.9g %s\n", workload.c_str(), m.name.c_str(),
                    m.value, m.unit.c_str());
}

std::string
shellQuote(const std::string &s)
{
    std::string out = "'";
    for (char c : s)
        out += c == '\'' ? std::string("'\\''") : std::string(1, c);
    return out + "'";
}

/** Re-execute this binary once per workload, echoing each child's
 * output and collecting its result line. */
int
runAll(const Options &opt)
{
    char exe[4096];
    const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0) {
        std::fprintf(stderr, "cannot locate /proc/self/exe\n");
        return 2;
    }
    exe[len] = '\0';

    std::vector<std::pair<std::string, std::string>> results;
    std::uint64_t attempted = 0, failed = 0;
    int rc = 0;
    for (const char *name : kWorkloads) {
        std::string cmd = shellQuote(exe) + " --child --workload=" + name +
                          " --seed=" + std::to_string(opt.seed) +
                          " --seconds=" + perfbench::jsonNumber(opt.seconds) +
                          " --threads=" + std::to_string(opt.threads);
        if (!opt.traceDir.empty())
            cmd += " --trace=" + shellQuote(opt.traceDir);
        if (opt.smoke)
            cmd += " --smoke";
        std::fflush(stdout);
        std::FILE *p = popen(cmd.c_str(), "r");
        if (p == nullptr) {
            std::fprintf(stderr, "cannot run %s\n", cmd.c_str());
            return 2;
        }
        std::string line, last;
        char buf[4096];
        while (std::fgets(buf, sizeof(buf), p) != nullptr) {
            line += buf;
            if (line.back() != '\n')
                continue;
            if (line.rfind("{", 0) == 0)
                last = line.substr(0, line.size() - 1);
            else
                std::fputs(line.c_str(), stdout);
            line.clear();
        }
        const int status = pclose(p);
        const int code = WIFEXITED(status) ? WEXITSTATUS(status) : 2;
        rc = std::max(rc, code);
        unsigned long long a = 0, f = 0;
        const auto at = last.find("\"attempted\": ");
        const auto fl = last.find("\"failed\": ");
        if (last.empty() || at == std::string::npos ||
            fl == std::string::npos ||
            std::sscanf(last.c_str() + at, "\"attempted\": %llu", &a) != 1 ||
            std::sscanf(last.c_str() + fl, "\"failed\": %llu", &f) != 1) {
            std::fprintf(stderr, "%s: no result (exit %d)\n", name, code);
            rc = std::max(rc, 1);
            ++failed;
            continue;
        }
        attempted += a;
        failed += f;
        results.push_back({name, last});
    }

    if (!opt.jsonPath.empty() && !writeDocument(opt.jsonPath, opt, results))
        std::fprintf(stderr, "cannot write %s\n", opt.jsonPath.c_str());
    if (!opt.traceDir.empty() &&
        !writeDocument(opt.traceDir + "/layers.json", opt, results))
        std::fprintf(stderr, "cannot write layers.json\n");
    std::string s = std::string("{\"correct\": ") +
                    (failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"workloads\": {";
    for (std::size_t i = 0; i < results.size(); ++i)
        s += (i ? ", " : "") + jsonString(results[i].first) + ": " +
             results[i].second;
    std::printf("%s}}\n", s.c_str());
    return failed > 0 ? std::max(rc, 1) : rc;
}

} // namespace

int
main(int argc, char **argv)
{
    for (char **e = environ; *e != nullptr; ++e)
        if (std::strncmp(*e, "MEALIB_", 7) == 0) {
            std::fprintf(stderr,
                         "perf_e2e: refusing to run with %s set; MEALIB_* "
                         "variables change the program being measured\n",
                         *e);
            return 2;
        }

    // Keep freed memory in the process, so a re-construction reuses the
    // pages of the arena it replaces. setup_s then times the library's
    // set-up work rather than the kernel's first-touch page faults of a
    // 32-64 MiB arena, which cost 10-40 ms and vary with host load.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    Cli cli(argc, argv);
    Options opt;
    opt.smoke = cli.has("smoke");
    opt.selftest = cli.has("selftest");
    opt.child = cli.has("child");
    opt.workload = cli.get("workload", opt.selftest ? "offload_stream" : "all");
    opt.seed = static_cast<std::uint64_t>(cli.getInt("seed", kDefaultSeed));
    opt.seconds = cli.getDouble("seconds", opt.seconds);
    opt.threads = static_cast<int>(cli.getInt("threads", opt.threads));
    opt.traceDir = cli.get("trace", "");
    opt.jsonPath = cli.get("json", "");
    if (!(opt.seconds > 0.0) || opt.threads < 1 ||
        (opt.workload != "all" &&
         std::find(std::begin(kWorkloads), std::end(kWorkloads),
                   opt.workload) == std::end(kWorkloads))) {
        std::fprintf(stderr,
                     "usage: perf_e2e [--workload=NAME|all] [--seed=S] "
                     "[--seconds=T] [--threads=N] [--trace=DIR] "
                     "[--json=PATH] [--smoke] [--selftest]\n"
                     "workloads: stap cg offload_stream tenants "
                     "model_sweep\n");
        return 2;
    }
    kernelTuning().numThreads = opt.threads;
    if (!opt.traceDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(opt.traceDir, ec);
        if (ec) {
            std::fprintf(stderr, "cannot create %s: %s\n",
                         opt.traceDir.c_str(), ec.message().c_str());
            return 2;
        }
    }
    if (opt.workload == "all")
        return runAll(opt);

    const Report r = runWorkload(opt, opt.workload, readPins(PERF_E2E_PINS));
    printMetrics(opt.workload, r.endToEnd);
    printMetrics(opt.workload, r.perLayer);
    std::printf("%s failed_frac %.9g ratio (%llu of %llu operations)\n",
                opt.workload.c_str(),
                static_cast<double>(r.failed) /
                    static_cast<double>(std::max<std::uint64_t>(1, r.attempted)),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.attempted));
    const std::string result =
        resultJson(r, r.perLayer.empty() ? r.endToEnd : r.perLayer);
    const std::vector<std::pair<std::string, std::string>> doc = {
        {opt.workload, result}};
    if (!opt.jsonPath.empty() && !writeDocument(opt.jsonPath, opt, doc))
        std::fprintf(stderr, "cannot write %s\n", opt.jsonPath.c_str());
    if (!opt.child && !opt.traceDir.empty() &&
        !writeDocument(opt.traceDir + "/layers.json", opt, doc))
        std::fprintf(stderr, "cannot write layers.json\n");
    std::printf("%s\n", result.c_str());
    return r.failed == 0 ? 0 : 1;
}

/**
 * @file
 * Measurement helpers for perf_e2e: FNV-1a output digests, sample
 * summaries, and the in-memory span recorder with its Chrome
 * trace-event writer.
 *
 * Spans are recorded only while tracing is switched on; a disabled
 * ScopedSpan costs one relaxed atomic load. Each thread appends to its
 * own buffer, so recording takes no lock; the buffers are collected
 * once the traced phase has ended and no thread is recording.
 */

#ifndef MEALIB_PERFBENCH_HARNESS_HH
#define MEALIB_PERFBENCH_HARNESS_HH

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

// --- output digests ---------------------------------------------------------

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/** FNV-1a over a byte range, for output-identity checks. */
inline std::uint64_t
digestBytes(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** A double with every significant digit, as JSON (null if not finite). */
inline std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

// --- sample summaries -------------------------------------------------------

/** Quantile @p q of ascending @p sorted, interpolating between ranks. */
inline double
quantile(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] +
           (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/** Median, quartiles and p90 of a sample set, with its size. */
struct Summary
{
    std::size_t count = 0;
    double sum = 0.0;
    double p50 = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    double p90 = 0.0;

    static Summary
    of(std::vector<double> xs)
    {
        std::sort(xs.begin(), xs.end());
        Summary s;
        s.count = xs.size();
        for (double x : xs)
            s.sum += x;
        s.p50 = quantile(xs, 0.5);
        s.q1 = quantile(xs, 0.25);
        s.q3 = quantile(xs, 0.75);
        s.p90 = quantile(xs, 0.9);
        return s;
    }
};

/**
 * Median of @p fn over consecutive windows of @p xs: the samples are cut
 * into up to @p windows contiguous windows of at least 5 samples each.
 * A burst of contention from outside the process that covers fewer
 * than half the windows then leaves the result unchanged.
 */
template <typename Fn>
double
windowedMedian(const std::vector<double> &xs, std::size_t windows, Fn fn)
{
    const std::size_t w =
        std::max<std::size_t>(1, std::min(windows, xs.size() / 5));
    std::vector<double> per;
    for (std::size_t i = 0; i < w; ++i) {
        const auto b = xs.begin() + static_cast<std::ptrdiff_t>(i * xs.size() / w);
        const auto e =
            xs.begin() + static_cast<std::ptrdiff_t>((i + 1) * xs.size() / w);
        per.push_back(fn(std::vector<double>(b, e)));
    }
    return Summary::of(per).p50;
}

// --- span recording ---------------------------------------------------------

/** One closed span. Times are nanoseconds since the recorder epoch. */
struct Span
{
    const char *name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0; //!< enclosing span on the same thread; 0: root
    int tid = 0;
    std::uint64_t iter = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

/** Process-wide span store (see the file comment for the threading). */
class SpanRecorder
{
  public:
    /** Per-thread recording state; owned by the recorder. */
    struct ThreadState
    {
        std::vector<Span> spans;
        std::vector<std::uint64_t> open; //!< ids of the open spans
        int tid = 0;
        std::uint64_t iter = 0;
    };

    static SpanRecorder &
    instance()
    {
        static SpanRecorder r;
        return r;
    }

    static bool
    on()
    {
        return instance().on_.load(std::memory_order_relaxed);
    }

    /** Switch recording; call only while no span is open. */
    void enable(bool on) { on_.store(on, std::memory_order_relaxed); }

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    std::uint64_t
    nextId()
    {
        return nextId_.fetch_add(1, std::memory_order_relaxed);
    }

    /** The calling thread's state, created on first use. */
    ThreadState &
    thread()
    {
        thread_local ThreadState *state = nullptr;
        if (state == nullptr) {
            std::lock_guard<std::mutex> lock(mu_);
            threads_.push_back(std::make_unique<ThreadState>());
            state = threads_.back().get();
        }
        return *state;
    }

    /** Move out every recorded span; call only while nothing records. */
    std::vector<Span>
    take()
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<Span> all;
        for (auto &t : threads_) {
            all.insert(all.end(), t->spans.begin(), t->spans.end());
            t->spans.clear();
        }
        std::sort(all.begin(), all.end(),
                  [](const Span &a, const Span &b) {
                      return a.startNs < b.startNs;
                  });
        return all;
    }

  private:
    SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    std::atomic<bool> on_{false};
    std::atomic<std::uint64_t> nextId_{1};
    const std::chrono::steady_clock::time_point epoch_;
    std::mutex mu_; //!< guards threads_ (registration and take())
    std::vector<std::unique_ptr<ThreadState>> threads_;
};

/** Label the calling thread's spans with a trace tid. */
inline void
setTraceTid(int tid)
{
    SpanRecorder::instance().thread().tid = tid;
}

/** Tag the calling thread's next spans with iteration @p iter. */
inline void
setTraceIter(std::uint64_t iter)
{
    SpanRecorder::instance().thread().iter = iter;
}

/** RAII span: open on construction, recorded on destruction. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name) : name_(name)
    {
        if (!SpanRecorder::on())
            return;
        SpanRecorder &r = SpanRecorder::instance();
        state_ = &r.thread();
        id_ = r.nextId();
        parent_ = state_->open.empty() ? 0 : state_->open.back();
        state_->open.push_back(id_);
        startNs_ = r.nowNs();
    }

    ~ScopedSpan()
    {
        if (state_ == nullptr)
            return;
        const std::int64_t end = SpanRecorder::instance().nowNs();
        state_->open.pop_back();
        state_->spans.push_back({name_, id_, parent_, state_->tid,
                                 state_->iter, startNs_, end});
    }

    /** Change the recorded name (e.g. once the call's path is known). */
    void rename(const char *name) { name_ = name; }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *name_;
    SpanRecorder::ThreadState *state_ = nullptr;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::int64_t startNs_ = 0;
};

// --- span analysis ----------------------------------------------------------

/** Aggregate of every span sharing one name. */
struct LayerStat
{
    std::uint64_t count = 0;
    double totalS = 0.0;
    double selfS = 0.0; //!< duration minus the union of child spans
    std::vector<double> durations;
};

/** Per-name count, total and self time of @p spans. */
inline std::map<std::string, LayerStat>
layerStats(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>>
        children(spans.size());
    for (const Span &s : spans) {
        auto it = index.find(s.parent);
        if (it != index.end())
            children[it->second].push_back({s.startNs, s.endNs});
    }

    std::map<std::string, LayerStat> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        std::int64_t covered = 0;
        std::int64_t curB = 0, curE = 0;
        bool open = false;
        for (auto [b, e] : kids) {
            b = std::max(b, s.startNs);
            e = std::min(e, s.endNs);
            if (e <= b)
                continue;
            if (open && b <= curE) {
                curE = std::max(curE, e);
                continue;
            }
            if (open)
                covered += curE - curB;
            curB = b;
            curE = e;
            open = true;
        }
        if (open)
            covered += curE - curB;

        const double dur = static_cast<double>(s.endNs - s.startNs) * 1e-9;
        LayerStat &ls = out[s.name];
        ls.count++;
        ls.totalS += dur;
        ls.selfS += dur - static_cast<double>(covered) * 1e-9;
        ls.durations.push_back(dur);
    }
    return out;
}

/**
 * Write @p spans as a Chrome trace-event file (ph "X", microsecond
 * timestamps, one tid per client thread, args.iter and args.parent on
 * every event). @p metaJson is a JSON object stored as otherData.
 * @return false on I/O failure.
 */
inline bool
writeChromeTrace(const std::string &path, const std::vector<Span> &spans,
                 const std::string &metaJson)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                    " \"traceEvents\": [\n",
                 metaJson.c_str());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const char *dot = s.name;
        while (*dot != '\0' && *dot != '.')
            ++dot;
        std::fprintf(
            f,
            "  {\"name\": \"%s\", \"cat\": \"%.*s\", \"ph\": \"X\", "
            "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
            "\"args\": {\"iter\": %llu, \"id\": %llu, \"parent\": %llu}}%s\n",
            s.name, static_cast<int>(dot - s.name), s.name,
            static_cast<double>(s.startNs) * 1e-3,
            static_cast<double>(s.endNs - s.startNs) * 1e-3, s.tid,
            static_cast<unsigned long long>(s.iter),
            static_cast<unsigned long long>(s.id),
            static_cast<unsigned long long>(s.parent),
            i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench

#endif // MEALIB_PERFBENCH_HARNESS_HH

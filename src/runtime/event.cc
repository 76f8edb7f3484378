#include "runtime/event.hh"

#include "common/logging.hh"

namespace mealib::runtime {

namespace {

using accel::AccelKind;
using accel::Instr;
using accel::LoopSpec;
using accel::OpCall;
using accel::OperandRef;

/** One operand's role in a COMP: its ref, per-iteration footprint in
 * bytes, and whether the accelerator writes it. */
struct OperandSpan
{
    const OperandRef *op;
    std::uint64_t bytes;
    bool write;
};

/** Per-iteration operand footprints of @p c, mirroring the functional
 * executor's accesses (AcceleratorLayer::executeComp). */
std::vector<OperandSpan>
operandSpans(const OpCall &c)
{
    const std::uint64_t es = c.elemBytes();
    // Spans of the BLAS-1 style vectors strided by inc0 / inc1.
    const std::uint64_t x = accel::spanElems(c.n, c.inc0) * es;
    const std::uint64_t y = accel::spanElems(c.n, c.inc1) * es;
    switch (c.kind) {
      case AccelKind::AXPY:
        return {{&c.in0, x, false}, {&c.out, y, true}};
      case AccelKind::DOT:
        return {{&c.in0, x, false}, {&c.in1, y, false}, {&c.out, es, true}};
      case AccelKind::GEMV:
        return {{&c.in0, c.m * c.n * es, false},
                {&c.in1, x, false},
                {&c.out, c.m * es, true}};
      case AccelKind::SPMV:
        return {{&c.in0, (c.m + 1) * 8, false},
                {&c.in1, c.k * 4, false},
                {&c.in2, c.k * 4, false},
                {&c.in3, c.n * 4, false},
                {&c.out, c.m * 4, true}};
      case AccelKind::RESMP:
        return {{&c.in0, c.n * es, false}, {&c.out, c.m * es, true}};
      case AccelKind::FFT: {
        std::uint64_t pts =
            c.n * (c.k > 0 ? c.k : std::uint64_t{1}) * c.m;
        return {{&c.in0, pts * es, false}, {&c.out, pts * es, true}};
      }
      case AccelKind::RESHP:
        return {{&c.in0, c.m * c.n * es, false},
                {&c.out, c.m * c.n * es, true}};
      default:
        panic("operandSpans: bad kind");
    }
}

/** Interval of @p span expanded over @p loop's strides. */
AccessInterval
expand(const OperandSpan &span, const LoopSpec &loop)
{
    std::int64_t min_off = 0, max_off = 0;
    for (unsigned d = 0; d < accel::kMaxLoopDims; ++d) {
        std::int64_t reach =
            span.op->stride[d] *
            (static_cast<std::int64_t>(loop.dims[d]) - 1);
        if (reach > 0)
            max_off += reach;
        else
            min_off += reach;
    }
    AccessInterval iv;
    iv.lo = span.op->base + static_cast<Addr>(min_off);
    iv.hi = span.op->base + static_cast<Addr>(max_off) + span.bytes;
    iv.write = span.write;
    return iv;
}

} // namespace

std::vector<AccessInterval>
accessIntervals(const accel::DescriptorProgram &prog)
{
    std::vector<AccessInterval> out;
    accel::forEachComp(prog, [&](const OpCall &c, const LoopSpec &loop) {
        for (const OperandSpan &span : operandSpans(c))
            if (span.bytes > 0)
                out.push_back(expand(span, loop));
    });
    return out;
}

bool
rerunSafe(const accel::DescriptorProgram &prog)
{
    for (const Instr &in : prog.instrs) {
        if (in.type != Instr::Type::Comp)
            continue;
        const OpCall &c = in.call;
        // Accumulating forms read their own previous output: replaying
        // them doubles the accumulation.
        if (accel::readsOutput(c))
            return false;
        // In-place updates: a write operand overlapping a read operand
        // destroys the input a replay would need.
        const std::vector<OperandSpan> spans = operandSpans(c);
        for (const OperandSpan &w : spans) {
            if (!w.write)
                continue;
            const AccessInterval wiv = expand(w, LoopSpec{});
            for (const OperandSpan &r : spans) {
                if (r.write)
                    continue;
                if (wiv.overlaps(expand(r, LoopSpec{})))
                    return false;
            }
        }
    }
    return true;
}

const char *
name(EventState state)
{
    switch (state) {
      case EventState::Pending:
        return "pending";
      case EventState::Done:
        return "done";
      case EventState::Retried:
        return "retried";
      case EventState::Resumed:
        return "resumed";
      case EventState::FellBack:
        return "fell_back";
      case EventState::TimedOut:
        return "timed_out";
      case EventState::Failed:
        return "failed";
      default:
        panic("name: bad event state");
    }
}

bool
completed(EventState state)
{
    return state == EventState::Done || state == EventState::Retried ||
           state == EventState::Resumed ||
           state == EventState::FellBack;
}

EventState
Event::state() const
{
    fatalIf(!valid(), "Event::state: invalid event");
    return state_->state;
}

const Status &
Event::status() const
{
    fatalIf(!valid(), "Event::status: invalid event");
    return state_->status;
}

unsigned
Event::retries() const
{
    fatalIf(!valid(), "Event::retries: invalid event");
    return state_->stats.retries;
}

unsigned
Event::stack() const
{
    fatalIf(!valid(), "Event::stack: invalid event");
    return state_->stack;
}

double
Event::startSeconds() const
{
    fatalIf(!valid(), "Event::startSeconds: invalid event");
    return state_->startSeconds;
}

double
Event::finishSeconds() const
{
    fatalIf(!valid(), "Event::finishSeconds: invalid event");
    return state_->finishSeconds;
}

const accel::ExecStats &
Event::stats() const
{
    fatalIf(!valid(), "Event::stats: invalid event");
    return state_->stats;
}

} // namespace mealib::runtime

// Tests for the multi-stack shared memory model (paper Sec. 3.3: Local
// vs Remote Memory Stacks).

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/status.hh"
#include "runtime/runtime.hh"

namespace mealib::runtime {
namespace {

using accel::AccelKind;
using accel::DescriptorProgram;
using accel::OpCall;

RuntimeConfig
fourStacks()
{
    RuntimeConfig cfg;
    cfg.backingBytes = 64_MiB;
    cfg.numStacks = 4;
    return cfg;
}

TEST(MultiStack, AllocationsLandOnRequestedStack)
{
    MealibRuntime rt(fourStacks());
    for (unsigned st = 0; st < 4; ++st) {
        void *p = rt.memAllocOn(st, 4096);
        EXPECT_EQ(rt.stackOf(rt.physOf(p)), st);
        rt.memFree(p);
    }
}

TEST(MultiStack, DefaultAllocUsesStackZero)
{
    MealibRuntime rt(fourStacks());
    void *p = rt.memAlloc(4096);
    EXPECT_EQ(rt.stackOf(rt.physOf(p)), 0u);
    rt.memFree(p);
}

TEST(MultiStack, OutOfRangeStackIsFatal)
{
    MealibRuntime rt(fourStacks());
    EXPECT_THROW(rt.memAllocOn(4, 64), FatalError);
}

TEST(MultiStack, StacksHaveIndependentCapacity)
{
    // Exhausting one stack must not affect another.
    RuntimeConfig cfg;
    cfg.backingBytes = 16_MiB;
    cfg.numStacks = 2;
    MealibRuntime rt(cfg);
    void *big = rt.memAllocOn(1, 7_MiB); // nearly fills stack 1
    EXPECT_THROW(rt.memAllocOn(1, 4_MiB), MealibError);
    EXPECT_NO_THROW(rt.memFree(rt.memAllocOn(0, 4_MiB)));
    rt.memFree(big);
}

OpCall
axpyOn(MealibRuntime &rt, float *x, float *y, std::int64_t n)
{
    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = static_cast<std::uint64_t>(n);
    c.alpha = 1.0f;
    c.beta = 1.0f;
    c.in0.base = rt.physOf(x);
    c.out.base = rt.physOf(y);
    return c;
}

TEST(MultiStack, RemoteOperandsCostMore)
{
    MealibRuntime rt(fourStacks());
    const std::int64_t n = 1 << 20;

    // Local: both operands on the home stack (where out lives).
    auto *xl = static_cast<float *>(rt.memAllocOn(1, n * 4));
    auto *yl = static_cast<float *>(rt.memAllocOn(1, n * 4));
    DescriptorProgram local;
    local.addComp(axpyOn(rt, xl, yl, n));
    local.addPassEnd();
    auto hl = rt.accPlan(local);
    accel::ExecStats el = rt.accExecute(hl);
    rt.accDestroy(hl);
    EXPECT_DOUBLE_EQ(el.remoteBytes, 0.0);

    // Remote: the input lives on a different stack than the output.
    auto *xr = static_cast<float *>(rt.memAllocOn(2, n * 4));
    auto *yr = static_cast<float *>(rt.memAllocOn(1, n * 4));
    DescriptorProgram remote;
    remote.addComp(axpyOn(rt, xr, yr, n));
    remote.addPassEnd();
    auto hr = rt.accPlan(remote);
    accel::ExecStats er = rt.accExecute(hr);
    rt.accDestroy(hr);

    EXPECT_GT(er.remoteBytes, 0.0);
    EXPECT_GT(er.total.seconds, el.total.seconds);
    EXPECT_GT(er.total.joules, el.total.joules);
    EXPECT_GT(er.remote.seconds, 0.0);

    rt.memFree(xl);
    rt.memFree(yl);
    rt.memFree(xr);
    rt.memFree(yr);
}

TEST(MultiStack, RemotePenaltyProportionalToRemoteShare)
{
    MealibRuntime rt(fourStacks());
    const std::int64_t n = 1 << 20;
    auto *x = static_cast<float *>(rt.memAllocOn(2, n * 4));
    auto *y = static_cast<float *>(rt.memAllocOn(1, n * 4));

    DescriptorProgram prog;
    prog.addComp(axpyOn(rt, x, y, n));
    prog.addPassEnd();
    auto h = rt.accPlan(prog);
    accel::ExecStats es = rt.accExecute(h);
    rt.accDestroy(h);

    // Only x (1 of 3 traffic shares) is remote: n*4 bytes.
    EXPECT_DOUBLE_EQ(es.remoteBytes, static_cast<double>(n) * 4.0);

    rt.memFree(x);
    rt.memFree(y);
}

TEST(MultiStack, SingleStackHasNoPenalty)
{
    RuntimeConfig cfg;
    cfg.backingBytes = 32_MiB;
    MealibRuntime rt(cfg); // numStacks = 1
    const std::int64_t n = 4096;
    auto *x = static_cast<float *>(rt.memAlloc(n * 4));
    auto *y = static_cast<float *>(rt.memAlloc(n * 4));
    DescriptorProgram prog;
    prog.addComp(axpyOn(rt, x, y, n));
    prog.addPassEnd();
    auto h = rt.accPlan(prog);
    accel::ExecStats es = rt.accExecute(h);
    rt.accDestroy(h);
    EXPECT_DOUBLE_EQ(es.remoteBytes, 0.0);
    EXPECT_DOUBLE_EQ(es.remote.seconds, 0.0);
}

TEST(MultiStack, StackOfBoundaries)
{
    RuntimeConfig cfg = fourStacks(); // 64 MiB over 4 stacks
    MealibRuntime rt(cfg);
    const std::uint64_t span = cfg.backingBytes / cfg.numStacks;

    EXPECT_EQ(rt.stackOf(0), 0u);
    EXPECT_EQ(rt.stackOf(span - 1), 0u);
    EXPECT_EQ(rt.stackOf(span), 1u);
    EXPECT_EQ(rt.stackOf(3 * span), 3u);
    EXPECT_EQ(rt.stackOf(cfg.backingBytes - 1), 3u);
    // Addresses past the arena clamp to the last stack.
    EXPECT_EQ(rt.stackOf(cfg.backingBytes), 3u);
    EXPECT_EQ(rt.stackOf(cfg.backingBytes + span), 3u);
}

TEST(MultiStack, LastStackAllocatesItsFullSpan)
{
    RuntimeConfig cfg = fourStacks();
    MealibRuntime rt(cfg);
    const std::uint64_t span = cfg.backingBytes / cfg.numStacks;
    // Stack 3 carries no command space: its whole span is data.
    void *p = rt.memAllocOn(3, span);
    EXPECT_EQ(rt.stackOf(rt.physOf(p)), 3u);
    EXPECT_EQ(rt.stackOf(rt.physOf(p) + span - 1), 3u);
    rt.memFree(p);
    // Stack 0 gave up kCommandBytes, so the full span must not fit.
    EXPECT_THROW(rt.memAllocOn(0, span), MealibError);
}

TEST(MultiStack, StraddlingOperandClassifiedByBase)
{
    // An operand whose byte range crosses a stack boundary is charged
    // by its base address: remote accounting is per-operand, matching
    // the per-operand placement model of Sec. 3.3.
    RuntimeConfig cfg = fourStacks();
    cfg.functional = false; // synthetic addresses, cost model only
    MealibRuntime rt(cfg);
    const std::uint64_t span = cfg.backingBytes / cfg.numStacks;
    const std::int64_t n = 1 << 16;

    OpCall c;
    c.kind = AccelKind::AXPY;
    c.n = static_cast<std::uint64_t>(n);
    // Input starts on stack 1 but extends into stack 2; output (the
    // home operand) sits fully on stack 1.
    c.in0.base = 2 * span - n * 2;
    c.out.base = span;
    DescriptorProgram prog;
    prog.addComp(c);
    prog.addPassEnd();
    auto h = rt.accPlan(prog);
    accel::ExecStats es = rt.accExecute(h);
    rt.accDestroy(h);
    EXPECT_DOUBLE_EQ(es.remoteBytes, 0.0);

    // Move the input's base itself across the boundary: now its whole
    // traffic is remote.
    c.in0.base = 2 * span;
    DescriptorProgram prog2;
    prog2.addComp(c);
    prog2.addPassEnd();
    auto h2 = rt.accPlan(prog2);
    accel::ExecStats es2 = rt.accExecute(h2);
    rt.accDestroy(h2);
    EXPECT_DOUBLE_EQ(es2.remoteBytes, static_cast<double>(n) * 4.0);
}

TEST(MultiStack, FunctionalResultUnaffectedByPlacement)
{
    MealibRuntime rt(fourStacks());
    const std::int64_t n = 10000;
    auto *x = static_cast<float *>(rt.memAllocOn(3, n * 4));
    auto *y = static_cast<float *>(rt.memAllocOn(0, n * 4));
    for (std::int64_t i = 0; i < n; ++i) {
        x[i] = static_cast<float>(i);
        y[i] = 1.0f;
    }
    DescriptorProgram prog;
    OpCall c = axpyOn(rt, x, y, n);
    c.alpha = 3.0f; // beta stays 1: y := 3x + y
    prog.addComp(c);
    prog.addPassEnd();
    auto h = rt.accPlan(prog);
    rt.accExecute(h);
    rt.accDestroy(h);
    for (std::int64_t i = 0; i < n; ++i)
        ASSERT_FLOAT_EQ(y[i], 3.0f * static_cast<float>(i) + 1.0f);
    rt.memFree(x);
    rt.memFree(y);
}

} // namespace
} // namespace mealib::runtime

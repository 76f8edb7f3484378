// Tests for the accelerator descriptor binary format (CR/IR/PR).

#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "accel/descriptor.hh"
#include "common/logging.hh"
#include "runtime/runtime.hh"

namespace mealib::accel {
namespace {

OpCall
sampleCall(AccelKind kind)
{
    OpCall c;
    c.kind = kind;
    c.n = 4096;
    c.m = kind == AccelKind::GEMV || kind == AccelKind::RESHP ? 128 : 1;
    c.k = kind == AccelKind::SPMV ? 9999 : 0;
    c.inc0 = 2;
    c.inc1 = -3;
    c.alpha = 1.5f;
    c.beta = -0.25f;
    c.complexData = kind == AccelKind::FFT;
    c.conjugate = kind == AccelKind::DOT;
    c.fftDir = 1;
    c.resampleKind = 2;
    c.in0 = {0x1000, {8, 16, 0, -8}};
    c.in1 = {0x2000, {4, 0, 0, 0}};
    c.in2 = {0x3000, {0, 0, 0, 0}};
    c.in3 = {0x4000, {1, 2, 3, 4}};
    c.out = {0x5000, {64, 0, 0, 0}};
    return c;
}

DescriptorProgram
sampleProgram()
{
    DescriptorProgram p;
    LoopSpec loop;
    loop.dims = {128, 4, 1, 1};
    p.addLoop(loop, 3);
    p.addComp(sampleCall(AccelKind::RESHP));
    p.addComp(sampleCall(AccelKind::FFT));
    p.addPassEnd();
    p.addComp(sampleCall(AccelKind::DOT));
    p.addPassEnd();
    return p;
}

TEST(Descriptor, EncodeDecodeRoundTrip)
{
    DescriptorProgram p = sampleProgram();
    std::vector<std::uint8_t> image = encode(p);
    DescriptorProgram q = decode(image.data(), image.size());

    ASSERT_EQ(q.instrs.size(), p.instrs.size());
    for (std::size_t i = 0; i < p.instrs.size(); ++i) {
        const Instr &a = p.instrs[i];
        const Instr &b = q.instrs[i];
        EXPECT_EQ(static_cast<int>(a.type), static_cast<int>(b.type));
        if (a.type == Instr::Type::Loop) {
            EXPECT_EQ(a.loop.dims, b.loop.dims);
            EXPECT_EQ(a.bodyCount, b.bodyCount);
        }
        if (a.type == Instr::Type::Comp) {
            EXPECT_EQ(a.call.kind, b.call.kind);
            EXPECT_EQ(a.call.n, b.call.n);
            EXPECT_EQ(a.call.m, b.call.m);
            EXPECT_EQ(a.call.k, b.call.k);
            EXPECT_EQ(a.call.inc0, b.call.inc0);
            EXPECT_EQ(a.call.inc1, b.call.inc1);
            EXPECT_FLOAT_EQ(a.call.alpha, b.call.alpha);
            EXPECT_FLOAT_EQ(a.call.beta, b.call.beta);
            EXPECT_EQ(a.call.complexData, b.call.complexData);
            EXPECT_EQ(a.call.conjugate, b.call.conjugate);
            EXPECT_EQ(a.call.fftDir, b.call.fftDir);
            EXPECT_EQ(a.call.resampleKind, b.call.resampleKind);
            EXPECT_EQ(a.call.in0.base, b.call.in0.base);
            EXPECT_EQ(a.call.in0.stride, b.call.in0.stride);
            EXPECT_EQ(a.call.in3.stride, b.call.in3.stride);
            EXPECT_EQ(a.call.out.base, b.call.out.base);
        }
    }
}

TEST(Descriptor, EveryProgramFieldReachesTheImage)
{
    // The runtime's plan-image memo treats two programs as one when their
    // images match past the CR command word, so a change to any field a
    // program carries must change those bytes.
    const std::vector<std::uint8_t> base = encode(sampleProgram());
    using Edit = std::function<void(DescriptorProgram &)>;
    std::vector<std::pair<std::string, Edit>> edits;
    auto call = [](DescriptorProgram &p) -> OpCall & {
        return p.instrs[2].call; // the FFT inside the loop body
    };
    edits.emplace_back("kind", [&](DescriptorProgram &p) {
        call(p).kind = AccelKind::RESMP;
    });
    edits.emplace_back("n", [&](DescriptorProgram &p) { call(p).n++; });
    edits.emplace_back("m", [&](DescriptorProgram &p) { call(p).m++; });
    edits.emplace_back("k", [&](DescriptorProgram &p) { call(p).k++; });
    edits.emplace_back("inc0", [&](DescriptorProgram &p) { call(p).inc0++; });
    edits.emplace_back("inc1", [&](DescriptorProgram &p) { call(p).inc1++; });
    edits.emplace_back("alpha", [&](DescriptorProgram &p) {
        call(p).alpha = 2.5f;
    });
    edits.emplace_back("beta", [&](DescriptorProgram &p) {
        call(p).beta = 0.75f;
    });
    edits.emplace_back("complexData", [&](DescriptorProgram &p) {
        call(p).complexData = !call(p).complexData;
    });
    edits.emplace_back("conjugate", [&](DescriptorProgram &p) {
        call(p).conjugate = !call(p).conjugate;
    });
    edits.emplace_back("fftDir", [&](DescriptorProgram &p) {
        call(p).fftDir = -call(p).fftDir;
    });
    edits.emplace_back("resampleKind", [&](DescriptorProgram &p) {
        call(p).resampleKind++;
    });
    const std::pair<const char *, OperandRef OpCall::*> operands[] = {
        {"in0", &OpCall::in0}, {"in1", &OpCall::in1},
        {"in2", &OpCall::in2}, {"in3", &OpCall::in3},
        {"out", &OpCall::out}};
    for (const auto &[name, op] : operands) {
        edits.emplace_back(std::string(name) + ".base",
                           [&, op](DescriptorProgram &p) {
                               (call(p).*op).base += 4;
                           });
        for (unsigned d = 0; d < kMaxLoopDims; ++d)
            edits.emplace_back(std::string(name) + ".stride[" +
                                   std::to_string(d) + "]",
                               [&, op, d](DescriptorProgram &p) {
                                   (call(p).*op).stride[d] += 4;
                               });
    }
    for (unsigned d = 0; d < kMaxLoopDims; ++d)
        edits.emplace_back("loop.dims[" + std::to_string(d) + "]",
                           [d](DescriptorProgram &p) {
                               p.instrs[0].loop.dims[d]++;
                           });
    edits.emplace_back("bodyCount", [](DescriptorProgram &p) {
        p.instrs[0].bodyCount = 5; // both passes instead of the first
    });

    constexpr std::size_t kCmdWord = sizeof(Command);
    for (auto &[what, edit] : edits) {
        DescriptorProgram p = sampleProgram();
        edit(p);
        const std::vector<std::uint8_t> image = encode(p);
        EXPECT_TRUE(image.size() != base.size() ||
                    std::memcmp(image.data() + kCmdWord,
                                base.data() + kCmdWord,
                                base.size() - kCmdWord) != 0)
            << what;
    }
}

TEST(Descriptor, CommandWordReadWrite)
{
    std::vector<std::uint8_t> image = encode(sampleProgram());
    EXPECT_EQ(readCommand(image.data(), image.size()), Command::Idle);
    writeCommand(image.data(), image.size(), Command::Start);
    EXPECT_EQ(readCommand(image.data(), image.size()), Command::Start);
    // Writing the CR must not disturb the program.
    EXPECT_NO_THROW(decode(image.data(), image.size()));
}

TEST(Descriptor, ExpandedCompCountMultipliesLoops)
{
    DescriptorProgram p = sampleProgram();
    // Loop covers 2 comps x (128*4) iterations, plus 1 bare comp.
    EXPECT_EQ(p.expandedCompCount(), 2u * 512u + 1u);
}

TEST(Descriptor, EmptyProgramIsFatal)
{
    DescriptorProgram p;
    EXPECT_THROW(encode(p), FatalError);
}

TEST(Descriptor, MissingPassEndIsFatal)
{
    DescriptorProgram p;
    p.addComp(sampleCall(AccelKind::AXPY));
    EXPECT_THROW(encode(p), FatalError);
}

TEST(Descriptor, LoopBodyOverrunIsFatal)
{
    DescriptorProgram p;
    LoopSpec loop;
    p.addLoop(loop, 5); // body claims 5 instrs but only 2 follow
    p.addComp(sampleCall(AccelKind::AXPY));
    p.addPassEnd();
    EXPECT_THROW(encode(p), FatalError);
}

TEST(Descriptor, NestedLoopIsFatal)
{
    DescriptorProgram p;
    LoopSpec loop;
    p.addLoop(loop, 3);
    p.addLoop(loop, 1);
    p.addComp(sampleCall(AccelKind::AXPY));
    p.addPassEnd();
    EXPECT_THROW(encode(p), FatalError);
}

/** LOOP(4, body 1) COMP COMP PASS_END: the body ends inside a pass. */
DescriptorProgram
loopEndsInsidePass()
{
    DescriptorProgram p;
    LoopSpec loop;
    loop.dims = {4, 1, 1, 1};
    p.addLoop(loop, 1);
    p.addComp(sampleCall(AccelKind::AXPY));
    p.addComp(sampleCall(AccelKind::AXPY));
    p.addPassEnd();
    return p;
}

/** COMP LOOP COMP PASS_END: the LOOP head opens inside a pass. */
DescriptorProgram
loopInsideOpenPass()
{
    DescriptorProgram p;
    p.addComp(sampleCall(AccelKind::AXPY));
    p.addLoop(LoopSpec{}, 2);
    p.addComp(sampleCall(AccelKind::AXPY));
    p.addPassEnd();
    return p;
}

TEST(Descriptor, LoopMustRepeatWholePasses)
{
    for (const DescriptorProgram &p :
         {loopEndsInsidePass(), loopInsideOpenPass()}) {
        EXPECT_THROW(p.validate(), FatalError);
        EXPECT_THROW(encode(p), FatalError);
    }
}

TEST(Descriptor, MalformedLoopFailsAtAccPlan)
{
    runtime::RuntimeConfig cfg;
    cfg.backingBytes = 16_MiB;
    runtime::MealibRuntime rt(cfg);
    runtime::MealibRuntime fresh(cfg);
    EXPECT_THROW(rt.accPlan(loopEndsInsidePass()), FatalError);
    EXPECT_THROW(rt.accPlan(loopInsideOpenPass()), FatalError);
    // Nothing was registered: the next plan gets a fresh runtime's
    // first handle.
    DescriptorProgram ok;
    ok.addComp(sampleCall(AccelKind::AXPY));
    ok.addPassEnd();
    EXPECT_EQ(rt.accPlan(ok), fresh.accPlan(ok));
}

TEST(Descriptor, ForEachPassRepeatsWholePasses)
{
    // LOOP(3, body 5) {AXPY DOT} {FFT} ; {} ; {GEMV}
    DescriptorProgram p;
    LoopSpec loop;
    loop.dims = {3, 1, 1, 1};
    p.addLoop(loop, 5);
    p.addComp(sampleCall(AccelKind::AXPY));
    p.addComp(sampleCall(AccelKind::DOT));
    p.addPassEnd();
    p.addComp(sampleCall(AccelKind::FFT));
    p.addPassEnd();
    p.addPassEnd();
    p.addComp(sampleCall(AccelKind::GEMV));
    p.addPassEnd();
    p.validate();

    std::vector<std::pair<std::size_t, std::uint64_t>> passes;
    forEachPass(p, [&](std::span<const Instr> comps, const LoopSpec &l) {
        passes.emplace_back(comps.size(), l.iterations());
    });
    using Pass = std::pair<std::size_t, std::uint64_t>;
    EXPECT_EQ(passes, (std::vector<Pass>{{2, 3}, {1, 3}, {1, 1}}));

    std::vector<AccelKind> kinds;
    forEachComp(p, [&](const OpCall &c, const LoopSpec &) {
        kinds.push_back(c.kind);
    });
    EXPECT_EQ(kinds, (std::vector<AccelKind>{AccelKind::AXPY,
                                             AccelKind::DOT,
                                             AccelKind::FFT,
                                             AccelKind::GEMV}));
    EXPECT_EQ(p.expandedCompCount(), 3u * 3u + 1u);
}

TEST(Descriptor, TruncatedImageIsFatal)
{
    std::vector<std::uint8_t> image = encode(sampleProgram());
    EXPECT_THROW(decode(image.data(), image.size() / 2), FatalError);
    EXPECT_THROW(decode(image.data(), 8), FatalError);
}

TEST(Descriptor, CorruptOpcodeIsFatal)
{
    std::vector<std::uint8_t> image = encode(sampleProgram());
    image[kCrBytes] = 0x7f; // first IR instruction's opcode byte
    EXPECT_THROW(decode(image.data(), image.size()), FatalError);
}

TEST(Operand, StrideAddressing)
{
    OperandRef op{1000, {8, 100, 0, -4}};
    EXPECT_EQ(op.at({0, 0, 0, 0}), 1000u);
    EXPECT_EQ(op.at({2, 1, 0, 0}), 1000u + 16 + 100);
    EXPECT_EQ(op.at({0, 0, 0, 3}), 1000u - 12);
}

TEST(LoopSpec, IterationProduct)
{
    LoopSpec l;
    EXPECT_EQ(l.iterations(), 1u);
    l.dims = {4, 8, 2, 1};
    EXPECT_EQ(l.iterations(), 64u);
}

} // namespace
} // namespace mealib::accel

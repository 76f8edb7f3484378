// Tests for the Task Description Language: lexing, parsing, parameter
// files, codegen to descriptors, and formatting round-trips.

#include <map>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "tdl/codegen.hh"
#include "tdl/lexer.hh"
#include "tdl/params.hh"
#include "tdl/parser.hh"

namespace mealib::tdl {
namespace {

const char *kStapTdl = R"(
# Listing-1 style program: data copy + FFT chained, then batched dots.
PASS(in=0x100000, out=0x500000) {
  COMP(acc=RESHP, params="reshape.para")
  COMP(acc=FFT, params="fft.para")
}
LOOP(dims="64x16x4x1") {
  PASS(in=0x900000, out=0xa00000) {
    COMP(acc=DOT, params="dot.para")
  }
}
)";

ParamResolver
stapResolver()
{
    static const std::map<std::string, std::string> files = {
        {"reshape.para",
         "m = 128\nn = 256\ncomplex = true\n"
         "in0 = 0x100000\nout = 0x300000\n"},
        {"fft.para",
         "n = 128\nm = 256\ncomplex = true\ndir = -1\n"
         "in0 = 0x300000\nout = 0x500000\n"},
        {"dot.para",
         "n = 32\ncomplex = true\nconj = true\n"
         "in0 = 0x900000\nin0.stride = 256, 0, 0, 0\n"
         "in1 = 0x980000\nin1.stride = 0, 1024, 64, 0\n"
         "out = 0xa00000\nout.stride = 8, 512, 32, 0\n"},
    };
    return [](const std::string &name) {
        auto it = files.find(name);
        fatalIf(it == files.end(), "missing param file ", name);
        return it->second;
    };
}

TEST(Lexer, TokenizesAllKinds)
{
    auto toks = lex("LOOP(count=128) { } # comment\n\"str\" 0x10 -3 2.5");
    ASSERT_GE(toks.size(), 11u);
    EXPECT_EQ(toks[0].kind, TokKind::Ident);
    EXPECT_EQ(toks[0].text, "LOOP");
    EXPECT_EQ(toks[1].kind, TokKind::LParen);
    EXPECT_EQ(toks[3].kind, TokKind::Equals);
    EXPECT_EQ(toks[4].kind, TokKind::Int);
    EXPECT_EQ(toks[4].intVal, 128);
    EXPECT_EQ(toks[8].kind, TokKind::String);
    EXPECT_EQ(toks[8].text, "str");
    EXPECT_EQ(toks[9].intVal, 16);
    EXPECT_EQ(toks[10].intVal, -3);
    EXPECT_DOUBLE_EQ(toks[11].floatVal, 2.5);
}

TEST(Lexer, TracksLineNumbers)
{
    auto toks = lex("a\nb\n  c");
    EXPECT_EQ(toks[0].line, 1u);
    EXPECT_EQ(toks[1].line, 2u);
    EXPECT_EQ(toks[2].line, 3u);
    EXPECT_EQ(toks[2].col, 3u);
}

TEST(Lexer, UnterminatedStringIsFatal)
{
    EXPECT_THROW(lex("\"oops"), FatalError);
}

TEST(Lexer, BadCharacterIsFatal)
{
    EXPECT_THROW(lex("@"), FatalError);
}

TEST(Parser, ParsesStapProgram)
{
    TdlProgram p = parse(kStapTdl);
    ASSERT_EQ(p.items.size(), 2u);
    EXPECT_FALSE(p.items[0].isLoop);
    EXPECT_EQ(p.items[0].pass.comps.size(), 2u);
    EXPECT_EQ(p.items[0].pass.comps[0].acc, "RESHP");
    EXPECT_EQ(p.items[0].pass.inAddr, 0x100000u);
    EXPECT_TRUE(p.items[1].isLoop);
    EXPECT_EQ(p.items[1].loop.loop.dims[0], 64u);
    EXPECT_EQ(p.items[1].loop.loop.dims[2], 4u);
    EXPECT_EQ(p.items[1].loop.loop.iterations(), 64u * 16 * 4);
}

TEST(Parser, CountAttrSetsFirstDim)
{
    TdlProgram p = parse(
        "LOOP(count=7) { PASS { COMP(acc=FFT, params=\"f\") } }");
    EXPECT_EQ(p.items[0].loop.loop.dims[0], 7u);
    EXPECT_EQ(p.items[0].loop.loop.iterations(), 7u);
}

TEST(Parser, RejectsEmptyProgram)
{
    EXPECT_THROW(parse(""), FatalError);
    EXPECT_THROW(parse("# only a comment\n"), FatalError);
}

TEST(Parser, RejectsCompOutsidePass)
{
    EXPECT_THROW(parse("COMP(acc=FFT, params=\"x\")"), FatalError);
}

TEST(Parser, RejectsEmptyPass)
{
    EXPECT_THROW(parse("PASS { }"), FatalError);
}

TEST(Parser, RejectsLoopWithoutCount)
{
    EXPECT_THROW(
        parse("LOOP() { PASS { COMP(acc=FFT, params=\"x\") } }"),
        FatalError);
}

TEST(Parser, RejectsTooManyDims)
{
    EXPECT_THROW(parse("LOOP(dims=\"2x2x2x2x2\") { PASS { "
                       "COMP(acc=FFT, params=\"x\") } }"),
                 FatalError);
}

TEST(Params, KindNamesResolve)
{
    EXPECT_EQ(kindFromName("FFT"), accel::AccelKind::FFT);
    EXPECT_EQ(kindFromName("fft"), accel::AccelKind::FFT);
    EXPECT_EQ(kindFromName("reshape"), accel::AccelKind::RESHP);
    EXPECT_THROW(kindFromName("GEMM"), FatalError);
}

TEST(Params, ParsesFullOpCall)
{
    std::string text =
        "n = 32\ncomplex = true\nconj = true\nalpha = 2.5\n"
        "in0 = 0x900000\nin0.stride = 256, 0, 0, 0\n"
        "out = 0xa00000\n";
    accel::OpCall c = parseParams(accel::AccelKind::DOT, text);
    EXPECT_EQ(c.n, 32u);
    EXPECT_TRUE(c.complexData);
    EXPECT_TRUE(c.conjugate);
    EXPECT_FLOAT_EQ(c.alpha, 2.5f);
    EXPECT_EQ(c.in0.base, 0x900000u);
    EXPECT_EQ(c.in0.stride[0], 256);
    EXPECT_EQ(c.out.base, 0xa00000u);
}

TEST(Params, UnknownKeyIsFatal)
{
    EXPECT_THROW(parseParams(accel::AccelKind::AXPY, "n = 4\nbogus = 1\n"),
                 FatalError);
}

TEST(Params, FftValidationRejectsNonPow2)
{
    EXPECT_THROW(
        parseParams(accel::AccelKind::FFT, "n = 100\ncomplex = true\n"),
        FatalError);
    EXPECT_THROW(parseParams(accel::AccelKind::FFT, "n = 128\n"),
                 FatalError); // missing complex
}

TEST(Params, FormatParseRoundTrip)
{
    accel::OpCall c;
    c.kind = accel::AccelKind::FFT;
    c.n = 256;
    c.m = 128;
    c.complexData = true;
    c.fftDir = 1;
    c.in0 = {0x1000, {2048, 0, 0, 0}};
    c.out = {0x2000, {2048, 0, 0, 0}};
    accel::OpCall d = parseParams(c.kind, formatParams(c));
    EXPECT_EQ(d.n, c.n);
    EXPECT_EQ(d.m, c.m);
    EXPECT_EQ(d.fftDir, c.fftDir);
    EXPECT_EQ(d.in0.base, c.in0.base);
    EXPECT_EQ(d.in0.stride, c.in0.stride);
}

TEST(Codegen, StapProgramBecomesDescriptor)
{
    accel::DescriptorProgram d = compileTdl(kStapTdl, stapResolver());
    // PASS(2 comps) + PASS_END + LOOP + COMP + PASS_END = 6 instrs.
    ASSERT_EQ(d.instrs.size(), 6u);
    EXPECT_EQ(d.instrs[0].type, accel::Instr::Type::Comp);
    EXPECT_EQ(d.instrs[0].call.kind, accel::AccelKind::RESHP);
    EXPECT_EQ(d.instrs[1].call.kind, accel::AccelKind::FFT);
    EXPECT_EQ(d.instrs[2].type, accel::Instr::Type::PassEnd);
    EXPECT_EQ(d.instrs[3].type, accel::Instr::Type::Loop);
    EXPECT_EQ(d.instrs[3].loop.iterations(), 64u * 16 * 4);
    EXPECT_EQ(d.instrs[4].call.kind, accel::AccelKind::DOT);
    // 2 chained comps once + 1 dot comp x 4096 iterations.
    EXPECT_EQ(d.expandedCompCount(), 2u + 64u * 16 * 4);
}

TEST(Codegen, MissingParamsFileIsFatal)
{
    EXPECT_THROW(
        compileTdl("PASS { COMP(acc=FFT) }",
                   [](const std::string &) { return std::string(); }),
        FatalError);
}

TEST(Codegen, EncodesAndDecodes)
{
    accel::DescriptorProgram d = compileTdl(kStapTdl, stapResolver());
    auto image = accel::encode(d);
    accel::DescriptorProgram back =
        accel::decode(image.data(), image.size());
    EXPECT_EQ(back.instrs.size(), d.instrs.size());
    EXPECT_EQ(back.expandedCompCount(), d.expandedCompCount());
}

} // namespace
} // namespace mealib::tdl

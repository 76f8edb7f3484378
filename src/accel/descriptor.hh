/**
 * @file
 * The accelerator descriptor (paper Sec. 2.3): a physically contiguous
 * memory image with three regions —
 *
 *   Control Region (CR):    command word (START/DONE) + instruction count
 *   Instruction Region (IR): COMP / PASS_END / LOOP instructions
 *   Parameter Region (PR):  serialized per-invocation parameters
 *
 * The host builds this image in the command space and writes START; the
 * configuration unit (FetchUnit/IMEM/DecodeUnit, Fig. 5) then parses and
 * executes it. DescriptorProgram is the in-memory form; encode()/decode()
 * convert to/from the binary image.
 */

#ifndef MEALIB_ACCEL_DESCRIPTOR_HH
#define MEALIB_ACCEL_DESCRIPTOR_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "accel/ops.hh"

namespace mealib::accel {

/** CR command values. */
enum class Command : std::uint64_t
{
    Idle = 0,
    Start = 1,
    Done = 2,
};

/** Instruction opcodes beyond the accelerator kinds. */
inline constexpr std::uint8_t kOpcodePassEnd = 0x10;
inline constexpr std::uint8_t kOpcodeLoop = 0x11;

/** One IR instruction in decoded form. */
struct Instr
{
    enum class Type
    {
        Comp,    //!< invoke one accelerator
        PassEnd, //!< end of a PASS (datapath boundary)
        Loop,    //!< repeat the following @c bodyCount instructions
    };

    Type type = Type::Comp;
    OpCall call;               //!< valid for Comp
    LoopSpec loop;             //!< valid for Loop
    std::uint32_t bodyCount = 0; //!< valid for Loop: instrs in the body
};

/** A full accelerator program (decoded descriptor). */
struct DescriptorProgram
{
    std::vector<Instr> instrs;

    /** Append a COMP instruction. */
    void
    addComp(const OpCall &call)
    {
        Instr i;
        i.type = Instr::Type::Comp;
        i.call = call;
        instrs.push_back(i);
    }

    /** Append a PASS_END marker. */
    void
    addPassEnd()
    {
        Instr i;
        i.type = Instr::Type::PassEnd;
        instrs.push_back(i);
    }

    /** Append a LOOP head covering the next @p bodyCount instructions. */
    void
    addLoop(const LoopSpec &loop, std::uint32_t bodyCount)
    {
        Instr i;
        i.type = Instr::Type::Loop;
        i.loop = loop;
        i.bodyCount = bodyCount;
        instrs.push_back(i);
    }

    /**
     * fatal() if the program is structurally invalid. A valid program
     * is a sequence of PASSes (COMPs closed by a PASS_END). A LOOP
     * head sits between passes and its body is one or more whole
     * passes, so it ends with a PASS_END; loops do not nest.
     */
    void validate() const;

    /** Number of accelerator invocations including loop expansion. */
    std::uint64_t expandedCompCount() const;
};

/**
 * Visit every non-empty PASS of @p prog in program order:
 * @p fn(comps, loop) gets the pass's COMP instructions and the LOOP
 * that repeats the whole pass (a unit loop outside LOOP bodies). This
 * is the one reading of the structure validate() defines; @p prog must
 * pass validate().
 */
template <typename Fn>
void
forEachPass(const DescriptorProgram &prog, Fn &&fn)
{
    const std::span<const Instr> instrs(prog.instrs);
    LoopSpec loop;
    std::size_t loopEnd = 0; // one past the active LOOP body
    std::size_t first = 0;   // first instruction of the open pass
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        if (instrs[i].type == Instr::Type::Loop) {
            loop = instrs[i].loop;
            loopEnd = i + 1 + instrs[i].bodyCount;
            first = i + 1;
        } else if (instrs[i].type == Instr::Type::PassEnd) {
            if (i > first)
                fn(instrs.subspan(first, i - first), std::as_const(loop));
            first = i + 1;
            if (first == loopEnd)
                loop = LoopSpec{};
        }
    }
}

/** Visit every COMP of @p prog with the LOOP of its pass. */
template <typename Fn>
void
forEachComp(const DescriptorProgram &prog, Fn &&fn)
{
    forEachPass(prog, [&](std::span<const Instr> comps,
                          const LoopSpec &loop) {
        for (const Instr &c : comps)
            fn(c.call, loop);
    });
}

/** Byte offsets of the binary image. */
inline constexpr std::uint64_t kCrBytes = 32;
inline constexpr std::uint64_t kInstrBytes = 32;

/** Serialize @p prog into a descriptor image (CR command = Idle). */
std::vector<std::uint8_t> encode(const DescriptorProgram &prog);

/** Parse a descriptor image; fatal() on malformed input. */
DescriptorProgram decode(const std::uint8_t *data, std::size_t size);

/** Read/write the CR command word of an encoded image. */
Command readCommand(const std::uint8_t *image, std::size_t size);
void writeCommand(std::uint8_t *image, std::size_t size, Command cmd);

} // namespace mealib::accel

#endif // MEALIB_ACCEL_DESCRIPTOR_HH

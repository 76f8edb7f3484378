#include "accel/descriptor.hh"

#include <cstring>

#include "common/logging.hh"

namespace mealib::accel {

namespace {

/** Little-endian byte writer for the PR. */
class Writer
{
  public:
    explicit Writer(std::vector<std::uint8_t> &buf) : buf_(buf) {}

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    void
    i64(std::int64_t v)
    {
        u64(static_cast<std::uint64_t>(v));
    }

    void
    f32(float v)
    {
        std::uint32_t bits;
        std::memcpy(&bits, &v, 4);
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));
    }

  private:
    std::vector<std::uint8_t> &buf_;
};

/** Little-endian byte reader for the PR. */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    std::uint64_t
    u64()
    {
        fatalIf(pos_ + 8 > size_, "descriptor: truncated parameter block");
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 8;
        return v;
    }

    std::int64_t
    i64()
    {
        return static_cast<std::int64_t>(u64());
    }

    float
    f32()
    {
        fatalIf(pos_ + 4 > size_, "descriptor: truncated parameter block");
        std::uint32_t bits = 0;
        for (int i = 0; i < 4; ++i)
            bits |= static_cast<std::uint32_t>(data_[pos_ + i]) << (8 * i);
        pos_ += 4;
        float v;
        std::memcpy(&v, &bits, 4);
        return v;
    }

    std::size_t pos() const { return pos_; }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

void
writeOperand(Writer &w, const OperandRef &o)
{
    w.u64(o.base);
    for (unsigned d = 0; d < kMaxLoopDims; ++d)
        w.i64(o.stride[d]);
}

OperandRef
readOperand(Reader &r)
{
    OperandRef o;
    o.base = r.u64();
    for (unsigned d = 0; d < kMaxLoopDims; ++d)
        o.stride[d] = r.i64();
    return o;
}

void
writeCall(Writer &w, const OpCall &c)
{
    w.u64(static_cast<std::uint64_t>(c.kind));
    w.u64(c.n);
    w.u64(c.m);
    w.u64(c.k);
    w.i64(c.inc0);
    w.i64(c.inc1);
    w.f32(c.alpha);
    w.f32(c.beta);
    w.u64((c.complexData ? 1u : 0u) | (c.conjugate ? 2u : 0u));
    w.i64(c.fftDir);
    w.u64(c.resampleKind);
    writeOperand(w, c.in0);
    writeOperand(w, c.in1);
    writeOperand(w, c.in2);
    writeOperand(w, c.in3);
    writeOperand(w, c.out);
}

OpCall
readCall(Reader &r)
{
    OpCall c;
    std::uint64_t kind = r.u64();
    fatalIf(kind >= static_cast<std::uint64_t>(AccelKind::kCount),
            "descriptor: bad accelerator opcode ", kind);
    c.kind = static_cast<AccelKind>(kind);
    c.n = r.u64();
    c.m = r.u64();
    c.k = r.u64();
    c.inc0 = r.i64();
    c.inc1 = r.i64();
    c.alpha = r.f32();
    c.beta = r.f32();
    std::uint64_t flags = r.u64();
    c.complexData = (flags & 1u) != 0;
    c.conjugate = (flags & 2u) != 0;
    c.fftDir = static_cast<std::int32_t>(r.i64());
    c.resampleKind = static_cast<std::uint32_t>(r.u64());
    c.in0 = readOperand(r);
    c.in1 = readOperand(r);
    c.in2 = readOperand(r);
    c.in3 = readOperand(r);
    c.out = readOperand(r);
    return c;
}

void
writeLoop(Writer &w, const LoopSpec &l)
{
    for (unsigned d = 0; d < kMaxLoopDims; ++d)
        w.u64(l.dims[d]);
}

LoopSpec
readLoop(Reader &r)
{
    LoopSpec l;
    for (unsigned d = 0; d < kMaxLoopDims; ++d) {
        std::uint64_t v = r.u64();
        fatalIf(v == 0 || v > 0xffffffffull,
                "descriptor: bad loop extent ", v);
        l.dims[d] = static_cast<std::uint32_t>(v);
    }
    return l;
}

void
putU64(std::vector<std::uint8_t> &buf, std::size_t off, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf[off + static_cast<std::size_t>(i)] =
            static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t
getU64(const std::uint8_t *data, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(data[off + static_cast<
                 std::size_t>(i)]) << (8 * i);
    return v;
}

} // namespace

void
DescriptorProgram::validate() const
{
    fatalIf(instrs.empty(), "descriptor: empty program");
    std::size_t passStart = 0; // first instruction of the open pass
    std::size_t loopEnd = 0;   // one past the active LOOP body
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        const Instr &in = instrs[i];
        if (in.type == Instr::Type::PassEnd)
            passStart = i + 1;
        if (in.type != Instr::Type::Loop)
            continue;
        fatalIf(in.bodyCount == 0, "descriptor: empty LOOP body");
        fatalIf(i + in.bodyCount >= instrs.size(),
                "descriptor: LOOP body exceeds program");
        // Nested loops are not supported by the decode unit; the
        // multi-dimensional LoopSpec covers nests instead.
        fatalIf(i < loopEnd, "descriptor: nested LOOP blocks not supported");
        // A LOOP repeats whole passes: its head sits between passes and
        // its body closes the last pass it covers.
        fatalIf(i != passStart, "descriptor: LOOP inside an open PASS");
        fatalIf(instrs[i + in.bodyCount].type != Instr::Type::PassEnd,
                "descriptor: LOOP body must end with PASS_END");
        loopEnd = i + 1 + in.bodyCount;
        passStart = i + 1;
    }
    fatalIf(instrs.back().type != Instr::Type::PassEnd,
            "descriptor: program must end with PASS_END");
}

std::uint64_t
DescriptorProgram::expandedCompCount() const
{
    std::uint64_t count = 0;
    forEachPass(*this, [&](std::span<const Instr> comps,
                           const LoopSpec &loop) {
        count += comps.size() * loop.iterations();
    });
    return count;
}

std::vector<std::uint8_t>
encode(const DescriptorProgram &prog)
{
    prog.validate();

    const std::uint64_t n = prog.instrs.size();
    const std::uint64_t ir_off = kCrBytes;
    const std::uint64_t pr_off = ir_off + n * kInstrBytes;

    // Build the PR first, recording each instruction's parameter slice.
    std::vector<std::uint8_t> pr;
    struct Slot
    {
        std::uint64_t off;
        std::uint64_t size;
    };
    std::vector<Slot> slots;
    for (const Instr &in : prog.instrs) {
        std::uint64_t start = pr.size();
        Writer w(pr);
        if (in.type == Instr::Type::Comp)
            writeCall(w, in.call);
        else if (in.type == Instr::Type::Loop)
            writeLoop(w, in.loop);
        slots.push_back({start, pr.size() - start});
    }

    std::vector<std::uint8_t> image(pr_off + pr.size(), 0);
    putU64(image, 0, static_cast<std::uint64_t>(Command::Idle));
    putU64(image, 8, n);
    putU64(image, 16, ir_off);
    putU64(image, 24, pr_off);

    for (std::uint64_t i = 0; i < n; ++i) {
        const Instr &in = prog.instrs[static_cast<std::size_t>(i)];
        std::uint64_t base = ir_off + i * kInstrBytes;
        std::uint8_t opcode;
        switch (in.type) {
          case Instr::Type::Comp:
            opcode = static_cast<std::uint8_t>(in.call.kind);
            break;
          case Instr::Type::PassEnd:
            opcode = kOpcodePassEnd;
            break;
          case Instr::Type::Loop:
            opcode = kOpcodeLoop;
            break;
          default:
            panic("encode: bad instruction type");
        }
        putU64(image, base, opcode);
        putU64(image, base + 8,
               pr_off + slots[static_cast<std::size_t>(i)].off);
        putU64(image, base + 16, slots[static_cast<std::size_t>(i)].size);
        putU64(image, base + 24, in.bodyCount);
    }
    std::memcpy(image.data() + pr_off, pr.data(), pr.size());
    return image;
}

DescriptorProgram
decode(const std::uint8_t *data, std::size_t size)
{
    fatalIf(data == nullptr || size < kCrBytes,
            "descriptor: image too small");
    std::uint64_t n = getU64(data, 8);
    std::uint64_t ir_off = getU64(data, 16);
    std::uint64_t pr_off = getU64(data, 24);
    fatalIf(ir_off + n * kInstrBytes > size,
            "descriptor: IR exceeds image");
    fatalIf(pr_off > size, "descriptor: PR offset exceeds image");

    DescriptorProgram prog;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t base = ir_off + i * kInstrBytes;
        std::uint64_t opcode = getU64(data, base);
        std::uint64_t paddr = getU64(data, base + 8);
        std::uint64_t psize = getU64(data, base + 16);
        std::uint64_t aux = getU64(data, base + 24);
        fatalIf(paddr + psize > size,
                "descriptor: parameter block exceeds image");

        Instr in;
        if (opcode < static_cast<std::uint64_t>(AccelKind::kCount)) {
            in.type = Instr::Type::Comp;
            Reader r(data + paddr, psize);
            in.call = readCall(r);
            fatalIf(static_cast<std::uint64_t>(in.call.kind) != opcode,
                    "descriptor: opcode/parameter kind mismatch");
        } else if (opcode == kOpcodePassEnd) {
            in.type = Instr::Type::PassEnd;
        } else if (opcode == kOpcodeLoop) {
            in.type = Instr::Type::Loop;
            Reader r(data + paddr, psize);
            in.loop = readLoop(r);
            in.bodyCount = static_cast<std::uint32_t>(aux);
        } else {
            fatal("descriptor: unknown opcode ", opcode);
        }
        prog.instrs.push_back(in);
    }
    prog.validate();
    return prog;
}

Command
readCommand(const std::uint8_t *image, std::size_t size)
{
    fatalIf(size < kCrBytes, "descriptor: image too small");
    return static_cast<Command>(getU64(image, 0));
}

void
writeCommand(std::uint8_t *image, std::size_t size, Command cmd)
{
    fatalIf(size < kCrBytes, "descriptor: image too small");
    for (int i = 0; i < 8; ++i)
        image[i] = static_cast<std::uint8_t>(
            static_cast<std::uint64_t>(cmd) >> (8 * i));
}

} // namespace mealib::accel

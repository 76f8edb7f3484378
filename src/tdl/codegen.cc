#include "tdl/codegen.hh"

#include "common/logging.hh"
#include "tdl/params.hh"
#include "tdl/parser.hh"

namespace mealib::tdl {

namespace {

void
emitPass(const TdlPass &pass, const ParamResolver &resolve,
         accel::DescriptorProgram &out)
{
    for (const TdlComp &comp : pass.comps) {
        accel::AccelKind kind = kindFromName(comp.acc);
        fatalIf(comp.paramsFile.empty(), "tdl codegen: COMP acc=",
                comp.acc, " has no params file");
        std::string text = resolve(comp.paramsFile);
        out.addComp(parseParams(kind, text));
    }
    out.addPassEnd();
}

} // namespace

accel::DescriptorProgram
codegen(const TdlProgram &prog, const ParamResolver &resolve)
{
    fatalIf(!resolve, "tdl codegen: null parameter resolver");
    accel::DescriptorProgram out;
    for (const TdlItem &item : prog.items) {
        if (item.isLoop) {
            // Count the body instructions (comps + pass-end markers).
            std::uint32_t body = 0;
            for (const TdlPass &p : item.loop.passes)
                body += static_cast<std::uint32_t>(p.comps.size()) + 1;
            out.addLoop(item.loop.loop, body);
            for (const TdlPass &p : item.loop.passes)
                emitPass(p, resolve, out);
        } else {
            emitPass(item.pass, resolve, out);
        }
    }
    out.validate();
    return out;
}

accel::DescriptorProgram
compileTdl(const std::string &source, const ParamResolver &resolve)
{
    return codegen(parse(source), resolve);
}

} // namespace mealib::tdl

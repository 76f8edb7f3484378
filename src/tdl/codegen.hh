/**
 * @file
 * TDL-to-descriptor compilation: the step mealib_acc_plan performs when
 * it receives a TDL string plus parameter files from the source-to-
 * source compiler (paper Listing 2 / Sec. 3.4).
 */

#ifndef MEALIB_TDL_CODEGEN_HH
#define MEALIB_TDL_CODEGEN_HH

#include <functional>
#include <string>

#include "accel/descriptor.hh"
#include "tdl/ast.hh"

namespace mealib::tdl {

/**
 * Resolves a parameter-file name to its contents. The s2s compiler
 * normally hands the runtime an in-memory bundle; tests may read disk.
 */
using ParamResolver = std::function<std::string(const std::string &)>;

/** Compile a parsed TDL program into an accelerator descriptor. */
accel::DescriptorProgram codegen(const TdlProgram &prog,
                                 const ParamResolver &resolve);

/** Convenience: parse + codegen in one step. */
accel::DescriptorProgram compileTdl(const std::string &source,
                                    const ParamResolver &resolve);

} // namespace mealib::tdl

#endif // MEALIB_TDL_CODEGEN_HH

#ifndef BIFSIM_KCLC_COMPILER_H
#define BIFSIM_KCLC_COMPILER_H

/**
 * @file
 * The kclc driver: KCL source -> BIF shader binary.
 *
 * Optimisation levels emulate distinct vendor compiler versions; the
 * paper's Fig. 1 shows Arm's OpenCL compiler versions v5.6-v6.2
 * emitting substantially different code for the same kernel, and these
 * presets reproduce that effect:
 *
 *   "5.6" / O0  one instruction per clause, no optimisation
 *   "5.7" / O1  4-tuple clauses, constant folding
 *   "6.0" / O2  8-tuple clauses, CSE, clause-temporary promotion
 *   "6.1" / O3  + dual-issue slot scheduling
 *   "6.2"       alias of 6.1 (as in the paper, 6.1 == 6.2)
 */

#include <string>
#include <vector>

#include "gpu/isa/bif.h"
#include "kclc/ir.h"

namespace bifsim::kclc {

/** Compiler configuration (a "toolchain version"). */
struct CompilerOptions
{
    int level = 2;   ///< Optimisation level 0..3 (table above; any
                     ///< other value compiles as level 3).
    std::string versionName = "6.0";

    /** Preset for optimisation level 0..3. */
    static CompilerOptions forLevel(int level);

    /** Preset emulating vendor compiler version "5.6".."6.2". */
    static CompilerOptions forVersion(const std::string &version);
};

/** A compiled kernel ready to hand to the runtime. */
struct CompiledKernel
{
    std::string name;
    bif::Module mod;
    std::vector<uint8_t> binary;   ///< Encoded BIF image.
    std::vector<ArgInfo> args;
    uint32_t regCount = 0;
    uint32_t localBytes = 0;
    uint32_t spills = 0;
};

/**
 * Compiles one kernel out of @p source.
 * @throws SimError on any lexical/syntax/semantic error.
 */
CompiledKernel compileKernel(const std::string &source,
                             const std::string &kernel_name,
                             const CompilerOptions &opts =
                                 CompilerOptions());

/** Compiles every kernel in @p source. */
std::vector<CompiledKernel> compileAll(const std::string &source,
                                       const CompilerOptions &opts =
                                           CompilerOptions());

} // namespace bifsim::kclc

#endif // BIFSIM_KCLC_COMPILER_H

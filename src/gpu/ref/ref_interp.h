#ifndef BIFSIM_GPU_REF_REF_INTERP_H
#define BIFSIM_GPU_REF_REF_INTERP_H

/**
 * @file
 * The reference BIF interpreter: the differential-testing oracle and
 * the Multi2Sim-style functional baseline, in one scalar module.
 *
 * The paper validates its GPU model against Arm's proprietary
 * stand-alone simulator using instruction tracing and fuzzing (§V-A2),
 * and compares its speed with Multi2Sim's functional mode (Fig. 8).
 * This module is the open equivalent of both: a deliberately simple,
 * obviously-correct interpreter, written independently of the
 * optimised shader-core executor.  It runs one work-item at a time (no
 * warps, no clause batching, no micro-op lowering) against flat global
 * and local memory, so any divergence between the two implementations
 * indicates a bug in one of them.
 *
 * A workgroup runs in phases: each work-item in turn executes up to its
 * next barrier clause (or its end), then the next phase starts.  That
 * is enough for every kernel that shares data through local memory.
 * As in the executor, a barrier counts as one control-flow instruction
 * per work-item, and the lane id is the linear local id mod kWarpWidth.
 *
 * The instruction fetch is fixed at compile time by each caller:
 *  - Fetch::Decoded reads the pre-decoded bif::Module (the oracle);
 *  - Fetch::Redecode decodes every executed slot from its 64-bit word
 *    again (the Fig. 8 baseline's interpretive cost; no decode cache),
 *    counting LaunchStats::slotDecodes.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/isa/bif.h"

namespace bifsim::gpu::ref {

/** Executed (non-Nop) instructions each work-item may run. */
constexpr uint64_t kThreadBudget = 1u << 22;

/** The execution context for a single reference thread. */
struct RefContext
{
    uint32_t localId[3] = {0, 0, 0};
    uint32_t groupId[3] = {0, 0, 0};
    uint32_t localSize[3] = {1, 1, 1};
    uint32_t gridSize[3] = {1, 1, 1};
    uint32_t numGroups[3] = {1, 1, 1};
    uint32_t laneId = 0;

    std::vector<uint32_t> args;       ///< Argument table words.
    std::vector<uint8_t> *globalMem = nullptr;  ///< Flat global memory.
    std::vector<uint8_t> *localMem = nullptr;   ///< Flat local memory.
};

/** Result of a reference run. */
struct RefResult
{
    bool ok = true;
    std::string error;
    uint32_t grf[bif::kNumGrfRegs] = {};   ///< Final register file.
    uint64_t executedInstrs = 0;
    std::vector<std::string> trace;        ///< Optional instr trace.
};

/**
 * Executes @p mod for one thread until Ret / falling off the end: the
 * one-work-item case of launch(), so a barrier simply ends a phase.
 *
 * @param mod     The shader module (must validate).
 * @param ctx     Thread context (ids, args, memories).
 * @param trace   If true, record a disassembly trace of executed
 *                instructions (the paper's instruction-tracing mode).
 * @param max_instrs  Abort with an error beyond this budget.
 */
RefResult runThread(const bif::Module &mod, const RefContext &ctx,
                    bool trace = false,
                    uint64_t max_instrs = kThreadBudget);

/** Counts of reference launches (what Multi2Sim functional mode
 *  reports: the Fig. 11 instruction mix and the job dimensions).  A
 *  clause's non-Nop instructions (per bif::Category) and slot decodes
 *  are counted each time a work-item starts the clause. */
struct LaunchStats
{
    uint64_t instructions = 0;  ///< arith + loadStore + controlFlow.
    uint64_t arith = 0;
    uint64_t loadStore = 0;
    uint64_t controlFlow = 0;
    uint64_t slotDecodes = 0;   ///< Per-execution decodes (Redecode).
    uint64_t workItems = 0;
    uint64_t workGroups = 0;
};

/** Instruction fetch policy (see the file comment). */
enum class Fetch : uint8_t { Decoded, Redecode };

/**
 * Runs a whole grid of @p binary over flat global memory @p global,
 * one workgroup after another, each work-item within budget
 * kThreadBudget.  Buffer arguments in @p args are byte offsets into
 * @p global.  Counts accumulate into @p stats.
 *
 * @return false with a located @p error on a malformed binary, bad
 *         dimensions, an out-of-range access or an exceeded budget.
 */
template <Fetch F>
bool launch(const std::vector<uint8_t> &binary, const uint32_t grid[3],
            const uint32_t wg[3], const std::vector<uint32_t> &args,
            std::vector<uint8_t> &global, LaunchStats &stats,
            std::string &error);

} // namespace bifsim::gpu::ref

#endif // BIFSIM_GPU_REF_REF_INTERP_H

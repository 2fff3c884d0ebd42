#ifndef BIFSIM_CPU_CORE_H
#define BIFSIM_CPU_CORE_H

/**
 * @file
 * The SA32 CPU core.
 *
 * Guest execution has three tiers, mirroring the paper's QEMU-class
 * DBT CPU versus the Multi2Sim-style baseline:
 *
 *  - DBT (default, CoreConfig::dbt = true): basic blocks are lowered
 *    once into threaded code (pre-resolved handler pointers, direct
 *    block chaining) and executed by an indirect-goto dispatch loop —
 *    see cpu/dbt.h and DESIGN.md §5g.
 *  - Interpreter (dbt = false): a two-phase decode-then-execute scheme
 *    with a basic-block decode cache.  Kept as the A/B and lockstep
 *    differential oracle for the DBT tier; both tiers execute
 *    identical block shapes and are architecturally lockstep.
 *  - Re-decode baseline (blockCache = false): every block is decoded
 *    on every execution, modelling Multi2Sim-style simulation (this
 *    also disables the DBT tier, which is a cache by construction).
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "cpu/mmu.h"
#include "cpu/sa32.h"
#include "mem/bus.h"
#include "snapshot/snapshot.h"

namespace bifsim::sa32 {

class Dbt;

/** Why Core::run() returned. */
enum class StopReason
{
    MaxInsts,   ///< Instruction budget exhausted.
    Wfi,        ///< Core is waiting for an interrupt.
    Halt,       ///< Guest executed the simulation-halt instruction.
    EBreak,     ///< Breakpoint with no handler installed (mtvec == 0).
};

/** Core execution statistics. */
struct CoreStats
{
    uint64_t instret = 0;         ///< Instructions retired.
    uint64_t blocksDecoded = 0;   ///< Decode-cache fills / translations.
    uint64_t blockHits = 0;       ///< Cache hits (incl. chain follows).
    uint64_t traps = 0;           ///< Synchronous traps taken.
    uint64_t interrupts = 0;      ///< Interrupts taken.
    uint64_t cacheFlushes = 0;    ///< Decode/translation invalidations.

    /** @name DBT-tier translation counters (zero on the interpreter).
     *  @{ */
    uint64_t dbtBlocks = 0;        ///< Translations installed.
    uint64_t dbtChainLinks = 0;    ///< Direct block-chain links created.
    uint64_t dbtChainFollows = 0;  ///< Dispatches served by a chain.
    uint64_t dbtChainBreaks = 0;   ///< Links invalidated (epoch/VA).
    uint64_t dbtRetires = 0;       ///< Translations retired by flushes.
    /** @} */
};

/** PC after reset: the base of guest RAM. */
constexpr Addr kResetPc = 0x80000000;

/**
 * A single SA32 hardware thread with machine/user privilege, paging,
 * interrupts and a block decode cache.
 */
/** Static core configuration. */
struct CoreConfig
{
    bool blockCache = true;     ///< Enable the decode cache.
    bool dbt = true;            ///< Threaded-code DBT tier (needs
                                ///< blockCache; false = interpreter
                                ///< oracle).
    uint32_t hartId = 0;        ///< Value of the mhartid CSR.
};

class Core
{
  public:
    explicit Core(Bus &bus, CoreConfig cfg = CoreConfig());
    ~Core();

    /** Resets architectural state (registers, CSRs, caches). */
    void reset();

    /**
     * Executes up to @p max_insts instructions.
     * Returns early on WFI (with no pending interrupt) or HALT.
     */
    StopReason run(uint64_t max_insts);

    /** @name Architectural state access (used by the loader and tests).
     *  @{ */
    uint32_t reg(unsigned idx) const { return regs_[idx]; }
    Addr pc() const { return pc_; }
    void setPc(Addr pc) { pc_ = pc; waiting_ = false; }
    Priv priv() const { return priv_; }
    uint32_t readCsr(uint32_t num) const;
    void writeCsr(uint32_t num, uint32_t value);
    /** @} */

    /** True while the core is parked in WFI. */
    bool waiting() const { return waiting_; }

    /** Drives an interrupt line level (kIrqTimer / kIrqExternal). */
    void setIrqLine(IrqNum irq, bool level);

    /** Discards all cached decoded blocks and DBT translations
     *  (e.g.\ after loading code).  Safe to call mid-execution: the
     *  currently-running block's storage is kept alive until the next
     *  dispatch safe point. */
    void flushCodeCache();

    /** True when the threaded-code DBT tier executes guest code
     *  (requires both cfg.dbt and cfg.blockCache). */
    bool usesDbt() const { return cfg_.dbt && cfg_.blockCache; }

    /** The DBT engine, or nullptr on the interpreter tiers. */
    Dbt *dbt() { return dbt_.get(); }

    /** Execution statistics. */
    const CoreStats &stats() const { return stats_; }

    /** The data/instruction MMU. */
    CpuMmu &mmu() { return mmu_; }

    /**
     * Serialises all architectural state — registers, PC, privilege,
     * WFI latch, CSRs (including pending IRQ lines in mip) and the
     * retired-instruction counters backing mcycle/minstret — into @p w.
     */
    void saveState(snapshot::ChunkWriter &w) const;

    /**
     * Restores architectural state from @p r.  Parses the whole chunk
     * before committing, then flushes the decode cache and TLB so no
     * stale translation or decoded block survives the restore.
     */
    void restoreState(snapshot::ChunkReader &r);

  private:
    friend class Dbt;   ///< The DBT tier is an alternate execution
                        ///< engine over the same architectural state.

    enum class ExecResult { Next, Redirect, Trap, Wfi, Halt, EBreak };

    struct Block
    {
        std::vector<DecodedInst> insts;
    };

    Bus &bus_;
    CoreConfig cfg_;
    CpuMmu mmu_;

    uint32_t regs_[kNumRegs] = {};
    Addr pc_ = 0;
    Priv priv_ = Priv::Machine;
    bool waiting_ = false;

    uint32_t mstatus_ = 0;
    uint32_t mie_ = 0;
    std::atomic<uint32_t> mip_{0};   ///< Level-driven by devices (other threads).
    uint32_t mtvec_ = 0;
    uint32_t mscratch_ = 0;
    uint32_t mepc_ = 0;
    uint32_t mcause_ = 0;
    uint32_t mtval_ = 0;
    uint32_t satp_ = 0;

    CoreStats stats_;

    std::unordered_map<Addr, Block> blocks_;
    std::unordered_set<uint32_t> codePages_;
    Block scratch_;   ///< Decode target when the block cache is off.

    /** Blocks retired by a mid-execution flush (self-modifying-code
     *  store, fence).  Keeps the currently-executing block's insts
     *  alive until the run loop's next safe point. */
    std::vector<std::unordered_map<Addr, Block>> retired_;

    std::unique_ptr<Dbt> dbt_;   ///< Present iff usesDbt().

    StopReason runInterp(uint64_t max_insts);
    const Block *fetchBlock(Addr pa);
    ExecResult execute(const DecodedInst &inst, Addr cur_pc);
    void trap(uint32_t cause, uint32_t tval, Addr epc);
    bool interruptPending(uint32_t &cause) const;

    /** WFI wake-up condition: an interrupt is pending in mip & mie.
     *  Unlike interruptPending() this ignores mstatus.MIE — the RISC-V
     *  spec resumes a stalled hart on pending-but-globally-masked
     *  interrupts, which is what makes the canonical
     *  mask / check / wfi / unmask wait loop race-free. */
    bool wfiWakePending() const;

    bool memLoad(Addr va, unsigned size, bool sign_extend, uint32_t &out,
                 Addr cur_pc);
    bool memStore(Addr va, unsigned size, uint32_t value, Addr cur_pc);
};

} // namespace bifsim::sa32

#endif // BIFSIM_CPU_CORE_H

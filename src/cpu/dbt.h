#ifndef BIFSIM_CPU_DBT_H
#define BIFSIM_CPU_DBT_H

/**
 * @file
 * The SA32 dynamic-binary-translation tier (DESIGN.md §5g).
 *
 * Each decoded basic block is lowered once into *threaded code*: a
 * flat array of ThreadedOps, each carrying a pre-resolved handler
 * pointer plus the pre-extracted operands (register numbers, sign- or
 * zero-extended immediate, PC offset).  Execution is an indirect-goto
 * dispatch loop — handler bodies jump straight to the next op's
 * handler with no per-instruction re-decode and no switch on opcode.
 * Translated blocks chain directly on their static edges (fall-
 * through, unconditional jump, and both arms of conditional branches),
 * so hot guest loops run block-to-block without returning to the
 * dispatcher: no hash lookup and no fetch translation on the hot path.
 *
 * Invalidation protocol (all lazy, all keyed to existing machinery):
 *
 *  - Translations are keyed by *physical* address, so they survive
 *    TLB flushes; only chain links bind a VA->PA resolution.  Every
 *    link stamps the CpuMmu epoch it observed; CpuMmu::flushTlb()
 *    (satp writes, sfence, snapshot restore) bumps the epoch and the
 *    stale links fail their stamp check at the next follow.
 *  - Core::flushCodeCache() (fence, self-modifying-code stores into
 *    translated pages, snapshot restore, reset) retires *every*
 *    translation: blocks move to a graveyard that keeps their ops
 *    arrays alive until the dispatcher's next safe point, so a store
 *    that invalidates the currently-executing block cannot free the
 *    code under its own feet.  A flush generation counter guards
 *    chain-follows and pending links across the retire.
 *  - A translation records the flush generation it started from; a
 *    flush landing mid-translate kills the in-flight install and the
 *    block is rebuilt from fresh guest bytes (the PR 6 L2 shader-cache
 *    install-epoch pattern).
 *
 * The interpreter tier (CoreConfig::dbt = false) remains the lockstep
 * differential oracle: both tiers execute identical block shapes
 * (sa32::decodeBlock) and check budget/interrupts at identical block
 * boundaries, so architectural state sequences match instruction for
 * instruction.
 *
 * Threading: a Dbt belongs to exactly one Core and inherits its
 * threading contract — all methods are called from the single
 * simulation thread that owns the Core; nothing here is touched by
 * device threads (they only drive Core::setIrqLine, which remains an
 * atomic the dispatch loop polls at block boundaries).  No handler,
 * translation, or invalidation path takes a lock, so nothing here
 * carries a sim::Mutex or GUARDED_BY annotation (DESIGN.md §5i:
 * single-owner structures are exempt by contract, not by accident).
 */

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cpu/sa32.h"

namespace bifsim::sa32 {

class Core;
enum class StopReason;

/**
 * One threaded-code operation: a pre-resolved handler plus immediates.
 * `fn` is the dispatch target, a computed-goto label address.
 */
struct ThreadedOp
{
    const void *fn = nullptr;
    uint8_t rd = 0;
    uint8_t rs1 = 0;
    uint8_t rs2 = 0;
    int32_t imm = 0;
    uint32_t pcOff = 0;    ///< Byte offset of this inst from block VA.
    uint32_t raw = 0;      ///< Original encoding (mtval / CSR checks).
};

/** Chain-slot indices. */
enum ChainSlot : unsigned
{
    kChainTaken = 0,   ///< Branch-taken / unconditional-jump edge.
    kChainFall = 1,    ///< Fall-through / branch-not-taken edge.
};

/** A translated basic block plus its outgoing chain links. */
struct TranslatedBlock
{
    Addr pa = 0;                      ///< Physical address (cache key).
    uint32_t instCount = 0;           ///< Guest instructions lowered.
    std::vector<ThreadedOp> ops;      ///< Threaded code (+ terminator).

    /** Direct chain links, one per static edge.  A link is valid only
     *  while chainVa matches the runtime target VA *and* chainEpoch
     *  matches the MMU's current translation epoch. */
    TranslatedBlock *chain[2] = {nullptr, nullptr};
    Addr chainVa[2] = {0, 0};
    uint64_t chainEpoch[2] = {0, 0};
};

/**
 * The translation cache and threaded-code execution engine for one
 * Core.  Owned by the Core; see the file comment for the threading
 * and invalidation contracts.
 */
class Dbt
{
  public:
    explicit Dbt(Core &core);
    ~Dbt();

    Dbt(const Dbt &) = delete;
    Dbt &operator=(const Dbt &) = delete;

    /** Executes up to @p max_insts guest instructions (block-granular,
     *  exactly like the interpreter tier).  Returns why it stopped. */
    StopReason run(uint64_t max_insts);

    /**
     * Retires every translation and unlinks all chains (fence, SMC
     * store, snapshot restore, reset).  Safe to call from inside a
     * running translated block: retired blocks stay allocated in a
     * graveyard until the dispatcher's next safe point.
     */
    void invalidateAll();

    /** True if any live translations exist. */
    bool hasTranslations() const { return !cache_.empty(); }

    /** Number of live translated blocks (tests/introspection). */
    size_t liveBlocks() const { return cache_.size(); }

  private:
    /** Why a block run left the dispatch loop. */
    enum class Exit : uint8_t
    {
        Taken,      ///< Branch taken / jal: chainable via kChainTaken.
        Fall,       ///< Fell through / not taken: chainable via kChainFall.
        Indirect,   ///< jalr / mret: target dynamic, never chained.
        Trap,       ///< Trap taken; pc_ is at the handler.
        Wfi,        ///< Core parked in WFI.
        Halt,
        EBreak,
    };

    /** A chain link requested by a block exit, resolved by the
     *  dispatcher once the target block is known. */
    struct PendingLink
    {
        TranslatedBlock *from = nullptr;
        unsigned slot = 0;
        Addr va = 0;
        uint64_t flushGen = 0;
    };

    Core &c_;
    std::unordered_map<Addr, std::unique_ptr<TranslatedBlock>> cache_;
    std::vector<std::unique_ptr<TranslatedBlock>> graveyard_;
    uint64_t flushGen_ = 1;     ///< Bumped by invalidateAll().
    PendingLink pending_;
    const void *const *labels_ = nullptr;   ///< Handler label table.

    TranslatedBlock *lookupOrTranslate(Addr pa);
    TranslatedBlock *translate(Addr pa);

    /** Runs one translated block's threaded code.  Intact chain edges
     *  are followed *inside* the dispatch loop (re-checking budget,
     *  pending interrupts, flush generation, and TLB epoch at every
     *  edge, so block boundaries stay lockstep with the interpreter);
     *  @p tb is left pointing at the block the run actually exited
     *  from.  With @p out_labels set, returns the handler label table
     *  instead of executing (query mode, used once at construction). */
    Exit execBlock(TranslatedBlock *&tb, uint64_t &budget,
                   const void *const **out_labels = nullptr);
};

} // namespace bifsim::sa32

#endif // BIFSIM_CPU_DBT_H

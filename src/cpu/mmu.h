#ifndef BIFSIM_CPU_MMU_H
#define BIFSIM_CPU_MMU_H

/**
 * @file
 * The CPU's memory management unit: a two-level page-table walker with
 * a direct-mapped TLB, analogous to the paper's full-system CPU MMU.
 *
 * Paging layout (satp bit 31 enables translation; bits [19:0] are the
 * physical page number of the root table):
 *
 *   VA[31:22] -> level-1 index (1024 entries)
 *   VA[21:12] -> level-0 index (1024 entries)
 *   VA[11:0]  -> page offset
 *
 * PTE (32-bit): bit0 V, bit1 R, bit2 W, bit3 X, bit4 U; PPN in [29:10].
 * A level-1 entry with any of R/W/X set is a 4 MiB megapage leaf.
 */

#include <cstdint>

#include "cpu/sa32.h"
#include "mem/bus.h"

namespace bifsim::sa32 {

/** PTE permission bits. */
enum PteBits : uint32_t
{
    kPteValid = 1u << 0,
    kPteRead  = 1u << 1,
    kPteWrite = 1u << 2,
    kPteExec  = 1u << 3,
    kPteUser  = 1u << 4,
};

/** Kind of access being translated. */
enum class AccessType { Fetch, Load, Store };

/** Result of a translation attempt. */
struct TranslateResult
{
    bool ok = false;
    Addr pa = 0;
    TrapCause cause = kCauseLoadPageFault;
};

/** MMU statistics. */
struct MmuStats
{
    uint64_t pageWalks = 0;   ///< TLB misses that walked the table.
};

/**
 * Page-table walker plus TLB for the simulated CPU.
 *
 * Translation applies only in user mode with satp enabled; machine mode
 * accesses are physical (the mini guest OS runs in machine mode, user
 * applications behind paging).
 */
class CpuMmu
{
  public:
    explicit CpuMmu(Bus &bus) : bus_(bus) { flushTlb(); }

    /** Translates @p va for @p type at privilege @p priv under @p satp. */
    TranslateResult translate(Addr va, AccessType type, Priv priv,
                              uint32_t satp);

    /** Invalidates all TLB entries (satp writes, sfence) and bumps the
     *  translation epoch so consumers that cached VA->PA bindings (the
     *  DBT tier's block-chain links) can invalidate lazily. */
    void flushTlb();

    /**
     * Monotonic translation-regime epoch.  Incremented by every
     * flushTlb(); anything derived from a VA->PA mapping (chain links,
     * fetched-target bindings) records the epoch it observed and is
     * stale the moment the values differ.  Same lazy-shootdown pattern
     * as the GPU MMU's epoch (DESIGN.md §5b) and the L2 shader cache
     * (§5f).
     */
    uint64_t epoch() const { return epoch_; }

    /** Access statistics. */
    const MmuStats &stats() const { return stats_; }

  private:
    static constexpr size_t kTlbEntries = 64;

    struct TlbEntry
    {
        bool valid = false;
        uint32_t vpn = 0;      ///< VA >> 12.
        uint32_t ppn = 0;      ///< PA >> 12.
        uint32_t perms = 0;    ///< PTE permission bits.
    };

    Bus &bus_;
    TlbEntry tlb_[kTlbEntries];
    MmuStats stats_;
    uint64_t epoch_ = 1;   ///< Bumped on every flushTlb().

    static TrapCause faultCause(AccessType type);
};

} // namespace bifsim::sa32

#endif // BIFSIM_CPU_MMU_H

#ifndef BIFSIM_INSTRUMENT_STATS_H
#define BIFSIM_INSTRUMENT_STATS_H

/**
 * @file
 * Instrumentation counters (paper §IV).
 *
 * Static per-clause metrics are computed once at decode time.  While a
 * job runs, each worker only counts raw events into its own
 * WorkerCollector: how many threads ran each clause, how many left it
 * other than to the next clause, how many warp executions split, and
 * which pages it touched.  At job completion the device sums the
 * workers' counts and derives the job's KernelStats (totals, clause
 * sizes, CFG edges) once, so the measured overhead stays small (paper:
 * <5%) and execution needs no synchronisation and builds no map.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/histogram.h"
#include "gpu/isa/bif.h"
#include "snapshot/snapshot.h"

namespace bifsim::sa32 {
struct CoreStats;
}

namespace bifsim::fleet {
struct FleetStats;
}

namespace bifsim::gpu {

/** Decode-time static metrics for one clause. */
struct ClauseStaticInfo
{
    uint32_t sizeTuples = 0;   ///< Clause size (1..8 tuples).
    uint32_t arith = 0;        ///< Arithmetic instructions.
    uint32_t ls = 0;           ///< Load/store instructions.
    uint32_t cf = 0;           ///< Control-flow instructions.
    uint32_t nop = 0;          ///< Empty issue slots.
    uint32_t grfReads = 0;     ///< Global register file reads.
    uint32_t grfWrites = 0;    ///< Global register file writes.
    uint32_t tempReads = 0;    ///< Clause-temporary reads.
    uint32_t tempWrites = 0;   ///< Clause-temporary writes.
    uint32_t constReads = 0;   ///< Kernel-argument (constant) reads.
    uint32_t romReads = 0;     ///< Embedded-ROM reads.
    uint32_t globalLd = 0;     ///< Main-memory loads.
    uint32_t globalSt = 0;     ///< Main-memory stores.
    uint32_t localLd = 0;      ///< Local-memory loads.
    uint32_t localSt = 0;      ///< Local-memory stores.
};

/** Computes decode-time static metrics for every clause of a module. */
std::vector<ClauseStaticInfo> analyzeClauses(const bif::Module &mod);

/**
 * Dynamic, thread-weighted kernel statistics for one job (or summed
 * over jobs).  All counters count *per executed thread*: a clause run
 * by a warp with 3 active threads contributes 3x its static counts.
 */
struct KernelStats
{
    uint64_t arithInstrs = 0;
    uint64_t lsInstrs = 0;
    uint64_t cfInstrs = 0;
    uint64_t nopSlots = 0;
    uint64_t grfReads = 0;
    uint64_t grfWrites = 0;
    uint64_t tempAccesses = 0;
    uint64_t constReads = 0;
    uint64_t romReads = 0;
    uint64_t globalLdSt = 0;
    uint64_t localLdSt = 0;
    uint64_t clausesExecuted = 0;     ///< Thread-weighted clause count.
    uint64_t threadsLaunched = 0;
    uint64_t warpsLaunched = 0;
    uint64_t workgroups = 0;
    uint64_t divergentBranches = 0;   ///< Warp executions that split.

    /** Thread-weighted clause-size distribution (index = tuples). */
    Histogram clauseSizes{bif::kMaxTuplesPerClause + 1};

    /**
     * Divergence CFG: edge (from-clause, to-clause) -> number of threads
     * that followed it (paper Fig. 6).  Key = from << 32 | to.
     */
    std::map<uint64_t, uint64_t> cfgEdges;

    /** Total executed instructions (arith + ls + cf). */
    uint64_t
    totalInstrs() const
    {
        return arithInstrs + lsInstrs + cfInstrs;
    }

    /** Total issue slots including empty ones. */
    uint64_t totalSlots() const { return totalInstrs() + nopSlots; }

    /** Mean executed clause size in tuples. */
    double avgClauseSize() const { return clauseSizes.mean(); }

    /** Accumulates another collector's counts into this one. */
    void merge(const KernelStats &other);

    /** Subtracts a previously merged baseline (all counters are
     *  monotone accumulators, so this recovers "counts since the
     *  baseline was taken"; zeroed CFG edges are dropped so the result
     *  compares equal to a freshly accumulated delta). */
    void subtract(const KernelStats &base);
};

/** Encodes a CFG edge key. */
constexpr uint64_t
cfgEdgeKey(uint32_t from, uint32_t to)
{
    return (static_cast<uint64_t>(from) << 32) | to;
}

/** Translation fast-path statistics (host-pointer TLB). */
struct TlbStats
{
    uint64_t lastPageHits = 0;  ///< One-entry last-page cache hits.
    uint64_t arrayHits = 0;     ///< Set-indexed TLB array hits.
    uint64_t walks = 0;         ///< Full page-table walks.

    uint64_t
    lookups() const
    {
        return lastPageHits + arrayHits + walks;
    }

    /** Fraction of translations served without a walk. */
    double
    hitRate() const
    {
        uint64_t n = lookups();
        return n ? static_cast<double>(n - walks) / n : 0.0;
    }

    void
    merge(const TlbStats &other)
    {
        lastPageHits += other.lastPageHits;
        arrayHits += other.arrayHits;
        walks += other.walks;
    }
};

/** System-level statistics (paper Table III). */
struct SystemStats
{
    uint64_t pagesAccessed = 0;    ///< Distinct pages touched by the GPU.
    uint64_t ctrlRegReads = 0;     ///< GPU control-register reads.
    uint64_t ctrlRegWrites = 0;    ///< GPU control-register writes.
    uint64_t irqsAsserted = 0;     ///< GPU interrupt assertions.
    uint64_t computeJobs = 0;      ///< Compute jobs executed.
};

/**
 * Work-stealing scheduler statistics (host-side diagnostic; not part
 * of the guest-visible state and not snapshotted).  Accumulated
 * thread-locally per worker while a job runs and merged once at job
 * completion, like every other collector.
 */
struct SchedStats
{
    uint64_t slicesRun = 0;      ///< Workgroup slices executed.
    uint64_t groupsRun = 0;      ///< Workgroups executed.
    uint64_t steals = 0;         ///< Slices taken from another worker.
    uint64_t stealAttempts = 0;  ///< Steal scans that probed a victim.

    void
    merge(const SchedStats &o)
    {
        slicesRun += o.slicesRun;
        groupsRun += o.groupsRun;
        steals += o.steals;
        stealAttempts += o.stealAttempts;
    }
};

/**
 * A named counter value: the unified view over the KernelStats /
 * TlbStats / SystemStats structs used by the trace subsystem's counter
 * events and the human-readable job summaries.  Names are static
 * strings ("kernel.arith_instrs", "tlb.walks", "sys.irqs_asserted"...)
 * so consumers can store the pointers without copying.
 */
struct NamedCounter
{
    const char *name;
    uint64_t value;
};

/** @name Snapshot serialisation of the stats structs.
 *  @{ */
void saveStats(snapshot::ChunkWriter &w, const KernelStats &k);
void restoreStats(snapshot::ChunkReader &r, KernelStats &k);
void saveStats(snapshot::ChunkWriter &w, const TlbStats &t);
void restoreStats(snapshot::ChunkReader &r, TlbStats &t);
void saveStats(snapshot::ChunkWriter &w, const SystemStats &s);
void restoreStats(snapshot::ChunkReader &r, SystemStats &s);
/** @} */

/** Appends every scalar counter of @p k under the "kernel." prefix. */
void appendCounters(std::vector<NamedCounter> &out, const KernelStats &k);

/** Appends every counter of @p t under the "tlb." prefix. */
void appendCounters(std::vector<NamedCounter> &out, const TlbStats &t);

/** Appends every counter of @p s under the "sys." prefix. */
void appendCounters(std::vector<NamedCounter> &out, const SystemStats &s);

/** Appends every counter of @p s under the "sched." prefix. */
void appendCounters(std::vector<NamedCounter> &out, const SchedStats &s);

/** Appends every CPU core counter (execution tiers, traps, DBT
 *  translation activity) under the "cpu." prefix. */
void appendCounters(std::vector<NamedCounter> &out,
                    const sa32::CoreStats &c);

/** Appends every fleet server counter (job outcomes, queueing, pool
 *  spawn/recycle activity) under the "fleet." prefix. */
void appendCounters(std::vector<NamedCounter> &out,
                    const fleet::FleetStats &f);

/**
 * A set of GPU virtual page numbers: a bitmap over the whole 20-bit VPN
 * space (32-bit VAs, 4 KiB pages) plus the list of VPNs whose bit is
 * set.  insert() is a bit test-and-set; clear() walks only the list, so
 * a job costs O(pages touched), never O(bitmap).  The bitmap is cut
 * into 4 KiB leaves, each allocated by the first insert in its 128 MiB
 * of VA: a flat 128 KiB bitmap per set cost every session start-up
 * (five sets at four workers) more than the rest of a warm restore.
 * Not thread-safe: each worker owns one, and the device folds them into
 * its own at job completion.
 */
class PageSet
{
  public:
    static constexpr uint32_t kVpnBits = 20;
    static constexpr uint32_t kVpns = 1u << kVpnBits;

    /** Adds @p vpn (must be < kVpns). */
    void
    insert(uint32_t vpn)
    {
        uint64_t &word = leaf(vpn)[(vpn % kLeafVpns) / 64];
        uint64_t bit = uint64_t{1} << (vpn % 64);
        if (!(word & bit)) {
            word |= bit;
            vpns_.push_back(vpn);
        }
    }

    /** Adds every page of @p other. */
    void
    merge(const PageSet &other)
    {
        for (uint32_t vpn : other.vpns_)
            insert(vpn);
    }

    /** Distinct pages inserted since the last clear(). */
    size_t size() const { return vpns_.size(); }

    void
    clear()
    {
        for (uint32_t vpn : vpns_)
            leaves_[vpn / kLeafVpns][(vpn % kLeafVpns) / 64] = 0;
        vpns_.clear();
    }

  private:
    static constexpr uint32_t kLeafVpns = 4096 * 8;   ///< 4 KiB of bits.
    static constexpr uint32_t kLeaves = kVpns / kLeafVpns;

    uint64_t *
    leaf(uint32_t vpn)
    {
        std::unique_ptr<uint64_t[]> &l = leaves_[vpn / kLeafVpns];
        if (!l) [[unlikely]]
            l = std::make_unique<uint64_t[]>(kLeafVpns / 64);
        return l.get();
    }

    std::unique_ptr<uint64_t[]> leaves_[kLeaves];
    std::vector<uint32_t> vpns_;
};

/** Per-worker raw event counts, summed and folded at job completion. */
struct WorkerCollector
{
    std::vector<uint64_t> clauseExec;   ///< Per clause: threads that ran it.
    std::vector<uint64_t> taken;        ///< Per clause: threads that left it
                                        ///< for anything but clause c + 1.
    uint64_t divergent = 0;             ///< Warp executions that split.
    PageSet pages;                      ///< GPU-touched page numbers.

    void
    reset(size_t num_clauses)
    {
        clauseExec.assign(num_clauses, 0);
        taken.assign(num_clauses, 0);
        divergent = 0;
        pages.clear();
    }
};

} // namespace bifsim::gpu

#endif // BIFSIM_INSTRUMENT_STATS_H

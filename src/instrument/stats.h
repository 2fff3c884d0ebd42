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
 *
 * Every exported counter is registered once, by its entry in its
 * struct's counter table (kKernelCounters ... kShaderCounters below).
 * Merging, snapshot bytes and the "prefix.name" export all loop over
 * those tables, so a counter is added by adding a field and its entry,
 * and nothing else names it.  The tables concatenated, kCounters, are
 * the metrics registry's slots: a counter's slot is its position there,
 * and counterSlot("prefix.name") resolves a name at compile time.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "common/histogram.h"
#include "cpu/core.h"
#include "fleet/fleet_stats.h"
#include "gpu/isa/bif.h"
#include "snapshot/snapshot.h"

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

    inline void merge(const TlbStats &other);
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

    inline void merge(const SchedStats &o);
};

/** Shader decode-cache statistics (guest-visible: snapshotted). */
struct ShaderCacheStats
{
    uint64_t decodes = 0;   ///< Shaders decoded and verified.
    uint64_t hits = 0;      ///< Lookups served by the decode cache.
};

/** One registered counter of statistics struct S. */
template <typename S>
struct CounterField
{
    const char *name;       ///< Exported name, "prefix.lower_snake".
    uint64_t S::*field;
    bool gauge = false;     ///< A level (published store-latest), not
                            ///< an accumulator.
};

/** Marks a table entry as a gauge (CounterField::gauge). */
inline constexpr bool kGauge = true;

/**
 * @name Counter tables
 * Each statistics struct's one list of its counters.  A table's order
 * is the appendCounters() order (metrics::CounterBaseline matches
 * counters by position), the registry slot order and the snapshot byte
 * order, so reordering a table changes all three.  Merge, snapshot and
 * export code loop over these tables; a counter exists once it has an
 * entry here.
 * @{
 */
inline constexpr CounterField<KernelStats> kKernelCounters[] = {
    {"kernel.arith_instrs", &KernelStats::arithInstrs},
    {"kernel.ls_instrs", &KernelStats::lsInstrs},
    {"kernel.cf_instrs", &KernelStats::cfInstrs},
    {"kernel.nop_slots", &KernelStats::nopSlots},
    {"kernel.grf_reads", &KernelStats::grfReads},
    {"kernel.grf_writes", &KernelStats::grfWrites},
    {"kernel.temp_accesses", &KernelStats::tempAccesses},
    {"kernel.const_reads", &KernelStats::constReads},
    {"kernel.rom_reads", &KernelStats::romReads},
    {"kernel.global_ldst", &KernelStats::globalLdSt},
    {"kernel.local_ldst", &KernelStats::localLdSt},
    {"kernel.clauses_executed", &KernelStats::clausesExecuted},
    {"kernel.threads_launched", &KernelStats::threadsLaunched},
    {"kernel.warps_launched", &KernelStats::warpsLaunched},
    {"kernel.workgroups", &KernelStats::workgroups},
    {"kernel.divergent_branches", &KernelStats::divergentBranches},
};

inline constexpr CounterField<TlbStats> kTlbCounters[] = {
    {"tlb.last_page_hits", &TlbStats::lastPageHits},
    {"tlb.array_hits", &TlbStats::arrayHits},
    {"tlb.walks", &TlbStats::walks},
};

inline constexpr CounterField<SystemStats> kSysCounters[] = {
    {"sys.pages_accessed", &SystemStats::pagesAccessed},
    {"sys.ctrl_reg_reads", &SystemStats::ctrlRegReads},
    {"sys.ctrl_reg_writes", &SystemStats::ctrlRegWrites},
    {"sys.irqs_asserted", &SystemStats::irqsAsserted},
    {"sys.compute_jobs", &SystemStats::computeJobs},
};

inline constexpr CounterField<SchedStats> kSchedCounters[] = {
    {"sched.slices_run", &SchedStats::slicesRun},
    {"sched.groups_run", &SchedStats::groupsRun},
    {"sched.steals", &SchedStats::steals},
    {"sched.steal_attempts", &SchedStats::stealAttempts},
};

inline constexpr CounterField<sa32::CoreStats> kCpuCounters[] = {
    {"cpu.instret", &sa32::CoreStats::instret},
    {"cpu.blocks_decoded", &sa32::CoreStats::blocksDecoded},
    {"cpu.block_hits", &sa32::CoreStats::blockHits},
    {"cpu.traps", &sa32::CoreStats::traps},
    {"cpu.interrupts", &sa32::CoreStats::interrupts},
    {"cpu.cache_flushes", &sa32::CoreStats::cacheFlushes},
    {"cpu.dbt_blocks", &sa32::CoreStats::dbtBlocks},
    {"cpu.dbt_chain_links", &sa32::CoreStats::dbtChainLinks},
    {"cpu.dbt_chain_follows", &sa32::CoreStats::dbtChainFollows},
    {"cpu.dbt_chain_breaks", &sa32::CoreStats::dbtChainBreaks},
    {"cpu.dbt_retires", &sa32::CoreStats::dbtRetires},
};

inline constexpr CounterField<fleet::FleetStats> kFleetCounters[] = {
    {"fleet.jobs_submitted", &fleet::FleetStats::jobsSubmitted},
    {"fleet.jobs_completed", &fleet::FleetStats::jobsCompleted},
    {"fleet.jobs_faulted", &fleet::FleetStats::jobsFaulted},
    {"fleet.jobs_rejected", &fleet::FleetStats::jobsRejected},
    {"fleet.jobs_bad_request", &fleet::FleetStats::jobsBadRequest},
    {"fleet.queue_ns_total", &fleet::FleetStats::queueNsTotal},
    {"fleet.exec_ns_total", &fleet::FleetStats::execNsTotal},
    {"fleet.queue_peak", &fleet::FleetStats::queuePeak, kGauge},
    {"fleet.tenants_seen", &fleet::FleetStats::tenantsSeen, kGauge},
    {"fleet.bytes_in", &fleet::FleetStats::bytesIn},
    {"fleet.bytes_out", &fleet::FleetStats::bytesOut},
    {"fleet.spawns", &fleet::FleetStats::spawns},
    {"fleet.recycles", &fleet::FleetStats::recycles},
    {"fleet.recycle_failures", &fleet::FleetStats::recycleFailures},
    {"fleet.acquire_waits", &fleet::FleetStats::acquireWaits},
    {"fleet.sessions_live", &fleet::FleetStats::sessionsLive, kGauge},
    {"fleet.sessions_idle", &fleet::FleetStats::sessionsIdle, kGauge},
    {"fleet.queue_depth", &fleet::FleetStats::queueDepth, kGauge},
};

inline constexpr CounterField<ShaderCacheStats> kShaderCounters[] = {
    {"shader.decodes", &ShaderCacheStats::decodes},
    {"shader.cache_hits", &ShaderCacheStats::hits},
};
/** @} */

/** Each struct's counter table by type, for the loops below; a struct
 *  with no table has no definition here and fails to build or link. */
template <typename S>
extern const std::span<const CounterField<S>> kCounterTable;

template <>
inline constexpr std::span<const CounterField<KernelStats>>
    kCounterTable<KernelStats> = kKernelCounters;

template <>
inline constexpr std::span<const CounterField<TlbStats>>
    kCounterTable<TlbStats> = kTlbCounters;

template <>
inline constexpr std::span<const CounterField<SystemStats>>
    kCounterTable<SystemStats> = kSysCounters;

template <>
inline constexpr std::span<const CounterField<SchedStats>>
    kCounterTable<SchedStats> = kSchedCounters;

template <>
inline constexpr std::span<const CounterField<sa32::CoreStats>>
    kCounterTable<sa32::CoreStats> = kCpuCounters;

template <>
inline constexpr std::span<const CounterField<fleet::FleetStats>>
    kCounterTable<fleet::FleetStats> = kFleetCounters;

template <>
inline constexpr std::span<const CounterField<ShaderCacheStats>>
    kCounterTable<ShaderCacheStats> = kShaderCounters;

/** What the metrics registry keeps of one counter. */
struct CounterInfo
{
    const char *name;
    bool gauge;
};

/** Concatenates the counter tables of @p S... into one slot table. */
template <typename... S>
consteval auto
concatCounters()
{
    std::array<CounterInfo, (kCounterTable<S>.size() + ...)> all{};
    size_t i = 0;
    auto add = [&](const auto &table) {
        for (const auto &c : table)
            all[i++] = {c.name, c.gauge};
    };
    (add(kCounterTable<S>), ...);
    return all;
}

/** Every registered counter, one per registry slot: a counter's slot
 *  is its position here. */
inline constexpr auto kCounters =
    concatCounters<KernelStats, TlbStats, SystemStats, SchedStats,
                   sa32::CoreStats, fleet::FleetStats, ShaderCacheStats>();

/** The counter-name prefixes, one per counter table. */
inline constexpr std::string_view kCounterPrefixes[] = {
    "kernel", "tlb", "sys", "sched", "cpu", "fleet", "shader"};

/** True when @p name is "prefix.lower_snake" with a kCounterPrefixes
 *  prefix.  Also run by simlint to find the names a document lists. */
constexpr bool
isCounterName(std::string_view name)
{
    size_t dot = name.find('.');
    if (dot == std::string_view::npos || dot + 1 == name.size() ||
        std::ranges::find(kCounterPrefixes, name.substr(0, dot)) ==
            std::end(kCounterPrefixes))
        return false;
    return std::ranges::all_of(name.substr(dot + 1), [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
               c == '_';
    });
}

/** True when every name in @p table is a well-formed counter name. */
consteval bool
counterNamesWellFormed(std::span<const CounterInfo> table)
{
    for (const CounterInfo &c : table)
        if (!isCounterName(c.name))
            return false;
    return true;
}

/** True when no two entries of @p table share a name: duplicate names
 *  collide in every export keyed by name. */
consteval bool
counterNamesUnique(std::span<const CounterInfo> table)
{
    for (size_t i = 0; i < table.size(); ++i)
        for (size_t j = i + 1; j < table.size(); ++j)
            if (std::string_view(table[i].name) == table[j].name)
                return false;
    return true;
}

static_assert(counterNamesWellFormed(kCounters),
              "a counter name is not prefix.lower_snake with a "
              "kCounterPrefixes prefix");
static_assert(counterNamesUnique(kCounters),
              "two counter table entries share a name");

/**
 * The registry slot of counter @p name.  Evaluated at compile time
 * only, so a name no counter table has is a compile error, never a
 * silent read of 0.
 */
consteval uint16_t
counterSlot(std::string_view name)
{
    for (size_t i = 0; i < kCounters.size(); ++i)
        if (name == kCounters[i].name)
            return static_cast<uint16_t>(i);
    throw "counterSlot: no counter table has this name";
}

/** Name of the counter in @p slot (< kCounters.size()). */
constexpr const char *
counterName(uint16_t slot)
{
    return kCounters[slot].name;
}

/** True when @p slot holds a level (kGauge), not an accumulator. */
constexpr bool
counterIsGauge(uint16_t slot)
{
    return kCounters[slot].gauge;
}

/** Slot of the first counter of @p S; the rest of its table follows. */
template <typename S>
inline constexpr uint16_t kFirstSlot =
    counterSlot(kCounterTable<S>[0].name);

/**
 * A counter value tagged with its registry slot: the unified view over
 * the stats structs used by the trace subsystem's counter events, the
 * metrics registry and the human-readable job summaries.
 */
struct NamedCounter
{
    uint16_t slot;
    uint64_t value;

    /** "kernel.arith_instrs", "tlb.walks"...: a static string. */
    const char *name() const { return counterName(slot); }
};

// A plain stats struct is its counters and nothing else: a field added
// without a table entry fails here.
static_assert(sizeof(TlbStats) == std::size(kTlbCounters) * 8);
static_assert(sizeof(SystemStats) == std::size(kSysCounters) * 8);
static_assert(sizeof(SchedStats) == std::size(kSchedCounters) * 8);
static_assert(sizeof(sa32::CoreStats) == std::size(kCpuCounters) * 8);
static_assert(sizeof(fleet::FleetStats) == std::size(kFleetCounters) * 8);
static_assert(sizeof(ShaderCacheStats) == std::size(kShaderCounters) * 8);

/** Adds every table counter of @p src into @p dst. */
template <typename S>
void
addCounters(S &dst, const S &src)
{
    for (const CounterField<S> &c : kCounterTable<S>)
        dst.*c.field += src.*c.field;
}

/** Appends every table counter of @p s, in table (= slot) order. */
template <typename S>
void
appendCounters(std::vector<NamedCounter> &out, const S &s)
{
    uint16_t slot = kFirstSlot<S>;
    for (const CounterField<S> &c : kCounterTable<S>)
        out.push_back({slot++, s.*c.field});
}

/** @name Snapshot serialisation of the stats structs: one u64 per table
 *  counter, in table order.  KernelStats adds its clause-size
 *  histogram and CFG edges after its counters.
 *  @{ */
template <typename S>
void
saveStats(snapshot::ChunkWriter &w, const S &s)
{
    for (const CounterField<S> &c : kCounterTable<S>)
        w.u64(s.*c.field);
}

/** Parses into a local first, so a truncated chunk leaves @p s as it
 *  was. */
template <typename S>
void
restoreStats(snapshot::ChunkReader &r, S &s)
{
    S v;
    for (const CounterField<S> &c : kCounterTable<S>)
        v.*c.field = r.u64();
    s = v;
}

void saveStats(snapshot::ChunkWriter &w, const KernelStats &k);
void restoreStats(snapshot::ChunkReader &r, KernelStats &k);
/** @} */

inline void
TlbStats::merge(const TlbStats &other)
{
    addCounters(*this, other);
}

inline void
SchedStats::merge(const SchedStats &o)
{
    addCounters(*this, o);
}

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

#ifndef BIFSIM_METRICS_METRICS_H
#define BIFSIM_METRICS_METRICS_H

/**
 * @file
 * Always-on sampled metrics (DESIGN.md §5k, docs/METRICS.md).
 *
 * The trace subsystem (§5c) records *events* and is opt-in; this
 * layer exports *series* and is on by default.  The counters the
 * simulator already aggregates at its natural merge points — GPU job
 * completion, System::runCpu return, fleet job completion — are
 * published here as batched deltas, so the registry sees exactly the
 * counters `instrument::appendCounters` emits (each registered once, by
 * its entry in a counter table of instrument/stats.h, which simlint
 * and docs/METRICS.md enforce) without adding any
 * per-instruction or per-translation work to a hot path.
 *
 * Shape: one cell per counter behind one mutex.  A counter's slot is
 * its position in gpu::kCounters, fixed at compile time: publishers
 * hand in slots (NamedCounter), readers name a counter through
 * gpu::counterSlot("prefix.name"), and nothing is looked up by name
 * at run time.  A publish is lock, add the batch, unlock, so a reader
 * always sees a batch whole — `tlb.walks` never outruns the
 * `tlb.*_hits` published with it.  Gauges (the table entries marked
 * kGauge: queue depth, live sessions) store the latest level into
 * their cell instead of adding.  sample() appends a timestamped copy
 * of the cells to a fixed ring, from which consumers compute windowed
 * rates (the HUD) or dump series (simsweep).
 *
 * The lock is uncontended in practice: publishers batch at merge
 * points (one batch per GPU job, per fleet job or per 64K guest
 * instructions), at most ~10^4 batches/s.  It is a leaf: the registry
 * calls nothing while holding it, so publishers may hold their own
 * locks (GpuDevice::lock_ at job completion) when they publish.
 *
 * Threading: every method, from any thread.
 *
 * The process-wide registry() is intentionally global: it aggregates
 * across every System/GpuDevice/FleetServer in the process, which is
 * the monitoring view a daemon wants.  Tests that need isolation
 * construct their own Registry or difference two snapshots.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"
#include "instrument/stats.h"

namespace bifsim::metrics {

/** Number of slots: one per registered counter. */
constexpr size_t kMaxSlots = gpu::kCounters.size();

/** Registry self-observation counters. */
struct RegistryStats
{
    uint64_t publishes = 0;   ///< Delta batches published.
    uint64_t samples = 0;     ///< Ring samples taken.
};

/** One timestamped copy of every counter's total. */
struct Sample
{
    uint64_t ns = 0;   ///< trace::nowNs() timeline.
    std::array<uint64_t, kMaxSlots> v{};
};

/**
 * The metrics registry.  One process-wide instance behind registry();
 * separately constructible for unit tests.
 */
class Registry
{
  public:
    /** @param ring_capacity  Samples retained (newest win). */
    explicit Registry(size_t ring_capacity = 1024);

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Name for @p slot (static string), or nullptr past the last. */
    static const char *
    slotName(uint16_t slot)
    {
        return slot < kMaxSlots ? gpu::counterName(slot) : nullptr;
    }

    /** Number of slots (kMaxSlots). */
    static size_t slotCount() { return kMaxSlots; }

    /**
     * Adds a batch of counter *deltas* under the lock, so a concurrent
     * totals() sees all of it or none.  A delta for a gauge slot is
     * ignored (a level is not a sum).  A disabled registry drops the
     * batch at one branch.
     */
    void publish(const std::vector<gpu::NamedCounter> &deltas)
        EXCLUDES(lock_);

    /** Stores the *level* @p value into gauge @p slot's cell.  Last
     *  writer wins. */
    void setGauge(uint16_t slot, uint64_t value) EXCLUDES(lock_);

    /** Every cell, indexed by slot. */
    std::array<uint64_t, kMaxSlots> totals() const EXCLUDES(lock_);

    /** totals() with a timestamp attached. */
    Sample snapshot() const EXCLUDES(lock_);

    /** Appends snapshot() to the ring. */
    void sample() EXCLUDES(lock_);

    /** Samples currently retained (<= capacity). */
    size_t ringSize() const EXCLUDES(lock_);

    /** Total samples ever taken (ring wraps past capacity). */
    uint64_t ringPushed() const EXCLUDES(lock_);

    size_t ringCapacity() const EXCLUDES(lock_);

    /**
     * Copies the retained sample @p age_from_newest steps back (0 =
     * newest).  False when the ring holds no such sample.
     */
    bool ringAt(size_t age_from_newest, Sample &out) const
        EXCLUDES(lock_);

    /**
     * Windowed rate for @p slot in counts/second: the delta between
     * the newest sample and the oldest retained sample not older than
     * @p window_ns, divided by their spacing.  0 when fewer than two
     * samples (or a zero time delta) are available.
     */
    double rate(uint16_t slot, uint64_t window_ns) const EXCLUDES(lock_);

    /** Kill switch for A/B overhead measurement
     *  (bench_metrics_overhead): a disabled registry drops publishes
     *  at one branch.  On by default. */
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Self-observation counters. */
    RegistryStats stats() const EXCLUDES(lock_);

  private:
    size_t ringSizeLocked() const REQUIRES(lock_);

    /** The retained sample @p age steps back, or nullptr. */
    const Sample *ringAtLocked(size_t age) const REQUIRES(lock_);

    /** Read lock-free so a disabled registry costs one load. */
    std::atomic<bool> enabled_{true};

    mutable sim::Mutex lock_;
    std::array<uint64_t, kMaxSlots> cells_ GUARDED_BY(lock_){};
    std::vector<Sample> ring_ GUARDED_BY(lock_);
    uint64_t ringPushed_ GUARDED_BY(lock_) = 0;
    RegistryStats stats_ GUARDED_BY(lock_);
};

/** The process-wide registry every subsystem publishes into. */
Registry &registry();

/**
 * The one rule that turns a publisher's cumulative counters into the
 * deltas publish() takes.  Owners keep running totals; at each publish
 * they pass the totals, as instrument::appendCounters emits them, to
 * appendDeltas(), matched to the baseline by position.  Per counter:
 * the delta is max(now - base, 0) and the baseline becomes
 * max(base, now), so totals that two threads read out of order (the
 * fleet's workers) are published exactly once.  An owner that resets
 * or restores its totals calls rebase() with the new values, so the
 * registry counts only work done in this process.
 * Threading: none of its own; the owner serialises calls.
 */
class CounterBaseline
{
  public:
    /** Appends every counter of @p now that grew since the baseline to
     *  @p out, as its growth, and advances the baseline. */
    void appendDeltas(std::vector<gpu::NamedCounter> &out,
                      const std::vector<gpu::NamedCounter> &now);

    /** Makes @p now the baseline without publishing anything. */
    void rebase(const std::vector<gpu::NamedCounter> &now);

  private:
    std::vector<uint64_t> base_;
};

} // namespace bifsim::metrics

#endif // BIFSIM_METRICS_METRICS_H

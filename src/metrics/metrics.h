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
 * names `instrument::appendCounters` emits (the single registration
 * point simlint and docs/METRICS.md enforce) without adding any
 * per-instruction or per-translation work to a hot path.
 *
 * Shape:
 *
 *  - Slot table: counter names (static strings) intern to small slot
 *    indices, fixed at kMaxSlots; interning locks, publishing never
 *    does.
 *  - Shards: each publishing thread owns a fixed array of
 *    `std::atomic<uint64_t>` cells.  A publish is one relaxed
 *    fetch_add per counter plus one release increment of the shard's
 *    sequence word.  No locks, no allocation after the first publish
 *    from a thread.
 *  - Reader: snapshot() sums cells across shards with a seqlock-style
 *    consistency retry per shard (seq read / cells read / seq
 *    re-read), so a batch published together is observed together —
 *    e.g. `tlb.walks` never outruns the `tlb.*_hits` published in the
 *    same batch.  Publishes are batched and rare, so the retry loop
 *    terminates in practice; a bounded retry cap keeps a pathological
 *    writer from livelocking the reader, degrading to a torn-batch
 *    (never torn-word) read that the `metrics.reader_retries` counter
 *    makes visible.
 *  - Gauges: level-valued series (queue depth, live sessions) use
 *    store-latest semantics in a dedicated unsharded cell — summing
 *    per-thread last-writes would be meaningless.
 *  - Ring: sample() appends a timestamped copy of the totals to a
 *    fixed single-producer ring (the §5c TraceBuffer idiom: atomic
 *    count, slot = count % capacity), from which consumers compute
 *    windowed rates (the HUD) or dump series (simsweep).
 *
 * Threading: publish()/setGauge() from any thread; slot()/totals()
 * /snapshot() from any thread; sample() and the ring read side follow
 * the single-producer rule (one sampling thread — the HUD loop or a
 * test; readers see a consistent ring only up to the published
 * count).
 *
 * The process-wide registry() is intentionally global: it aggregates
 * across every System/GpuDevice/FleetServer in the process, which is
 * the monitoring view a daemon wants.  Tests that need isolation
 * construct their own Registry or difference two snapshots.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace bifsim::gpu {
struct NamedCounter;
}

namespace bifsim::metrics {

/** Slot-table capacity.  The repo registers ~60 counters today
 *  (docs/METRICS.md); the headroom is for future prefixes.  A full
 *  table drops further names (counted in metrics.slots_dropped)
 *  rather than reallocating — shards are fixed arrays on purpose. */
constexpr size_t kMaxSlots = 128;

/** Returned by Registry::slot() when the table is full. */
constexpr uint16_t kInvalidSlot = 0xffff;

/** Registry self-observation counters, exported like every other
 *  stats struct through instrument::appendCounters ("metrics."
 *  prefix, docs/METRICS.md). */
struct RegistryStats
{
    uint64_t publishes = 0;       ///< Delta batches published.
    uint64_t samples = 0;         ///< Ring samples taken.
    uint64_t readerRetries = 0;   ///< Seqlock retries while summing.
    uint64_t slotsDropped = 0;    ///< Names rejected by a full table.
    uint64_t shards = 0;          ///< Gauge: registered writer threads.
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
    ~Registry();

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Interns @p name (must have static storage duration) and
     *  returns its slot, or kInvalidSlot when the table is full.
     *  Threading: any thread (locks; cold path only). */
    uint16_t slot(const char *name) EXCLUDES(lock_);

    /** Name for @p slot (static string), or nullptr when unassigned.
     *  Threading: any thread. */
    const char *slotName(uint16_t slot) const EXCLUDES(lock_);

    /** Number of interned slots.  Threading: any thread. */
    size_t slotCount() const EXCLUDES(lock_);

    /**
     * Publishes a batch of counter *deltas* for the calling thread:
     * one relaxed add per counter into the thread's shard, one
     * release seq bump, so a concurrent snapshot() observes the batch
     * atomically.  Unknown names intern on first use (per-thread
     * cached thereafter: the hot path is pointer-keyed, lock-free).
     * A disabled registry drops the batch at one branch.
     * Threading: any thread.
     */
    void publish(const std::vector<gpu::NamedCounter> &deltas)
        EXCLUDES(lock_);

    /** Stores the *level* @p value into @p name's gauge cell
     *  (store-latest, not summed across threads).
     *  Threading: any thread; last writer wins. */
    void setGauge(const char *name, uint64_t value) EXCLUDES(lock_);

    /** Sums every shard (seqlock retry per shard) plus gauge cells
     *  into a consistent totals vector indexed by slot.
     *  Threading: any thread. */
    std::array<uint64_t, kMaxSlots> totals() const EXCLUDES(lock_);

    /** totals() with a timestamp attached. */
    Sample snapshot() const EXCLUDES(lock_);

    /** Appends snapshot() to the ring.  Threading: single sampler
     *  thread (see file header). */
    void sample() EXCLUDES(lock_);

    /** Samples currently retained (<= capacity). */
    size_t ringSize() const;

    /** Total samples ever taken (ring wraps past capacity). */
    uint64_t ringPushed() const;

    size_t ringCapacity() const { return ring_.size(); }

    /**
     * Copies the retained sample @p age_from_newest steps back (0 =
     * newest).  False when the ring holds no such sample.
     * Threading: the sampler thread, or any thread while the sampler
     * is quiescent (single-producer ring contract).
     */
    bool ringAt(size_t age_from_newest, Sample &out) const;

    /**
     * Windowed rate for @p slot in counts/second: the delta between
     * the newest sample and the oldest retained sample not older than
     * @p window_ns, divided by their spacing.  0 when fewer than two
     * samples (or a zero time delta) are available.
     */
    double rate(uint16_t slot, uint64_t window_ns) const;

    /** Kill switch for A/B overhead measurement
     *  (bench_metrics_overhead): a disabled registry drops publishes
     *  at one branch.  On by default.  Threading: any thread. */
    void setEnabled(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Self-observation counters.  Threading: any thread. */
    RegistryStats stats() const EXCLUDES(lock_);

  private:
    /** Per-thread counter cells + publish sequence word. */
    struct Shard
    {
        std::array<std::atomic<uint64_t>, kMaxSlots> cells{};
        std::atomic<uint64_t> seq{0};
    };

    Shard *localShard() EXCLUDES(lock_);
    uint16_t slotLocked(const char *name) REQUIRES(lock_);

    std::atomic<bool> enabled_{true};

    /** Process-unique, never reused.  The per-thread caches in
     *  publish()/localShard() key on this instead of `this`: a new
     *  registry allocated where a destroyed one used to live must not
     *  inherit the old one's cached shard pointers (use-after-free)
     *  or name->slot mappings (silent misattribution). */
    const uint64_t id_;

    /** Guards interning and shard registration (cold paths only; the
     *  publish/read hot paths touch atomics, never this lock). */
    mutable sim::Mutex lock_;
    std::vector<const char *> names_ GUARDED_BY(lock_);
    std::vector<std::unique_ptr<Shard>> shards_ GUARDED_BY(lock_);

    /** Shard list size mirrored atomically so readers can walk the
     *  stable prefix without the lock (shards are never removed; a
     *  thread's counts outlive it). */
    std::atomic<size_t> shardCount_{0};
    std::atomic<size_t> nameCount_{0};

    /** Gauge cells: store-latest, unsharded.  gaugeMask_ bit i set
     *  once slot i has ever been written as a gauge. */
    std::array<std::atomic<uint64_t>, kMaxSlots> gauges_{};
    std::array<std::atomic<uint8_t>, kMaxSlots> gaugeMask_{};

    /** Sample ring (single producer; TraceBuffer idiom). */
    std::vector<Sample> ring_;
    std::atomic<uint64_t> ringCount_{0};

    mutable std::atomic<uint64_t> publishes_{0};
    mutable std::atomic<uint64_t> samples_{0};
    mutable std::atomic<uint64_t> readerRetries_{0};
    mutable std::atomic<uint64_t> slotsDropped_{0};
};

/** The process-wide registry every subsystem publishes into. */
Registry &registry();

} // namespace bifsim::metrics

#endif // BIFSIM_METRICS_METRICS_H

#ifndef BIFSIM_TRACE_TRACE_H
#define BIFSIM_TRACE_TRACE_H

/**
 * @file
 * Low-overhead job-lifecycle tracing for the whole simulator.
 *
 * Every host thread that produces events (the CPU/driver thread, the
 * Job Manager thread, each GPU worker) owns a TraceBuffer: a
 * fixed-capacity single-producer ring of timestamped events.  Writers
 * never take a lock and never allocate on the hot path; the ring wraps,
 * keeping the newest events.  Disabled tracing costs exactly one
 * predictable branch per event site: the Tracer hands out null buffer
 * pointers, and every site is gated on `if (buf)`.
 *
 * The event vocabulary follows the full job lifecycle:
 *
 *   js_submit (MMIO write) -> chain / desc_fetch / job (Job Manager)
 *   -> decode (shader decode cache hit/miss) -> verify (static shader
 *   analysis, cat "shader"; each finding is an instant named after its
 *   check class — e.g. "rom-bounds", "uninit-read" — in cat "verify")
 *   -> worker_exec / workgroup (per worker) -> mmu_walk / mmu_fault
 *   (translations) -> irq_raise -> driver_wake (host runtime or guest
 *   driver observed completion)
 *
 * Export is Chrome `trace_event` JSON (loadable in chrome://tracing or
 * ui.perfetto.dev) plus a human-readable per-job summary.  Export reads
 * the rings without stopping writers, so it should run while the device
 * is idle (e.g. after GpuDevice::waitIdle) for a consistent snapshot.
 *
 * Counter events carry the unified named-counter view of the existing
 * KernelStats / TlbStats / SystemStats structs (see
 * instrument/stats.h:appendCounters), recorded once per completed job.
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

namespace bifsim::trace {

/** Nanoseconds on the host steady clock since a process-wide epoch
 *  (fixed at first use), so events from any Tracer share a timeline. */
uint64_t nowNs();

/** Event kinds (map onto Chrome trace_event phases). */
enum class Phase : uint8_t
{
    Span,     ///< Complete event ("X"): ts + dur.
    Instant,  ///< Instant event ("i").
    Counter,  ///< Counter sample ("C").
};

/**
 * One trace event.  Name/category/argument-name strings must have
 * static storage duration (the ring stores the pointers only).
 */
struct Event
{
    const char *name = nullptr;
    const char *cat = nullptr;
    uint64_t ts = 0;       ///< Start time, ns (see nowNs()).
    uint64_t dur = 0;      ///< Duration, ns (Span only).
    Phase phase = Phase::Instant;
    uint8_t numArgs = 0;
    struct Arg
    {
        const char *name;
        uint64_t value;
    } args[2];
};

/**
 * Per-thread event ring.  Single producer (the owning thread, or
 * multiple threads serialised by an external lock, as for the device
 * MMIO buffer); drained by Tracer::exportChromeJson while quiesced.
 *
 * Threading: all event-recording methods (instant/span/counter) are
 * producer-only — exactly one thread (or an externally serialised
 * set) may call them per buffer; they never lock or allocate.  The
 * read side (size/pushed/snapshot) may run from any thread but only
 * sees a consistent ring when producers are quiescent (see the
 * export note above).
 */
class TraceBuffer
{
  public:
    /** Ring capacity in events; the ring keeps the newest. */
    static constexpr size_t kCapacity = 1u << 14;

    explicit TraceBuffer(std::string thread_name);

    /** Instant event.  Threading: owning producer only. */
    void
    instant(const char *name, const char *cat)
    {
        pushNow(name, cat, Phase::Instant, 0, nullptr, 0, nullptr, 0);
    }

    void
    instant(const char *name, const char *cat, const char *a0n,
            uint64_t a0)
    {
        pushNow(name, cat, Phase::Instant, 1, a0n, a0, nullptr, 0);
    }

    void
    instant(const char *name, const char *cat, const char *a0n,
            uint64_t a0, const char *a1n, uint64_t a1)
    {
        pushNow(name, cat, Phase::Instant, 2, a0n, a0, a1n, a1);
    }

    /** Complete span: @p start_ts from an earlier nowNs() call.
     *  Threading: owning producer only. */
    void
    span(const char *name, const char *cat, uint64_t start_ts)
    {
        pushSpan(name, cat, start_ts, 0, nullptr, 0, nullptr, 0);
    }

    void
    span(const char *name, const char *cat, uint64_t start_ts,
         const char *a0n, uint64_t a0)
    {
        pushSpan(name, cat, start_ts, 1, a0n, a0, nullptr, 0);
    }

    void
    span(const char *name, const char *cat, uint64_t start_ts,
         const char *a0n, uint64_t a0, const char *a1n, uint64_t a1)
    {
        pushSpan(name, cat, start_ts, 2, a0n, a0, a1n, a1);
    }

    /** Counter sample (rendered as a track in chrome://tracing).
     *  Threading: owning producer only. */
    void counter(const char *name, uint64_t value);

    /** Threading: any thread (immutable after construction). */
    const std::string &threadName() const { return threadName_; }

    /** Events currently retained (<= capacity).  Threading: any
     *  thread; exact only while producers are quiescent. */
    size_t size() const;

    /** Total events ever pushed (>= size() once the ring wraps).
     *  Threading: any thread (atomic read). */
    uint64_t pushed() const
    {
        return count_.load(std::memory_order_acquire);
    }

    /** Copies the retained events, oldest first, into @p out.
     *  Threading: any thread, but call only while the producer is
     *  quiescent — a concurrent push can tear the copied slots. */
    void snapshot(std::vector<Event> &out) const;

  private:
    void pushNow(const char *name, const char *cat, Phase ph,
                 uint8_t nargs, const char *a0n, uint64_t a0,
                 const char *a1n, uint64_t a1);
    void pushSpan(const char *name, const char *cat, uint64_t start_ts,
                  uint8_t nargs, const char *a0n, uint64_t a0,
                  const char *a1n, uint64_t a1);
    void push(const Event &e);

    std::string threadName_;
    std::vector<Event> ring_;
    std::atomic<uint64_t> count_{0};   ///< Total pushed; next slot is
                                       ///< count_ % ring_.size().
};

/**
 * Owns the per-thread buffers and performs export.  One Tracer per
 * GpuDevice (reachable as gpu().tracer() / Session::tracer()); when
 * constructed disabled it hands out null buffers and everything else
 * is a no-op.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    /** Threading: any thread (immutable after construction). */
    bool enabled() const { return enabled_; }

    /**
     * Registers a producer thread and returns its buffer (stable for
     * the Tracer's lifetime), or nullptr when tracing is disabled —
     * callers keep the pointer and gate each event site on it.
     * Threading: any thread (registration serialises on an internal
     * lock); typically called once from each thread at startup.
     */
    TraceBuffer *registerThread(const std::string &name)
        EXCLUDES(lock_);

    /** Total events currently retained across all buffers.
     *  Threading: any thread; approximate while producers run. */
    size_t eventCount() const EXCLUDES(lock_);

    /** Writes Chrome trace_event JSON ({"traceEvents":[...]}).
     *  Threading: any thread, but producers must be quiescent (e.g.
     *  after GpuDevice::waitIdle) for a consistent snapshot. */
    void exportChromeJson(std::ostream &os) const EXCLUDES(lock_);

    /** Writes the JSON to @p path; false on I/O failure.
     *  Threading: as exportChromeJson. */
    bool exportChromeJsonFile(const std::string &path) const;

    /** Human-readable per-job summary plus aggregate span/counter
     *  tables.  Threading: as exportChromeJson. */
    void writeSummary(std::ostream &os) const;

  private:
    /** All retained events merged and sorted by timestamp, with the
     *  owning buffer's index attached as a tid. */
    struct TaggedEvent
    {
        Event e;
        unsigned tid;
    };
    std::vector<TaggedEvent> merged() const EXCLUDES(lock_);

    bool enabled_;
    mutable sim::Mutex lock_;   ///< Guards buffers_ (registration).
    std::vector<std::unique_ptr<TraceBuffer>> buffers_ GUARDED_BY(lock_);
};

} // namespace bifsim::trace

#endif // BIFSIM_TRACE_TRACE_H

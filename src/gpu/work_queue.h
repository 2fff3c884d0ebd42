#ifndef BIFSIM_GPU_WORK_QUEUE_H
#define BIFSIM_GPU_WORK_QUEUE_H

/**
 * @file
 * Work-stealing workgroup scheduler for the virtual-core pool
 * (paper §III-B3/4).
 *
 * The original pool handed out workgroups one at a time from a single
 * shared atomic counter — every group claim was a contended
 * fetch-add on one cache line, which flattens the Fig. 10 scaling
 * curve well before physical core count.  This header replaces it
 * with the classic Chase-Lev scheme:
 *
 *  - At job start the Job Manager splits the grid into contiguous
 *    *slices* of workgroups and deals them into per-worker deques
 *    (each worker gets a contiguous block of the grid for locality).
 *  - A worker pops slices from the *bottom* of its own deque (LIFO,
 *    cache-warm end) with no synchronisation in the common case.
 *  - An idle worker steals a slice from the *top* (FIFO, oldest end)
 *    of a victim's deque with one CAS.
 *
 * Because slices are only ever pushed while the pool is parked (the
 * Job Manager owns the deques between jobs), the deques never grow:
 * capacity is fixed per job and the push path needs no resize logic.
 *
 * Threading contract:
 *  - reset()/push() — Job Manager thread only, while no worker is
 *    running (publication to the workers happens via the pool mutex
 *    that wakes them).
 *  - pop()          — owning worker thread only.
 *  - steal()        — any other worker thread, concurrently with the
 *    owner's pop() and other thieves' steal().
 *
 * Memory ordering follows Lê, Pop, Cohen & Zappa Nardelli, "Correct
 * and Efficient Work-Stealing for Weak Memory Models" (PPoPP'13);
 * this is the TSan-clean formulation of the Chase-Lev deque.
 *
 * Static-contract note (DESIGN.md §5i): this structure is lock-free by
 * design and therefore exempt from the sim::Mutex/GUARDED_BY rule —
 * its invariants are the atomics' memory orderings above, which the
 * thread-safety analysis cannot express.  TSan remains the checker.
 */

#include <atomic>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"

namespace bifsim::gpu {

/** A contiguous range of linear workgroup indices [begin, end). */
struct GroupSlice
{
    uint32_t begin = 0;
    uint32_t end = 0;

    uint32_t size() const { return end - begin; }

    /** Packs into the deque's atomically-copyable cell encoding. */
    uint64_t
    pack() const
    {
        return (static_cast<uint64_t>(begin) << 32) | end;
    }

    static GroupSlice
    unpack(uint64_t v)
    {
        return GroupSlice{static_cast<uint32_t>(v >> 32),
                          static_cast<uint32_t>(v)};
    }
};

/**
 * Fixed-capacity Chase-Lev deque of GroupSlices.
 *
 * Cells are std::atomic<uint64_t> (a packed GroupSlice) because a
 * thief may read a cell concurrently with the owner overwriting it;
 * the algorithm tolerates the torn *logical* value (the CAS on top_
 * rejects the thief) but the *load* itself must be race-free.
 *
 * Cache-line aligned: the deques sit side by side in one array, and
 * each owner writes its bottom_ on every pop, so unaligned neighbours
 * would share a line between workers.
 */
class alignas(sim::kCacheLineBytes) SliceDeque
{
  public:
    /** Result of a steal attempt. */
    enum class Steal
    {
        Got,    ///< A slice was stolen.
        Empty,  ///< Deque observed empty.
        Lost,   ///< Raced with the owner or another thief; retry.
    };

    /**
     * Empties the deque and guarantees room for @p capacity slices.
     * Job Manager thread only, with all workers parked.
     */
    void
    reset(size_t capacity)
    {
        if (ring_.size() < capacity) {
            size_t n = 16;
            while (n < capacity)
                n <<= 1;
            ring_ = std::vector<std::atomic<uint64_t>>(n);
            mask_ = n - 1;
        }
        top_.store(0, std::memory_order_relaxed);
        bottom_.store(0, std::memory_order_relaxed);
    }

    /** Appends a slice at the bottom.  Owner/JM only; reset() must
     *  have guaranteed capacity (the deque never grows). */
    void
    push(GroupSlice s)
    {
        int64_t b = bottom_.load(std::memory_order_relaxed);
        int64_t t = top_.load(std::memory_order_acquire);
        assert(b - t < static_cast<int64_t>(ring_.size()));
        ring_[static_cast<size_t>(b) & mask_].store(
            s.pack(), std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_release);
        bottom_.store(b + 1, std::memory_order_relaxed);
    }

    /** Takes the newest slice.  Owning worker thread only.
     *  @return false when the deque is empty (or the last slice was
     *  lost to a thief). */
    bool
    pop(GroupSlice &out)
    {
        int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
        bottom_.store(b, std::memory_order_relaxed);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        int64_t t = top_.load(std::memory_order_relaxed);
        if (t <= b) {
            uint64_t v = ring_[static_cast<size_t>(b) & mask_].load(
                std::memory_order_relaxed);
            if (t == b) {
                // Last element: race against thieves for it.
                if (!top_.compare_exchange_strong(
                        t, t + 1, std::memory_order_seq_cst,
                        std::memory_order_relaxed)) {
                    bottom_.store(b + 1, std::memory_order_relaxed);
                    return false;
                }
                bottom_.store(b + 1, std::memory_order_relaxed);
            }
            out = GroupSlice::unpack(v);
            return true;
        }
        bottom_.store(b + 1, std::memory_order_relaxed);
        return false;
    }

    /** Tries to take the oldest slice.  Any thief thread. */
    Steal
    steal(GroupSlice &out)
    {
        int64_t t = top_.load(std::memory_order_acquire);
        std::atomic_thread_fence(std::memory_order_seq_cst);
        int64_t b = bottom_.load(std::memory_order_acquire);
        if (t >= b)
            return Steal::Empty;
        uint64_t v = ring_[static_cast<size_t>(t) & mask_].load(
            std::memory_order_relaxed);
        if (!top_.compare_exchange_strong(t, t + 1,
                                          std::memory_order_seq_cst,
                                          std::memory_order_relaxed)) {
            return Steal::Lost;
        }
        out = GroupSlice::unpack(v);
        return Steal::Got;
    }

    /** Approximate occupancy (exact when the pool is parked). */
    size_t
    sizeApprox() const
    {
        int64_t b = bottom_.load(std::memory_order_relaxed);
        int64_t t = top_.load(std::memory_order_relaxed);
        return b > t ? static_cast<size_t>(b - t) : 0;
    }

  private:
    std::atomic<int64_t> top_{0};
    std::atomic<int64_t> bottom_{0};
    std::vector<std::atomic<uint64_t>> ring_{
        std::vector<std::atomic<uint64_t>>(16)};
    size_t mask_ = 15;
};

static_assert(alignof(SliceDeque) == sim::kCacheLineBytes);

} // namespace bifsim::gpu

#endif // BIFSIM_GPU_WORK_QUEUE_H

#ifndef BIFSIM_GPU_WORK_QUEUE_H
#define BIFSIM_GPU_WORK_QUEUE_H

/**
 * @file
 * Work-stealing workgroup scheduler for the virtual-core pool
 * (paper §III-B3/4).
 *
 *  - At job start the Job Manager splits the grid into contiguous
 *    *slices* of workgroups and deals them into per-worker queues
 *    (each worker gets a contiguous block of the grid for locality).
 *  - A worker pops the newest slice of its own queue (the cache-warm
 *    end).
 *  - An idle worker steals the oldest slice of a victim's queue (the
 *    slice its owner would reach last).
 *
 * A job deals only a few slices per worker, so a queue operation is
 * rare next to the workgroups a slice runs, and a plain mutex per
 * queue costs nothing measurable (DESIGN.md §5f).  Slices are pushed
 * only while the pool is parked, so once a job is dispatched a queue
 * only drains, and a scan that finds every queue empty proves no
 * unclaimed work remains.
 *
 * Threading contract:
 *  - reset()/push() — Job Manager thread, while no worker is running.
 *  - pop()          — owning worker thread.
 *  - steal()        — any other worker thread, concurrently with the
 *    owner's pop() and other thieves' steal().
 * Every member is guarded by the queue's own lock, a leaf lock never
 * held together with any other (DESIGN.md §5i).
 */

#include <cstdint>
#include <vector>

#include "common/thread_annotations.h"

namespace bifsim::gpu {

/** A contiguous range of linear workgroup indices [begin, end). */
struct GroupSlice
{
    uint32_t begin = 0;
    uint32_t end = 0;
};

/**
 * A mutex-guarded queue of GroupSlices: the owner takes from the back,
 * thieves from the front.
 *
 * Cache-line aligned: the queues sit side by side in one array and
 * every claim writes the lock word, so unaligned neighbours would
 * share a line between workers.
 */
class alignas(sim::kCacheLineBytes) SliceDeque
{
  public:
    /** Result of a steal attempt. */
    enum class Steal
    {
        Got,    ///< A slice was stolen.
        Empty,  ///< The queue was empty.
    };

    /** Empties the queue, keeping its storage. */
    void
    reset() EXCLUDES(lock_)
    {
        sim::LockGuard g(lock_);
        slices_.clear();
        head_ = 0;
    }

    /** Appends a slice at the back (the newest end). */
    void
    push(GroupSlice s) EXCLUDES(lock_)
    {
        sim::LockGuard g(lock_);
        slices_.push_back(s);
    }

    /** Takes the newest slice.  @return false when the queue is
     *  empty. */
    bool
    pop(GroupSlice &out) EXCLUDES(lock_)
    {
        sim::LockGuard g(lock_);
        if (head_ == slices_.size())
            return false;
        out = slices_.back();
        slices_.pop_back();
        return true;
    }

    /** Takes the oldest slice. */
    Steal
    steal(GroupSlice &out) EXCLUDES(lock_)
    {
        sim::LockGuard g(lock_);
        if (head_ == slices_.size())
            return Steal::Empty;
        out = slices_[head_++];
        return Steal::Got;
    }

  private:
    sim::Mutex lock_;
    std::vector<GroupSlice> slices_ GUARDED_BY(lock_);
    size_t head_ GUARDED_BY(lock_) = 0;   ///< Oldest unclaimed slice.
};

static_assert(alignof(SliceDeque) == sim::kCacheLineBytes);

} // namespace bifsim::gpu

#endif // BIFSIM_GPU_WORK_QUEUE_H

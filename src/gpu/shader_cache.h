#ifndef BIFSIM_GPU_SHADER_CACHE_H
#define BIFSIM_GPU_SHADER_CACHE_H

/**
 * @file
 * Sharded shader decode cache (paper §III-B2: each binary is decoded
 * exactly once, then reused by every job that references it).
 *
 * The original cache was a single unordered_map guarded by the GPU's
 * MMIO lock, so every per-job lookup contended with control-register
 * traffic and IRQ delivery.  This version splits it into two levels:
 *
 *  - **L2** (`ShaderCacheL2`, one per GpuDevice): a fixed-bucket hash
 *    with *lock-free reads*.  Each bucket is an atomic head pointer
 *    to a singly-linked list of immutable nodes; lookups traverse
 *    with acquire loads and never take a lock.  Inserts are
 *    serialised by a writer mutex and publish with a release store.
 *  - **L1** (`ShaderCacheL1`, one per consumer thread): a small
 *    direct-mapped array of (va -> shader) entries.  A hit touches
 *    no shared memory at all — not even the L2 bucket heads or the
 *    shader's shared_ptr refcount.
 *
 * Invalidation is epoch-based, the same protocol the worker TLBs use
 * (see gmmu.h): GPU_CMD cache-flush, a real AS_TRANSTAB root change
 * and snapshot restore bump the L2 epoch.  Nodes carry the epoch at
 * which decoding *started*, so a flush that lands while a decode is
 * in flight stales the resulting node before it is ever served — the
 * next lookup re-decodes.  L1s compare their recorded epoch against
 * the L2 epoch on every lookup and self-clear when stale.
 *
 * Reclamation: stale L2 nodes are unreachable to lookups (epoch
 * mismatch) but are only *freed* by purge(), which requires
 * quiescence (no concurrent lookups) — reset, restore and
 * destruction.  This keeps the read path free of hazard pointers;
 * the retained memory is bounded by the number of distinct shader
 * binaries decoded since the last quiescent point.
 *
 * Threading contract:
 *  - lookup()            any thread, lock-free.
 *  - insert()            any thread (serialised internally).
 *  - invalidate()        any thread (single atomic bump).
 *  - epoch()             any thread.
 *  - purge()             only while no other thread can be inside
 *                        lookup()/insert() (device quiescent).
 *  - ShaderCacheL1       owned by exactly one thread; never shared.
 */

#include <atomic>
#include <cstdint>
#include <memory>

#include "common/thread_annotations.h"

namespace bifsim::gpu {

struct DecodedShader;

/** Shared decode-cache level: lock-free reads, mutex-serialised
 *  inserts, epoch invalidation, quiescent reclamation. */
class ShaderCacheL2
{
  public:
    ShaderCacheL2() = default;
    ~ShaderCacheL2();

    ShaderCacheL2(const ShaderCacheL2 &) = delete;
    ShaderCacheL2 &operator=(const ShaderCacheL2 &) = delete;

    /**
     * Lock-free lookup of the shader decoded from GPU VA @p va.
     * Returns null on miss or when every matching node is stale.
     * Any thread.
     */
    std::shared_ptr<DecodedShader> lookup(uint32_t va) const;

    /**
     * Publishes @p shader for @p va, stamped with @p decode_epoch —
     * the epoch() observed *before* the decode began, so an
     * invalidate() racing the decode stales the node immediately.
     * Any thread; inserts are serialised internally.
     */
    void insert(uint32_t va, std::shared_ptr<DecodedShader> shader,
                uint64_t decode_epoch) EXCLUDES(writeLock_);

    /** Makes every current node stale (single atomic bump; nodes are
     *  reclaimed later by purge()).  Any thread. */
    void invalidate() { epoch_.fetch_add(1, std::memory_order_release); }

    /** Current invalidation epoch.  Any thread. */
    uint64_t
    epoch() const
    {
        return epoch_.load(std::memory_order_acquire);
    }

    /**
     * Frees every node (live and stale) and bumps the epoch.
     * QUIESCENT ONLY: no concurrent lookup()/insert() may be running
     * — callers are GpuDevice::reset()/restoreState()/~GpuDevice(),
     * all of which hold the no-active-chain invariant.
     */
    void purge();

  private:
    static constexpr size_t kBuckets = 64;

    struct Node
    {
        uint32_t va;
        uint64_t epoch;
        std::shared_ptr<DecodedShader> shader;
        Node *next;
    };

    static size_t
    bucketOf(uint32_t va)
    {
        return (va * 2654435761u) >> 26 & (kBuckets - 1);
    }

    // The bucket heads and epoch are deliberately NOT guarded by
    // writeLock_: the read path is lock-free by design (acquire loads
    // pairing with insert()'s release publish; §5i lock-free exemption).
    // writeLock_ only serialises concurrent inserts against each other.
    std::atomic<Node *> buckets_[kBuckets] = {};
    std::atomic<uint64_t> epoch_{1};
    sim::Mutex writeLock_;   ///< Serialises insert(); purge() needs
                             ///< quiescence instead (see above).
};

/**
 * Per-thread decode-cache level.  Direct-mapped; entries hold their
 * own shared_ptr so a hit performs zero shared-memory traffic.
 * Strictly thread-local: each consumer (the submit path, each pool
 * worker) owns one and no other thread may touch it.
 */
class ShaderCacheL1
{
  public:
    static constexpr size_t kEntries = 8;

    /**
     * Looks up @p va, falling back to @p l2 on miss (and caching the
     * result).  Self-clears when the L2 epoch has moved.  Returns
     * null when neither level has a current-epoch entry.
     */
    std::shared_ptr<DecodedShader> get(const ShaderCacheL2 &l2,
                                       uint32_t va);

    /** Drops all entries (e.g. when the owner goes idle). */
    void
    clear()
    {
        for (Entry &e : entries_)
            e = Entry{};
    }

    /** @name Thread-local hit counters (owner thread reads/resets). */
    ///@{
    uint64_t hits = 0;     ///< Served from this L1.
    uint64_t l2Fills = 0;  ///< Misses that hit the shared L2.
    ///@}

  private:
    struct Entry
    {
        uint32_t va = 0;
        std::shared_ptr<DecodedShader> shader;   ///< Null = empty.
    };

    static size_t
    slotOf(uint32_t va)
    {
        return (va * 2654435761u) >> 28 & (kEntries - 1);
    }

    Entry entries_[kEntries];
    uint64_t epoch_ = 0;   ///< L2 epoch the entries were filled under.
};

} // namespace bifsim::gpu

#endif // BIFSIM_GPU_SHADER_CACHE_H

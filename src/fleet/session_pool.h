#ifndef BIFSIM_FLEET_SESSION_POOL_H
#define BIFSIM_FLEET_SESSION_POOL_H

/**
 * @file
 * A recycling pool of warm-boot sessions over one shared image
 * (DESIGN.md §5j).
 *
 * The pool is where the fleet's three sharing layers meet:
 *
 *  - the *parsed* snapshot::Image is validated (structure + every
 *    chunk CRC) exactly once at pool construction and shared by all
 *    spawns, instead of N sessions each re-reading and re-hashing the
 *    bytes;
 *  - guest RAM is a sealed mem::RamImage (memfd + MAP_PRIVATE): clean
 *    pages are shared by every pooled session, so N sessions cost far
 *    less than N full RAM copies and spawn skips the RAM memcpy;
 *  - released sessions are *recycled* in place (Session::
 *    resetFromSnapshot): the expensive System — GPU worker threads,
 *    decode caches — survives, and the restore costs O(dirtied
 *    state), which BENCH_fleet.json shows is >= 5x cheaper than a
 *    cold boot.
 *
 * Threading: acquire()/release (via Lease destruction) are safe from
 * any thread.  The Session inside a Lease follows the normal
 * single-owner Session contract — exactly one thread uses it while
 * the lease is held.  Spawning and recycling happen *outside* the
 * pool lock, so a slow spawn never blocks an unrelated release.
 */

#include <cstdint>
#include <memory>
#include <vector>

#include "common/thread_annotations.h"
#include "fleet/fleet_stats.h"
#include "runtime/session.h"
#include "snapshot/snapshot.h"

namespace bifsim::fleet {

/** Pool sizing and per-session host-side knobs. */
struct PoolConfig
{
    /** Hard ceiling on live sessions (acquire blocks at the cap). */
    size_t maxSessions = 64;

    /**
     * Host-side knob template for spawned sessions (gpu.hostThreads,
     * gpu.trace, cpuDbt...).  RAM geometry and shader-core count always
     * come from the image; syncSubmit is forced on so every tenant's
     * results are bit-identical to a solo run regardless of fleet
     * load (PR 8's determinism contract).
     */
    rt::SystemConfig base;
};

/**
 * Owns up to maxSessions warm sessions spawned from one shared image.
 */
class SessionPool
{
  public:
    /**
     * @p image must already be validated (snapshot::Image construction
     * does this); the pool keeps a reference for the life of every
     * session.  Seals the CoW RAM backing once (silently absent on
     * hosts without memfd: sessions then spawn with private copies and
     * everything still works, just without page sharing).
     */
    SessionPool(std::shared_ptr<const snapshot::Image> image,
                PoolConfig cfg);
    ~SessionPool();

    SessionPool(const SessionPool &) = delete;
    SessionPool &operator=(const SessionPool &) = delete;

    class Lease;

    /**
     * Checks out a warm session, spawning one if under the cap, else
     * blocking until a release.  @throws anything Session::fromSnapshot
     * throws (first spawn surfaces image/config problems here).
     * Threading: any thread.
     */
    Lease acquire() EXCLUDES(lock_);

    /** The shared parsed image (valid for the pool's lifetime). */
    const snapshot::Image &image() const { return *image_; }

    /** True when guest RAM is CoW-shared (Linux with memfd). */
    bool cowShared() const { return ramImage_ != nullptr; }

    /** Counter snapshot: the pool's fields of FleetStats (spawns,
     *  recycles, recycleFailures, acquireWaits, sessionsLive,
     *  sessionsIdle); the rest stay 0.  Threading: any thread. */
    FleetStats stats() const EXCLUDES(lock_);

  private:
    struct Entry
    {
        uint32_t id = 0;
        std::unique_ptr<rt::Session> session;
    };

    std::shared_ptr<const snapshot::Image> image_;
    PoolConfig cfg_;
    std::shared_ptr<const RamImage> ramImage_;   ///< May be null.

    mutable sim::Mutex lock_;
    sim::CondVar cv_;
    std::vector<std::unique_ptr<Entry>> idle_ GUARDED_BY(lock_);
    size_t live_ GUARDED_BY(lock_) = 0;       ///< Spawned and not dropped.
    size_t spawning_ GUARDED_BY(lock_) = 0;   ///< Spawns in flight.
    uint32_t nextId_ GUARDED_BY(lock_) = 0;
    FleetStats stats_ GUARDED_BY(lock_);   ///< Monotone pool counters.

    std::unique_ptr<Entry> spawn(uint32_t id);
    void release(std::unique_ptr<Entry> e) EXCLUDES(lock_);

  public:
    /**
     * RAII checkout.  Movable; destruction recycles the session back
     * into the pool (reset happens on the destroying thread).
     */
    class Lease
    {
      public:
        Lease() = default;
        Lease(Lease &&o) noexcept
            : pool_(o.pool_), entry_(std::move(o.entry_))
        {
            o.pool_ = nullptr;
        }
        Lease &
        operator=(Lease &&o) noexcept
        {
            if (this != &o) {
                reset();
                pool_ = o.pool_;
                entry_ = std::move(o.entry_);
                o.pool_ = nullptr;
            }
            return *this;
        }
        ~Lease() { reset(); }

        Lease(const Lease &) = delete;
        Lease &operator=(const Lease &) = delete;

        explicit operator bool() const { return entry_ != nullptr; }
        rt::Session &session() { return *entry_->session; }
        rt::Session *operator->() { return entry_->session.get(); }

        /** Stable id of the underlying pooled session. */
        uint32_t id() const { return entry_->id; }

      private:
        friend class SessionPool;
        Lease(SessionPool *pool, std::unique_ptr<Entry> e)
            : pool_(pool), entry_(std::move(e))
        {
        }
        void
        reset()
        {
            if (pool_ && entry_)
                pool_->release(std::move(entry_));
            pool_ = nullptr;
            entry_ = nullptr;
        }

        SessionPool *pool_ = nullptr;
        std::unique_ptr<Entry> entry_;
    };
};

} // namespace bifsim::fleet

#endif // BIFSIM_FLEET_SESSION_POOL_H

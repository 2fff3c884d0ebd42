#include "fleet/session_pool.h"

namespace bifsim::fleet {

SessionPool::SessionPool(std::shared_ptr<const snapshot::Image> image,
                         PoolConfig cfg)
    : image_(std::move(image)), cfg_(std::move(cfg))
{
    if (!image_)
        snapshot::snapshotError("session pool needs an image");
    if (cfg_.maxSessions == 0)
        snapshot::snapshotError("session pool cap must be nonzero");
    // Every tenant's results must be bit-identical to a solo run; the
    // asynchronous JM thread is the one source of schedule-dependent
    // interleaving, so the pool always forces synchronous submission.
    cfg_.base.gpu.syncSubmit = true;
    ramImage_ = RamImage::sealFromSnapshot(*image_);
    cfg_.base.ramImage = ramImage_;
}

SessionPool::~SessionPool() = default;

std::unique_ptr<SessionPool::Entry>
SessionPool::spawn(uint32_t id)
{
    auto e = std::make_unique<Entry>();
    e->id = id;
    e->session = rt::Session::fromSnapshot(*image_, cfg_.base);
    return e;
}

SessionPool::Lease
SessionPool::acquire()
{
    uint32_t id;
    {
        sim::UniqueLock l(lock_);
        bool waited = false;
        while (true) {
            if (!idle_.empty()) {
                std::unique_ptr<Entry> e = std::move(idle_.back());
                idle_.pop_back();
                if (waited)
                    ++stats_.acquireWaits;
                return Lease(this, std::move(e));
            }
            if (live_ + spawning_ < cfg_.maxSessions)
                break;
            waited = true;
            cv_.wait(l);
        }
        id = nextId_++;
        ++spawning_;
        if (waited)
            ++stats_.acquireWaits;
    }

    // Spawn outside the lock: constructing a Session (GPU worker
    // threads, CoW map or full RAM copy) is the expensive path and
    // must not serialise releases or other spawns.
    std::unique_ptr<Entry> e;
    try {
        e = spawn(id);
    } catch (...) {
        sim::LockGuard g(lock_);
        --spawning_;
        cv_.notify_all();
        throw;
    }
    {
        sim::LockGuard g(lock_);
        --spawning_;
        ++live_;
        ++stats_.spawns;
    }
    return Lease(this, std::move(e));
}

void
SessionPool::release(std::unique_ptr<Entry> e)
{
    // Recycle eagerly on the releasing thread so the next acquire()
    // gets a clean session with zero latency.  A failed reset means
    // the session is in an unknown state: drop it (the cap slot frees
    // up, so a future acquire will spawn a replacement).
    bool ok = true;
    try {
        e->session->resetFromSnapshot(*image_);
    } catch (...) {
        ok = false;
    }
    {
        sim::LockGuard g(lock_);
        if (ok) {
            ++stats_.recycles;
            idle_.push_back(std::move(e));
        } else {
            ++stats_.recycleFailures;
            --live_;
        }
        cv_.notify_all();
    }
    // A dropped entry is destroyed here, outside the lock — the
    // Session destructor joins its GPU worker threads.
}

FleetStats
SessionPool::stats() const
{
    sim::LockGuard g(lock_);
    FleetStats s = stats_;
    s.sessionsLive = live_;
    s.sessionsIdle = idle_.size();
    return s;
}

} // namespace bifsim::fleet

#ifndef BIFSIM_FLEET_FLEET_H
#define BIFSIM_FLEET_FLEET_H

/**
 * @file
 * The fleet server: simulation-as-a-service over one warm image
 * (DESIGN.md §5j).
 *
 * A FleetServer owns a SessionPool and a global admission queue.
 * Tenants submit JobRequests — in-process through submitSync(), or
 * over a Unix socket through serve() (the `simd` daemon wraps this) —
 * and a fixed crew of scheduler workers executes them on pooled
 * sessions:
 *
 *   submit -> admission control -> per-tenant FIFO -> round-robin
 *   across tenants -> worker leases a session -> writes, launch,
 *   readback -> result callback
 *
 * Fairness is deficit-free round-robin at job granularity: each
 * tenant has its own FIFO and workers rotate over the tenants with
 * queued work, so a tenant blasting thousands of jobs delays its own
 * backlog, not its neighbours'.  Backpressure is by rejection:
 * per-tenant and global queue caps are enforced at admission and an
 * over-cap submit fails fast with JobStatus::Rejected instead of
 * queueing unboundedly.
 *
 * Determinism contract: pooled sessions run with syncSubmit forced
 * on, so every job's kernel statistics, readback bytes and (optional)
 * post-job RAM CRC are bit-identical to the same request run on a
 * solo cold-booted session — concurrency changes the schedule, never
 * the results (tests/test_fleet.cc proves this T threads x S
 * sessions deep).
 *
 * Lock order: queueLock_ and statsLock_ are leaves (never held while
 * calling into the pool, a session, or a callback); connLock_ only
 * ever nests around fd bookkeeping.
 */

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_annotations.h"
#include "fleet/fleet_stats.h"
#include "fleet/proto.h"
#include "fleet/session_pool.h"
#include "fleet/warm_image.h"
#include "metrics/metrics.h"
#include "trace/trace.h"

namespace bifsim::fleet {

/** Server sizing. */
struct FleetConfig
{
    PoolConfig pool;                 ///< Session pool (cap, knobs).
    unsigned workers = 4;            ///< Scheduler worker threads.
    size_t maxQueuedPerTenant = 32;  ///< Admission cap per tenant.
    size_t maxQueuedTotal = 256;     ///< Admission cap, all tenants.
    bool trace = false;              ///< Fleet-level job tracing.
};

/** Ceiling on thread count per job (admission-time sanity cap). */
constexpr uint64_t kMaxJobThreads = 1ull << 24;

/**
 * The daemon core.  Construction spawns the worker threads;
 * destruction drains and joins them.
 */
class FleetServer
{
  public:
    /** @p image: a validated warm-boot image (see warm_image.h).
     *  @throws snapshot::SnapshotError on images a pool cannot use. */
    FleetServer(std::shared_ptr<const snapshot::Image> image,
                FleetConfig cfg);
    ~FleetServer();

    FleetServer(const FleetServer &) = delete;
    FleetServer &operator=(const FleetServer &) = delete;

    /**
     * Submits @p req and blocks until its result.  Admission control
     * applies (an over-cap submit returns Rejected without blocking).
     * Threading: any thread, any number concurrently.
     */
    JobResultMsg submitSync(const JobRequest &req);

    /**
     * Submits @p req; @p done fires exactly once with the result, on
     * a scheduler worker (or inline on rejection).  @p done must not
     * block for long and must not call back into submit.
     * Threading: any thread.
     */
    void submitAsync(JobRequest req,
                     std::function<void(JobResultMsg)> done)
        EXCLUDES(queueLock_);

    /**
     * Binds @p socket_path (unlinking any stale socket), accepts
     * clients and serves frames until requestShutdown().  Each
     * connection gets a greeting Welcome frame and a dedicated reader
     * thread.  Blocks the calling thread for the server's lifetime.
     * @return 0 on clean shutdown, nonzero on socket setup failure
     * (message on stderr).
     */
    int serve(const std::string &socket_path);

    /** Asks serve() and the workers to drain queued jobs and stop.
     *  Safe from any thread, idempotent. */
    void requestShutdown();

    /** True once requestShutdown() has been called. */
    bool shuttingDown() const;

    /** What the image offers (sent as the FLTW greeting). */
    Welcome welcome() const;

    /** Merged fleet.* counters (server + pool + queue gauges). */
    FleetStats stats() const EXCLUDES(statsLock_, queueLock_);

    /** stats() rendered as the FLTS wire payload: counters plus
     *  uptime + per-tenant rows. */
    StatsReply statsReply() const EXCLUDES(statsLock_, queueLock_);

    /** The warm image's inventory (matrix size, registries). */
    const WarmImageInfo &imageInfo() const { return info_; }

    /** The session pool (for tests and benchmarks). */
    SessionPool &pool() { return *pool_; }

    /** The fleet-level tracer (enabled via FleetConfig::trace). */
    trace::Tracer &tracer() { return tracer_; }

  private:
    struct PendingJob
    {
        JobRequest req;
        std::function<void(JobResultMsg)> done;
        uint64_t admitNs = 0;
    };

    FleetConfig cfg_;
    WarmImageInfo info_;
    std::unique_ptr<SessionPool> pool_;
    trace::Tracer tracer_;

    mutable sim::Mutex queueLock_;
    sim::CondVar queueCv_;
    /** Per-tenant FIFOs; a tenant appears in rotation_ iff its deque
     *  is nonempty. */
    std::map<std::string, std::deque<PendingJob>> queues_
        GUARDED_BY(queueLock_);
    std::vector<std::string> rotation_ GUARDED_BY(queueLock_);
    size_t rrNext_ GUARDED_BY(queueLock_) = 0;
    size_t totalQueued_ GUARDED_BY(queueLock_) = 0;
    bool draining_ GUARDED_BY(queueLock_) = false;
    std::set<std::string> tenantsSeen_ GUARDED_BY(queueLock_);

    mutable sim::Mutex statsLock_;
    FleetStats stats_ GUARDED_BY(statsLock_);
    /** Per-tenant lifetime totals, served in the FLTS reply. */
    std::map<std::string, StatsReply::TenantRow> tenantStats_
        GUARDED_BY(statsLock_);
    /** Metrics baseline (§5k) for the merged stats() counters. */
    metrics::CounterBaseline metricsBase_ GUARDED_BY(statsLock_);

    /** Construction time (trace::nowNs), for FLTS uptime. */
    const uint64_t startNs_;

    std::atomic<bool> shutdown_{false};

    /** serve()'s bookkeeping: the open connection fds (shutdown
     *  unblocks their readers), the listening fd (-1 outside serve();
     *  shutdown wakes its accept()), the reader threads that have
     *  finished (serve() joins them), and connCv_ (shutdown cuts short
     *  serve()'s pause after a failed accept()). */
    mutable sim::Mutex connLock_;
    sim::CondVar connCv_;
    std::vector<int> connFds_ GUARDED_BY(connLock_);
    int listenFd_ GUARDED_BY(connLock_) = -1;
    std::vector<std::thread::id> doneReaders_ GUARDED_BY(connLock_);

    std::vector<std::thread> workers_;

    void workerMain(unsigned idx);
    /** Pushes the fleet.* counter deltas since the last call into the
     *  always-on metrics registry (§5k) and refreshes the queue/pool
     *  gauges.  Called by workers after each job. */
    void publishFleetMetrics() EXCLUDES(statsLock_, queueLock_);
    bool popNext(PendingJob &out) EXCLUDES(queueLock_);
    JobResultMsg runJob(rt::Session &s, uint32_t session_id,
                        const JobRequest &req);
    void serveConnection(int fd);
};

} // namespace bifsim::fleet

#endif // BIFSIM_FLEET_FLEET_H

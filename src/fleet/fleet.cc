#include "fleet/fleet.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>

#ifdef __linux__
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>
#endif

#include "instrument/stats.h"
#include "metrics/metrics.h"

namespace bifsim::fleet {

FleetServer::FleetServer(std::shared_ptr<const snapshot::Image> image,
                         FleetConfig cfg)
    : cfg_(std::move(cfg)), info_(inspectWarmImage(*image)),
      pool_(std::make_unique<SessionPool>(image, cfg_.pool)),
      tracer_(cfg_.trace),
      startNs_(trace::nowNs())
{
    cfg_.workers = std::max(1u, cfg_.workers);
    cfg_.maxQueuedPerTenant = std::max<size_t>(1, cfg_.maxQueuedPerTenant);
    cfg_.maxQueuedTotal = std::max<size_t>(1, cfg_.maxQueuedTotal);
    workers_.reserve(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i)
        workers_.emplace_back([this, i] { workerMain(i); });
}

FleetServer::~FleetServer()
{
    requestShutdown();
    for (std::thread &t : workers_)
        t.join();
}

void
FleetServer::requestShutdown()
{
    shutdown_.store(true, std::memory_order_release);
    {
        sim::LockGuard g(queueLock_);
        draining_ = true;
        queueCv_.notify_all();
    }
#ifdef __linux__
    // Wake serve() out of accept(): it fails on a shut-down listening
    // socket, at once and for good, so a shutdown cannot be missed.
    sim::LockGuard g(connLock_);
    if (listenFd_ >= 0)
        ::shutdown(listenFd_, SHUT_RDWR);
    connCv_.notify_all();
#endif
}

bool
FleetServer::shuttingDown() const
{
    return shutdown_.load(std::memory_order_acquire);
}

Welcome
FleetServer::welcome() const
{
    Welcome w;
    w.version = kProtoVersion;
    w.kernels = info_.kernels;
    w.bufferBytes = info_.bufferBytes;
    return w;
}

FleetStats
FleetServer::stats() const
{
    FleetStats s;
    {
        sim::LockGuard g(statsLock_);
        s = stats_;
    }
    gpu::addCounters(s, pool_->stats());
    {
        sim::LockGuard g(queueLock_);
        s.queueDepth = totalQueued_;
    }
    return s;
}

StatsReply
FleetServer::statsReply() const
{
    std::vector<gpu::NamedCounter> counters;
    FleetStats s = stats();
    gpu::appendCounters(counters, s);
    StatsReply r;
    r.counters.reserve(counters.size());
    for (const gpu::NamedCounter &c : counters)
        r.counters.emplace_back(c.name(), c.value);
    r.uptimeNs = trace::nowNs() - startNs_;
    {
        sim::LockGuard g(statsLock_);
        r.tenants.reserve(tenantStats_.size());
        for (const auto &[name, row] : tenantStats_)
            r.tenants.push_back(row);   // std::map: sorted by name.
    }
    return r;
}

// ----------------------------------------------------------- admission

void
FleetServer::submitAsync(JobRequest req,
                         std::function<void(JobResultMsg)> done)
{
    uint64_t now = trace::nowNs();
    std::string tenant = req.tenant;   // req is moved into the queue.
    std::string reject;
    uint64_t queued_now = 0;
    uint64_t tenants = 0;
    {
        sim::LockGuard g(queueLock_);
        if (draining_) {
            reject = "server is draining";
        } else if (totalQueued_ >= cfg_.maxQueuedTotal) {
            reject = "global queue full";
        } else {
            std::deque<PendingJob> &q = queues_[req.tenant];
            if (q.size() >= cfg_.maxQueuedPerTenant) {
                reject = "tenant queue full";
            } else {
                if (q.empty())
                    rotation_.push_back(req.tenant);
                tenantsSeen_.insert(req.tenant);
                tenants = tenantsSeen_.size();
                q.push_back(
                    PendingJob{std::move(req), std::move(done), now});
                ++totalQueued_;
                queued_now = totalQueued_;
                queueCv_.notify_one();
            }
        }
    }
    {
        sim::LockGuard g(statsLock_);
        ++stats_.jobsSubmitted;
        StatsReply::TenantRow &row = tenantStats_[tenant];
        if (row.name.empty())
            row.name = tenant;
        ++row.submitted;
        if (!reject.empty()) {
            ++stats_.jobsRejected;
        } else {
            stats_.queuePeak = std::max(stats_.queuePeak, queued_now);
            // Set sizes are captured under queueLock_ but applied
            // here under statsLock_; concurrent submits can apply out
            // of order, so keep the high-water mark, not the last
            // writer.
            stats_.tenantsSeen = std::max(stats_.tenantsSeen, tenants);
        }
    }
    if (!reject.empty()) {
        // `done` was not consumed on this path.
        JobResultMsg m;
        m.status = JobStatus::Rejected;
        m.detail = reject;
        done(m);
    }
}

JobResultMsg
FleetServer::submitSync(const JobRequest &req)
{
    std::promise<JobResultMsg> p;
    std::future<JobResultMsg> f = p.get_future();
    submitAsync(req, [&p](JobResultMsg m) { p.set_value(std::move(m)); });
    return f.get();
}

bool
FleetServer::popNext(PendingJob &out)
{
    sim::UniqueLock l(queueLock_);
    while (totalQueued_ == 0 && !draining_)
        queueCv_.wait(l);
    if (totalQueued_ == 0)
        return false;
    if (rrNext_ >= rotation_.size())
        rrNext_ = 0;
    const std::string tenant = rotation_[rrNext_];
    auto it = queues_.find(tenant);
    out = std::move(it->second.front());
    it->second.pop_front();
    --totalQueued_;
    if (it->second.empty()) {
        queues_.erase(it);
        // Erasing at rrNext_ shifts the next tenant into this slot.
        rotation_.erase(rotation_.begin() +
                        static_cast<ptrdiff_t>(rrNext_));
    } else {
        ++rrNext_;
    }
    return true;
}

// ----------------------------------------------------------- execution

JobResultMsg
FleetServer::runJob(rt::Session &s, uint32_t session_id,
                    const JobRequest &req)
{
    JobResultMsg m;
    m.sessionId = session_id;
    auto bad = [&m](std::string detail) -> JobResultMsg & {
        m.status = JobStatus::BadRequest;
        m.detail = std::move(detail);
        return m;
    };

    const std::vector<rt::KernelHandle> &kernels = s.kernels();
    const std::vector<rt::Buffer> &buffers = s.buffers();
    if (req.kernel >= kernels.size())
        return bad(strfmt("kernel index %u out of range (%zu loaded)",
                          req.kernel, kernels.size()));
    if (!req.gx || !req.gy || !req.gz || !req.lx || !req.ly || !req.lz)
        return bad("launch dimensions must be nonzero");
    uint64_t threads = static_cast<uint64_t>(req.gx) * req.gy * req.gz;
    if (threads > kMaxJobThreads)
        return bad(strfmt("job requests %llu threads, cap is %llu",
                          static_cast<unsigned long long>(threads),
                          static_cast<unsigned long long>(
                              kMaxJobThreads)));

    std::vector<rt::Arg> args;
    args.reserve(req.args.size());
    for (const ArgSpec &a : req.args) {
        if (a.kind == ArgSpec::Kind::BufIndex) {
            if (a.value >= buffers.size())
                return bad(strfmt("arg buffer index %u out of range "
                                  "(%zu buffers)",
                                  a.value, buffers.size()));
            args.push_back(rt::Arg::buf(buffers[a.value]));
        } else {
            rt::Arg imm;
            imm.kind = a.kind == ArgSpec::Kind::I32 ? rt::Arg::Kind::I32
                       : a.kind == ArgSpec::Kind::U32
                           ? rt::Arg::Kind::U32
                           : rt::Arg::Kind::F32;
            imm.value = a.value;
            args.push_back(imm);
        }
    }

    for (const WriteSpec &w : req.writes) {
        if (w.buf >= buffers.size())
            return bad(strfmt("write buffer index %u out of range",
                              w.buf));
        const rt::Buffer &b = buffers[w.buf];
        if (w.offset > b.bytes || w.bytes.size() > b.bytes - w.offset)
            return bad(strfmt("write to buffer %u overruns its %zu "
                              "bytes",
                              w.buf, b.bytes));
    }
    uint64_t total_read = 0;
    for (const ReadSpec &r : req.reads) {
        if (r.buf >= buffers.size())
            return bad(strfmt("read buffer index %u out of range",
                              r.buf));
        const rt::Buffer &b = buffers[r.buf];
        if (r.offset > b.bytes || r.length > b.bytes - r.offset)
            return bad(strfmt("read from buffer %u overruns its %zu "
                              "bytes",
                              r.buf, b.bytes));
        total_read += r.length;
        if (total_read > kMaxFrameBytes / 2)
            return bad("readback exceeds frame budget");
    }

    // Validated: touch the session.
    try {
        for (const WriteSpec &w : req.writes) {
            if (!w.bytes.empty())
                s.write(buffers[w.buf], w.bytes.data(), w.bytes.size(),
                        static_cast<size_t>(w.offset));
        }
        gpu::JobResult r = s.enqueue(
            kernels[req.kernel], rt::NDRange{req.gx, req.gy, req.gz},
            rt::NDRange{req.lx, req.ly, req.lz}, args);
        if (r.faulted) {
            m.status = JobStatus::Fault;
            m.detail = r.fault.detail.empty() ? "gpu fault"
                                              : r.fault.detail;
            return m;
        }
        m.kernelInstrs = r.kernel.totalInstrs();
        m.threadsLaunched = r.kernel.threadsLaunched;
        m.readback.reserve(static_cast<size_t>(total_read));
        std::vector<uint8_t> tmp;
        for (const ReadSpec &rd : req.reads) {
            tmp.resize(static_cast<size_t>(rd.length));
            if (!tmp.empty())
                s.read(buffers[rd.buf], tmp.data(), tmp.size(),
                       static_cast<size_t>(rd.offset));
            m.readback.insert(m.readback.end(), tmp.begin(), tmp.end());
        }
        if (req.wantRamCrc)
            m.ramCrc = s.system().mem().crc();
        m.status = JobStatus::Ok;
    } catch (const SimError &e) {
        m.status = JobStatus::Fault;
        m.detail = e.what();
        m.readback.clear();
    }
    return m;
}

void
FleetServer::workerMain(unsigned idx)
{
    trace::TraceBuffer *tb =
        tracer_.registerThread("fleet-w" + std::to_string(idx));
    PendingJob job;
    while (popNext(job)) {
        uint64_t bytes_in = 0;
        for (const WriteSpec &w : job.req.writes)
            bytes_in += w.bytes.size();

        uint64_t t0 = trace::nowNs();
        JobResultMsg m;
        try {
            SessionPool::Lease lease = pool_->acquire();
            m = runJob(lease.session(), lease.id(), job.req);
        } catch (const SimError &e) {
            // Spawn/recycle failure, not a job-level problem.
            m.status = JobStatus::Fault;
            m.detail = e.what();
        }
        uint64_t t1 = trace::nowNs();
        m.queueNs = t0 - job.admitNs;
        m.execNs = t1 - t0;

        {
            sim::LockGuard g(statsLock_);
            switch (m.status) {
            case JobStatus::Ok: ++stats_.jobsCompleted; break;
            case JobStatus::Fault: ++stats_.jobsFaulted; break;
            case JobStatus::BadRequest: ++stats_.jobsBadRequest; break;
            case JobStatus::Rejected: ++stats_.jobsRejected; break;
            }
            stats_.queueNsTotal += m.queueNs;
            stats_.execNsTotal += m.execNs;
            stats_.bytesIn += bytes_in;
            stats_.bytesOut += m.readback.size();
            StatsReply::TenantRow &row = tenantStats_[job.req.tenant];
            if (row.name.empty())
                row.name = job.req.tenant;
            if (m.status == JobStatus::Ok)
                ++row.completed;
            else
                ++row.faulted;
            row.queueNs += m.queueNs;
            row.execNs += m.execNs;
        }
        publishFleetMetrics();
        if (tb)
            tb->span("job", "fleet", t0, "session", m.sessionId,
                     "status", static_cast<uint64_t>(m.status));
        job.done(m);
        job = PendingJob{};   // Drop the closure (and any socket refs).
    }
}

void
FleetServer::publishFleetMetrics()
{
    if (!metrics::registry().enabled())
        return;
    // Merged lifetime view (locks statsLock_/queueLock_ internally,
    // and the pool's own lock — all leaves, never nested here).  Two
    // workers can race here with their `now`s read in either order;
    // the baseline's max rule publishes each count once.
    FleetStats now = stats();
    std::vector<gpu::NamedCounter> totals, deltas;
    gpu::appendCounters(totals, now);
    {
        sim::LockGuard g(statsLock_);
        metricsBase_.appendDeltas(deltas, totals);
    }
    metrics::Registry &reg = metrics::registry();
    // Level-valued series go in as gauges (store-latest), set before
    // the batch so the registry ignores the batch's deltas for them.
    for (const gpu::NamedCounter &c : totals)
        if (gpu::counterIsGauge(c.slot))
            reg.setGauge(c.slot, c.value);
    reg.publish(deltas);
}

// -------------------------------------------------------------- socket

#ifdef __linux__

namespace {

/** The longest one send to a client may block (SO_SNDTIMEO on every
 *  accepted socket).  A client that stops reading fills the socket
 *  buffers; past this, its connection is dropped rather than holding
 *  a fleet worker and the connection lock forever. */
constexpr timeval kSendTimeout{2, 0};

/** Per-connection write side, shared with in-flight result callbacks.
 *  The reader thread waits for pending results before closing the fd,
 *  so a late callback can never write into a recycled descriptor. */
struct ConnState
{
    explicit ConnState(int fd) : fd(fd) {}

    sim::Mutex lock;
    sim::CondVar cv;
    int fd GUARDED_BY(lock);
    size_t pending GUARDED_BY(lock) = 0;
    bool closed GUARDED_BY(lock) = false;

    template <typename Msg>
    void
    send(uint32_t kind, const Msg &msg)
    {
        snapshot::ChunkWriter w;
        msg.serialize(w);
        sim::LockGuard g(lock);
        if (closed)
            return;
        try {
            writeFrame(fd, kind, w.data());
        } catch (const SimError &) {
            // Peer went away or stopped reading (send timed out): skip
            // every later frame, and end the reader's read so it
            // retires the connection.
            closed = true;
            ::shutdown(fd, SHUT_RDWR);
        }
    }
};

} // namespace

void
FleetServer::serveConnection(int fd)
{
    auto conn = std::make_shared<ConnState>(fd);
    conn->send(kMsgWelcome, welcome());

    Frame frame;
    while (true) {
        try {
            if (!readFrame(fd, frame))
                break;
        } catch (const SimError &) {
            break;   // Truncated mid-frame or read error: drop the peer.
        }
        if (frame.kind == kMsgJob) {
            JobRequest req;
            try {
                snapshot::ChunkReader r = frame.reader();
                req = JobRequest::parse(r);
            } catch (const SimError &e) {
                JobResultMsg m;
                m.status = JobStatus::BadRequest;
                m.detail = e.what();
                conn->send(kMsgResult, m);
                continue;
            }
            {
                sim::LockGuard g(conn->lock);
                ++conn->pending;
            }
            submitAsync(std::move(req), [conn](JobResultMsg m) {
                conn->send(kMsgResult, m);
                sim::LockGuard g(conn->lock);
                --conn->pending;
                conn->cv.notify_all();
            });
        } else if (frame.kind == kMsgStatsQuery) {
            conn->send(kMsgStatsReply, statsReply());
        } else if (frame.kind == kMsgShutdown) {
            requestShutdown();
        } else {
            JobResultMsg m;
            m.status = JobStatus::BadRequest;
            m.detail = "unknown frame kind " +
                       snapshot::tagName(frame.kind);
            conn->send(kMsgResult, m);
        }
    }

    // Wait out in-flight results, then retire the descriptor.
    {
        sim::UniqueLock l(conn->lock);
        while (conn->pending != 0)
            conn->cv.wait(l);
        conn->closed = true;
    }
    {
        sim::LockGuard g(connLock_);
        connFds_.erase(
            std::remove(connFds_.begin(), connFds_.end(), fd),
            connFds_.end());
        doneReaders_.push_back(std::this_thread::get_id());
    }
    ::close(fd);
}

int
FleetServer::serve(const std::string &socket_path)
{
    int lfd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (lfd < 0) {
        std::fprintf(stderr, "simd: socket: %s\n", std::strerror(errno));
        return 1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "simd: socket path too long: %s\n",
                     socket_path.c_str());
        ::close(lfd);
        return 1;
    }
    std::memcpy(addr.sun_path, socket_path.c_str(),
                socket_path.size() + 1);
    ::unlink(socket_path.c_str());
    if (::bind(lfd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(lfd, 128) != 0) {
        std::fprintf(stderr, "simd: bind/listen %s: %s\n",
                     socket_path.c_str(), std::strerror(errno));
        ::close(lfd);
        return 1;
    }

    {
        sim::LockGuard g(connLock_);
        listenFd_ = lfd;
    }
    std::vector<std::thread> readers;
    while (!shuttingDown()) {
        // Join the readers whose connection ended, so the server holds
        // a thread per open connection, not per connection ever made.
        std::vector<std::thread::id> done;
        {
            sim::LockGuard g(connLock_);
            done.swap(doneReaders_);
        }
        for (std::thread::id id : done) {
            auto it = std::find_if(
                readers.begin(), readers.end(),
                [id](const std::thread &t) { return t.get_id() == id; });
            it->join();
            readers.erase(it);
        }

        int cfd = ::accept4(lfd, nullptr, nullptr, SOCK_CLOEXEC);
        if (cfd < 0) {
            // Running out of fds or memory (EMFILE, ENFILE, ENOBUFS)
            // lasts until something is freed: pause rather than spin a
            // core retrying.  requestShutdown() ends the pause.
            if (errno != EINTR && errno != ECONNABORTED) {
                sim::UniqueLock l(connLock_);
                if (!shuttingDown())
                    connCv_.wait_for(l, std::chrono::milliseconds(20));
            }
            continue;
        }
        ::setsockopt(cfd, SOL_SOCKET, SO_SNDTIMEO, &kSendTimeout,
                     sizeof kSendTimeout);
        {
            sim::LockGuard g(connLock_);
            connFds_.push_back(cfd);
        }
        readers.emplace_back([this, cfd] { serveConnection(cfd); });
    }

    ::unlink(socket_path.c_str());
    // Unblock readers parked in read(): half-close every live
    // connection, then wait for their threads (each drains its
    // pending results first).
    {
        sim::LockGuard g(connLock_);
        listenFd_ = -1;
        ::close(lfd);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (std::thread &t : readers)
        t.join();
    return 0;
}

#else // !__linux__

void
FleetServer::serveConnection(int)
{
}

int
FleetServer::serve(const std::string &)
{
    std::fprintf(stderr, "simd: fleet sockets require Linux\n");
    return 1;
}

#endif

} // namespace bifsim::fleet

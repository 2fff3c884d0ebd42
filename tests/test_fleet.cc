// Fleet subsystem tests (DESIGN.md §5j): CoW RAM images, the session
// pool, the wire protocol, the scheduler's fairness/backpressure, and
// the determinism contract — a job run on a pooled (spawned or
// recycled) session must be bit-identical to the same job on a solo
// cold-booted session, T threads x S sessions deep.
//
// All tests share one small warm image (32x32 SGEMM, 2 shader cores)
// built once; building it is the expensive part, proving satellite
// work (parse/CRC once, spawn many) is also what keeps this file fast.

#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include <fstream>
#include <string>

#include <poll.h>
#include <pthread.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <time.h>
#include <unistd.h>

#include "mem/phys_mem.h"
#include "runtime/session.h"

namespace bifsim {
namespace {

constexpr uint32_t kN = 32;   ///< Warm-image matrix size.

const std::vector<uint8_t> &
warmBytes()
{
    static const std::vector<uint8_t> bytes =
        fleet::buildSgemmWarmImage(kN, 32u << 20, 2);
    return bytes;
}

std::shared_ptr<const snapshot::Image>
warmImage()
{
    static const auto image = std::make_shared<const snapshot::Image>(
        snapshot::Image::fromBytes(warmBytes()));
    return image;
}

/** The host-side knob template every test uses, so pooled and solo
 *  sessions run under identical configuration. */
rt::SystemConfig
testBase()
{
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 2;
    cfg.gpu.syncSubmit = true;
    return cfg;
}

/** Same deterministic fill simctl uses, so inputs are regenerable. */
void
fillMatrix(std::vector<float> &m, uint32_t seed)
{
    uint32_t x = seed * 2654435761u + 1;
    for (float &v : m) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        v = static_cast<float>(x % 1024) / 256.0f;
    }
}

struct RefResult
{
    uint32_t ramCrc = 0;
    uint64_t kernelInstrs = 0;
    uint64_t threadsLaunched = 0;
    std::vector<uint8_t> c;
};

/** Runs the canonical test job — write A/B, launch kernel 0, read C,
 *  CRC all of guest RAM — mirroring exactly what FleetServer::runJob
 *  does for the equivalent JobRequest. */
RefResult
runJobOn(rt::Session &s, uint32_t seed)
{
    std::vector<float> a(kN * kN), b(kN * kN);
    fillMatrix(a, seed);
    fillMatrix(b, seed + 1);

    const std::vector<rt::Buffer> &bufs = s.buffers();
    EXPECT_GE(bufs.size(), 3u);
    s.write(bufs[0], a.data(), a.size() * 4);
    s.write(bufs[1], b.data(), b.size() * 4);
    gpu::JobResult r = s.enqueue(
        s.kernels().front(), rt::NDRange{kN, kN, 1}, rt::NDRange{8, 8, 1},
        {rt::Arg::buf(bufs[0]), rt::Arg::buf(bufs[1]),
         rt::Arg::buf(bufs[2]), rt::Arg::i32(static_cast<int32_t>(kN))});
    EXPECT_FALSE(r.faulted) << r.fault.detail;

    RefResult res;
    res.kernelInstrs = r.kernel.totalInstrs();
    res.threadsLaunched = r.kernel.threadsLaunched;
    res.c.resize(static_cast<size_t>(kN) * kN * 4);
    s.read(bufs[2], res.c.data(), res.c.size());
    PhysMem &mem = s.system().mem();
    res.ramCrc =
        snapshot::crc32(mem.readPtr(rt::System::kRamBase), mem.size());
    return res;
}

/** The solo cold-boot reference every fleet result must match. */
const RefResult &
soloReference()
{
    static const RefResult ref = [] {
        auto s = rt::Session::fromSnapshot(*warmImage(), testBase());
        return runJobOn(*s, 7);
    }();
    return ref;
}

/** The same canonical job expressed as a wire request. */
fleet::JobRequest
canonicalRequest(const std::string &tenant, uint32_t seed)
{
    std::vector<float> a(kN * kN), b(kN * kN);
    fillMatrix(a, seed);
    fillMatrix(b, seed + 1);

    fleet::JobRequest req;
    req.tenant = tenant;
    req.kernel = 0;
    req.gx = req.gy = kN;
    req.gz = 1;
    req.lx = req.ly = 8;
    req.lz = 1;
    req.args = {{fleet::ArgSpec::Kind::BufIndex, 0},
                {fleet::ArgSpec::Kind::BufIndex, 1},
                {fleet::ArgSpec::Kind::BufIndex, 2},
                {fleet::ArgSpec::Kind::I32, kN}};
    fleet::WriteSpec wa{0, 0, {}};
    wa.bytes.resize(a.size() * 4);
    std::memcpy(wa.bytes.data(), a.data(), wa.bytes.size());
    fleet::WriteSpec wb{1, 0, {}};
    wb.bytes.resize(b.size() * 4);
    std::memcpy(wb.bytes.data(), b.data(), wb.bytes.size());
    req.writes.push_back(std::move(wa));
    req.writes.push_back(std::move(wb));
    req.reads.push_back(
        fleet::ReadSpec{2, 0, static_cast<uint64_t>(kN) * kN * 4});
    req.wantRamCrc = true;
    return req;
}

// ---------------------------------------------------- warm image

TEST(WarmImage, InspectReportsRegistries)
{
    fleet::WarmImageInfo info = fleet::inspectWarmImage(*warmImage());
    EXPECT_EQ(info.matrixN, kN);
    EXPECT_EQ(info.kernels.size(), 6u);
    EXPECT_EQ(info.kernels.front(), "sgemm1");
    ASSERT_GE(info.bufferBytes.size(), 3u);
    EXPECT_EQ(info.bufferBytes[0], static_cast<uint64_t>(kN) * kN * 4);
}

TEST(WarmImage, RejectsBadMatrixSize)
{
    EXPECT_THROW(fleet::buildSgemmWarmImage(0), snapshot::SnapshotError);
    EXPECT_THROW(fleet::buildSgemmWarmImage(33), snapshot::SnapshotError);
}

TEST(WarmImage, FromSnapshotMissingFileThrowsCleanly)
{
    // Satellite: a missing image must throw a located SnapshotError
    // (which full_system_boot --restore turns into exit 1), not abort.
    EXPECT_THROW(
        rt::Session::fromSnapshot(std::string("/nonexistent/x.bsnp")),
        snapshot::SnapshotError);
}

// ---------------------------------------------------- CoW RAM image

TEST(RamImage, CowViewsShareContentButNotWrites)
{
    auto ram = RamImage::sealFromSnapshot(*warmImage());
    if (!ram)
        GTEST_SKIP() << "no sealed shared memory on this host";
    EXPECT_EQ(ram->memCrc(),
              warmImage()->chunkCrc(snapshot::kTagMem));

    PhysMem m1(ram->base(), ram->size(), ram);
    PhysMem m2(ram->base(), ram->size(), ram);
    EXPECT_TRUE(m1.hasImage());

    uint32_t crc1 =
        snapshot::crc32(m1.readPtr(ram->base()), m1.size());
    uint32_t crc2 =
        snapshot::crc32(m2.readPtr(ram->base()), m2.size());
    EXPECT_EQ(crc1, crc2);
    EXPECT_NE(crc1, snapshot::crc32("", 0));   // image is not empty

    // A write in one view must not leak into the other (MAP_PRIVATE).
    Addr probe = ram->base() + 64;
    uint8_t before = m2.read<uint8_t>(probe);
    m1.write<uint8_t>(probe, static_cast<uint8_t>(before + 1));
    EXPECT_EQ(m2.read<uint8_t>(probe), before);

    // clear() detaches to zeroes; resetToImage() reattaches content.
    m1.clear();
    EXPECT_EQ(m1.read<uint8_t>(probe), 0);
    EXPECT_TRUE(m1.resetToImage());
    EXPECT_EQ(m1.read<uint8_t>(probe), before);
    EXPECT_EQ(snapshot::crc32(m1.readPtr(ram->base()), m1.size()), crc1);
}

/** PhysMem::crc() (the fleet's wantRamCrc) reads only the pages that
 *  may be non-zero and extends the CRC over the zero pages between
 *  them; it must equal a CRC over every byte of RAM after runtime
 *  writes, GPU stores and GPU atomics, and after a reset to the
 *  image. */
TEST(RamImage, WrittenPageCrcMatchesFullRamCrc)
{
    auto s = rt::Session::fromSnapshot(*warmImage(), testBase());
    PhysMem &mem = s->system().mem();
    auto full = [&] {
        return snapshot::crc32(mem.readPtr(rt::System::kRamBase),
                               mem.size());
    };
    EXPECT_EQ(mem.crc(), full());

    runJobOn(*s, 3);   // Runtime writes of A and B, GPU stores of C.
    EXPECT_EQ(mem.crc(), full());

    rt::KernelHandle k = s->compile(R"(
kernel void count(global int* counts) {
    atomic_add(counts[get_global_id(0) & 3], get_global_id(0) + 1);
}
)", "count");
    rt::Buffer counts = s->alloc(4096 * 4);
    gpu::JobResult r = s->enqueue(k, rt::NDRange{64, 1, 1},
                                  rt::NDRange{16, 1, 1},
                                  {rt::Arg::buf(counts)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    uint32_t first = 0;
    s->read(counts, &first, 4);
    EXPECT_EQ(first, 496u);   // 1 + 5 + ... + 61
    EXPECT_EQ(mem.crc(), full());

    if (mem.resetToImage()) {
        EXPECT_EQ(mem.crc(), full());
    }
    mem.clear();
    EXPECT_EQ(mem.crc(), snapshot::crc32Zeros(0, mem.size()));
    EXPECT_EQ(mem.crc(), full());
}

// ---------------------------------------------------- session pool

TEST(SessionPool, SpawnIsBitIdenticalToSoloColdBoot)
{
    fleet::PoolConfig cfg;
    cfg.maxSessions = 2;
    cfg.base = testBase();
    fleet::SessionPool pool(warmImage(), cfg);
    // Satellite: the parsed image is cached and shared, not re-read.
    EXPECT_EQ(&pool.image(), warmImage().get());

    fleet::SessionPool::Lease lease = pool.acquire();
    RefResult got = runJobOn(lease.session(), 7);
    EXPECT_EQ(got.ramCrc, soloReference().ramCrc);
    EXPECT_EQ(got.kernelInstrs, soloReference().kernelInstrs);
    EXPECT_EQ(got.threadsLaunched, soloReference().threadsLaunched);
    EXPECT_EQ(got.c, soloReference().c);
}

TEST(SessionPool, RecycleReusesSessionWithIdenticalResults)
{
    fleet::PoolConfig cfg;
    cfg.maxSessions = 1;
    cfg.base = testBase();
    fleet::SessionPool pool(warmImage(), cfg);

    uint32_t first_id;
    {
        fleet::SessionPool::Lease lease = pool.acquire();
        first_id = lease.id();
        RefResult got = runJobOn(lease.session(), 7);
        EXPECT_EQ(got.ramCrc, soloReference().ramCrc);
    }
    {
        // Same pooled session, recycled back to image state: the
        // dirtied RAM and registries are gone, the System survives.
        fleet::SessionPool::Lease lease = pool.acquire();
        EXPECT_EQ(lease.id(), first_id);
        RefResult again = runJobOn(lease.session(), 7);
        EXPECT_EQ(again.ramCrc, soloReference().ramCrc);
        EXPECT_EQ(again.kernelInstrs, soloReference().kernelInstrs);
        EXPECT_EQ(again.c, soloReference().c);
    }
    fleet::FleetStats st = pool.stats();
    EXPECT_EQ(st.spawns, 1u);
    EXPECT_EQ(st.recycles, 2u);
    EXPECT_EQ(st.recycleFailures, 0u);
    EXPECT_EQ(st.sessionsIdle, 1u);
}

TEST(SessionPool, ConcurrentSpawnRecycleStaysDeterministic)
{
    // Satellite: T threads x S sessions over one shared image, every
    // job bit-identical to the solo cold-boot reference.  Runs under
    // TSan in CI, so it is also the data-race probe for the pool.
    constexpr unsigned kThreads = 4;
    constexpr unsigned kJobsPerThread = 2;

    fleet::PoolConfig cfg;
    cfg.maxSessions = kThreads;
    cfg.base = testBase();
    fleet::SessionPool pool(warmImage(), cfg);

    std::atomic<unsigned> mismatches{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&pool, &mismatches] {
            for (unsigned j = 0; j < kJobsPerThread; ++j) {
                fleet::SessionPool::Lease lease = pool.acquire();
                RefResult got = runJobOn(lease.session(), 7);
                if (got.ramCrc != soloReference().ramCrc ||
                    got.kernelInstrs != soloReference().kernelInstrs ||
                    got.c != soloReference().c)
                    mismatches.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0u);

    fleet::FleetStats st = pool.stats();
    EXPECT_LE(st.spawns, static_cast<uint64_t>(kThreads));
    EXPECT_GE(st.spawns, 1u);
    // Every lease release recycles its session back to image state.
    EXPECT_EQ(st.recycles,
              static_cast<uint64_t>(kThreads) * kJobsPerThread);
    EXPECT_EQ(st.recycleFailures, 0u);
    EXPECT_EQ(st.sessionsIdle, st.sessionsLive);   // all leases returned
}

TEST(SessionPool, RecycleRefusedWhileRecording)
{
    fleet::PoolConfig cfg;
    cfg.maxSessions = 1;
    cfg.base = testBase();
    fleet::SessionPool pool(warmImage(), cfg);
    fleet::SessionPool::Lease lease = pool.acquire();
    lease->startRecording();
    EXPECT_THROW(lease->resetFromSnapshot(pool.image()), SimError);
    lease->stopRecording();
    // Now recyclable again.
    lease->resetFromSnapshot(pool.image());
    EXPECT_EQ(runJobOn(lease.session(), 7).ramCrc,
              soloReference().ramCrc);
}

// ---------------------------------------------------- wire protocol

TEST(FleetProto, JobRequestRoundTrips)
{
    fleet::JobRequest req = canonicalRequest("tenant-a", 3);
    snapshot::ChunkWriter w;
    req.serialize(w);
    std::vector<uint8_t> bytes = w.data();

    snapshot::ChunkReader r(fleet::kMsgJob, bytes.data(), bytes.size());
    fleet::JobRequest back = fleet::JobRequest::parse(r);
    EXPECT_EQ(back.tenant, req.tenant);
    EXPECT_EQ(back.kernel, req.kernel);
    EXPECT_EQ(back.gx, req.gx);
    EXPECT_EQ(back.ly, req.ly);
    ASSERT_EQ(back.args.size(), req.args.size());
    EXPECT_EQ(back.args[3].kind, fleet::ArgSpec::Kind::I32);
    EXPECT_EQ(back.args[3].value, req.args[3].value);
    ASSERT_EQ(back.writes.size(), 2u);
    EXPECT_EQ(back.writes[0].bytes, req.writes[0].bytes);
    ASSERT_EQ(back.reads.size(), 1u);
    EXPECT_EQ(back.reads[0].length, req.reads[0].length);
    EXPECT_TRUE(back.wantRamCrc);
}

/** Every strict prefix of @p msg's payload must throw from
 *  Msg::parse, never yield a half-parsed message. */
template <typename Msg>
void
expectEveryTruncationRejected(uint32_t kind, const Msg &msg)
{
    snapshot::ChunkWriter w;
    msg.serialize(w);
    std::vector<uint8_t> bytes = w.data();
    for (size_t len = 0; len < bytes.size(); ++len) {
        snapshot::ChunkReader r(kind, bytes.data(), len);
        EXPECT_THROW(Msg::parse(r), snapshot::SnapshotError)
            << snapshot::tagName(kind) << ": prefix of " << len
            << " of " << bytes.size() << " bytes parsed";
    }
}

TEST(FleetProto, EveryTruncationIsRejected)
{
    // Parse-then-commit, for every message a peer sends.
    fleet::JobRequest req;
    req.tenant = "t";
    req.args = {{fleet::ArgSpec::Kind::BufIndex, 0}};
    req.writes.push_back(fleet::WriteSpec{0, 0, {1, 2, 3, 4}});
    req.reads.push_back(fleet::ReadSpec{1, 8, 16});
    expectEveryTruncationRejected(fleet::kMsgJob, req);

    fleet::JobResultMsg res;
    res.detail = "ok";
    res.readback = {1, 2, 3};
    expectEveryTruncationRejected(fleet::kMsgResult, res);

    fleet::Welcome wl;
    wl.kernels = {"sgemm1"};
    wl.bufferBytes = {4096};
    expectEveryTruncationRejected(fleet::kMsgWelcome, wl);

    // A stats reply cut right after its counter list is a truncation,
    // not a counters-only reply.
    fleet::StatsReply sr;
    sr.counters = {{"fleet.jobs_completed", 17}};
    sr.uptimeNs = 5;
    sr.tenants.push_back({"t", 3, 2, 1, 10, 20});
    expectEveryTruncationRejected(fleet::kMsgStatsReply, sr);
}

TEST(FleetProto, ResultWelcomeStatsRoundTrip)
{
    fleet::JobResultMsg m;
    m.status = fleet::JobStatus::Fault;
    m.detail = "page fault at 0xdead";
    m.queueNs = 12345;
    m.execNs = 67890;
    m.sessionId = 3;
    m.ramCrc = 0xabadcafe;
    m.kernelInstrs = 1ull << 40;
    m.threadsLaunched = 1024;
    m.readback = {9, 8, 7};
    snapshot::ChunkWriter w1;
    m.serialize(w1);
    std::vector<uint8_t> b1 = w1.data();
    snapshot::ChunkReader r1(fleet::kMsgResult, b1.data(), b1.size());
    fleet::JobResultMsg m2 = fleet::JobResultMsg::parse(r1);
    EXPECT_EQ(m2.status, m.status);
    EXPECT_EQ(m2.detail, m.detail);
    EXPECT_EQ(m2.kernelInstrs, m.kernelInstrs);
    EXPECT_EQ(m2.readback, m.readback);

    fleet::Welcome wl;
    wl.kernels = {"sgemm1", "sgemm2"};
    wl.bufferBytes = {4096, 4096, 8192};
    snapshot::ChunkWriter w2;
    wl.serialize(w2);
    std::vector<uint8_t> b2 = w2.data();
    snapshot::ChunkReader r2(fleet::kMsgWelcome, b2.data(), b2.size());
    fleet::Welcome wl2 = fleet::Welcome::parse(r2);
    EXPECT_EQ(wl2.version, fleet::kProtoVersion);
    EXPECT_EQ(wl2.kernels, wl.kernels);
    EXPECT_EQ(wl2.bufferBytes, wl.bufferBytes);

    fleet::StatsReply sr;
    sr.counters = {{"fleet.jobs_completed", 17}, {"fleet.spawns", 2}};
    snapshot::ChunkWriter w3;
    sr.serialize(w3);
    std::vector<uint8_t> b3 = w3.data();
    snapshot::ChunkReader r3(fleet::kMsgStatsReply, b3.data(),
                             b3.size());
    fleet::StatsReply sr2 = fleet::StatsReply::parse(r3);
    EXPECT_EQ(sr2.counters, sr.counters);
}

TEST(FleetProto, FramesSurviveTheSocketAndRejectCorruption)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // Round trip.
    std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
    fleet::writeFrame(fds[0], fleet::kMsgJob, payload);
    fleet::Frame f;
    ASSERT_TRUE(fleet::readFrame(fds[1], f));
    EXPECT_EQ(f.kind, fleet::kMsgJob);
    EXPECT_EQ(f.payload, payload);

    // A flipped payload byte must fail the frame CRC.
    std::vector<uint8_t> wire = fleet::encodeFrame(fleet::kMsgJob,
                                                   payload);
    ASSERT_GT(wire.size(), 12u);
    wire[12] ^= 0xff;
    ASSERT_EQ(::send(fds[0], wire.data(), wire.size(), 0),
              static_cast<ssize_t>(wire.size()));
    EXPECT_THROW(fleet::readFrame(fds[1], f),
                 snapshot::SnapshotError);
    ::close(fds[0]);
    ::close(fds[1]);

    // Truncation mid-frame throws; EOF at a frame boundary is clean.
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ASSERT_EQ(::send(fds[0], wire.data(), 7, 0), 7);
    ::close(fds[0]);
    EXPECT_THROW(fleet::readFrame(fds[1], f),
                 snapshot::SnapshotError);
    ::close(fds[1]);

    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[0]);
    EXPECT_FALSE(fleet::readFrame(fds[1], f));
    ::close(fds[1]);

    // An oversized length header is rejected before any allocation.
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    uint32_t hdr[3] = {fleet::kMsgJob, fleet::kMaxFrameBytes + 1, 0};
    ASSERT_EQ(::send(fds[0], hdr, sizeof(hdr), 0),
              static_cast<ssize_t>(sizeof(hdr)));
    EXPECT_THROW(fleet::readFrame(fds[1], f),
                 snapshot::SnapshotError);
    ::close(fds[0]);
    ::close(fds[1]);
}

// ---------------------------------------------------- fleet server

fleet::FleetConfig
smallServer(unsigned workers, size_t sessions)
{
    fleet::FleetConfig cfg;
    cfg.pool.maxSessions = sessions;
    cfg.pool.base = testBase();
    cfg.workers = workers;
    return cfg;
}

TEST(FleetServer, SubmitSyncMatchesSoloColdBoot)
{
    fleet::FleetServer server(warmImage(), smallServer(1, 1));
    fleet::JobResultMsg m = server.submitSync(canonicalRequest("a", 7));
    ASSERT_EQ(m.status, fleet::JobStatus::Ok) << m.detail;
    EXPECT_EQ(m.ramCrc, soloReference().ramCrc);
    EXPECT_EQ(m.kernelInstrs, soloReference().kernelInstrs);
    EXPECT_EQ(m.threadsLaunched, soloReference().threadsLaunched);
    EXPECT_EQ(m.readback, soloReference().c);
    EXPECT_GT(m.execNs, 0u);
}

TEST(FleetServer, ConcurrentTenantsAllBitIdentical)
{
    // The headline determinism claim: T client threads hammering a
    // shared fleet all see results bit-identical to a solo run.
    constexpr unsigned kThreads = 4;
    constexpr unsigned kJobsPerThread = 2;
    fleet::FleetServer server(warmImage(),
                              smallServer(kThreads, kThreads));

    std::atomic<unsigned> bad{0};
    std::vector<std::thread> clients;
    for (unsigned t = 0; t < kThreads; ++t) {
        clients.emplace_back([&server, &bad, t] {
            std::string tenant = "tenant-" + std::to_string(t);
            for (unsigned j = 0; j < kJobsPerThread; ++j) {
                fleet::JobResultMsg m =
                    server.submitSync(canonicalRequest(tenant, 7));
                if (m.status != fleet::JobStatus::Ok ||
                    m.ramCrc != soloReference().ramCrc ||
                    m.readback != soloReference().c)
                    bad.fetch_add(1);
            }
        });
    }
    for (std::thread &t : clients)
        t.join();
    EXPECT_EQ(bad.load(), 0u);

    fleet::FleetStats st = server.stats();
    EXPECT_EQ(st.jobsCompleted,
              static_cast<uint64_t>(kThreads) * kJobsPerThread);
    EXPECT_EQ(st.jobsFaulted, 0u);
    EXPECT_EQ(st.tenantsSeen, static_cast<uint64_t>(kThreads));
}

TEST(FleetServer, BadRequestsAreRejectedNotExecuted)
{
    fleet::FleetServer server(warmImage(), smallServer(1, 1));
    fleet::JobRequest good = canonicalRequest("a", 7);

    fleet::JobRequest req = good;
    req.kernel = 99;
    EXPECT_EQ(server.submitSync(req).status,
              fleet::JobStatus::BadRequest);

    req = good;
    req.lx = 0;
    EXPECT_EQ(server.submitSync(req).status,
              fleet::JobStatus::BadRequest);

    req = good;
    req.gx = 1u << 13;
    req.gy = 1u << 13;   // 2^26 threads > kMaxJobThreads
    EXPECT_EQ(server.submitSync(req).status,
              fleet::JobStatus::BadRequest);

    req = good;
    req.args[0].value = 99;   // buffer index out of range
    EXPECT_EQ(server.submitSync(req).status,
              fleet::JobStatus::BadRequest);

    req = good;
    req.writes[0].offset = 1ull << 40;   // write outside the buffer
    EXPECT_EQ(server.submitSync(req).status,
              fleet::JobStatus::BadRequest);

    req = good;
    req.reads[0].length = 1ull << 40;    // read outside the buffer
    EXPECT_EQ(server.submitSync(req).status,
              fleet::JobStatus::BadRequest);

    // A good job still runs after all the rejected ones.
    EXPECT_EQ(server.submitSync(good).status, fleet::JobStatus::Ok);
    fleet::FleetStats st = server.stats();
    EXPECT_EQ(st.jobsBadRequest, 6u);
    EXPECT_EQ(st.jobsCompleted, 1u);
}

TEST(FleetServer, RoundRobinKeepsTenantsFair)
{
    // One worker, one session: tenant A floods the queue, then B
    // submits one job.  Round-robin must run B's job before A's
    // backlog drains, not behind it.
    fleet::FleetServer server(warmImage(), smallServer(1, 1));

    std::mutex lock;
    std::condition_variable cv;
    std::vector<std::string> order;
    unsigned done = 0;
    auto record = [&](const std::string &who) {
        return [&, who](fleet::JobResultMsg m) {
            std::lock_guard<std::mutex> g(lock);
            EXPECT_EQ(m.status, fleet::JobStatus::Ok) << m.detail;
            order.push_back(who);
            ++done;
            cv.notify_all();
        };
    };

    constexpr unsigned kFlood = 6;
    for (unsigned i = 0; i < kFlood; ++i)
        server.submitAsync(canonicalRequest("a", 7), record("a"));
    server.submitAsync(canonicalRequest("b", 7), record("b"));

    std::unique_lock<std::mutex> g(lock);
    cv.wait(g, [&] { return done == kFlood + 1; });
    auto b_pos = std::find(order.begin(), order.end(), "b");
    ASSERT_NE(b_pos, order.end());
    // B must complete before the last flooded A job.
    EXPECT_NE(order.back(), "b");
    EXPECT_LT(static_cast<size_t>(b_pos - order.begin()),
              order.size() - 1);
}

TEST(FleetServer, BackpressureRejectsInsteadOfQueueingUnboundedly)
{
    fleet::FleetConfig cfg = smallServer(1, 1);
    cfg.maxQueuedPerTenant = 2;
    cfg.maxQueuedTotal = 2;
    fleet::FleetServer server(warmImage(), cfg);

    std::mutex lock;
    std::condition_variable cv;
    unsigned done = 0, ok = 0, rejected = 0;
    constexpr unsigned kSubmits = 8;
    for (unsigned i = 0; i < kSubmits; ++i) {
        server.submitAsync(
            canonicalRequest("a", 7), [&](fleet::JobResultMsg m) {
                std::lock_guard<std::mutex> g(lock);
                if (m.status == fleet::JobStatus::Ok)
                    ++ok;
                else if (m.status == fleet::JobStatus::Rejected)
                    ++rejected;
                ++done;
                cv.notify_all();
            });
    }
    std::unique_lock<std::mutex> g(lock);
    cv.wait(g, [&] { return done == kSubmits; });
    EXPECT_EQ(ok + rejected, kSubmits);
    EXPECT_GE(rejected, 1u);   // caps bit during the burst
    EXPECT_GE(ok, 2u);         // but the queue still drained real work
    EXPECT_EQ(server.stats().jobsRejected, rejected);
}

TEST(FleetServer, WelcomeMirrorsTheImageInventory)
{
    fleet::FleetServer server(warmImage(), smallServer(1, 1));
    fleet::Welcome wl = server.welcome();
    EXPECT_EQ(wl.version, fleet::kProtoVersion);
    EXPECT_EQ(wl.kernels, server.imageInfo().kernels);
    EXPECT_EQ(wl.bufferBytes, server.imageInfo().bufferBytes);
}

/** Connects to a daemon that binds @p path asynchronously, retrying
 *  for up to 2 s.  @return the socket, or -1. */
int
connectTo(const std::string &path)
{
    for (int attempt = 0; attempt < 200; ++attempt) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            return -1;
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        ::usleep(10000);
    }
    return -1;
}

TEST(FleetServer, SocketEndToEnd)
{
    std::string path =
        "/tmp/bifsim_test_fleet_" + std::to_string(::getpid()) + ".sock";
    fleet::FleetServer server(warmImage(), smallServer(2, 2));
    std::thread daemon([&] { EXPECT_EQ(server.serve(path), 0); });

    int fd = connectTo(path);
    ASSERT_GE(fd, 0) << "could not connect to " << path;

    fleet::Frame f;
    ASSERT_TRUE(fleet::readFrame(fd, f));
    ASSERT_EQ(f.kind, fleet::kMsgWelcome);
    snapshot::ChunkReader wr = f.reader();
    fleet::Welcome wl = fleet::Welcome::parse(wr);
    EXPECT_EQ(wl.kernels.size(), 6u);

    // One real job over the wire.
    fleet::JobRequest req = canonicalRequest("wire", 7);
    snapshot::ChunkWriter w;
    req.serialize(w);
    fleet::writeFrame(fd, fleet::kMsgJob, w.data());
    ASSERT_TRUE(fleet::readFrame(fd, f));
    ASSERT_EQ(f.kind, fleet::kMsgResult);
    snapshot::ChunkReader rr = f.reader();
    fleet::JobResultMsg m = fleet::JobResultMsg::parse(rr);
    ASSERT_EQ(m.status, fleet::JobStatus::Ok) << m.detail;
    EXPECT_EQ(m.ramCrc, soloReference().ramCrc);
    EXPECT_EQ(m.readback, soloReference().c);

    // Stats over the wire include the fleet.* counters.
    fleet::writeFrame(fd, fleet::kMsgStatsQuery, {});
    ASSERT_TRUE(fleet::readFrame(fd, f));
    ASSERT_EQ(f.kind, fleet::kMsgStatsReply);
    snapshot::ChunkReader sr = f.reader();
    fleet::StatsReply stats = fleet::StatsReply::parse(sr);
    bool saw_completed = false;
    for (const auto &[name, value] : stats.counters)
        if (name == "fleet.jobs_completed" && value >= 1)
            saw_completed = true;
    EXPECT_TRUE(saw_completed);

    // A malformed job gets BadRequest back, not a dropped connection.
    fleet::writeFrame(fd, fleet::kMsgJob, {0x01, 0x02});
    ASSERT_TRUE(fleet::readFrame(fd, f));
    ASSERT_EQ(f.kind, fleet::kMsgResult);
    snapshot::ChunkReader br = f.reader();
    EXPECT_EQ(fleet::JobResultMsg::parse(br).status,
              fleet::JobStatus::BadRequest);

    // Drain-and-shutdown.
    fleet::writeFrame(fd, fleet::kMsgShutdown, {});
    ::close(fd);
    daemon.join();
    EXPECT_TRUE(server.shuttingDown());
    ::unlink(path.c_str());
}

/** Sends @p req as one job frame on @p fd. */
void
sendJob(int fd, const fleet::JobRequest &req)
{
    snapshot::ChunkWriter w;
    req.serialize(w);
    fleet::writeFrame(fd, fleet::kMsgJob, w.data());
}

/** Bounds every read on @p fd to @p seconds, so a test that would
 *  otherwise wait forever fails instead. */
void
setReadTimeout(int fd, long seconds)
{
    timeval tv{seconds, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

TEST(FleetServer, ClientThatStopsReadingIsDropped)
{
    // One worker.  A client submits jobs whose results overfill the
    // socket buffers and never reads them: the worker's send must time
    // out and drop that connection, not block forever, so a second
    // client's job still completes.
    std::string path = "/tmp/bifsim_test_fleet_stall_" +
                       std::to_string(::getpid()) + ".sock";
    fleet::FleetServer server(warmImage(), smallServer(1, 1));
    std::thread daemon([&] { EXPECT_EQ(server.serve(path), 0); });

    fleet::Frame f;
    int stalled = connectTo(path);
    ASSERT_GE(stalled, 0);
    ASSERT_TRUE(fleet::readFrame(stalled, f));
    fleet::JobRequest big = canonicalRequest("stall", 7);
    big.reads.assign(fleet::kMaxReads, big.reads.front());   // 256 KiB.
    for (int i = 0; i < 4; ++i)
        sendJob(stalled, big);

    int live = connectTo(path);
    ASSERT_GE(live, 0);
    setReadTimeout(live, 30);
    bool ok = false;
    try {
        if (fleet::readFrame(live, f)) {   // Welcome.
            sendJob(live, canonicalRequest("live", 7));
            if (fleet::readFrame(live, f)) {
                snapshot::ChunkReader r = f.reader();
                fleet::JobResultMsg m = fleet::JobResultMsg::parse(r);
                ok = m.status == fleet::JobStatus::Ok &&
                     m.readback == soloReference().c;
            }
        }
    } catch (const SimError &e) {
        ADD_FAILURE() << "live client: " << e.what();
    }
    EXPECT_TRUE(ok);

    // Wait, without reading, until the server shuts the stalled
    // connection down.  Its results cannot all fit in the socket
    // buffers, so one send times out and the server's shutdown()
    // raises POLLRDHUP here.  Draining any earlier could let a send
    // still in progress complete, and then no send would time out.
    pollfd p{stalled, POLLRDHUP, 0};
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::seconds(30);
    while (!(p.revents & (POLLRDHUP | POLLHUP)) &&
           std::chrono::steady_clock::now() < deadline) {
        p.revents = 0;
        ::poll(&p, 1, 100);
    }
    EXPECT_TRUE(p.revents & POLLRDHUP)
        << "server never shut the stalled connection";

    // What was buffered drains (its last frame may be cut short), then
    // EOF.
    setReadTimeout(stalled, 30);
    try {
        while (fleet::readFrame(stalled, f)) {
        }
    } catch (const SimError &) {
    }
    char byte;
    EXPECT_EQ(::recv(stalled, &byte, 1, MSG_DONTWAIT), 0)
        << "stalled connection still open";

    ::close(stalled);
    ::close(live);
    server.requestShutdown();
    daemon.join();
    ::unlink(path.c_str());
}

TEST(FleetServer, ShutdownWakesServeAtOnce)
{
    // requestShutdown() must wake serve() directly, not at its next
    // poll of the listening socket: 20 serving daemons, each timed
    // from the request to serve() returning.
    std::string path = "/tmp/bifsim_test_fleet_stop_" +
                       std::to_string(::getpid()) + ".sock";
    std::chrono::steady_clock::duration stopping{};
    for (int cycle = 0; cycle < 20; ++cycle) {
        fleet::FleetServer server(warmImage(), smallServer(1, 1));
        std::thread daemon([&] { EXPECT_EQ(server.serve(path), 0); });
        int fd = connectTo(path);
        fleet::Frame f;
        bool welcomed = fd >= 0 && fleet::readFrame(fd, f) &&
                        f.kind == fleet::kMsgWelcome;
        auto t0 = std::chrono::steady_clock::now();
        server.requestShutdown();
        daemon.join();
        stopping += std::chrono::steady_clock::now() - t0;
        if (fd >= 0)
            ::close(fd);
        ASSERT_TRUE(welcomed) << "cycle " << cycle;
    }
    EXPECT_LT(stopping, std::chrono::seconds(1));
    ::unlink(path.c_str());
}

/** CPU time @p t has used so far. */
std::chrono::nanoseconds
threadCpuTime(std::thread &t)
{
    clockid_t clk;
    timespec ts{};
    if (pthread_getcpuclockid(t.native_handle(), &clk) != 0 ||
        clock_gettime(clk, &ts) != 0)
        return {};
    return std::chrono::seconds(ts.tv_sec) +
           std::chrono::nanoseconds(ts.tv_nsec);
}

TEST(FleetServer, AcceptErrorsDoNotSpin)
{
    // With no fd free, accept() fails (EMFILE) for as long as the
    // client stays queued.  serve() must pause between attempts, not
    // retry flat out, and still greet the client once fds free up.
    std::string path = "/tmp/bifsim_test_fleet_emfile_" +
                       std::to_string(::getpid()) + ".sock";
    fleet::FleetServer server(warmImage(), smallServer(1, 1));
    std::thread daemon([&] { EXPECT_EQ(server.serve(path), 0); });
    int probe = connectTo(path);   // serve() is listening.
    ASSERT_GE(probe, 0);
    ::close(probe);

    // The client socket exists before the fds run out; connecting
    // needs no new fd on either side until the server accepts.
    int client = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(client, 0);
    timeval tv{5, 0};
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);

    rlimit old{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old), 0);
    rlimit low = old;
    low.rlim_cur = std::min<rlim_t>(old.rlim_cur, 256);
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
    std::vector<int> filler;
    for (int fd; (fd = ::dup(client)) >= 0;)
        filler.push_back(fd);
    int fill_errno = errno;

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int rc = ::connect(client, reinterpret_cast<sockaddr *>(&addr),
                       sizeof(addr));
    auto cpu0 = threadCpuTime(daemon);
    auto t0 = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    auto cpu = threadCpuTime(daemon) - cpu0;
    auto wall = std::chrono::steady_clock::now() - t0;

    for (int fd : filler)
        ::close(fd);
    ::setrlimit(RLIMIT_NOFILE, &old);

    EXPECT_EQ(fill_errno, EMFILE);
    ASSERT_EQ(rc, 0) << std::strerror(errno);
    EXPECT_LT(cpu * 10, wall) << "serve() used "
                              << cpu.count() / 1000000 << " ms of CPU in "
                              << wall.count() / 1000000 << " ms";
    fleet::Frame f;
    EXPECT_TRUE(fleet::readFrame(client, f) &&
                f.kind == fleet::kMsgWelcome);
    ::close(client);
    server.requestShutdown();
    daemon.join();
    ::unlink(path.c_str());
}

/** This process's virtual size in kB (VmSize in /proc/self/status). */
uint64_t
vmSizeKb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmSize:", 0) == 0)
            return std::stoull(line.substr(7));
    return 0;
}

TEST(FleetServer, FinishedReadersAreReaped)
{
    // Each connection gets a reader thread; a thread nobody joins
    // keeps its stack mapped.  Over 1000 short connections the
    // server's address space must stay flat, not grow a stack each.
    std::string path = "/tmp/bifsim_test_fleet_reap_" +
                       std::to_string(::getpid()) + ".sock";
    fleet::FleetServer server(warmImage(), smallServer(1, 1));
    std::thread daemon([&] { EXPECT_EQ(server.serve(path), 0); });
    auto cycle = [&] {
        int fd = connectTo(path);
        fleet::Frame f;
        bool welcomed = fd >= 0 && fleet::readFrame(fd, f) &&
                        f.kind == fleet::kMsgWelcome;
        if (fd >= 0)
            ::close(fd);
        return welcomed;
    };
    for (int i = 0; i < 50; ++i)   // Warm the allocator's thread caches.
        ASSERT_TRUE(cycle());
    uint64_t before = vmSizeKb();
    for (int i = 0; i < 1000; ++i)
        ASSERT_TRUE(cycle()) << "cycle " << i;
    uint64_t after = vmSizeKb();
    server.requestShutdown();
    daemon.join();
    ::unlink(path.c_str());
    ASSERT_GT(before, 0u);
    EXPECT_LT(after, before + 256 * 1024)
        << "VmSize grew from " << before << " kB to " << after << " kB";
}

} // namespace
} // namespace bifsim

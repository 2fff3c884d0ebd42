/**
 * @file
 * Work-stealing scheduler tests (DESIGN.md §5f): SliceDeque semantics
 * under concurrency, steal paths forced via GpuConfig::skewSlices,
 * worker-count invariance of results and instrumentation, scheduler
 * statistics, and the SC_THREADS auto-detection contract.
 *
 * The multi-threaded tests here are the designated TSan subjects for
 * the scheduler: they drive owner pop vs. thief steal races on the
 * slice queues.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "gpu/gpu.h"
#include "gpu/isa/bif.h"
#include "gpu/work_queue.h"
#include "runtime/session.h"
#include "snapshot/snapshot.h"

namespace bifsim {
namespace {

using bif::Instr;
using bif::Op;
using gpu::GroupSlice;
using gpu::SliceDeque;

// ---------------------------------------------------------------------
// SliceDeque unit semantics
// ---------------------------------------------------------------------

TEST(SliceDeque, OwnerPopsLifoThievesStealFifo)
{
    SliceDeque dq;
    dq.reset();
    dq.push(GroupSlice{0, 10});
    dq.push(GroupSlice{10, 20});
    dq.push(GroupSlice{20, 30});

    GroupSlice s;
    // Owner takes the newest slice (back).
    ASSERT_TRUE(dq.pop(s));
    EXPECT_EQ(s.begin, 20u);
    EXPECT_EQ(s.end, 30u);
    // A thief takes the oldest (front).
    ASSERT_EQ(dq.steal(s), SliceDeque::Steal::Got);
    EXPECT_EQ(s.begin, 0u);
    EXPECT_EQ(s.end, 10u);
    // The middle slice remains for either end.
    ASSERT_TRUE(dq.pop(s));
    EXPECT_EQ(s.begin, 10u);
    EXPECT_FALSE(dq.pop(s));
    EXPECT_EQ(dq.steal(s), SliceDeque::Steal::Empty);
}

TEST(SliceDeque, ResetReusesAndReclaimsSlots)
{
    // Each round leaves slices behind (popped from both ends only
    // part-way); reset() must drop them, and the next round's slices
    // must come back in order from both ends.
    SliceDeque dq;
    for (uint32_t round = 0; round < 3; ++round) {
        dq.reset();
        const uint32_t base = round * 100;
        for (uint32_t i = 0; i < 8; ++i)
            dq.push(GroupSlice{base + i, base + i + 1});
        GroupSlice s;
        ASSERT_EQ(dq.steal(s), SliceDeque::Steal::Got);
        EXPECT_EQ(s.begin, base);
        ASSERT_TRUE(dq.pop(s));
        EXPECT_EQ(s.begin, base + 7);
        ASSERT_EQ(dq.steal(s), SliceDeque::Steal::Got);
        EXPECT_EQ(s.begin, base + 1);
    }
    dq.reset();
    GroupSlice s;
    EXPECT_FALSE(dq.pop(s));
    EXPECT_EQ(dq.steal(s), SliceDeque::Steal::Empty);

    // Emptied from both ends, the queue reports empty to both.
    for (uint32_t i = 0; i < 4; ++i)
        dq.push(GroupSlice{i, i + 1});
    uint32_t seen = 0;
    while (dq.pop(s) && dq.steal(s) == SliceDeque::Steal::Got)
        seen += 2;
    EXPECT_EQ(seen, 4u);
    EXPECT_FALSE(dq.pop(s));
    EXPECT_EQ(dq.steal(s), SliceDeque::Steal::Empty);
}

TEST(SliceDeque, ConcurrentOwnerAndThievesClaimEachSliceOnce)
{
    // 1024 single-group slices, one popping owner, three stealing
    // thieves: every group must be claimed exactly once.  This is the
    // core no-loss/no-duplication property the job scheduler rests on.
    constexpr uint32_t kSlices = 1024;
    constexpr unsigned kThieves = 3;
    SliceDeque dq;
    dq.reset();
    for (uint32_t i = 0; i < kSlices; ++i)
        dq.push(GroupSlice{i, i + 1});

    std::vector<std::atomic<uint32_t>> claimed(kSlices);
    for (auto &c : claimed)
        c.store(0);
    std::atomic<bool> go{false};

    auto thief = [&] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (;;) {
            GroupSlice s;
            switch (dq.steal(s)) {
              case SliceDeque::Steal::Got:
                claimed[s.begin].fetch_add(1);
                break;
              case SliceDeque::Steal::Empty:
                return;
            }
        }
    };
    std::vector<std::thread> thieves;
    for (unsigned t = 0; t < kThieves; ++t)
        thieves.emplace_back(thief);

    go.store(true, std::memory_order_release);
    // Owner pops concurrently with the thieves.
    GroupSlice s;
    while (dq.pop(s))
        claimed[s.begin].fetch_add(1);
    for (std::thread &t : thieves)
        t.join();

    for (uint32_t i = 0; i < kSlices; ++i)
        EXPECT_EQ(claimed[i].load(), 1u) << "slice " << i;
}

// ---------------------------------------------------------------------
// Scheduler integration (through the runtime session)
// ---------------------------------------------------------------------

Instr
mk(Op op, uint8_t dst, uint8_t s0, uint8_t s1, uint8_t s2, int32_t imm)
{
    Instr i;
    i.op = op;
    i.dst = dst;
    i.src0 = s0;
    i.src1 = s1;
    i.src2 = s2;
    i.imm = imm;
    return i;
}

constexpr uint8_t kNone = bif::kOperandNone;

bif::Module
buildModule(const std::vector<std::vector<Instr>> &clauses)
{
    bif::Module m;
    for (const auto &instrs : clauses) {
        bif::Clause cl;
        for (const Instr &in : instrs) {
            bif::Tuple t;
            if (bif::legalInSlot0(in.op))
                t.slot[0] = in;
            else
                t.slot[1] = in;
            cl.tuples.push_back(t);
        }
        m.clauses.push_back(cl);
    }
    m.regCount = 64;
    return m;
}

/** A compute-heavy kernel of many tiny workgroups: each single-thread
 *  group runs a 500-iteration accumulate loop, then stores
 *  out[gid] = sum(1..500) + gid.  The loop makes each group expensive
 *  enough that a skewed distribution keeps worker 0 busy long enough
 *  for every other worker to wake and steal, even on a one-core host. */
bif::Module
tinyGroupsKernel()
{
    return buildModule({
        {
            // r1 = 500 (counter), r2 = 0 (acc)
            mk(Op::MovImm, 1, kNone, kNone, kNone, 500),
            mk(Op::MovImm, 2, kNone, kNone, kNone, 0),
            mk(Op::MovImm, 3, kNone, kNone, kNone, 1),
            mk(Op::MovImm, 7, kNone, kNone, kNone, 2),
        },
        {
            // loop: acc += counter; counter -= 1; if (counter) repeat
            mk(Op::IAdd, 2, 2, 1, kNone, 0),
            mk(Op::ISub, 1, 1, 3, kNone, 0),
            mk(Op::BranchNZ, kNone, 1, kNone, kNone, 1),
        },
        {
            // gid = group_id * local_size + local_id; acc += gid
            mk(Op::IMul, 4, bif::kSrGroupIdX, bif::kSrLocalSizeX, kNone,
               0),
            mk(Op::IAdd, 4, 4, bif::kSrLocalIdX, kNone, 0),
            mk(Op::IAdd, 2, 2, 4, kNone, 0),
            // out[gid] = acc
            mk(Op::IShl, 5, 4, 7, kNone, 0),
            mk(Op::LdArg, 6, kNone, kNone, kNone, 0),
            mk(Op::IAdd, 5, 5, 6, kNone, 0),
            mk(Op::StGlobal, kNone, 5, 2, kNone, 0),
            mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
        },
    });
}

rt::KernelHandle
loadModule(rt::Session &s, const bif::Module &m)
{
    kclc::CompiledKernel ck;
    ck.name = "raw";
    ck.mod = m;
    ck.binary = bif::encode(m);
    ck.localBytes = m.localBytes;
    ck.regCount = m.regCount;
    return s.load(ck);
}

constexpr uint32_t kGroups = 1024;
constexpr uint32_t kLoopSum = 500 * 501 / 2;

struct SchedRun
{
    std::vector<uint32_t> out;
    gpu::KernelStats kernel;
    uint64_t pagesAccessed = 0;
    gpu::SchedStats sched;
};

SchedRun
runTinyGroups(unsigned host_threads, bool skew, uint32_t groups = kGroups)
{
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = host_threads;
    cfg.gpu.skewSlices = skew;
    rt::Session s(cfg);
    rt::KernelHandle k = loadModule(s, tinyGroupsKernel());
    rt::Buffer out = s.alloc(groups * 4);
    gpu::JobResult r =
        s.enqueue(k, rt::NDRange{groups, 1, 1}, rt::NDRange{1, 1, 1},
                  {rt::Arg::buf(out)});
    EXPECT_FALSE(r.faulted) << r.fault.detail;
    SchedRun run;
    run.out.resize(groups);
    s.read(out, run.out.data(), groups * 4);
    run.kernel = r.kernel;
    run.pagesAccessed = r.pagesAccessed;
    run.sched = s.system().gpu().schedulerStats();
    return run;
}

TEST(GpuSched, ContentionStressSkewForcesStealing)
{
    // Every slice is dealt to worker 0; workers 1..7 can only make
    // progress by stealing.  Results must still be exact and the
    // scheduler must report actual steals.
    SchedRun run = runTinyGroups(8, /*skew=*/true);
    for (uint32_t i = 0; i < kGroups; ++i)
        ASSERT_EQ(run.out[i], kLoopSum + i) << "group " << i;
    EXPECT_EQ(run.sched.groupsRun, kGroups);
    EXPECT_GT(run.sched.slicesRun, 1u);
    EXPECT_GT(run.sched.steals, 0u) << "skewed slices were never stolen";
    EXPECT_GE(run.sched.stealAttempts, run.sched.steals);
    EXPECT_EQ(run.kernel.workgroups, kGroups);
}

TEST(GpuSched, ResultsInvariantUnderWorkerCountAndSkew)
{
    // The scheduler may run any workgroup on any worker in any order;
    // guest-visible results and instrumentation totals must not care.
    // 1021 groups is prime, so at 2 and 8 workers neither the blocks
    // nor the slices of the deal divide evenly; the group counts show
    // every group ran exactly once.
    for (uint32_t groups : {kGroups, 1021u}) {
        SchedRun base = runTinyGroups(1, false, groups);
        for (uint32_t i = 0; i < groups; ++i)
            ASSERT_EQ(base.out[i], kLoopSum + i) << groups << " groups";
        EXPECT_EQ(base.kernel.workgroups, groups);
        EXPECT_EQ(base.sched.groupsRun, groups);
        for (unsigned threads : {2u, 8u}) {
            for (bool skew : {false, true}) {
                SCOPED_TRACE(testing::Message()
                             << groups << " groups, " << threads
                             << " threads, skew=" << skew);
                SchedRun run = runTinyGroups(threads, skew, groups);
                EXPECT_EQ(run.out, base.out);
                EXPECT_EQ(run.kernel.totalInstrs(),
                          base.kernel.totalInstrs());
                EXPECT_EQ(run.kernel.clausesExecuted,
                          base.kernel.clausesExecuted);
                EXPECT_EQ(run.kernel.workgroups, groups);
                EXPECT_EQ(run.kernel.threadsLaunched,
                          base.kernel.threadsLaunched);
                EXPECT_EQ(run.pagesAccessed, base.pagesAccessed);
                EXPECT_EQ(run.sched.groupsRun, groups);
            }
        }
    }
}

TEST(GpuSched, SingleWorkerNeverSteals)
{
    SchedRun run = runTinyGroups(1, false);
    EXPECT_EQ(run.sched.steals, 0u);
    EXPECT_EQ(run.sched.stealAttempts, 0u);
    EXPECT_EQ(run.sched.groupsRun, kGroups);
}

TEST(GpuSched, SchedStatsClearedByResetStats)
{
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 2;
    rt::Session s(cfg);
    rt::KernelHandle k = loadModule(s, tinyGroupsKernel());
    rt::Buffer out = s.alloc(kGroups * 4);
    gpu::JobResult r =
        s.enqueue(k, rt::NDRange{kGroups, 1, 1}, rt::NDRange{1, 1, 1},
                  {rt::Arg::buf(out)});
    ASSERT_FALSE(r.faulted);
    ASSERT_GT(s.system().gpu().schedulerStats().groupsRun, 0u);
    s.system().gpu().resetStats();
    gpu::SchedStats cleared = s.system().gpu().schedulerStats();
    EXPECT_EQ(cleared.groupsRun, 0u);
    EXPECT_EQ(cleared.slicesRun, 0u);
    EXPECT_EQ(cleared.steals, 0u);
}

TEST(GpuSched, DecodeCacheServesRepeatJobsAtAnyWorkerCount)
{
    // Back-to-back jobs with the same binary: one decode, then the
    // device's decode cache serves every later job, however many
    // workers execute it.
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        rt::SystemConfig cfg;
        cfg.gpu.hostThreads = threads;
        rt::Session s(cfg);
        rt::KernelHandle k = loadModule(s, tinyGroupsKernel());
        rt::Buffer out = s.alloc(kGroups * 4);
        for (int i = 0; i < 3; ++i) {
            gpu::JobResult r =
                s.enqueue(k, rt::NDRange{kGroups, 1, 1},
                          rt::NDRange{1, 1, 1}, {rt::Arg::buf(out)});
            ASSERT_FALSE(r.faulted);
        }
        gpu::ShaderCacheStats cs = s.system().gpu().shaderCacheStats();
        EXPECT_EQ(cs.decodes, 1u);
        EXPECT_EQ(cs.hits, 2u);
    }
}

/** Single-thread groups that each run a short accumulate loop, then
 *  store the sum to base + group_id * stride (args: base, stride), so
 *  the pages a job touches are a function of the launch the test
 *  picks. */
bif::Module
stridedStoreKernel()
{
    return buildModule({
        {
            mk(Op::MovImm, 1, kNone, kNone, kNone, 200),
            mk(Op::MovImm, 2, kNone, kNone, kNone, 0),
            mk(Op::MovImm, 3, kNone, kNone, kNone, 1),
        },
        {
            mk(Op::IAdd, 2, 2, 1, kNone, 0),
            mk(Op::ISub, 1, 1, 3, kNone, 0),
            mk(Op::BranchNZ, kNone, 1, kNone, kNone, 1),
        },
        {
            mk(Op::LdArg, 5, kNone, kNone, kNone, 1),
            mk(Op::IMul, 5, bif::kSrGroupIdX, 5, kNone, 0),
            mk(Op::LdArg, 6, kNone, kNone, kNone, 0),
            mk(Op::IAdd, 5, 5, 6, kNone, 0),
            mk(Op::StGlobal, kNone, 5, 2, kNone, 0),
            mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
        },
    });
}

/** Distinct 4 KiB pages stridedStoreKernel touches, counted on the
 *  host. */
uint64_t
expectedPages(uint32_t base, uint32_t groups, uint32_t stride)
{
    std::set<uint32_t> pages;
    for (uint32_t g = 0; g < groups; ++g)
        pages.insert((base + g * stride) >> gpu::kGpuPageShift);
    return pages.size();
}

TEST(GpuSched, PagesAccessedExactAcrossWorkersAndJobs)
{
    // Job A: 200 groups at a 1540-byte stride over a 76-page buffer, so
    // each page takes two or three neighbouring groups and the block
    // and slice boundaries of the deal fall mid-page: one page is
    // touched by groups on different workers and must count once.
    // Job B touches a disjoint buffer; a page set that kept bits or
    // list entries from job A would miscount it, or miscount job A's
    // rerun.
    constexpr uint32_t kGroupsA = 200, kStrideA = 1540;
    constexpr uint32_t kGroupsB = 70, kStrideB = 4100;
    constexpr uint32_t kLoop = 200 * 201 / 2;
    for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
        for (bool skew : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << threads << " threads, skew=" << skew);
            rt::SystemConfig cfg;
            cfg.gpu.hostThreads = threads;
            cfg.gpu.skewSlices = skew;
            rt::Session s(cfg);
            rt::KernelHandle k = loadModule(s, stridedStoreKernel());
            rt::Buffer a = s.alloc(kGroupsA * kStrideA);
            rt::Buffer b = s.alloc(kGroupsB * kStrideB);
            const uint64_t pages_a =
                expectedPages(a.gpuVa, kGroupsA, kStrideA);
            const uint64_t pages_b =
                expectedPages(b.gpuVa, kGroupsB, kStrideB);
            ASSERT_GE(pages_a, 64u);
            ASSERT_GE(pages_b, 64u);

            auto launch = [&](const rt::Buffer &buf, uint32_t groups,
                              uint32_t stride) {
                gpu::JobResult r = s.enqueue(
                    k, rt::NDRange{groups, 1, 1}, rt::NDRange{1, 1, 1},
                    {rt::Arg::buf(buf), rt::Arg::u32(stride)});
                EXPECT_FALSE(r.faulted) << r.fault.detail;
                return r.pagesAccessed;
            };
            EXPECT_EQ(launch(a, kGroupsA, kStrideA), pages_a);
            EXPECT_EQ(launch(b, kGroupsB, kStrideB), pages_b);
            EXPECT_EQ(launch(a, kGroupsA, kStrideA), pages_a);

            uint32_t word = 0;
            s.read(a, &word, 4, (kGroupsA - 1) * kStrideA);
            EXPECT_EQ(word, kLoop);
        }
    }

    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 4;
    cfg.gpu.instrument = false;
    rt::Session s(cfg);
    rt::KernelHandle k = loadModule(s, stridedStoreKernel());
    rt::Buffer a = s.alloc(kGroupsA * kStrideA);
    gpu::JobResult r =
        s.enqueue(k, rt::NDRange{kGroupsA, 1, 1}, rt::NDRange{1, 1, 1},
                  {rt::Arg::buf(a), rt::Arg::u32(kStrideA)});
    EXPECT_FALSE(r.faulted) << r.fault.detail;
    EXPECT_EQ(r.pagesAccessed, 0u);
}

/** What one job of the small-grid sequence left behind. */
struct JobRecord
{
    std::vector<uint8_t> kernel;   ///< KernelStats snapshot bytes.
    uint64_t pagesAccessed = 0;
    uint64_t tlbLookups = 0;
    std::vector<uint32_t> out;
};

/** Jobs of 1, 2 and 3 workgroups interleaved with 64-group jobs on one
 *  session: a tiny job wakes fewer workers than the big one before it,
 *  so an executor that sat it out still holds the big job's counts. */
std::vector<JobRecord>
runSmallGrids(unsigned host_threads, bool skew)
{
    constexpr uint32_t kStride = 4100;   // One page per group.
    constexpr uint32_t kMaxGroups = 64;
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = host_threads;
    cfg.gpu.skewSlices = skew;
    rt::Session s(cfg);
    rt::KernelHandle k = loadModule(s, stridedStoreKernel());
    rt::Buffer buf = s.alloc(kMaxGroups * kStride);
    std::vector<JobRecord> jobs;
    for (uint32_t groups : {64u, 1u, 64u, 2u, 64u, 3u, 1u, 64u}) {
        std::vector<uint8_t> zero(kMaxGroups * kStride);
        s.write(buf, zero.data(), zero.size());
        gpu::JobResult r =
            s.enqueue(k, rt::NDRange{groups, 1, 1}, rt::NDRange{1, 1, 1},
                      {rt::Arg::buf(buf), rt::Arg::u32(kStride)});
        EXPECT_FALSE(r.faulted) << r.fault.detail;
        EXPECT_EQ(r.pagesAccessed, expectedPages(buf.gpuVa, groups, kStride));
        JobRecord rec;
        snapshot::ChunkWriter w;
        gpu::saveStats(w, r.kernel);
        rec.kernel = w.data();
        rec.pagesAccessed = r.pagesAccessed;
        rec.tlbLookups = r.tlb.lookups();
        for (uint32_t g = 0; g < kMaxGroups; ++g) {
            uint32_t word = 0;
            s.read(buf, &word, 4, g * kStride);
            rec.out.push_back(word);
        }
        jobs.push_back(std::move(rec));
    }
    return jobs;
}

TEST(GpuSched, SmallGridsMatchOneWorkerAfterLargeJobs)
{
    // Per-job statistics fold only the executors a job woke; a stale
    // count from a worker that sat out a tiny job would show here.
    const std::vector<JobRecord> base = runSmallGrids(1, false);
    for (unsigned threads : {4u, 8u}) {
        for (bool skew : {false, true}) {
            std::vector<JobRecord> run = runSmallGrids(threads, skew);
            ASSERT_EQ(run.size(), base.size());
            for (size_t j = 0; j < base.size(); ++j) {
                SCOPED_TRACE(testing::Message()
                             << threads << " threads, skew=" << skew
                             << ", job " << j);
                EXPECT_EQ(run[j].kernel, base[j].kernel);
                EXPECT_EQ(run[j].pagesAccessed, base[j].pagesAccessed);
                EXPECT_EQ(run[j].tlbLookups, base[j].tlbLookups);
                EXPECT_EQ(run[j].out, base[j].out);
            }
        }
    }
}

// ---------------------------------------------------------------------
// SC_THREADS / hostThreads resolution
// ---------------------------------------------------------------------

TEST(GpuSched, ScThreadsReportsRuntimeEffectiveCountAfterAutoDetect)
{
    // Regression: SC_THREADS used to echo the *configured* value, so a
    // guest reading it under hostThreads=0 (auto) saw 0 workers.
    PhysMem mem(0x80000000, 1 << 20);
    gpu::GpuConfig cfg;
    cfg.hostThreads = 0;
    gpu::GpuDevice dev(mem, cfg, [](bool) {});
    uint32_t sc = dev.mmioRead(gpu::kRegScThreads);
    EXPECT_GT(sc, 0u) << "auto-detect must never surface 0 workers";
    EXPECT_EQ(sc, dev.config().hostThreads);
}

/** Threads in this process, from /proc/self/task. */
size_t
processThreads()
{
    std::filesystem::directory_iterator it("/proc/self/task");
    return static_cast<size_t>(std::distance(begin(it), end(it)));
}

/** Waits up to 1 s for the thread count to fall to @p n: a joined
 *  thread can leave /proc/self/task just after its join returns. */
bool
threadsSettleAt(size_t n)
{
    for (int i = 0; i < 1000 && processThreads() != n; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    return processThreads() == n;
}

TEST(GpuSched, JobManagerThreadOnlyForAsyncSubmit)
{
    // Under syncSubmit every chain runs on the submitting thread: the
    // device starts no Job Manager thread.  The chain thread runs
    // executor 0 itself, so two host workers are one pool thread.
    PhysMem mem(0x80000000, 1 << 20);
    size_t before = processThreads();
    gpu::GpuConfig cfg;
    cfg.hostThreads = 2;
    cfg.syncSubmit = true;
    {
        gpu::GpuDevice dev(mem, cfg, [](bool) {});
        EXPECT_EQ(processThreads(), before + 1);
    }
    ASSERT_TRUE(threadsSettleAt(before));
    cfg.syncSubmit = false;
    {
        gpu::GpuDevice dev(mem, cfg, [](bool) {});
        EXPECT_EQ(processThreads(), before + 2);
    }
    EXPECT_TRUE(threadsSettleAt(before));
}

TEST(GpuSched, SingleWorkerDeviceStartsNoThreads)
{
    // One host worker is the submitting thread itself: no pool thread,
    // and under syncSubmit no Job Manager thread either.
    PhysMem mem(0x80000000, 1 << 20);
    size_t before = processThreads();
    gpu::GpuConfig cfg;
    cfg.hostThreads = 1;
    cfg.syncSubmit = true;
    {
        gpu::GpuDevice dev(mem, cfg, [](bool) {});
        EXPECT_EQ(processThreads(), before);
        EXPECT_EQ(dev.mmioRead(gpu::kRegScThreads), 1u);
    }
    EXPECT_TRUE(threadsSettleAt(before));
}

TEST(GpuSched, ScThreadsReadableThroughFullSystemBus)
{
    // The guest driver reads SC_THREADS over the bus in FullSystem
    // mode; with auto-detection it must see the real pool size.
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 0;
    rt::Session s(cfg, rt::Mode::FullSystem);
    uint64_t v = 0;
    s.system().bus().read(rt::System::kGpuBase + gpu::kRegScThreads, 4,
                          v);
    EXPECT_GT(v, 0u);
    EXPECT_EQ(v, s.system().gpu().config().hostThreads);
}

} // namespace
} // namespace bifsim

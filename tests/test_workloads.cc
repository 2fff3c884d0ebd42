/** @file End-to-end workload tests: every Table II benchmark verifies
 *  against its host reference on the full simulator and agrees with
 *  the reference interpreter (the Multi2Sim-style baseline); a subset
 *  also runs through the guest driver (full-system). */

#include <gtest/gtest.h>

#include "common/logging.h"
#include "workloads/cost_model.h"
#include "workloads/kfusion.h"
#include "workloads/sgemm_variants.h"
#include "workloads/workload.h"

namespace bifsim::workloads {
namespace {

constexpr double kTinyScale = 0.002;

class WorkloadDirect : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadDirect, VerifiesAgainstHostReference)
{
    setInformEnabled(false);
    auto wl = makeWorkload(GetParam(), kTinyScale);
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 2;
    rt::Session session(cfg);
    SessionDevice dev(session);
    dev.build(wl->source(), kclc::CompilerOptions());
    RunResult rr = wl->run(dev);
    EXPECT_TRUE(rr.ok) << rr.error;
    EXPECT_GE(rr.launches, 1u);
    // Instrumentation collected something meaningful.
    gpu::KernelStats ks = session.system().gpu().totalKernelStats();
    EXPECT_GT(ks.totalInstrs(), 0u);
    EXPECT_GT(ks.threadsLaunched, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, WorkloadDirect,
    ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

class WorkloadO0 : public ::testing::TestWithParam<std::string>
{
};

/** The whole suite must also be correct with the naive compiler. */
TEST_P(WorkloadO0, VerifiesAtOptLevelZero)
{
    setInformEnabled(false);
    auto wl = makeWorkload(GetParam(), kTinyScale);
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 2;
    rt::Session session(cfg);
    SessionDevice dev(session);
    dev.build(wl->source(), kclc::CompilerOptions::forLevel(0));
    RunResult rr = wl->run(dev);
    EXPECT_TRUE(rr.ok) << rr.error;
}

INSTANTIATE_TEST_SUITE_P(
    Subset, WorkloadO0,
    ::testing::Values("sobelfilter", "reduction", "bfs",
                      "binomialoption", "scanlargearrays"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

class WorkloadFullSystem : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadFullSystem, VerifiesThroughGuestDriver)
{
    setInformEnabled(false);
    auto wl = makeWorkload(GetParam(), kTinyScale);
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 2;
    rt::Session session(cfg, rt::Mode::FullSystem);
    SessionDevice dev(session);
    dev.build(wl->source(), kclc::CompilerOptions());
    RunResult rr = wl->run(dev);
    EXPECT_TRUE(rr.ok) << rr.error;
    EXPECT_GT(session.driverInstructions(), 0u);
    gpu::SystemStats st = session.system().gpu().systemStats();
    EXPECT_GE(st.computeJobs, rr.launches);
    EXPECT_GE(st.irqsAsserted, rr.launches);
    EXPECT_GT(st.pagesAccessed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Subset, WorkloadFullSystem,
    ::testing::Values("sobelfilter", "reduction", "bfs", "stencil"),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

/** A device that forwards to another and records the bytes of every
 *  read, i.e. everything a workload takes back from the device. */
class RecordingDevice : public Device
{
  public:
    explicit RecordingDevice(Device &inner) : inner_(inner) {}

    void
    build(const std::string &source,
          const kclc::CompilerOptions &opts) override
    {
        inner_.build(source, opts);
    }

    BufHandle alloc(size_t bytes) override { return inner_.alloc(bytes); }

    void
    write(BufHandle b, const void *src, size_t len, size_t offset) override
    {
        inner_.write(b, src, len, offset);
    }

    void
    read(BufHandle b, void *dst, size_t len, size_t offset) override
    {
        inner_.read(b, dst, len, offset);
        const uint8_t *p = static_cast<const uint8_t *>(dst);
        reads.insert(reads.end(), p, p + len);
    }

    bool
    launch(const std::string &kernel, Dim3 global, Dim3 local,
           const std::vector<WArg> &args, std::string &error) override
    {
        launches_++;
        return inner_.launch(kernel, global, local, args, error);
    }

    std::vector<uint8_t> reads;

  private:
    Device &inner_;
};

class WorkloadReference : public ::testing::TestWithParam<std::string>
{
};

/** Every Table II workload reads back the same bytes from the reference
 *  interpreter (as the Multi2Sim-style baseline) as from the executor
 *  at 1 and 4 workers, and both count the same Fig. 11 instruction mix
 *  (except bfs, whose atomics the two order differently). */
TEST_P(WorkloadReference, MatchesExecutor)
{
    setInformEnabled(false);
    auto run = [&](Device &inner) {
        auto wl = makeWorkload(GetParam(), kTinyScale);
        RecordingDevice dev(inner);
        dev.build(wl->source(), kclc::CompilerOptions());
        RunResult rr = wl->run(dev);
        EXPECT_TRUE(rr.ok) << rr.error;
        return dev.reads;
    };
    M2sDevice ref(128u << 20);
    std::vector<uint8_t> want = run(ref);
    const gpu::ref::LaunchStats &rs = ref.stats();
    EXPECT_GT(rs.instructions, 0u);
    EXPECT_GT(rs.slotDecodes, rs.instructions);

    for (unsigned workers : {1u, 4u}) {
        rt::SystemConfig cfg;
        cfg.gpu.hostThreads = workers;
        rt::Session session(cfg);
        SessionDevice dev(session);
        std::vector<uint8_t> got = run(dev);
        EXPECT_EQ(got.size(), want.size()) << workers << " workers";
        EXPECT_TRUE(got == want)
            << "read-back bytes differ at " << workers << " workers";
        if (GetParam() == "bfs")
            continue;
        gpu::KernelStats ks = session.system().gpu().totalKernelStats();
        EXPECT_EQ(ks.arithInstrs, rs.arith) << workers << " workers";
        EXPECT_EQ(ks.lsInstrs, rs.loadStore) << workers << " workers";
        EXPECT_EQ(ks.cfInstrs, rs.controlFlow) << workers << " workers";
    }
}

INSTANTIATE_TEST_SUITE_P(
    All, WorkloadReference, ::testing::ValuesIn(allWorkloadNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(SgemmVariants, AllVerifyAndDiffer)
{
    setInformEnabled(false);
    rt::Session session;
    auto res = runSgemmVariants(session, 64);
    ASSERT_EQ(res.size(), 6u);
    for (const SgemmVariantResult &r : res)
        EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    // Variant 4 must hit main memory far less than the naive variant.
    EXPECT_LT(res[3].stats.globalLdSt * 4, res[0].stats.globalLdSt);
    // Variant 6 uses no local memory; variant 2 uses plenty.
    EXPECT_EQ(res[5].stats.localLdSt, 0u);
    EXPECT_GT(res[1].stats.localLdSt, 0u);
    // Cost models rank them differently (the Fig. 15 claim).
    CostModel mali = maliCostModel(), desk = desktopCostModel();
    int best_mali = 0, best_desk = 0;
    for (int i = 1; i < 6; ++i) {
        if (evalCost(res[i].stats, mali) <
            evalCost(res[best_mali].stats, mali))
            best_mali = i;
        if (evalCost(res[i].stats, desk) <
            evalCost(res[best_desk].stats, desk))
            best_desk = i;
    }
    EXPECT_EQ(best_mali, 3);   // 4:WiderDataTypes wins on mobile.
    EXPECT_NE(best_mali, best_desk);
}

TEST(KFusion, PipelineRunsAndConfigsOrder)
{
    setInformEnabled(false);
    uint32_t size = 32, frames = 2;
    rt::Session s1;
    KFusionResult std_r =
        runKFusion(s1, KFusionConfig::standard(size, size, frames));
    ASSERT_TRUE(std_r.ok) << std_r.error;
    rt::Session s2;
    KFusionResult fast_r =
        runKFusion(s2, KFusionConfig::fast3(size, size, frames));
    ASSERT_TRUE(fast_r.ok) << fast_r.error;
    rt::Session s3;
    KFusionResult exp_r =
        runKFusion(s3, KFusionConfig::express(size, size, frames));
    ASSERT_TRUE(exp_r.ok) << exp_r.error;

    // Many kernels per sequence, strictly decreasing work.
    EXPECT_GT(std_r.kernelLaunches, 20u);
    EXPECT_LT(fast_r.kernel.totalInstrs(), std_r.kernel.totalInstrs());
    EXPECT_LT(exp_r.kernel.totalInstrs(), fast_r.kernel.totalInstrs());
    // FPS proxy ordering matches the paper's measured ordering.
    CostModel mali = maliCostModel();
    double c_std = evalCost(std_r.kernel, mali);
    double c_fast = evalCost(fast_r.kernel, mali);
    double c_exp = evalCost(exp_r.kernel, mali);
    EXPECT_GT(c_std, c_fast);
    EXPECT_GT(c_fast, c_exp);
}

TEST(Workloads, RegistryComplete)
{
    std::vector<std::string> names = allWorkloadNames();
    EXPECT_EQ(names.size(), 19u);   // Table II.
    EXPECT_THROW(makeWorkload("nonexistent", 1.0), SimError);
    for (const std::string &n : fig7WorkloadNames())
        EXPECT_NE(std::find(names.begin(), names.end(), n), names.end());
    for (const std::string &n : fig8WorkloadNames())
        EXPECT_NE(std::find(names.begin(), names.end(), n), names.end());
}

TEST(Workloads, NativeReferencesAreDeterministic)
{
    for (const char *name : {"sobelfilter", "reduction", "sgemm"}) {
        auto w1 = makeWorkload(name, kTinyScale);
        auto w2 = makeWorkload(name, kTinyScale);
        EXPECT_EQ(w1->runNative(), w2->runNative()) << name;
    }
}

} // namespace
} // namespace bifsim::workloads

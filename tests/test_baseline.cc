/** @file Unit tests for the Multi2Sim-style baseline: M2sDevice over
 *  the reference interpreter's launch entry (gpu/ref). */

#include <gtest/gtest.h>

#include <cstring>

#include "gpu/isa/bif.h"
#include "gpu/ref/ref_interp.h"
#include "kclc/compiler.h"
#include "workloads/device.h"

namespace bifsim::workloads {
namespace {

using gpu::ref::Fetch;
using gpu::ref::LaunchStats;

const char *kSaxpy = R"(
kernel void saxpy(global const float* x, global float* y, int n,
                  float a) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
)";

// Local-memory reversal: correct only with barrier phasing.
const char *kReverse = R"(
kernel void rev(global int* out) {
    local int tile[8];
    int lid = get_local_id(0);
    tile[lid] = lid;
    barrier();
    out[lid] = tile[7 - lid];
}
)";

TEST(M2sDevice, AllocatorBumpsAndAligns)
{
    M2sDevice dev(1 << 20);
    BufHandle a = dev.alloc(100);
    BufHandle b = dev.alloc(100);
    EXPECT_NE(a, b);
    EXPECT_EQ(b % 4096, 0u);
}

TEST(M2sDevice, RunsCompiledKernel)
{
    M2sDevice dev(1 << 20);
    dev.build(kSaxpy, kclc::CompilerOptions());
    constexpr int kN = 100;
    BufHandle dx = dev.alloc(kN * 4), dy = dev.alloc(kN * 4);
    std::vector<float> x(kN), y(kN, 1.0f);
    for (int i = 0; i < kN; ++i)
        x[i] = static_cast<float>(i);
    dev.write(dx, x.data(), kN * 4, 0);
    dev.write(dy, y.data(), kN * 4, 0);
    std::string err;
    ASSERT_TRUE(dev.launch("saxpy", {128}, {64},
                           {WArg::buf(dx), WArg::buf(dy), WArg::i32(kN),
                            WArg::f32(3.0f)},
                           err))
        << err;
    std::vector<float> got(kN);
    dev.read(dy, got.data(), kN * 4, 0);
    for (int i = 0; i < kN; ++i)
        ASSERT_FLOAT_EQ(got[i], 3.0f * i + 1.0f);
    EXPECT_EQ(dev.stats().workItems, 128u);
    EXPECT_EQ(dev.stats().workGroups, 2u);
    EXPECT_GT(dev.stats().instructions, 0u);
}

TEST(M2sDevice, ReDecodesEverySlot)
{
    // The defining baseline behaviour: slot decodes grow with executed
    // work, not with static code size.
    M2sDevice dev(1 << 20);
    dev.build(kSaxpy, kclc::CompilerOptions());
    BufHandle buf = dev.alloc(4096);
    std::vector<WArg> args = {WArg::buf(buf), WArg::buf(buf),
                              WArg::i32(0), WArg::u32(0)};
    std::string err;
    ASSERT_TRUE(dev.launch("saxpy", {64}, {64}, args, err)) << err;
    uint64_t first = dev.stats().slotDecodes;
    EXPECT_GT(first, dev.stats().instructions);
    ASSERT_TRUE(dev.launch("saxpy", {64}, {64}, args, err)) << err;
    EXPECT_EQ(dev.stats().slotDecodes, 2 * first);
}

TEST(M2sDevice, RejectsBadBinary)
{
    // Binaries are parsed by bif::decode, so a bad header or a ROM
    // range outside the image is refused before anything runs (and
    // never read out of bounds: this case is run under ASan).
    kclc::CompiledKernel k = kclc::compileKernel(R"(
kernel void k(global float* y) {
    int i = get_global_id(0);
    y[i] = y[i] * 2.5f + 1.5f;
}
)", "k");
    ASSERT_GT(k.mod.rom.size(), 0u);
    auto with_rom_offset = [&](uint32_t off) {
        std::vector<uint8_t> bin = k.binary;
        std::memcpy(bin.data() + 12, &off, 4);   // Header word 3.
        return bin;
    };
    std::vector<std::vector<uint8_t>> bad = {
        std::vector<uint8_t>(128, 0xEE),
        with_rom_offset(static_cast<uint32_t>(k.binary.size())),
        with_rom_offset(0x40000000u),
    };
    for (const std::vector<uint8_t> &bin : bad) {
        std::vector<uint8_t> mem(1 << 16, 0);
        uint32_t grid[3] = {1, 1, 1}, wg[3] = {1, 1, 1};
        LaunchStats st;
        std::string err;
        EXPECT_FALSE(gpu::ref::launch<Fetch::Redecode>(bin, grid, wg, {0},
                                                       mem, st, err));
        EXPECT_NE(err.find("bad shader binary: "), std::string::npos)
            << err;
        EXPECT_EQ(st.instructions, 0u);
    }
    std::vector<uint8_t> mem(1 << 16, 0);
    uint32_t grid[3] = {1, 1, 1}, wg[3] = {1, 1, 1};
    LaunchStats st;
    std::string err;
    EXPECT_TRUE(gpu::ref::launch<Fetch::Redecode>(k.binary, grid, wg, {0},
                                                  mem, st, err))
        << err;
}

TEST(M2sDevice, RejectsBadDimensions)
{
    M2sDevice dev(1 << 20);
    dev.build(kSaxpy, kclc::CompilerOptions());
    std::string err;
    EXPECT_FALSE(dev.launch("saxpy", {10}, {4}, {}, err));
    EXPECT_EQ(err, "bad dimensions");
    EXPECT_FALSE(dev.launch("saxpy", {2048}, {2048}, {}, err));
    EXPECT_NE(err.find("bad dimensions"), std::string::npos);
}

TEST(RefLaunch, RejectsWrappedGroupSize)
{
    // 2^31 * 2^31 * 4 work-items per group is 2^64, which wraps a
    // 64-bit product to 0 and would launch a group with nothing in it.
    kclc::CompiledKernel k = kclc::compileKernel(kSaxpy, "saxpy");
    uint32_t grid[3] = {0x80000000u, 0x80000000u, 4};
    uint32_t wg[3] = {0x80000000u, 0x80000000u, 4};
    std::vector<uint8_t> mem(4096, 0);
    LaunchStats st;
    std::string err;
    EXPECT_FALSE(gpu::ref::launch<Fetch::Decoded>(k.binary, grid, wg,
                                                  {0, 0, 0, 0}, mem, st,
                                                  err));
    EXPECT_NE(err.find("bad dimensions"), std::string::npos) << err;
    EXPECT_EQ(st.workGroups, 0u);
}

TEST(M2sDevice, OutOfRangeAccessFails)
{
    M2sDevice dev(1 << 20);
    dev.build(kSaxpy, kclc::CompilerOptions());
    // y buffer points near the end of device memory.
    std::string err;
    EXPECT_FALSE(dev.launch("saxpy", {64}, {64},
                            {WArg::buf(0xFFFFF0), WArg::buf(0xFFFFF0),
                             WArg::i32(64), WArg::f32(1.0f)},
                            err));
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
    EXPECT_NE(err.find("work-item"), std::string::npos) << err;
}

TEST(M2sDevice, SpinningKernelExceedsBudget)
{
    // Every work-item runs within the reference's per-thread budget, so
    // a kernel that never terminates ends in a located error.
    M2sDevice dev(1 << 20);
    dev.build(R"(
kernel void spin(global int* out, int n) {
    while (n > 0) {
    }
    out[0] = n;
}
)", kclc::CompilerOptions());
    BufHandle out = dev.alloc(4);
    std::string err;
    EXPECT_FALSE(dev.launch("spin", {1}, {1},
                            {WArg::buf(out), WArg::i32(1)}, err));
    EXPECT_NE(err.find("instruction budget exceeded"), std::string::npos)
        << err;
    EXPECT_GE(dev.stats().instructions, gpu::ref::kThreadBudget);
}

TEST(M2sDevice, BarrierPhasing)
{
    M2sDevice dev(1 << 20);
    dev.build(kReverse, kclc::CompilerOptions());
    BufHandle out = dev.alloc(8 * 4);
    std::string err;
    ASSERT_TRUE(dev.launch("rev", {8}, {8}, {WArg::buf(out)}, err)) << err;
    uint32_t got[8];
    dev.read(out, got, 32, 0);
    for (uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(got[i], 7 - i);
}

TEST(RefLaunch, FetchPoliciesAgree)
{
    // The oracle's pre-decoded fetch and the baseline's per-slot
    // re-decode run the same interpreter: same memory, same mix; only
    // the re-decode counts slot decodes (barrier slots included).
    kclc::CompiledKernel k = kclc::compileKernel(kReverse, "rev");
    uint32_t grid[3] = {16, 1, 1}, wg[3] = {8, 1, 1};
    std::vector<uint8_t> m0(4096, 0), m1(4096, 0);
    LaunchStats s0, s1;
    std::string err;
    ASSERT_TRUE(gpu::ref::launch<Fetch::Decoded>(k.binary, grid, wg,
                                                 {1024}, m0, s0, err))
        << err;
    ASSERT_TRUE(gpu::ref::launch<Fetch::Redecode>(k.binary, grid, wg,
                                                  {1024}, m1, s1, err))
        << err;
    EXPECT_EQ(m0, m1);
    EXPECT_EQ(s0.instructions, s1.instructions);
    EXPECT_EQ(s0.arith, s1.arith);
    EXPECT_EQ(s0.loadStore, s1.loadStore);
    EXPECT_EQ(s0.controlFlow, s1.controlFlow);
    EXPECT_EQ(s0.slotDecodes, 0u);
    EXPECT_GT(s1.slotDecodes, s1.instructions);
    EXPECT_EQ(s0.workItems, 16u);
    EXPECT_EQ(s0.workGroups, 2u);
}

} // namespace
} // namespace bifsim::workloads

/** @file Unit tests for the GPU MMU: driver-format page tables,
 *  write protection, TLB behaviour (host-pointer caching, epoch
 *  shootdown) and fault reporting. */

#include <gtest/gtest.h>

#include <vector>

#include "gpu/gmmu.h"
#include "gpu/gpu.h"
#include "mem/phys_mem.h"
#include "runtime/session.h"

namespace bifsim::gpu {
namespace {

constexpr Addr kBase = 0x80000000;

class GpuMmuTest : public ::testing::Test
{
  protected:
    GpuMmuTest() : mem(kBase, 1 << 20), mmu(mem)
    {
        root = kBase + 0x4000;
        l0 = kBase + 0x5000;
        mem.fill(root, 0, 8192);
        mmu.setRoot(root);
    }

    void
    map(uint32_t va, Addr pa, bool writable)
    {
        uint32_t vpn1 = va >> 22, vpn0 = (va >> 12) & 0x3ff;
        mem.write<uint32_t>(root + vpn1 * 4,
                            static_cast<uint32_t>((l0 >> 12) << 10) |
                                kGpuPteValid);
        mem.write<uint32_t>(l0 + vpn0 * 4,
                            static_cast<uint32_t>((pa >> 12) << 10) |
                                kGpuPteValid |
                                (writable ? static_cast<uint32_t>(
                                                kGpuPteWrite)
                                          : 0u));
    }

    /** Translates @p va through lookup(), composing the physical
     *  address from the entry's frame.  False on a fault. */
    bool
    lookupPa(uint32_t va, bool write, Addr &pa)
    {
        const GpuTlb::Entry *e = mmu.lookup(va, write, tlb);
        if (!e)
            return false;
        pa = (static_cast<Addr>(e->ppn) << kGpuPageShift) |
             (va & (kGpuPageBytes - 1));
        return true;
    }

    PhysMem mem;
    GpuMmu mmu;
    GpuTlb tlb;
    Addr root, l0;
};

TEST_F(GpuMmuTest, TranslateBasic)
{
    map(0x00100000, kBase + 0x8000, true);
    Addr pa = 0;
    ASSERT_TRUE(lookupPa(0x00100abc, false, pa));
    EXPECT_EQ(pa, kBase + 0x8abc);
    ASSERT_TRUE(lookupPa(0x00100abc, true, pa));
}

TEST_F(GpuMmuTest, ReadOnlyBlocksWrites)
{
    map(0x00100000, kBase + 0x8000, false);
    Addr pa = 0;
    EXPECT_TRUE(lookupPa(0x00100000, false, pa));
    EXPECT_FALSE(lookupPa(0x00100000, true, pa));
}

TEST_F(GpuMmuTest, UnmappedFails)
{
    Addr pa = 0;
    EXPECT_FALSE(lookupPa(0x00300000, false, pa));
}

TEST_F(GpuMmuTest, NullRootFails)
{
    mmu.setRoot(0);
    Addr pa = 0;
    EXPECT_FALSE(lookupPa(0x00100000, false, pa));
}

TEST_F(GpuMmuTest, TlbAvoidsRepeatWalks)
{
    map(0x00100000, kBase + 0x8000, true);
    Addr pa = 0;
    lookupPa(0x00100000, false, pa);
    // Walk counts are per-TLB (thread-local) — no shared counter.
    uint64_t walks = tlb.stats.walks;
    for (int i = 0; i < 100; ++i)
        lookupPa(0x00100000 + i * 4, false, pa);
    EXPECT_EQ(tlb.stats.walks, walks);
    tlb.flush();
    lookupPa(0x00100000, false, pa);
    EXPECT_EQ(tlb.stats.walks, walks + 1);
}

TEST_F(GpuMmuTest, TlbCachesWritePermission)
{
    map(0x00100000, kBase + 0x8000, false);
    Addr pa = 0;
    // Prime the TLB with a read, then try to write through the entry.
    ASSERT_TRUE(lookupPa(0x00100000, false, pa));
    EXPECT_FALSE(lookupPa(0x00100004, true, pa));
}

TEST_F(GpuMmuTest, DistinctPagesDistinctFrames)
{
    map(0x00100000, kBase + 0x8000, true);
    map(0x00101000, kBase + 0x20000, true);
    Addr pa1 = 0, pa2 = 0;
    ASSERT_TRUE(lookupPa(0x00100000, false, pa1));
    ASSERT_TRUE(lookupPa(0x00101000, false, pa2));
    EXPECT_EQ(pa1, kBase + 0x8000);
    EXPECT_EQ(pa2, kBase + 0x20000);
}

TEST_F(GpuMmuTest, PageTableOutsideRamFails)
{
    mmu.setRoot(0x10000000);   // Not RAM.
    Addr pa = 0;
    EXPECT_FALSE(lookupPa(0x00100000, false, pa));
}

TEST_F(GpuMmuTest, LookupCachesHostPointer)
{
    map(0x00100000, kBase + 0x8000, true);
    tlb.syncEpoch(mmu);
    const GpuTlb::Entry *e = mmu.lookup(0x00100040, false, tlb);
    ASSERT_NE(e, nullptr);
    ASSERT_NE(e->host, nullptr);
    EXPECT_EQ(e->host, mem.hostPtr(kBase + 0x8000));
    EXPECT_TRUE(e->writable);
    // Repeat lookups are served from the TLB array without walking
    // (the one-entry last-page cache sits in the executor, above this
    // layer, and is exercised by the workload/differential tests).
    uint64_t walks = tlb.stats.walks;
    for (int i = 0; i < 16; ++i)
        EXPECT_NE(mmu.lookup(0x00100000 + i * 64, false, tlb), nullptr);
    EXPECT_EQ(tlb.stats.walks, walks);
    EXPECT_GE(tlb.stats.arrayHits, 16u);
    EXPECT_EQ(tlb.last, e);
}

TEST_F(GpuMmuTest, AsCommandEpochBumpInvalidatesHostPointerEntries)
{
    // Prime a host-pointer TLB entry through a GpuDevice's MMU, then
    // write AS_COMMAND: the broadcast TLB flush must invalidate the
    // cached translation at the worker's next epoch check.
    GpuDevice dev(mem, GpuConfig{}, [](bool) {});
    GpuMmu &dmmu = dev.mmu();
    dmmu.setRoot(root);
    map(0x00100000, kBase + 0x8000, true);

    GpuTlb wtlb;
    wtlb.syncEpoch(dmmu);
    const GpuTlb::Entry *e = dmmu.lookup(0x00100000, false, wtlb);
    ASSERT_NE(e, nullptr);
    ASSERT_NE(e->host, nullptr);
    uint64_t walks = wtlb.stats.walks;

    uint64_t epoch_before = dmmu.epoch();
    dev.mmioWrite(kRegAsCommand, 1);
    EXPECT_GT(dmmu.epoch(), epoch_before);

    // The worker's lazy check notices the stale epoch and flushes.
    EXPECT_TRUE(wtlb.syncEpoch(dmmu));
    EXPECT_EQ(wtlb.last, nullptr);
    EXPECT_EQ(wtlb.entries[(0x00100000 >> kGpuPageShift) %
                           GpuTlb::kEntries].vpn,
              GpuTlb::kInvalidVpn);

    // The next lookup must re-walk the (possibly rewritten) tables.
    ASSERT_NE(dmmu.lookup(0x00100000, false, wtlb), nullptr);
    EXPECT_EQ(wtlb.stats.walks, walks + 1);

    // Unchanged epoch: the lazy check is a no-op.
    EXPECT_FALSE(wtlb.syncEpoch(dmmu));
}

TEST_F(GpuMmuTest, WriteThroughReadOnlyCachedEntryFaults)
{
    map(0x00100000, kBase + 0x8000, false);
    tlb.syncEpoch(mmu);
    // Prime with a read: the entry is cached with a valid host pointer
    // but writable=false, and becomes the last-page cache.
    const GpuTlb::Entry *e = mmu.lookup(0x00100000, false, tlb);
    ASSERT_NE(e, nullptr);
    ASSERT_NE(e->host, nullptr);
    EXPECT_FALSE(e->writable);
    // A write through either fast-path tier must still fault.
    EXPECT_EQ(mmu.lookup(0x00100000, true, tlb), nullptr);   // last-page
    tlb.last = nullptr;
    EXPECT_EQ(mmu.lookup(0x00100004, true, tlb), nullptr);   // array hit
    // Reads keep working afterwards.
    EXPECT_NE(mmu.lookup(0x00100008, false, tlb), nullptr);
}

TEST(GpuDecodeCache, GpuCmdFlushForcesRedecode)
{
    const char *src = R"(
kernel void copy(global const int* in, global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = in[i];
    }
}
)";
    rt::Session s;
    rt::KernelHandle k = s.compile(src, "copy");
    rt::Buffer a = s.alloc(4096), b = s.alloc(4096);
    std::vector<rt::Arg> args = {rt::Arg::buf(a), rt::Arg::buf(b),
                                 rt::Arg::i32(64)};
    rt::NDRange g{64, 1, 1}, l{64, 1, 1};

    s.enqueue(k, g, l, args);
    ShaderCacheStats cs = s.system().gpu().shaderCacheStats();
    EXPECT_EQ(cs.decodes, 1u);

    // A second launch hits the decode cache.
    s.enqueue(k, g, l, args);
    cs = s.system().gpu().shaderCacheStats();
    EXPECT_EQ(cs.decodes, 1u);
    EXPECT_GE(cs.hits, 1u);

    // GPU_CMD = 1 flushes the decode cache: the next launch re-decodes
    // (the binary may have been rewritten in place).
    s.system().gpu().mmioWrite(kRegGpuCmd, 1);
    s.enqueue(k, g, l, args);
    cs = s.system().gpu().shaderCacheStats();
    EXPECT_EQ(cs.decodes, 2u);
}

} // namespace
} // namespace bifsim::gpu

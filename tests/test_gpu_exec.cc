/** @file Integration tests for the GPU device model: job manager,
 *  MMU, warps, divergence, barriers, local memory, faults, the shader
 *  decode cache, and virtual-core consistency. */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <map>
#include <thread>

#include "gpu/gpu.h"
#include "gpu/isa/bif.h"
#include "instrument/cfg.h"
#include "runtime/session.h"

namespace bifsim {
namespace {

using bif::Instr;
using bif::Op;

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

/** Builds clauses from a flat list: each instr gets its own tuple in
 *  one clause, split at control flow. */
bif::Module
buildModule(const std::vector<std::vector<Instr>> &clauses,
            std::vector<uint32_t> rom = {}, uint32_t local_bytes = 0)
{
    bif::Module m;
    for (const auto &instrs : clauses) {
        // Chunk long groups into 8-tuple clauses.  NOTE: tests with
        // branches must keep every group under 9 instructions so that
        // group indices equal clause indices.
        bif::Clause cl;
        for (const Instr &in : instrs) {
            bif::Tuple t;
            if (bif::legalInSlot0(in.op))
                t.slot[0] = in;
            else
                t.slot[1] = in;
            cl.tuples.push_back(t);
            if (cl.tuples.size() == bif::kMaxTuplesPerClause &&
                &in != &instrs.back()) {
                m.clauses.push_back(cl);
                cl.tuples.clear();
            }
        }
        if (!cl.tuples.empty())
            m.clauses.push_back(cl);
    }
    m.rom = std::move(rom);
    m.localBytes = local_bytes;
    for (const auto &cl : m.clauses) {
        for (const auto &t : cl.tuples) {
            if (t.slot[0].op == Op::Barrier || t.slot[1].op == Op::Barrier)
                m.usesBarrier = true;
        }
    }
    m.regCount = 64;
    return m;
}

/** Loads a raw module into a session as a launchable kernel. */
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

class GpuExecTest : public ::testing::Test
{
  protected:
    GpuExecTest() : session(makeConfig(), rt::Mode::Direct) {}

    static rt::SystemConfig
    makeConfig()
    {
        rt::SystemConfig cfg;
        cfg.gpu.hostThreads = 2;
        return cfg;
    }

    rt::Session session;
};

TEST_F(GpuExecTest, GlobalIdStore)
{
    // out[global_id] = global_id  (1D, groups of 4)
    bif::Module m = buildModule({{
        mk(Op::IMul, 1, bif::kSrGroupIdX, bif::kSrLocalSizeX, kNone, 0),
        mk(Op::IAdd, 1, 1, bif::kSrLocalIdX, kNone, 0),
        mk(Op::IShl, 2, 1, kNone, kNone, 0),   // addr = base + id*4
        mk(Op::MovImm, 3, kNone, kNone, kNone, 2),
        mk(Op::IShl, 2, 1, 3, kNone, 0),
        mk(Op::LdArg, 4, kNone, kNone, kNone, 0),
        mk(Op::IAdd, 2, 2, 4, kNone, 0),
        mk(Op::StGlobal, kNone, 2, 1, kNone, 0),
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }});
    rt::KernelHandle k = loadModule(session, m);
    rt::Buffer out = session.alloc(64 * 4);
    gpu::JobResult r =
        session.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{4, 1, 1},
                        {rt::Arg::buf(out)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    std::vector<uint32_t> got(64);
    session.read(out, got.data(), 64 * 4);
    for (uint32_t i = 0; i < 64; ++i)
        EXPECT_EQ(got[i], i);
    EXPECT_EQ(r.kernel.threadsLaunched, 64u);
    EXPECT_EQ(r.kernel.warpsLaunched, 16u);
    EXPECT_EQ(r.kernel.workgroups, 16u);
}

TEST_F(GpuExecTest, FloatPipeline)
{
    // out[0] = sqrt(rom[0]) * 2.0 via temps.
    float two = 2.0f;
    bif::Module m = buildModule(
        {{
            mk(Op::LdRom, 64, kNone, kNone, kNone, 0),      // t0
            mk(Op::FSqrt, 65, 64, kNone, kNone, 0),         // t1
            mk(Op::LdRom, 1, kNone, kNone, kNone, 1),
            mk(Op::FMul, 2, 65, 1, kNone, 0),
            mk(Op::LdArg, 3, kNone, kNone, kNone, 0),
            mk(Op::StGlobal, kNone, 3, 2, kNone, 0),
            mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
        }},
        {std::bit_cast<uint32_t>(16.0f), std::bit_cast<uint32_t>(two)});
    rt::KernelHandle k = loadModule(session, m);
    rt::Buffer out = session.alloc(16);
    gpu::JobResult r =
        session.enqueue(k, rt::NDRange{1, 1, 1}, rt::NDRange{1, 1, 1},
                        {rt::Arg::buf(out)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    float got;
    session.read(out, &got, 4);
    EXPECT_FLOAT_EQ(got, 8.0f);
}

TEST_F(GpuExecTest, WarpDivergenceReconverges)
{
    // Threads with lane < 2 take one path, others another; all store,
    // then odd lanes branch past the Ret clause and lane 3 falls off
    // the end of the shader.
    bif::Module m = buildModule({
        {
            // c0: gid; divergent BranchNZ.
            mk(Op::MovImm, 1, kNone, kNone, kNone, 2),
            mk(Op::ICmp, 2, bif::kSrLaneId, 1, kNone,
               static_cast<int32_t>(bif::CmpMode::Lt)),
            mk(Op::IMul, 4, bif::kSrGroupIdX, bif::kSrLocalSizeX, kNone,
               0),
            mk(Op::IAdd, 4, 4, bif::kSrLocalIdX, kNone, 0),
            mk(Op::BranchNZ, kNone, 2, kNone, kNone, 2),
        },
        {
            // c1: else path (fallthrough): v = 100; unconditional Branch.
            mk(Op::MovImm, 3, kNone, kNone, kNone, 100),
            mk(Op::Branch, kNone, kNone, kNone, kNone, 3),
        },
        {
            // c2: then path: v = 7; a BranchZ whose target is c + 1.
            mk(Op::MovImm, 3, kNone, kNone, kNone, 7),
            mk(Op::BranchZ, kNone, bif::kSrLocalIdX, kNone, kNone, 3),
        },
        {
            // c3: join: out[gid] = v; odd lanes branch to c5.
            mk(Op::IShl, 5, 4, 1, kNone, 0),
            mk(Op::LdArg, 6, kNone, kNone, kNone, 0),
            mk(Op::IAdd, 5, 5, 6, kNone, 0),
            mk(Op::StGlobal, kNone, 5, 3, kNone, 0),
            mk(Op::MovImm, 7, kNone, kNone, kNone, 1),
            mk(Op::IAnd, 8, bif::kSrLaneId, 7, kNone, 0),
            mk(Op::BranchNZ, kNone, 8, kNone, kNone, 5),
        },
        {
            // c4: Ret.
            mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
        },
        {
            // c5: the last clause branches back to c4 (lane 1) or falls
            // off the end (lane 3).
            mk(Op::BranchNZ, kNone, 2, kNone, kNone, 4),
        },
    });
    ASSERT_EQ(m.clauses.size(), 6u);
    const std::map<uint64_t, uint64_t> edges = {
        {gpu::cfgEdgeKey(0, 1), 8},     {gpu::cfgEdgeKey(0, 2), 8},
        {gpu::cfgEdgeKey(1, 3), 8},     {gpu::cfgEdgeKey(2, 3), 8},
        {gpu::cfgEdgeKey(3, 4), 8},     {gpu::cfgEdgeKey(3, 5), 8},
        {gpu::cfgEdgeKey(4, instrument::kCfgExit), 12},
        {gpu::cfgEdgeKey(5, 4), 4},
        {gpu::cfgEdgeKey(5, 6), 4},
    };
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        rt::SystemConfig cfg;
        cfg.gpu.hostThreads = threads;
        rt::Session s(cfg, rt::Mode::Direct);
        rt::KernelHandle k = loadModule(s, m);
        rt::Buffer out = s.alloc(16 * 4);
        gpu::JobResult r =
            s.enqueue(k, rt::NDRange{16, 1, 1}, rt::NDRange{8, 1, 1},
                      {rt::Arg::buf(out)});
        ASSERT_FALSE(r.faulted) << r.fault.detail;
        uint32_t got[16];
        s.read(out, got, sizeof(got));
        for (uint32_t i = 0; i < 16; ++i)
            EXPECT_EQ(got[i], i % 4 < 2 ? 7u : 100u) << i;
        // One split per warp at c0, c3 and c5; none at c2 (both of its
        // successors are c3).
        EXPECT_EQ(r.kernel.divergentBranches, 12u);
        EXPECT_EQ(r.kernel.cfgEdges, edges);
        EXPECT_EQ(r.kernel.clausesExecuted, 68u);
        EXPECT_EQ(r.kernel.workgroups, 2u);
    }
}

TEST_F(GpuExecTest, PagesAccessedCountsLoadsStoresAndAtomics)
{
    // Each of 16 threads loads in[gid * 1 KiB] (four pages), stores
    // out[gid] (one page) and adds 1 to a counter (one page).
    bif::Module m = buildModule({{
        mk(Op::IMul, 1, bif::kSrGroupIdX, bif::kSrLocalSizeX, kNone, 0),
        mk(Op::IAdd, 1, 1, bif::kSrLocalIdX, kNone, 0),
        mk(Op::MovImm, 2, kNone, kNone, kNone, 10),
        mk(Op::IShl, 3, 1, 2, kNone, 0),
        mk(Op::LdArg, 4, kNone, kNone, kNone, 0),
        mk(Op::IAdd, 3, 3, 4, kNone, 0),
        mk(Op::LdGlobal, 5, 3, kNone, kNone, 0),
        mk(Op::MovImm, 2, kNone, kNone, kNone, 2),
    }, {
        mk(Op::IShl, 3, 1, 2, kNone, 0),
        mk(Op::LdArg, 4, kNone, kNone, kNone, 1),
        mk(Op::IAdd, 3, 3, 4, kNone, 0),
        mk(Op::StGlobal, kNone, 3, 5, kNone, 0),
        mk(Op::LdArg, 4, kNone, kNone, kNone, 2),
        mk(Op::MovImm, 6, kNone, kNone, kNone, 1),
        mk(Op::AtomAddG, 7, 4, 6, kNone, 0),
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }});
    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(threads);
        rt::SystemConfig cfg;
        cfg.gpu.hostThreads = threads;
        rt::Session s(cfg, rt::Mode::Direct);
        rt::KernelHandle k = loadModule(s, m);
        rt::Buffer in = s.alloc(16 * 1024);
        rt::Buffer out = s.alloc(16 * 4);
        rt::Buffer counter = s.alloc(4);
        gpu::JobResult r = s.enqueue(
            k, rt::NDRange{16, 1, 1}, rt::NDRange{4, 1, 1},
            {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::buf(counter)});
        ASSERT_FALSE(r.faulted) << r.fault.detail;
        uint32_t n = 0;
        s.read(counter, &n, 4);
        EXPECT_EQ(n, 16u);
        EXPECT_EQ(r.pagesAccessed, 6u);
    }
}

TEST_F(GpuExecTest, LocalMemoryAndBarrier)
{
    // Reverse a workgroup through local memory: local[lid] = lid;
    // barrier; out[gid] = local[size-1-lid].
    bif::Module m = buildModule(
        {
            {
                mk(Op::MovImm, 1, kNone, kNone, kNone, 2),
                mk(Op::IShl, 2, bif::kSrLocalIdX, 1, kNone, 0),
                mk(Op::StLocal, kNone, 2, bif::kSrLocalIdX, kNone, 0),
            },
            {
                mk(Op::Barrier, kNone, kNone, kNone, kNone, 0),
            },
            {
                mk(Op::MovImm, 3, kNone, kNone, kNone, 1),
                mk(Op::ISub, 4, bif::kSrLocalSizeX, 3, kNone, 0),
                mk(Op::ISub, 4, 4, bif::kSrLocalIdX, kNone, 0),
                mk(Op::IShl, 5, 4, 1, kNone, 0),
                mk(Op::LdLocal, 6, 5, kNone, kNone, 0),
                mk(Op::IShl, 7, bif::kSrLocalIdX, 1, kNone, 0),
                mk(Op::LdArg, 8, kNone, kNone, kNone, 0),
                mk(Op::IAdd, 7, 7, 8, kNone, 0),
                mk(Op::StGlobal, kNone, 7, 6, kNone, 0),
                mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
            },
        },
        {}, 64);
    rt::KernelHandle k = loadModule(session, m);
    rt::Buffer out = session.alloc(8 * 4);
    gpu::JobResult r =
        session.enqueue(k, rt::NDRange{8, 1, 1}, rt::NDRange{8, 1, 1},
                        {rt::Arg::buf(out)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    uint32_t got[8];
    session.read(out, got, 32);
    for (uint32_t i = 0; i < 8; ++i)
        EXPECT_EQ(got[i], 7 - i);
}

TEST_F(GpuExecTest, AtomicGlobalAdd)
{
    bif::Module m = buildModule({{
        mk(Op::LdArg, 1, kNone, kNone, kNone, 0),
        mk(Op::MovImm, 2, kNone, kNone, kNone, 1),
        mk(Op::AtomAddG, 3, 1, 2, kNone, 0),
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }});
    rt::KernelHandle k = loadModule(session, m);
    rt::Buffer counter = session.alloc(4);
    uint32_t zero = 0;
    session.write(counter, &zero, 4);
    gpu::JobResult r =
        session.enqueue(k, rt::NDRange{256, 1, 1}, rt::NDRange{16, 1, 1},
                        {rt::Arg::buf(counter)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    uint32_t got;
    session.read(counter, &got, 4);
    EXPECT_EQ(got, 256u);
}

TEST_F(GpuExecTest, MmuFaultOnUnmappedAddress)
{
    bif::Module m = buildModule({{
        mk(Op::MovImm, 1, kNone, kNone, kNone, 0x7ffffc),
        mk(Op::IShl, 1, 1, kNone, kNone, 0),
        mk(Op::LdGlobal, 2, 1, kNone, kNone, 0),   // VA 0x7ffffc unmapped
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }});
    rt::KernelHandle k = loadModule(session, m);
    gpu::JobResult r =
        session.enqueue(k, rt::NDRange{1, 1, 1}, rt::NDRange{1, 1, 1}, {});
    EXPECT_TRUE(r.faulted);
    EXPECT_EQ(r.fault.kind, gpu::JobFaultKind::MmuFault);
    // Fault registers reflect the failure.
    uint64_t status = 0;
    session.system().bus().read(
        rt::System::kGpuBase + gpu::kRegAsFaultStatus, 4, status);
    EXPECT_EQ(status,
              static_cast<uint64_t>(gpu::JobFaultKind::MmuFault));
}

TEST_F(GpuExecTest, MisalignedAccessFaults)
{
    bif::Module m = buildModule({{
        mk(Op::LdArg, 1, kNone, kNone, kNone, 0),
        mk(Op::LdGlobal, 2, 1, kNone, kNone, 2),   // +2: misaligned
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }});
    rt::KernelHandle k = loadModule(session, m);
    rt::Buffer buf = session.alloc(16);
    gpu::JobResult r = session.enqueue(
        k, rt::NDRange{1, 1, 1}, rt::NDRange{1, 1, 1},
        {rt::Arg::buf(buf)});
    EXPECT_TRUE(r.faulted);
    EXPECT_EQ(r.fault.kind, gpu::JobFaultKind::BadAccess);
}

TEST_F(GpuExecTest, LocalOutOfRangeFaults)
{
    bif::Module m = buildModule(
        {{
            mk(Op::MovImm, 1, kNone, kNone, kNone, 4096),
            mk(Op::LdLocal, 2, 1, kNone, kNone, 0),
            mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
        }},
        {}, 16);
    rt::KernelHandle k = loadModule(session, m);
    gpu::JobResult r =
        session.enqueue(k, rt::NDRange{1, 1, 1}, rt::NDRange{1, 1, 1}, {});
    EXPECT_TRUE(r.faulted);
    EXPECT_EQ(r.fault.kind, gpu::JobFaultKind::BadAccess);
}

TEST_F(GpuExecTest, BadDimensionsFault)
{
    bif::Module m = buildModule({{
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }});
    rt::KernelHandle k = loadModule(session, m);
    gpu::JobResult r =
        session.enqueue(k, rt::NDRange{10, 1, 1}, rt::NDRange{4, 1, 1},
                        {});
    EXPECT_TRUE(r.faulted);
    EXPECT_EQ(r.fault.kind, gpu::JobFaultKind::BadDimensions);
}

TEST_F(GpuExecTest, BadBinaryFault)
{
    kclc::CompiledKernel ck;
    ck.name = "junk";
    ck.binary.assign(64, 0x5A);
    rt::KernelHandle k = session.load(ck);
    gpu::JobResult r =
        session.enqueue(k, rt::NDRange{1, 1, 1}, rt::NDRange{1, 1, 1}, {});
    EXPECT_TRUE(r.faulted);
    EXPECT_EQ(r.fault.kind, gpu::JobFaultKind::BadBinary);
}

TEST_F(GpuExecTest, ShaderDecodeCacheDecodesOnce)
{
    bif::Module m = buildModule({{
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }});
    rt::KernelHandle k = loadModule(session, m);
    for (int i = 0; i < 5; ++i) {
        gpu::JobResult r = session.enqueue(
            k, rt::NDRange{4, 1, 1}, rt::NDRange{4, 1, 1}, {});
        ASSERT_FALSE(r.faulted);
    }
    gpu::ShaderCacheStats cs = session.system().gpu().shaderCacheStats();
    EXPECT_EQ(cs.decodes, 1u);
    EXPECT_EQ(cs.hits, 4u);
}

TEST_F(GpuExecTest, LocalAccessHostileOffsetFaults)
{
    // Regression: offsets near UINT32_MAX made the bounds check
    // `offset + 4 > size` wrap and pass, reading host heap memory.
    bif::Module m = buildModule({{
        mk(Op::MovImm, 1, kNone, kNone, kNone, -4),   // 0xfffffffc
        mk(Op::LdLocal, 2, 1, kNone, kNone, 0),
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }}, {}, 16);
    rt::KernelHandle k = loadModule(session, m);
    gpu::JobResult r = session.enqueue(
        k, rt::NDRange{1, 1, 1}, rt::NDRange{1, 1, 1}, {});
    ASSERT_TRUE(r.faulted);
    EXPECT_EQ(r.fault.kind, gpu::JobFaultKind::BadAccess);
    EXPECT_EQ(r.fault.va, 0xfffffffcu);
}

TEST_F(GpuExecTest, ShaderRomSizeOverflowRejected)
{
    // Regression: `rom_off + rom_words * 4` computed in 32 bits wrapped
    // for rom_words >= 0x40000000 and sailed under the size guard.
    // rom_words = 0x40000008 -> wrapped total 32 (plausible); the
    // widened computation must reject it as implausible.
    uint32_t header[8] = {};
    header[0] = 0x31464942;      // 'BIF1'
    header[1] = 1;               // num_clauses
    header[2] = 32;              // clause_offset
    header[3] = 0;               // rom_offset
    header[4] = 0x40000008;      // rom_words
    header[5] = 4;               // reg_count
    kclc::CompiledKernel ck;
    ck.name = "overflow";
    ck.binary.resize(sizeof(header));
    std::memcpy(ck.binary.data(), header, sizeof(header));
    rt::KernelHandle k = session.load(ck);
    gpu::JobResult r = session.enqueue(
        k, rt::NDRange{1, 1, 1}, rt::NDRange{1, 1, 1}, {});
    ASSERT_TRUE(r.faulted);
    EXPECT_EQ(r.fault.kind, gpu::JobFaultKind::BadBinary);
    EXPECT_EQ(r.fault.detail, "implausible shader size");
}

/** Raw-device fixture: hand-built page tables, no Session. */
class GpuRawDeviceTest : public ::testing::Test
{
  protected:
    static constexpr Addr kBase = 0x80000000;

    GpuRawDeviceTest() : mem(kBase, 1 << 20) {}

    /** Maps one page in the table rooted at @p root using the L0 table
     *  page at @p l0 (VAs here share vpn1 = 0). */
    void
    map(Addr root, Addr l0, uint32_t va, Addr pa, bool writable)
    {
        uint32_t vpn1 = va >> 22, vpn0 = (va >> 12) & 0x3ff;
        mem.write<uint32_t>(root + vpn1 * 4,
                            static_cast<uint32_t>((l0 >> 12) << 10) |
                                gpu::kGpuPteValid);
        mem.write<uint32_t>(l0 + vpn0 * 4,
                            static_cast<uint32_t>((pa >> 12) << 10) |
                                gpu::kGpuPteValid |
                                (writable ? static_cast<uint32_t>(
                                                gpu::kGpuPteWrite)
                                          : 0u));
    }

    static constexpr uint32_t kBinVa = 0x00100000;
    static constexpr uint32_t kDescVa = 0x00101000;
    static constexpr uint32_t kOutVa = 0x00200000;

    /** A shader whose every thread stores @p value at kOutVa. */
    static std::vector<uint8_t>
    storeConstBinary(uint32_t value)
    {
        return bif::encode(buildModule({{
            mk(Op::MovImm, 1, kNone, kNone, kNone,
               static_cast<int32_t>(value)),
            mk(Op::MovImm, 2, kNone, kNone, kNone, kOutVa),
            mk(Op::StGlobal, kNone, 2, 1, kNone, 0),
            mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
        }}));
    }

    /** Writes, at @p desc_pa, a one-job chain running the shader at
     *  kBinVa over @p grid in workgroups of @p wg (default: a single
     *  thread). */
    void
    writeComputeDesc(Addr desc_pa, std::array<uint32_t, 3> grid = {1, 1, 1},
                     std::array<uint32_t, 3> wg = {1, 1, 1})
    {
        gpu::JobDescriptor d;
        d.jobType = gpu::JobDescriptor::kTypeCompute;
        d.binaryVa = kBinVa;
        std::copy(grid.begin(), grid.end(), d.grid);
        std::copy(wg.begin(), wg.end(), d.wg);
        uint8_t raw[gpu::JobDescriptor::kSizeBytes];
        d.writeTo(raw);
        mem.writeBlock(desc_pa, raw, sizeof(raw));
    }

    /** Submits the chain at kDescVa and waits for it to finish. */
    static void
    runChain(gpu::GpuDevice &dev)
    {
        dev.mmioWrite(gpu::kRegJsSubmit, kDescVa);
        dev.waitIdle();
    }

    /** Runs the one-job chain over @p grid and @p wg on a fresh
     *  device and expects a BadDimensions fault before any work-item
     *  stores. */
    void
    expectBadDimensions(std::array<uint32_t, 3> grid,
                        std::array<uint32_t, 3> wg)
    {
        Addr root = kBase + 0x4000, l0 = kBase + 0x5000;
        Addr shader_pa = kBase + 0x8000, desc_pa = kBase + 0xa000;
        Addr out_pa = kBase + 0xb000;
        mem.fill(root, 0, 0x2000);
        map(root, l0, kBinVa, shader_pa, false);
        map(root, l0, kDescVa, desc_pa, false);
        map(root, l0, kOutVa, out_pa, true);
        writeComputeDesc(desc_pa, grid, wg);
        std::vector<uint8_t> bin = storeConstBinary(111);
        mem.writeBlock(shader_pa, bin.data(), bin.size());
        mem.write<uint32_t>(out_pa, 0);

        gpu::GpuDevice dev(mem, gpu::GpuConfig{}, [](bool) {});
        dev.mmioWrite(gpu::kRegAsTranstab, static_cast<uint32_t>(root));
        runChain(dev);
        EXPECT_EQ(dev.mmioRead(gpu::kRegJsStatus), gpu::kJsFault);
        EXPECT_EQ(dev.mmioRead(gpu::kRegAsFaultStatus),
                  static_cast<uint32_t>(gpu::JobFaultKind::BadDimensions));
        EXPECT_EQ(dev.mmioRead(gpu::kRegJsJobCount), 0u);
        EXPECT_EQ(mem.read<uint32_t>(out_pa), 0u);
    }

    PhysMem mem;
};

TEST_F(GpuRawDeviceTest, CyclicChainFaultsInsteadOfHanging)
{
    // Regression: a self-linked descriptor chain spun the Job Manager
    // thread forever and waitIdle() never returned (the test harness
    // timeout was the only way out).
    Addr root = kBase + 0x4000, l0 = kBase + 0x5000;
    Addr desc_pa = kBase + 0x8000;
    mem.fill(root, 0, 8192);

    constexpr uint32_t kDescVa = 0x00100000;
    map(root, l0, kDescVa, desc_pa, false);

    gpu::JobDescriptor d;
    d.jobType = gpu::JobDescriptor::kTypeNull;
    d.next = kDescVa;   // Points at itself.
    uint8_t raw[gpu::JobDescriptor::kSizeBytes];
    d.writeTo(raw);
    mem.writeBlock(desc_pa, raw, sizeof(raw));

    gpu::GpuDevice dev(mem, gpu::GpuConfig{}, [](bool) {});
    dev.mmioWrite(gpu::kRegAsTranstab, static_cast<uint32_t>(root));
    dev.mmioWrite(gpu::kRegJsSubmit, kDescVa);
    dev.waitIdle();   // Pre-fix: hangs here.

    EXPECT_EQ(dev.mmioRead(gpu::kRegJsStatus), gpu::kJsFault);
    EXPECT_EQ(dev.mmioRead(gpu::kRegAsFaultStatus),
              static_cast<uint32_t>(gpu::JobFaultKind::BadDescriptor));
    EXPECT_EQ(dev.mmioRead(gpu::kRegAsFaultAddress), kDescVa);
}

TEST_F(GpuRawDeviceTest, DecodeCacheInvalidatedOnRootSwitch)
{
    // Regression: the decode cache is keyed by guest VA and survived an
    // AS_TRANSTAB root switch, so a VA remapped to different bytes kept
    // executing the old shader.
    Addr root_a = kBase + 0x4000, l0_a = kBase + 0x5000;
    Addr root_b = kBase + 0x6000, l0_b = kBase + 0x7000;
    Addr shader_a = kBase + 0x8000, shader_b = kBase + 0x9000;
    Addr desc_pa = kBase + 0xa000, out_pa = kBase + 0xb000;
    mem.fill(root_a, 0, 0x4000);

    std::vector<uint8_t> bin_a = storeConstBinary(111);
    std::vector<uint8_t> bin_b = storeConstBinary(222);
    mem.writeBlock(shader_a, bin_a.data(), bin_a.size());
    mem.writeBlock(shader_b, bin_b.data(), bin_b.size());

    // Same VAs in both address spaces; only the shader page differs.
    map(root_a, l0_a, kBinVa, shader_a, false);
    map(root_a, l0_a, kDescVa, desc_pa, false);
    map(root_a, l0_a, kOutVa, out_pa, true);
    map(root_b, l0_b, kBinVa, shader_b, false);
    map(root_b, l0_b, kDescVa, desc_pa, false);
    map(root_b, l0_b, kOutVa, out_pa, true);
    writeComputeDesc(desc_pa);

    gpu::GpuDevice dev(mem, gpu::GpuConfig{}, [](bool) {});
    dev.mmioWrite(gpu::kRegAsTranstab, static_cast<uint32_t>(root_a));
    runChain(dev);
    ASSERT_EQ(dev.mmioRead(gpu::kRegJsStatus), gpu::kJsDone);
    EXPECT_EQ(mem.read<uint32_t>(out_pa), 111u);

    // Root switch remaps kBinVa to the other shader's bytes; the stale
    // cache entry must not serve the old decode.
    dev.mmioWrite(gpu::kRegAsTranstab, static_cast<uint32_t>(root_b));
    dev.mmioWrite(gpu::kRegAsCommand, 1);
    runChain(dev);
    ASSERT_EQ(dev.mmioRead(gpu::kRegJsStatus), gpu::kJsDone);
    EXPECT_EQ(mem.read<uint32_t>(out_pa), 222u);
}

TEST_F(GpuRawDeviceTest, DecodeCacheKeepsRewrittenBinaryUntilGpuCmdFlush)
{
    // The cache is keyed by VA alone: bytes rewritten in place under the
    // same root keep running the cached decode until GPU_CMD = 1.
    Addr root = kBase + 0x4000, l0 = kBase + 0x5000;
    Addr shader_pa = kBase + 0x8000, desc_pa = kBase + 0xa000;
    Addr out_pa = kBase + 0xb000;
    mem.fill(root, 0, 0x2000);
    map(root, l0, kBinVa, shader_pa, false);
    map(root, l0, kDescVa, desc_pa, false);
    map(root, l0, kOutVa, out_pa, true);
    writeComputeDesc(desc_pa);
    std::vector<uint8_t> bin_a = storeConstBinary(111);
    std::vector<uint8_t> bin_b = storeConstBinary(222);
    ASSERT_EQ(bin_a.size(), bin_b.size());
    mem.writeBlock(shader_pa, bin_a.data(), bin_a.size());

    gpu::GpuDevice dev(mem, gpu::GpuConfig{}, [](bool) {});
    dev.mmioWrite(gpu::kRegAsTranstab, static_cast<uint32_t>(root));
    runChain(dev);
    ASSERT_EQ(dev.mmioRead(gpu::kRegJsStatus), gpu::kJsDone);
    EXPECT_EQ(mem.read<uint32_t>(out_pa), 111u);

    mem.writeBlock(shader_pa, bin_b.data(), bin_b.size());
    runChain(dev);
    ASSERT_EQ(dev.mmioRead(gpu::kRegJsStatus), gpu::kJsDone);
    EXPECT_EQ(mem.read<uint32_t>(out_pa), 111u);
    gpu::ShaderCacheStats cs = dev.shaderCacheStats();
    EXPECT_EQ(cs.decodes, 1u);
    EXPECT_EQ(cs.hits, 1u);

    dev.mmioWrite(gpu::kRegGpuCmd, 1);
    runChain(dev);
    ASSERT_EQ(dev.mmioRead(gpu::kRegJsStatus), gpu::kJsDone);
    EXPECT_EQ(mem.read<uint32_t>(out_pa), 222u);
    cs = dev.shaderCacheStats();
    EXPECT_EQ(cs.decodes, 2u);
    EXPECT_EQ(cs.hits, 1u);
}

TEST_F(GpuRawDeviceTest, DecodeCacheFlushRacingAsyncChains)
{
    // A second host thread flushes the decode cache while the Job
    // Manager thread looks shaders up, decodes and inserts them.  Every
    // job must still run the right code, and every job is counted
    // exactly once as a decode or a hit.
    Addr root = kBase + 0x4000, l0 = kBase + 0x5000;
    Addr shader_pa = kBase + 0x8000, desc_pa = kBase + 0xa000;
    Addr out_pa = kBase + 0xb000;
    mem.fill(root, 0, 0x2000);
    map(root, l0, kBinVa, shader_pa, false);
    map(root, l0, kDescVa, desc_pa, false);
    map(root, l0, kOutVa, out_pa, true);
    writeComputeDesc(desc_pa);
    std::vector<uint8_t> bin = bif::encode(buildModule({{
        mk(Op::MovImm, 1, kNone, kNone, kNone, 1),
        mk(Op::MovImm, 2, kNone, kNone, kNone, kOutVa),
        mk(Op::AtomAddG, 3, 2, 1, kNone, 0),
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }}));
    mem.writeBlock(shader_pa, bin.data(), bin.size());
    mem.write<uint32_t>(out_pa, 0);

    gpu::GpuConfig cfg;
    cfg.hostThreads = 2;
    ASSERT_FALSE(cfg.syncSubmit);
    gpu::GpuDevice dev(mem, cfg, [](bool) {});
    dev.mmioWrite(gpu::kRegAsTranstab, static_cast<uint32_t>(root));

    constexpr uint32_t kChains = 300;
    std::atomic<bool> stop{false};
    std::thread flusher([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            dev.mmioWrite(gpu::kRegGpuCmd, 1);
            // Paced near one chain's round trip, so jobs both hit and
            // miss, and some flushes land mid-decode.
            std::this_thread::sleep_for(std::chrono::microseconds(20));
        }
    });
    uint32_t ran = 0;
    while (ran < kChains) {
        runChain(dev);
        if (dev.mmioRead(gpu::kRegJsStatus) != gpu::kJsDone ||
            mem.read<uint32_t>(out_pa) != ran + 1)
            break;
        ++ran;
    }
    stop = true;
    flusher.join();
    // Checked after the join: a failed assert must not leave the
    // flusher running.
    ASSERT_EQ(ran, kChains)
        << "JS_STATUS " << dev.mmioRead(gpu::kRegJsStatus) << ", count "
        << mem.read<uint32_t>(out_pa);

    EXPECT_EQ(dev.mmioRead(gpu::kRegJsJobCount), kChains);
    gpu::ShaderCacheStats cs = dev.shaderCacheStats();
    EXPECT_GE(cs.decodes, 1u);
    EXPECT_EQ(cs.decodes + cs.hits, kChains);
}

TEST_F(GpuRawDeviceTest, WrappedWorkgroupSizeFaults)
{
    // Regression: the workgroup's thread count was a 32-bit product,
    // so 0x80000001 * 2 * 1 wrapped to 2, passed the 1024-thread bound
    // and ran two work-items.
    expectBadDimensions({0x80000001u, 2, 1}, {0x80000001u, 2, 1});
}

TEST_F(GpuRawDeviceTest, WrappedGroupCountFaults)
{
    // Regression: 65536 * 65536 groups wrapped the 32-bit group count
    // to 0, and the job reported JOB_DONE having run nothing.
    expectBadDimensions({65536, 65536, 1}, {1, 1, 1});
}

TEST(GpuWrittenPages, PhysicalPathAtomicsMarkTheirPage)
{
    // RAM ends half-way into its last page, so the TLB caches no host
    // pointer for that frame (nothing to mark at the fill) and every
    // access to it takes the shader core's physical-address path.
    // Atomics must mark the page themselves, stores through PhysMem,
    // and loads and stores must hit the right bytes.
    constexpr Addr kBase = 0x80000000;
    constexpr size_t kRam = (1u << 20) + 2048;
    constexpr Addr kRoot = kBase + 0x4000, kL0 = kBase + 0x5000;
    constexpr Addr kShaderPa = kBase + 0x8000, kDescPa = kBase + 0xa000;
    constexpr Addr kCounterPa = kBase + (1u << 20) + 16;
    constexpr uint32_t kBinVa = 0x00100000, kDescVa = 0x00102000;
    constexpr uint32_t kCounterVa = 0x00200000 + 16;
    constexpr uint32_t kLastPage = (1u << 20) / PhysMem::kPageBytes;
    constexpr uint32_t kSeed = 0xabcd1234u;

    PhysMem mem(kBase, kRam);
    mem.fill(kRoot, 0, 0x2000);
    auto map = [&](uint32_t va, Addr pa, bool writable) {
        mem.write<uint32_t>(kRoot + (va >> 22) * 4,
                            static_cast<uint32_t>((kL0 >> 12) << 10) |
                                gpu::kGpuPteValid);
        mem.write<uint32_t>(
            kL0 + ((va >> 12) & 0x3ff) * 4,
            static_cast<uint32_t>((pa >> 12) << 10) | gpu::kGpuPteValid |
                (writable ? static_cast<uint32_t>(gpu::kGpuPteWrite)
                          : 0u));
    };
    map(kBinVa, kShaderPa, false);
    map(kBinVa + 0x1000, kShaderPa + 0x1000, false);
    map(kDescVa, kDescPa, false);
    map(kCounterVa, kCounterPa & ~Addr{0xfff}, true);

    // Shader 0: counter += 1.  Shader 1: [counter+4] = 77 and
    // [counter+12] = [counter+8].
    const std::vector<Instr> shaders[2] = {
        {
            mk(Op::MovImm, 1, kNone, kNone, kNone, kCounterVa),
            mk(Op::MovImm, 2, kNone, kNone, kNone, 1),
            mk(Op::AtomAddG, 3, 1, 2, kNone, 0),
            mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
        },
        {
            mk(Op::MovImm, 1, kNone, kNone, kNone, kCounterVa),
            mk(Op::MovImm, 4, kNone, kNone, kNone, 77),
            mk(Op::StGlobal, kNone, 1, 4, kNone, 4),
            mk(Op::LdGlobal, 5, 1, kNone, kNone, 8),
            mk(Op::StGlobal, kNone, 1, 5, kNone, 12),
            mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
        },
    };
    for (uint32_t i = 0; i < 2; ++i) {
        std::vector<uint8_t> bin = bif::encode(buildModule({shaders[i]}));
        mem.writeBlock(kShaderPa + i * 0x1000, bin.data(), bin.size());
    }
    mem.write<uint32_t>(kCounterPa + 8, kSeed);

    gpu::GpuConfig cfg;
    cfg.hostThreads = 1;
    gpu::GpuDevice dev(mem, cfg, [](bool) {});
    dev.mmioWrite(gpu::kRegAsTranstab, static_cast<uint32_t>(kRoot));
    // Runs shader @p i on 8 threads; returns the pages the job wrote.
    auto run = [&](uint32_t i) {
        gpu::JobDescriptor d;
        d.jobType = gpu::JobDescriptor::kTypeCompute;
        d.binaryVa = kBinVa + i * 0x1000;
        d.grid[0] = 8;
        d.wg[0] = 8;
        uint8_t raw[gpu::JobDescriptor::kSizeBytes];
        d.writeTo(raw);
        mem.writeBlock(kDescPa, raw, sizeof(raw));
        mem.takeWritten();   // Only the job's own writes from here on.
        dev.mmioWrite(gpu::kRegJsSubmit, kDescVa);
        dev.waitIdle();
        EXPECT_EQ(dev.mmioRead(gpu::kRegJsStatus), gpu::kJsDone);
        return mem.takeWritten();
    };

    std::vector<uint32_t> written = run(0);
    EXPECT_EQ(mem.read<uint32_t>(kCounterPa), 8u);
    EXPECT_NE(std::find(written.begin(), written.end(), kLastPage),
              written.end());

    written = run(1);
    EXPECT_EQ(mem.read<uint32_t>(kCounterPa + 4), 77u);
    EXPECT_EQ(mem.read<uint32_t>(kCounterPa + 12), kSeed);
    EXPECT_NE(std::find(written.begin(), written.end(), kLastPage),
              written.end());
}

TEST_F(GpuExecTest, InstrumentationCountsExact)
{
    // One thread, one clause: 2 arith + 1 store + ret.
    bif::Module m = buildModule({{
        mk(Op::MovImm, 1, kNone, kNone, kNone, 21),
        mk(Op::IAdd, 2, 1, 1, kNone, 0),
        mk(Op::LdArg, 3, kNone, kNone, kNone, 0),
        mk(Op::StGlobal, kNone, 3, 2, kNone, 0),
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }});
    rt::KernelHandle k = loadModule(session, m);
    rt::Buffer out = session.alloc(4);
    gpu::JobResult r = session.enqueue(
        k, rt::NDRange{1, 1, 1}, rt::NDRange{1, 1, 1},
        {rt::Arg::buf(out)});
    ASSERT_FALSE(r.faulted);
    EXPECT_EQ(r.kernel.arithInstrs, 3u);   // movimm, iadd, ldarg
    EXPECT_EQ(r.kernel.lsInstrs, 1u);
    EXPECT_EQ(r.kernel.cfInstrs, 1u);
    EXPECT_EQ(r.kernel.constReads, 1u);
    EXPECT_EQ(r.kernel.globalLdSt, 1u);
    EXPECT_EQ(r.kernel.clausesExecuted, 1u);
    uint32_t got;
    session.read(out, &got, 4);
    EXPECT_EQ(got, 42u);
}

TEST_F(GpuExecTest, InstrumentationOffCollectsNothing)
{
    rt::SystemConfig cfg;
    cfg.gpu.instrument = false;
    rt::Session s2(cfg);
    bif::Module m = buildModule({{
        mk(Op::MovImm, 1, kNone, kNone, kNone, 1),
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }});
    rt::KernelHandle k = loadModule(s2, m);
    gpu::JobResult r = s2.enqueue(k, rt::NDRange{16, 1, 1},
                                  rt::NDRange{4, 1, 1}, {});
    ASSERT_FALSE(r.faulted);
    EXPECT_EQ(r.kernel.arithInstrs, 0u);
    EXPECT_EQ(r.kernel.clausesExecuted, 0u);
    EXPECT_EQ(r.pagesAccessed, 0u);
    // Thread accounting still works (Multi2Sim parity).
    EXPECT_EQ(r.kernel.threadsLaunched, 16u);
}

TEST_F(GpuExecTest, VirtualCoresMatchSingleThread)
{
    // Same kernel under 1 and 8 host threads must produce identical
    // results and identical instrumentation totals (paper §III-B3).
    auto run = [&](unsigned host_threads) {
        rt::SystemConfig cfg;
        cfg.gpu.hostThreads = host_threads;
        rt::Session s(cfg);
        bif::Module m = buildModule(
            {
                {
                    mk(Op::MovImm, 1, kNone, kNone, kNone, 2),
                    mk(Op::IShl, 2, bif::kSrLocalIdX, 1, kNone, 0),
                    mk(Op::StLocal, kNone, 2, bif::kSrLocalIdX, kNone,
                       0),
                },
                {
                    mk(Op::Barrier, kNone, kNone, kNone, kNone, 0),
                },
                {
                    mk(Op::LdLocal, 3, 2, kNone, kNone, 0),
                    mk(Op::IMul, 4, bif::kSrGroupIdX,
                       bif::kSrLocalSizeX, kNone, 0),
                    mk(Op::IAdd, 4, 4, bif::kSrLocalIdX, kNone, 0),
                    mk(Op::IShl, 5, 4, 1, kNone, 0),
                    mk(Op::LdArg, 6, kNone, kNone, kNone, 0),
                    mk(Op::IAdd, 5, 5, 6, kNone, 0),
                    mk(Op::IAdd, 3, 3, 4, kNone, 0),
                    mk(Op::StGlobal, kNone, 5, 3, kNone, 0),
                    mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
                },
            },
            {}, 64);
        rt::KernelHandle k = loadModule(s, m);
        rt::Buffer out = s.alloc(128 * 4);
        gpu::JobResult r = s.enqueue(k, rt::NDRange{128, 1, 1},
                                     rt::NDRange{8, 1, 1},
                                     {rt::Arg::buf(out)});
        EXPECT_FALSE(r.faulted);
        std::vector<uint32_t> got(128);
        s.read(out, got.data(), 128 * 4);
        return std::make_pair(got, r.kernel.totalInstrs());
    };
    auto [r1, i1] = run(1);
    auto [r8, i8] = run(8);
    EXPECT_EQ(r1, r8);
    EXPECT_EQ(i1, i8);
}

TEST_F(GpuExecTest, JobChainExecutesAllJobs)
{
    // Hand-build a chain of two descriptors via the raw MMIO protocol.
    bif::Module m = buildModule({{
        mk(Op::LdArg, 1, kNone, kNone, kNone, 0),
        mk(Op::MovImm, 2, kNone, kNone, kNone, 1),
        mk(Op::AtomAddG, 3, 1, 2, kNone, 0),
        mk(Op::Ret, kNone, kNone, kNone, kNone, 0),
    }});
    rt::KernelHandle k = loadModule(session, m);
    rt::Buffer counter = session.alloc(4);

    // First launch establishes arg table & mappings via the session.
    gpu::JobResult r = session.enqueue(
        k, rt::NDRange{4, 1, 1}, rt::NDRange{4, 1, 1},
        {rt::Arg::buf(counter)});
    ASSERT_FALSE(r.faulted);
    uint64_t jobs_before = session.system().gpu().systemStats().computeJobs;
    EXPECT_GE(jobs_before, 1u);
}

TEST_F(GpuExecTest, FallingOffTheEndTerminates)
{
    // No Ret: threads terminate at module end.
    bif::Module m = buildModule({{
        mk(Op::MovImm, 1, kNone, kNone, kNone, 1),
    }});
    rt::KernelHandle k = loadModule(session, m);
    gpu::JobResult r = session.enqueue(
        k, rt::NDRange{8, 1, 1}, rt::NDRange{4, 1, 1}, {});
    EXPECT_FALSE(r.faulted);
    EXPECT_EQ(r.kernel.threadsLaunched, 8u);
}

TEST_F(GpuExecTest, GpuIdAndConfigRegisters)
{
    Bus &bus = session.system().bus();
    uint64_t v = 0;
    bus.read(rt::System::kGpuBase + gpu::kRegGpuId, 4, v);
    EXPECT_EQ(v & 0xFFFF0000u, 0x47310000u);
    bus.read(rt::System::kGpuBase + gpu::kRegScCount, 4, v);
    EXPECT_EQ(v, 8u);
    bus.read(rt::System::kGpuBase + gpu::kRegScThreads, 4, v);
    EXPECT_EQ(v, 2u);
}

} // namespace
} // namespace bifsim

/** @file Record/replay of the CPU<->GPU boundary (DESIGN.md §5h):
 *  BRPL round trips across CPU tiers and worker counts,
 *  faulting-workload replay, restore-then-trace/record, the
 *  worker-count fault-determinism regression, the full-scan oracle
 *  over every RAM writer the written-page tracking must see, and
 *  log-mutation fuzz (truncation, bit flips, hostile counts). */

#include <gtest/gtest.h>

#include <csignal>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "cpu/asm/assembler.h"
#include "gpu/gpu.h"
#include "gpu/isa/bif.h"
#include "replay/replay.h"
#include "runtime/session.h"

namespace bifsim {
namespace {

namespace snap = snapshot;

// ------------------------------------------------------------ Helpers

/** Decoded scalar prefix of one RFPR event. */
struct Fp
{
    uint32_t jobCount, jsStatus, irqRaw, faultStatus, faultAddress;
    uint32_t ramCrc;
    uint8_t faulted, faultKind;
    uint32_t faultVa;
};

std::vector<Fp>
fingerprints(const replay::Log &log)
{
    std::vector<Fp> out;
    for (size_t i = 0; i < log.eventCount(); ++i) {
        if (log.kind(i) != replay::kEvFingerprint)
            continue;
        snap::ChunkReader r = log.reader(i);
        Fp f;
        f.jobCount = r.u32();
        f.jsStatus = r.u32();
        f.irqRaw = r.u32();
        f.faultStatus = r.u32();
        f.faultAddress = r.u32();
        f.ramCrc = r.u32();
        f.faulted = r.u8();
        f.faultKind = r.u8();
        f.faultVa = r.u32();
        out.push_back(f);
    }
    return out;
}

/** Union of all RIRQ bits in the log. */
uint32_t
irqBits(const replay::Log &log)
{
    uint32_t bits = 0;
    for (size_t i = 0; i < log.eventCount(); ++i) {
        if (log.kind(i) != replay::kEvIrq)
            continue;
        snap::ChunkReader r = log.reader(i);
        bits |= r.u32();
    }
    return bits;
}

/** Replays @p log across worker counts; every run must validate
 *  cleanly. */
void
expectReplaysEverywhere(const replay::Log &log)
{
    for (unsigned threads : {1u, 2u, 4u}) {
        replay::ReplayOptions opt;
        opt.hostThreads = threads;
        replay::ReplayResult r = replay::replay(log, opt);
        EXPECT_TRUE(r.ok) << "threads=" << threads << ": " << r.divergence;
    }
}

rt::SystemConfig
recordableConfig(size_t ram_bytes = 16u << 20, unsigned threads = 2)
{
    rt::SystemConfig cfg;
    cfg.ramBytes = ram_bytes;
    cfg.gpu.hostThreads = threads;
    cfg.gpu.syncSubmit = true;
    return cfg;
}

const char *kScaleSrc = R"(
kernel void scale(global const int* in, global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = in[i] * 3 + 1;
    }
}
)";

/** Builds a minimal raw BIF module (one clause per instruction list),
 *  mirroring the test_gpu_exec idiom. */
bif::Instr
mk(bif::Op op, uint8_t dst, uint8_t s0, uint8_t s1, uint8_t s2,
   int32_t imm)
{
    bif::Instr i;
    i.op = op;
    i.dst = dst;
    i.src0 = s0;
    i.src1 = s1;
    i.src2 = s2;
    i.imm = imm;
    return i;
}

rt::KernelHandle
loadRawModule(rt::Session &s, const std::vector<bif::Instr> &instrs,
              std::vector<uint32_t> rom, uint32_t reg_count)
{
    bif::Module m;
    bif::Clause cl;
    for (const bif::Instr &in : instrs) {
        bif::Tuple t;
        if (bif::legalInSlot0(in.op))
            t.slot[0] = in;
        else
            t.slot[1] = in;
        cl.tuples.push_back(t);
    }
    m.clauses.push_back(cl);
    m.rom = std::move(rom);
    m.regCount = reg_count;

    kclc::CompiledKernel ck;
    ck.name = "raw";
    ck.mod = m;
    ck.binary = bif::encode(m);
    ck.regCount = m.regCount;
    return s.load(ck);
}

// -------------------------------------------------- Basic round trips

TEST(Replay, DirectRecordReplaysAcrossWorkerCounts)
{
    rt::Session s(recordableConfig(), rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(256 * 4);
    rt::Buffer out = s.alloc(256 * 4);
    for (uint32_t i = 0; i < 256; ++i) {
        int32_t v = static_cast<int32_t>(i * 7 + 3);
        s.write(in, &v, 4, i * 4);
    }

    s.startRecording();
    gpu::JobResult r1 =
        s.enqueue(k, rt::NDRange{256, 1, 1}, rt::NDRange{64, 1, 1},
                  {rt::Arg::buf(in), rt::Arg::buf(out),
                   rt::Arg::i32(256)});
    ASSERT_FALSE(r1.faulted);
    // Rewrite the input between chains so the second delta is a real
    // incremental one (not the initial full snapshot).
    for (uint32_t i = 0; i < 256; ++i) {
        int32_t v = static_cast<int32_t>(1000 - i);
        s.write(in, &v, 4, i * 4);
    }
    gpu::JobResult r2 =
        s.enqueue(k, rt::NDRange{256, 1, 1}, rt::NDRange{64, 1, 1},
                  {rt::Arg::buf(in), rt::Arg::buf(out),
                   rt::Arg::i32(256)});
    ASSERT_FALSE(r2.faulted);

    replay::Log log = replay::Log::fromBytes(s.stopRecording());
    EXPECT_EQ(fingerprints(log).size(), 2u);
    EXPECT_FALSE(log.config().fullSystem);

    expectReplaysEverywhere(log);

    // The replayed device reproduces the final job result without any
    // Session attached.
    replay::ReplayResult rep = replay::replay(log, {});
    ASSERT_TRUE(rep.ok) << rep.divergence;
    EXPECT_EQ(rep.chains, 2u);
    EXPECT_EQ(rep.lastJob.kernel.threadsLaunched,
              r2.kernel.threadsLaunched);

    // The fast path (no re-record, no per-chain RAM scans) still runs
    // every chain and lands in the same final state.
    replay::ReplayOptions fast;
    fast.validate = false;
    replay::ReplayResult frep = replay::replay(log, fast);
    EXPECT_TRUE(frep.ok);
    EXPECT_EQ(frep.chains, 2u);
    EXPECT_EQ(frep.lastJob.kernel.threadsLaunched,
              r2.kernel.threadsLaunched);
}

TEST(Replay, FullSystemRecordReplaysWithoutCpu)
{
    rt::SystemConfig cfg = recordableConfig(32u << 20);
    rt::Session s(cfg, rt::Mode::FullSystem);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(64 * 4);
    rt::Buffer out = s.alloc(64 * 4);
    for (uint32_t i = 0; i < 64; ++i) {
        int32_t v = static_cast<int32_t>(i);
        s.write(in, &v, 4, i * 4);
    }

    s.startRecording();
    gpu::JobResult r =
        s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
                  {rt::Arg::buf(in), rt::Arg::buf(out),
                   rt::Arg::i32(64)});
    ASSERT_FALSE(r.faulted);
    EXPECT_GT(s.driverInstructions(), 0u);
    replay::Log log = replay::Log::fromBytes(s.stopRecording());
    EXPECT_TRUE(log.config().fullSystem);

    // The acceptance bar: a FullSystem recording replays bit-identical
    // with no CPU/guest OS, across interpreter tiers and >=2 worker
    // counts.
    expectReplaysEverywhere(log);
}

TEST(Replay, RecordingRequiresSyncSubmit)
{
    rt::SystemConfig cfg = recordableConfig();
    cfg.gpu.syncSubmit = false;
    rt::Session s(cfg, rt::Mode::Direct);
    EXPECT_THROW(s.startRecording(), SimError);
}

// ------------------------------------- Worker-count fault determinism

/** Every group stores its slot, then groups 0 (late, after a long
 *  delay loop) and n-1 (immediately) store through unmapped VAs.  With
 *  the old global fault early-stop, multi-worker runs latched whichever
 *  group's fault arrived first (group n-1, microseconds before slow
 *  group 0) and silently skipped the remaining groups' stores; the
 *  reported AS_FAULTADDRESS and the output buffer depended on worker
 *  count.  Now every group runs, a fault stops only its own group, and
 *  the lowest faulting group wins. */
const char *kDeterministicFaultSrc = R"(
kernel void dfault(global int* out, int n) {
    int g = get_group_id(0);
    int acc = 0;
    if (g == 0) {
        for (int k = 0; k < 2000000; k += 1) {
            acc += (k & 7) + 1;
        }
    }
    out[g] = g + 1 + (acc & 1);
    if (g == 0) {
        out[1048576 + g] = 7;
    }
    if (g == n - 1) {
        out[1048576 + g] = 7;
    }
}
)";

TEST(Replay, FaultStateIsWorkerCountInvariant)
{
    constexpr uint32_t kGroups = 64;
    gpu::JobResult results[2];
    std::vector<int32_t> outs[2];
    unsigned counts[2] = {1, 4};
    uint32_t out_va = 0;
    for (int run = 0; run < 2; ++run) {
        rt::SystemConfig cfg;
        cfg.ramBytes = 16u << 20;
        cfg.gpu.hostThreads = counts[run];
        rt::Session s(cfg, rt::Mode::Direct);
        rt::KernelHandle k = s.compile(kDeterministicFaultSrc, "dfault");
        rt::Buffer out = s.alloc(kGroups * 4);
        out_va = out.gpuVa;
        gpu::JobResult r = s.enqueue(
            k, rt::NDRange{kGroups, 1, 1}, rt::NDRange{1, 1, 1},
            {rt::Arg::buf(out), rt::Arg::i32(kGroups)});
        results[run] = r;
        outs[run].resize(kGroups);
        s.read(out, outs[run].data(), kGroups * 4);
    }

    ASSERT_TRUE(results[0].faulted);
    ASSERT_TRUE(results[1].faulted);
    EXPECT_EQ(results[0].fault.kind, gpu::JobFaultKind::MmuFault);
    // Lowest faulting group (0) wins regardless of arrival order; the
    // old first-to-arrive latch reported group 63's VA on multi-worker
    // runs because group 0 faults last.
    uint32_t group0_va = out_va + 4u * 1048576u;
    EXPECT_EQ(results[0].fault.va, group0_va);
    EXPECT_EQ(results[1].fault.va, group0_va);
    EXPECT_EQ(results[0].fault.kind, results[1].fault.kind);
    // Every group's store landed on both runs: no early-stop skipped
    // work on the 1-worker run, no cross-group abort on the 4-worker
    // run.
    EXPECT_EQ(outs[0], outs[1]);
    for (uint32_t g = 1; g < kGroups; ++g)
        EXPECT_EQ(outs[0][g], static_cast<int32_t>(g + 1)) << g;
}

// -------------------------------------------------- Faulting replays

TEST(Replay, MmuFaultReplaysExactly)
{
    rt::Session s(recordableConfig(), rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kDeterministicFaultSrc, "dfault");
    rt::Buffer out = s.alloc(64 * 4);

    s.startRecording();
    gpu::JobResult r =
        s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{1, 1, 1},
                  {rt::Arg::buf(out), rt::Arg::i32(64)});
    ASSERT_TRUE(r.faulted);
    ASSERT_EQ(r.fault.kind, gpu::JobFaultKind::MmuFault);
    replay::Log log = replay::Log::fromBytes(s.stopRecording());

    std::vector<Fp> fps = fingerprints(log);
    ASSERT_EQ(fps.size(), 1u);
    EXPECT_EQ(fps[0].faultStatus,
              static_cast<uint32_t>(gpu::JobFaultKind::MmuFault));
    EXPECT_EQ(fps[0].faultAddress, out.gpuVa + 4u * 1048576u);
    EXPECT_EQ(fps[0].jsStatus, gpu::kJsFault);
    EXPECT_TRUE(irqBits(log) & gpu::kIrqMmuFault);

    expectReplaysEverywhere(log);
}

TEST(Replay, CyclicChainBadDescriptorReplaysExactly)
{
    rt::SystemConfig cfg = recordableConfig();
    rt::Session s(cfg, rt::Mode::Direct);
    // Prime with one clean enqueue so the GPU MMU root is installed,
    // then hand-submit a self-linked null descriptor: the chain walk
    // must fault (BadDescriptor) instead of hanging, and the recording
    // must reproduce that.
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(64 * 4);
    rt::Buffer out = s.alloc(64 * 4);
    gpu::JobResult prime =
        s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
                  {rt::Arg::buf(in), rt::Arg::buf(out),
                   rt::Arg::i32(64)});
    ASSERT_FALSE(prime.faulted);

    rt::Buffer b = s.alloc(4096);
    gpu::JobDescriptor d;
    d.jobType = gpu::JobDescriptor::kTypeNull;
    d.next = b.gpuVa;
    uint8_t raw[gpu::JobDescriptor::kSizeBytes];
    d.writeTo(raw);
    s.write(b, raw, sizeof(raw));

    s.startRecording();
    rt::System &sys = s.system();
    Addr base = rt::System::kGpuBase;
    sys.bus().write(base + gpu::kRegIrqMask, 4, 7);
    sys.bus().write(base + gpu::kRegJsSubmit, 4, b.gpuVa);
    sys.gpu().waitIdle();
    replay::Log log = replay::Log::fromBytes(s.stopRecording());

    std::vector<Fp> fps = fingerprints(log);
    ASSERT_EQ(fps.size(), 1u);
    EXPECT_EQ(fps[0].jsStatus, gpu::kJsFault);
    EXPECT_EQ(fps[0].faultStatus,
              static_cast<uint32_t>(gpu::JobFaultKind::BadDescriptor));
    EXPECT_TRUE(irqBits(log) & gpu::kIrqJobFault);

    expectReplaysEverywhere(log);
}

TEST(Replay, ShaderVerifyRejectionReplaysExactly)
{
    rt::Session s(recordableConfig(), rt::Mode::Direct);
    // Out-of-bounds ROM index: an unsafe-severity defect the
    // decode-time verifier rejects at the default strictness.
    rt::KernelHandle k = loadRawModule(
        s,
        {mk(bif::Op::LdRom, 1, bif::kOperandNone, bif::kOperandNone,
            bif::kOperandNone, 4),
         mk(bif::Op::Ret, bif::kOperandNone, bif::kOperandNone,
            bif::kOperandNone, bif::kOperandNone, 0)},
        /*rom=*/{42u}, /*reg_count=*/8);

    s.startRecording();
    gpu::JobResult r = s.enqueue(k, rt::NDRange{4, 1, 1},
                                 rt::NDRange{4, 1, 1}, {});
    ASSERT_TRUE(r.faulted);
    ASSERT_EQ(r.fault.kind, gpu::JobFaultKind::ShaderVerify);
    replay::Log log = replay::Log::fromBytes(s.stopRecording());

    std::vector<Fp> fps = fingerprints(log);
    ASSERT_EQ(fps.size(), 1u);
    EXPECT_EQ(fps[0].faultStatus,
              static_cast<uint32_t>(gpu::JobFaultKind::ShaderVerify));
    EXPECT_TRUE(irqBits(log) & gpu::kIrqJobFault);

    expectReplaysEverywhere(log);
}

// ------------------------------------------------------ Tier crossing

/** Records the same FullSystem workload under both CPU tiers and
 *  checks the boundary streams are byte-identical; each log must then
 *  replay cleanly into either GPU interpreter at any worker count. */
TEST(Replay, CpuTierCrossingIsInvariant)
{
    std::vector<replay::Log> logs;
    for (int tier = 0; tier < 2; ++tier) {
        rt::SystemConfig cfg = recordableConfig(32u << 20);
        cfg.cpuDbt = tier == 1;
        rt::Session s(cfg, rt::Mode::FullSystem);
        rt::KernelHandle k = s.compile(kScaleSrc, "scale");
        rt::Buffer in = s.alloc(64 * 4);
        rt::Buffer out = s.alloc(64 * 4);
        for (uint32_t i = 0; i < 64; ++i) {
            int32_t v = static_cast<int32_t>(i * 13);
            s.write(in, &v, 4, i * 4);
        }
        s.startRecording();
        gpu::JobResult r =
            s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
                      {rt::Arg::buf(in), rt::Arg::buf(out),
                       rt::Arg::i32(64)});
        ASSERT_FALSE(r.faulted);
        logs.push_back(replay::Log::fromBytes(s.stopRecording()));
    }
    EXPECT_TRUE(logs[0].config().cpuDbt !=
                logs[1].config().cpuDbt);

    // The boundary must not know which CPU tier drove it.
    std::optional<replay::Divergence> d =
        replay::diffLogs(logs[0], logs[1]);
    EXPECT_FALSE(d.has_value())
        << "event " << d->event << ": " << d->what;

    // A log recorded under either tier replays into both GPU
    // interpreters at any worker count.
    expectReplaysEverywhere(logs[0]);
    expectReplaysEverywhere(logs[1]);
}

// --------------------------------------------- Restore-then-trace/record

TEST(Replay, RestoredSessionStillTraces)
{
    rt::SystemConfig cfg = recordableConfig();
    cfg.gpu.trace = true;
    rt::Session s(cfg, rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(64 * 4);
    rt::Buffer out = s.alloc(64 * 4);
    s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
              {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::i32(64)});

    snap::Writer w;
    s.saveSnapshot(w);
    snap::Image img = snap::Image::fromBytes(w.finish());

    // The restored session must re-register its trace buffers: driver
    // spans and device instants from post-restore enqueues must land
    // in the export.
    std::unique_ptr<rt::Session> s2 = rt::Session::fromSnapshot(img, cfg);
    size_t before = s2->tracer().eventCount();
    ASSERT_FALSE(s2->kernels().empty());
    ASSERT_GE(s2->buffers().size(), 2u);
    gpu::JobResult r = s2->enqueue(
        s2->kernels()[0], rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
        {rt::Arg::buf(s2->buffers()[0]), rt::Arg::buf(s2->buffers()[1]),
         rt::Arg::i32(64)});
    ASSERT_FALSE(r.faulted);
    EXPECT_GT(s2->tracer().eventCount(), before);

    std::ostringstream os;
    s2->tracer().exportChromeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"enqueue\""), std::string::npos);
    EXPECT_NE(json.find("\"js_submit\""), std::string::npos);
}

TEST(Replay, RestoredSessionRecordsSelfContainedLog)
{
    rt::SystemConfig cfg = recordableConfig();
    rt::Session s(cfg, rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(64 * 4);
    rt::Buffer out = s.alloc(64 * 4);
    for (uint32_t i = 0; i < 64; ++i) {
        int32_t v = static_cast<int32_t>(i + 5);
        s.write(in, &v, 4, i * 4);
    }
    s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
              {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::i32(64)});
    snap::Writer w;
    s.saveSnapshot(w);
    snap::Image img = snap::Image::fromBytes(w.finish());

    // Recording that starts on a warm-booted session must emit a full
    // first delta (restored RAM is nothing like a cold boot), so the
    // log stays self-contained.
    std::unique_ptr<rt::Session> s2 = rt::Session::fromSnapshot(img, cfg);
    s2->startRecording();
    gpu::JobResult r = s2->enqueue(
        s2->kernels()[0], rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
        {rt::Arg::buf(s2->buffers()[0]), rt::Arg::buf(s2->buffers()[1]),
         rt::Arg::i32(64)});
    ASSERT_FALSE(r.faulted);
    replay::Log log = replay::Log::fromBytes(s2->stopRecording());
    expectReplaysEverywhere(log);
}

// ------------------------------------- Written-page tracking oracle

constexpr size_t kPage = PhysMem::kPageBytes;

/** The full-scan oracle: rebuilds the per-page CRC table by reading
 *  every page of RAM and returns the pages where it disagrees with the
 *  recorder's shadow.  Called at the end of a chain, any entry is a
 *  write the written-page tracking missed. */
std::vector<uint32_t>
shadowMismatches(const PhysMem &mem, const replay::Recorder &rec)
{
    std::vector<uint32_t> bad;
    const std::vector<uint32_t> &shadow = rec.shadow();
    for (uint32_t i = 0; i < shadow.size(); ++i) {
        const uint8_t *page =
            mem.readPtr(mem.base() + static_cast<Addr>(i) * kPage);
        if (snap::crc32(page, kPage) != shadow[i])
            bad.push_back(i);
    }
    return bad;
}

/** Collects the oracle's findings over a recording.  check() runs
 *  right after a Direct-mode enqueue() returns: the recorder synced its
 *  shadow at the end of the chain and nothing writes RAM between that
 *  and the return. */
struct Oracle
{
    std::vector<uint32_t> missed;   ///< Mismatching pages, all chains.

    void
    check(const PhysMem &mem, const replay::Recorder &rec)
    {
        std::vector<uint32_t> bad = shadowMismatches(mem, rec);
        missed.insert(missed.end(), bad.begin(), bad.end());
    }
};

const char *kStoreAtomicSrc = R"(
kernel void storeatom(global int* out, global int* counts, int n,
                      int salt) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = i * 5 + salt;
        atomic_add(counts[i & 7], 1);
    }
}
)";

TEST(WrittenPages, HostWritesAreTracked)
{
    rt::Session s(recordableConfig(8u << 20, 1), rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(64 * 4);
    rt::Buffer out = s.alloc(64 * 4);
    rt::Buffer side = s.alloc(8 * kPage);   // Never touched by the GPU.
    PhysMem &mem = s.system().mem();

    Oracle o;
    replay::Recorder &rec = s.startRecording();
    auto run = [&] {
        gpu::JobResult r = s.enqueue(
            k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
            {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::i32(64)});
        ASSERT_FALSE(r.faulted);
        o.check(mem, rec);
    };
    run();
    mem.write<uint32_t>(side.pa + 12, 0xabcd1234u);
    // A scalar straddling a page boundary marks both pages.
    mem.write<uint64_t>(side.pa + 2 * kPage - 4, 0x1122334455667788ull);
    std::vector<uint8_t> block(2 * kPage + 100, 0x5a);
    mem.writeBlock(side.pa + 3 * kPage + 50, block.data(), block.size());
    mem.fill(side.pa + 6 * kPage, 0xc3, kPage);
    run();
    mem.fill(side.pa + 6 * kPage, 0, kPage);   // Back to zero.
    run();

    EXPECT_EQ(rec.chains(), 3u);
    EXPECT_TRUE(o.missed.empty()) << "first missed page " << o.missed[0];
    expectReplaysEverywhere(replay::Log::fromBytes(s.stopRecording()));
}

TEST(WrittenPages, OracleCatchesAnUnmarkedWrite)
{
    // The same shape as above, but one write goes through a raw host
    // pointer and is never marked: the recorder cannot see it, and the
    // oracle must name exactly that page.  Proves the oracle is
    // load-bearing.  PhysMem hands out no writable pointer outside the
    // GPU paths, so the deliberate unmarked store casts away readPtr's
    // const.
    rt::Session s(recordableConfig(8u << 20, 1), rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(64 * 4);
    rt::Buffer out = s.alloc(64 * 4);
    rt::Buffer side = s.alloc(kPage);
    PhysMem &mem = s.system().mem();

    Oracle o;
    replay::Recorder &rec = s.startRecording();
    for (int c = 0; c < 2; ++c) {
        if (c == 1) {
            const uint32_t v = 0xdeadbeefu;
            std::memcpy(const_cast<uint8_t *>(mem.readPtr(side.pa + 8)),
                        &v, sizeof v);
        }
        gpu::JobResult r = s.enqueue(
            k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
            {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::i32(64)});
        ASSERT_FALSE(r.faulted);
        o.check(mem, rec);
    }
    EXPECT_EQ(rec.chains(), 2u);
    s.stopRecording();
    const uint32_t side_page =
        static_cast<uint32_t>((side.pa - rt::System::kRamBase) / kPage);
    EXPECT_EQ(o.missed, std::vector<uint32_t>{side_page});
}

/** Guest-side store loop for the CPU-tier tests: fills `count` words
 *  at `buf` with a seeded pattern, then halts (machine mode, paging
 *  off, so addresses are physical). */
const char *kFillProgram = R"(
        .org 0x81800000
        j    start
params:
        .word 0             # buffer PA
        .word 0             # word count
        .word 0             # seed
start:
        la   s0, params
        lw   t0, 0(s0)
        lw   t1, 4(s0)
        lw   t2, 8(s0)
loop:
        sw   t2, 0(t0)
        addi t0, t0, 4
        addi t2, t2, 7
        addi t1, t1, -1
        bnez t1, loop
        halt
)";

TEST(WrittenPages, CpuStoresAreTrackedUnderBothTiers)
{
    constexpr Addr kFillPa = 0x81800000;
    constexpr uint32_t kWords = 3000;   // Spans three pages.
    for (bool dbt : {false, true}) {
        rt::SystemConfig cfg = recordableConfig(32u << 20, 1);
        cfg.cpuDbt = dbt;
        // Direct mode: no guest driver writes RAM after the chain, so
        // the oracle can run as soon as enqueue() returns.
        rt::Session s(cfg, rt::Mode::Direct);
        rt::System &sys = s.system();
        rt::KernelHandle k = s.compile(kScaleSrc, "scale");
        rt::Buffer in = s.alloc(kWords * 4);
        rt::Buffer out = s.alloc(kWords * 4);
        sa32::Program fill = sa32::assemble(kFillProgram);
        sys.mem().writeBlock(kFillPa, fill.bytes.data(), fill.bytes.size());

        Oracle o;
        replay::Recorder &rec = s.startRecording();
        for (uint32_t c = 0; c < 2; ++c) {
            sys.mem().write<uint32_t>(kFillPa + 4,
                                      static_cast<uint32_t>(in.pa));
            sys.mem().write<uint32_t>(kFillPa + 8, kWords);
            sys.mem().write<uint32_t>(kFillPa + 12, c * 13 + 1);
            sys.cpu().setPc(kFillPa);
            sys.runCpu(static_cast<uint64_t>(kWords) * 6 + 1000);
            gpu::JobResult r = s.enqueue(
                k, rt::NDRange{kWords, 1, 1}, rt::NDRange{40, 1, 1},
                {rt::Arg::buf(in), rt::Arg::buf(out),
                 rt::Arg::i32(static_cast<int32_t>(kWords))});
            ASSERT_FALSE(r.faulted) << "dbt=" << dbt;
            o.check(sys.mem(), rec);
            std::vector<int32_t> got(kWords);
            s.read(out, got.data(), kWords * 4);
            EXPECT_EQ(got[kWords - 1],
                      static_cast<int32_t>((c * 13 + 1) +
                                           7 * (kWords - 1)) * 3 + 1)
                << "the guest store loop did not run (dbt=" << dbt << ")";
        }
        EXPECT_EQ(rec.chains(), 2u) << "dbt=" << dbt;
        replay::Log log = replay::Log::fromBytes(s.stopRecording());
        EXPECT_TRUE(o.missed.empty())
            << "dbt=" << dbt << ": first missed page " << o.missed[0];
        replay::ReplayResult rep = replay::replay(log, {});
        EXPECT_TRUE(rep.ok) << rep.divergence;
    }
}

TEST(WrittenPages, GpuStoresAndAtomicsAreTracked)
{
    // Shader stores and atomics go through host pointers cached by GPU
    // TLB fills, on one and four workers.  (The physical-address path
    // has its own test in test_gpu_exec.cc.)
    constexpr uint32_t kItems = 4096;   // out spans four pages.
    for (unsigned threads : {1u, 4u}) {
        rt::Session s(recordableConfig(8u << 20, threads),
                      rt::Mode::Direct);
        rt::KernelHandle k = s.compile(kStoreAtomicSrc, "storeatom");
        rt::Buffer out = s.alloc(kItems * 4);
        rt::Buffer counts = s.alloc(8 * 4);

        Oracle o;
        replay::Recorder &rec = s.startRecording();
        // Every chain stores new values, so a page whose cached
        // writable translation outlived the previous chain would go
        // unmarked with different content.
        for (int c = 0; c < 2; ++c) {
            gpu::JobResult r = s.enqueue(
                k, rt::NDRange{kItems, 1, 1}, rt::NDRange{64, 1, 1},
                {rt::Arg::buf(out), rt::Arg::buf(counts),
                 rt::Arg::i32(static_cast<int32_t>(kItems)),
                 rt::Arg::i32(c + 2)});
            ASSERT_FALSE(r.faulted) << r.fault.detail;
            o.check(s.system().mem(), rec);
        }
        EXPECT_EQ(rec.chains(), 2u);
        replay::Log log = replay::Log::fromBytes(s.stopRecording());
        std::vector<int32_t> got(8);
        s.read(counts, got.data(), 8 * 4);
        EXPECT_EQ(got[3], static_cast<int32_t>(2 * kItems / 8));
        EXPECT_TRUE(o.missed.empty())
            << "threads=" << threads << ": first missed page "
            << o.missed[0];
        replay::ReplayOptions opt;
        opt.hostThreads = threads;
        replay::ReplayResult rep = replay::replay(log, opt);
        EXPECT_TRUE(rep.ok) << rep.divergence;
    }
}

TEST(WrittenPages, ReplayApplyIsTracked)
{
    rt::Session s(recordableConfig(8u << 20, 1), rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(64 * 4);
    rt::Buffer out = s.alloc(64 * 4);
    s.startRecording();
    for (uint32_t c = 0; c < 3; ++c) {
        for (uint32_t i = 0; i < 64; ++i) {
            int32_t v = static_cast<int32_t>(i * 11 + c);
            s.write(in, &v, 4, i * 4);
        }
        s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
                  {rt::Arg::buf(in), rt::Arg::buf(out),
                   rt::Arg::i32(64)});
    }
    replay::Log log = replay::Log::fromBytes(s.stopRecording());

    // The validated replay's own recorder sees RAM only through the
    // written marks the delta apply leaves: an unmarked apply drops
    // pages from the re-recorded deltas, and the diff against the
    // source log fails.
    for (unsigned threads : {1u, 4u}) {
        replay::ReplayOptions opt;
        opt.hostThreads = threads;
        replay::ReplayResult rep = replay::replay(log, opt);
        EXPECT_TRUE(rep.ok) << "threads=" << threads << ": "
                            << rep.divergence;
        EXPECT_EQ(rep.chains, 3u);
    }
}

TEST(WrittenPages, SnapshotRestoreIsTracked)
{
    rt::SystemConfig cfg = recordableConfig(8u << 20, 1);
    rt::Session s(cfg, rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(64 * 4);
    rt::Buffer out = s.alloc(64 * 4);
    for (uint32_t i = 0; i < 64; ++i) {
        int32_t v = static_cast<int32_t>(i + 9);
        s.write(in, &v, 4, i * 4);
    }
    s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
              {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::i32(64)});
    snap::Writer w;
    s.saveSnapshot(w);
    snap::Image img = snap::Image::fromBytes(w.finish());

    // Restored pages were written by restoreState, not by the guest:
    // the first (full) delta must still carry them.
    std::unique_ptr<rt::Session> s2 = rt::Session::fromSnapshot(img, cfg);
    Oracle o;
    replay::Recorder &rec = s2->startRecording();
    for (int c = 0; c < 2; ++c) {
        gpu::JobResult r = s2->enqueue(
            s2->kernels()[0], rt::NDRange{64, 1, 1},
            rt::NDRange{16, 1, 1},
            {rt::Arg::buf(s2->buffers()[0]),
             rt::Arg::buf(s2->buffers()[1]), rt::Arg::i32(64)});
        ASSERT_FALSE(r.faulted);
        o.check(s2->system().mem(), rec);
    }
    EXPECT_EQ(rec.chains(), 2u);
    replay::Log log = replay::Log::fromBytes(s2->stopRecording());
    EXPECT_TRUE(o.missed.empty()) << "first missed page " << o.missed[0];
    replay::ReplayResult rep = replay::replay(log, {});
    EXPECT_TRUE(rep.ok) << rep.divergence;
}

TEST(WrittenPages, RamRestoredMidRecordingIsTracked)
{
    // restoreState() clears RAM before it writes the image pages back,
    // and the clear is not a marked write: pages that were non-zero
    // and are zero in the image change without a mark.  The recorder
    // must notice the clear and fall back to everything that may
    // differ.
    rt::Session s(recordableConfig(8u << 20, 1), rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(64 * 4);
    rt::Buffer out = s.alloc(64 * 4);
    rt::Buffer side = s.alloc(kPage);
    PhysMem &mem = s.system().mem();
    snap::ChunkWriter saved;
    mem.saveState(saved);

    Oracle o;
    replay::Recorder &rec = s.startRecording();
    auto run = [&] {
        gpu::JobResult r = s.enqueue(
            k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
            {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::i32(64)});
        ASSERT_FALSE(r.faulted);
        o.check(mem, rec);
    };
    mem.write<uint32_t>(side.pa, 0x600df00du);
    run();
    snap::ChunkReader r(snap::kTagMem, saved.data().data(), saved.size());
    mem.restoreState(r);   // side's page is zero again.
    run();
    EXPECT_EQ(rec.chains(), 2u);
    s.stopRecording();
    EXPECT_TRUE(o.missed.empty()) << "first missed page " << o.missed[0];
}

TEST(WrittenPages, CowWarmSessionIsTracked)
{
    // A Direct-mode warm image, so no guest driver writes RAM after a
    // chain and the oracle can run as soon as enqueue() returns.
    rt::SystemConfig cfg = recordableConfig(16u << 20, 2);
    snap::Image img = [&] {
        rt::Session warm(cfg, rt::Mode::Direct);
        warm.compile(kScaleSrc, "scale");
        rt::Buffer in = warm.alloc(64 * 4);
        warm.alloc(64 * 4);
        for (uint32_t i = 0; i < 64; ++i) {
            int32_t v = static_cast<int32_t>(i + 1);
            warm.write(in, &v, 4, i * 4);
        }
        snap::Writer w;
        warm.saveSnapshot(w);
        return snap::Image::fromBytes(w.finish());
    }();
    cfg.ramImage = RamImage::sealFromSnapshot(img);
    if (!cfg.ramImage)
        GTEST_SKIP() << "no sealed shared memory on this host";
    std::unique_ptr<rt::Session> s = rt::Session::fromSnapshot(img, cfg);
    ASSERT_TRUE(s->system().mem().hasImage());

    // Once on the fresh CoW view, once after an in-place recycle (the
    // remap path): the image's pages were never marked, yet the first
    // delta and every shadow must account for them.
    for (int round = 0; round < 2; ++round) {
        if (round == 1)
            s->resetFromSnapshot(img);
        const std::vector<rt::Buffer> &bufs = s->buffers();
        Oracle o;
        replay::Recorder &rec = s->startRecording();
        for (int c = 0; c < 2; ++c) {
            int32_t v = 100 + c;
            s->write(bufs[0], &v, 4, 4 * c);
            gpu::JobResult r = s->enqueue(
                s->kernels().front(), rt::NDRange{64, 1, 1},
                rt::NDRange{16, 1, 1},
                {rt::Arg::buf(bufs[0]), rt::Arg::buf(bufs[1]),
                 rt::Arg::i32(64)});
            ASSERT_FALSE(r.faulted) << r.fault.detail;
            o.check(s->system().mem(), rec);
        }
        EXPECT_EQ(rec.chains(), 2u);
        replay::Log log = replay::Log::fromBytes(s->stopRecording());
        EXPECT_TRUE(o.missed.empty())
            << "round " << round << ": first missed page " << o.missed[0];
        replay::ReplayResult rep = replay::replay(log, {});
        EXPECT_TRUE(rep.ok) << rep.divergence;
    }
}

// ------------------------------------------------------- Mutation fuzz

/** The recording configuration the hand-built logs below start
 *  with: 1 MiB (256 pages) of RAM, default GPU knobs. */
replay::LogConfig
smallConfig()
{
    replay::LogConfig c;
    c.ramBase = 0x80000000ull;
    c.ramBytes = 1u << 20;
    c.numCores = 8;
    c.hostThreads = 2;
    return c;
}

/** Appends the RCFG event for @p c.  @p tier_byte is the retired
 *  interpreter-tier byte: the recorder writes 1, logs from the legacy
 *  interpreter carry 0.  @p verify_byte is the verifier policy; the
 *  recorder always writes 1. */
void
configEvent(snap::Writer &w,
            const replay::LogConfig &c = smallConfig(),
            uint8_t tier_byte = 1, uint8_t verify_byte = 1)
{
    snap::ChunkWriter &e = w.chunk(replay::kEvConfig);
    e.u64(c.ramBase);
    e.u64(c.ramBytes);
    e.u32(c.numCores);
    e.u32(c.hostThreads);
    e.u8(verify_byte);
    e.u8(c.instrument ? 1 : 0);
    e.u8(tier_byte);
    e.u8(c.cpuDbt ? 1 : 0);
    e.u8(c.fullSystem ? 1 : 0);
    e.u8(0);   // reserved
}

std::vector<uint8_t>
smallValidLog()
{
    rt::Session s(recordableConfig(4u << 20, 1), rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(64 * 4);
    rt::Buffer out = s.alloc(64 * 4);
    s.startRecording();
    s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
              {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::i32(64)});
    return s.stopRecording();
}

TEST(ReplayFuzz, TruncationsAlwaysFailLocated)
{
    std::vector<uint8_t> valid = smallValidLog();
    ASSERT_TRUE(replay::Log::fromBytes(valid).eventCount() > 0);
    for (size_t len : {size_t(0), size_t(1), size_t(8), size_t(15),
                       size_t(16), size_t(24), size_t(40),
                       valid.size() / 2, valid.size() - 1}) {
        std::vector<uint8_t> cut(valid.begin(), valid.begin() + len);
        EXPECT_THROW(replay::Log::fromBytes(std::move(cut)),
                     replay::ReplayError)
            << "len=" << len;
    }
}

TEST(ReplayFuzz, BitFlipsNeverCrash)
{
    std::vector<uint8_t> valid = smallValidLog();
    uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    int parsed = 0, rejected = 0;
    for (int iter = 0; iter < 300; ++iter) {
        std::vector<uint8_t> bytes = valid;
        size_t pos = next() % bytes.size();
        bytes[pos] ^= static_cast<uint8_t>(1u << (next() % 8));
        try {
            replay::Log log = replay::Log::fromBytes(std::move(bytes));
            replay::ReplayOptions opt;
            opt.hostThreads = 1;
            replay::ReplayResult r = replay::replay(log, opt);
            (void)r;   // ok or divergence: both are acceptable.
            parsed++;
        } catch (const SimError &) {
            rejected++;   // ReplayError or SnapshotError: located.
        }
    }
    // The per-event CRC catches almost every flip.
    EXPECT_GT(rejected, 0);
    EXPECT_EQ(parsed + rejected, 300);
}

TEST(ReplayFuzz, HostileCountsFailLocatedNeverCrash)
{
    // Build structurally valid logs whose payloads carry hostile
    // counts and sizes; every one must fail with a located error.
    {
        // MemDelta claiming 2^32-1 pages.
        snap::Writer w(replay::kMagic, replay::kVersion);
        configEvent(w);
        snap::ChunkWriter &m = w.chunk(replay::kEvMemDelta);
        m.u8(1);
        m.u32(0xffffffffu);
        replay::Log log = replay::Log::fromBytes(w.finish());
        EXPECT_THROW(replay::replay(log, {}), replay::ReplayError);
    }
    {
        // MemDelta with an out-of-range page index.
        snap::Writer w(replay::kMagic, replay::kVersion);
        configEvent(w);
        snap::ChunkWriter &m = w.chunk(replay::kEvMemDelta);
        m.u8(1);
        m.u32(1);
        m.u32(100000);   // >> 256 pages
        std::vector<uint8_t> page(4096, 0xab);
        m.bytes(page.data(), page.size());
        replay::Log log = replay::Log::fromBytes(w.finish());
        EXPECT_THROW(replay::replay(log, {}), replay::ReplayError);
    }
    {
        // RCFG with an implausible RAM size.
        replay::LogConfig huge = smallConfig();
        huge.ramBytes = 1ull << 40;
        snap::Writer w(replay::kMagic, replay::kVersion);
        configEvent(w, huge);
        EXPECT_THROW(replay::Log::fromBytes(w.finish()),
                     replay::ReplayError);
    }
    {
        // Unknown event kind.
        snap::Writer w(replay::kMagic, replay::kVersion);
        configEvent(w);
        w.chunk(snap::makeTag("EVIL")).u32(1);
        EXPECT_THROW(replay::Log::fromBytes(w.finish()),
                     replay::ReplayError);
    }
    {
        // Truncated MMIO payload: located error at replay time.
        snap::Writer w(replay::kMagic, replay::kVersion);
        configEvent(w);
        w.chunk(replay::kEvMmio).u32(gpu::kRegIrqMask);
        replay::Log log = replay::Log::fromBytes(w.finish());
        EXPECT_THROW(replay::replay(log, {}), replay::ReplayError);
    }
}

TEST(Replay, RetiredInterpreterTierByteIsIgnored)
{
    // Logs recorded on the retired legacy interpreter carry 0 in the
    // RCFG byte that once named the interpreter tier
    // (corpus/direct_legacy.brpl is one).  Rebuild a recording with
    // only that byte cleared: replay must validate it exactly as it
    // validates the original.
    replay::Log src = replay::Log::fromBytes(smallValidLog());
    snap::Writer w(replay::kMagic, replay::kVersion);
    configEvent(w, src.config(), 0);
    for (size_t i = 1; i < src.eventCount(); ++i)
        w.chunk(src.kind(i)).bytes(src.payload(i), src.payloadSize(i));
    replay::Log old = replay::Log::fromBytes(w.finish());

    // ramBase u64 | ramBytes u64 | numCores u32 | hostThreads u32 |
    // verify u8 | instrument u8 | tier u8 ...
    constexpr size_t kTierByte = 8 + 8 + 4 + 4 + 1 + 1;
    ASSERT_EQ(old.payloadSize(0), src.payloadSize(0));
    EXPECT_EQ(src.payload(0)[kTierByte], 1);
    std::vector<uint8_t> expect(src.payload(0),
                                src.payload(0) + src.payloadSize(0));
    expect[kTierByte] = 0;
    EXPECT_EQ(std::memcmp(old.payload(0), expect.data(), expect.size()),
              0);
    EXPECT_EQ(replay::describeEvent(old, 0),
              replay::describeEvent(src, 0));

    for (unsigned threads : {1u, 4u}) {
        replay::ReplayOptions opt;
        opt.hostThreads = threads;
        replay::ReplayResult a = replay::replay(src, opt);
        replay::ReplayResult b = replay::replay(old, opt);
        ASSERT_TRUE(a.ok) << a.divergence;
        EXPECT_TRUE(b.ok) << "threads=" << threads << ": "
                          << b.divergence;
        EXPECT_EQ(b.chains, a.chains);
        EXPECT_EQ(b.totalKernel.totalInstrs(),
                  a.totalKernel.totalInstrs());
    }
}

TEST(Replay, RetiredVerifierPolicyIsRejected)
{
    // Policy 1 (reject unsafe-class findings) is the only verifier
    // policy; a log recorded with the verifier off (0) or strict (2)
    // cannot replay faithfully and is a located error at load.
    {
        snap::Writer w(replay::kMagic, replay::kVersion);
        configEvent(w);
        EXPECT_NO_THROW(replay::Log::fromBytes(w.finish()));
    }
    for (uint8_t policy : {0, 2}) {
        snap::Writer w(replay::kMagic, replay::kVersion);
        configEvent(w, smallConfig(), 1, policy);
        try {
            replay::Log::fromBytes(w.finish());
            ADD_FAILURE() << "verifier policy " << int(policy)
                          << " accepted";
        } catch (const replay::ReplayError &e) {
            std::string what = e.what();
            EXPECT_NE(what.find("RCFG"), std::string::npos) << what;
            EXPECT_NE(what.find("offset 25"), std::string::npos) << what;
            EXPECT_NE(what.find("verifier policy " +
                                std::to_string(policy)),
                      std::string::npos)
                << what;
        }
    }
}

// ------------------------------------------------------ Loading files

/** Runs @p load on a FIFO at @p path while a helper thread writes
 *  @p bytes into it: a stream with no size known up front. */
template <typename Load>
auto
loadThroughFifo(const std::string &path, const std::vector<uint8_t> &bytes,
                Load load)
{
    std::thread writer([&] {
        int fd = ::open(path.c_str(), O_WRONLY);
        for (size_t put = 0; fd >= 0 && put < bytes.size();) {
            ssize_t n = ::write(fd, bytes.data() + put, bytes.size() - put);
            if (n <= 0)
                break;   // Reader gave up early: EPIPE.
            put += static_cast<size_t>(n);
        }
        if (fd >= 0)
            ::close(fd);
    });
    try {
        auto result = load(path);
        writer.join();
        return result;
    } catch (...) {
        writer.join();
        throw;
    }
}

TEST(ReplayLoad, ReadsFifosAndRejectsDirectories)
{
    std::signal(SIGPIPE, SIG_IGN);   // A failed load closes early.
    std::filesystem::path dir =
        std::filesystem::current_path() / "replay_load_test";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    std::string fifo = (dir / "stream").string();

    // (a) A recorded log and a small image (bigger than a pipe
    // buffer) read through a FIFO.
    std::vector<uint8_t> log_bytes = smallValidLog();
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    replay::Log log = loadThroughFifo(fifo, log_bytes,
                                      replay::Log::load);
    replay::Log ref = replay::Log::fromBytes(log_bytes);
    EXPECT_EQ(log.bytes(), ref.bytes());
    ASSERT_EQ(log.eventCount(), ref.eventCount());
    for (size_t i = 0; i < ref.eventCount(); ++i)
        EXPECT_EQ(log.kind(i), ref.kind(i));

    snap::Writer w;
    w.chunk(snap::kTagConfig).u64(42);
    std::vector<uint8_t> big(100000, 0x5a);
    w.chunk(snap::kTagMem).bytes(big.data(), big.size());
    std::vector<uint8_t> image_bytes = w.finish();
    snap::Image img = loadThroughFifo(fifo, image_bytes,
                                      snap::Image::load);
    snap::Image img_ref = snap::Image::fromBytes(image_bytes);
    EXPECT_EQ(img.sizeBytes(), img_ref.sizeBytes());
    for (uint32_t tag : {snap::kTagConfig, snap::kTagMem}) {
        EXPECT_EQ(img.chunkLength(tag), img_ref.chunkLength(tag));
        EXPECT_EQ(img.chunkCrc(tag), img_ref.chunkCrc(tag));
    }

    // (b) A directory is a located error of each loader's own type.
    std::string d = (dir / "not_a_file").string();
    std::filesystem::create_directories(d);
    try {
        replay::Log::load(d);
        ADD_FAILURE() << "Log::load accepted a directory";
    } catch (const replay::ReplayError &e) {
        EXPECT_NE(std::string(e.what()).find(d), std::string::npos)
            << e.what();
    }
    EXPECT_THROW(snap::Image::load(d), snap::SnapshotError);
    std::filesystem::remove_all(dir);
}

// ----------------------------------------------------------- Plumbing

TEST(Replay, DescribeAndDiffLocateDivergence)
{
    std::vector<uint8_t> valid = smallValidLog();
    replay::Log a = replay::Log::fromBytes(valid);
    EXPECT_NE(replay::describeEvent(a, 0).find("RCFG"),
              std::string::npos);

    // Self-diff is clean.
    EXPECT_FALSE(replay::diffLogs(a, a).has_value());

    // Flip one RAM byte inside the first delta: the diff names the
    // event and the page.
    for (size_t i = 0; i < a.eventCount(); ++i) {
        if (a.kind(i) != replay::kEvMemDelta)
            continue;
        std::vector<uint8_t> mutated = valid;
        // payload: u8 full | u32 count | u32 idx | page bytes...
        size_t off = static_cast<size_t>(a.payload(i) - a.bytes().data());
        size_t page_off = off + 1 + 4 + 4 + 100;
        mutated[page_off] ^= 0xff;
        // Recompute the event CRC so only the content differs.
        uint32_t crc = snap::crc32(&mutated[off], a.payloadSize(i));
        std::memcpy(&mutated[off - 4], &crc, 4);
        replay::Log b = replay::Log::fromBytes(std::move(mutated));
        std::optional<replay::Divergence> d = replay::diffLogs(a, b);
        ASSERT_TRUE(d.has_value());
        EXPECT_EQ(d->event, i);
        EXPECT_NE(d->what.find("content differs"), std::string::npos);
        break;
    }
}

} // namespace
} // namespace bifsim

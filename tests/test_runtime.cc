/** @file Integration tests for the runtime: sessions, buffers, the
 *  guest OS driver path, and direct-vs-full-system equivalence. */

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>

#include "common/logging.h"
#include "guestos/guest_os.h"
#include "runtime/session.h"

namespace bifsim::rt {
namespace {

const char *kSaxpy = R"(
kernel void saxpy(global const float* x, global float* y, int n,
                  float a) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
)";

TEST(Session, BufferReadWrite)
{
    Session s;
    Buffer b = s.alloc(1024);
    EXPECT_GE(b.bytes, 1024u);
    std::vector<uint32_t> data(256);
    std::iota(data.begin(), data.end(), 0);
    s.write(b, data.data(), 1024);
    std::vector<uint32_t> back(256);
    s.read(b, back.data(), 1024);
    EXPECT_EQ(back, data);
    // Offset access.
    uint32_t v = 0xABCD;
    s.write(b, &v, 4, 512);
    uint32_t got = 0;
    s.read(b, &got, 4, 512);
    EXPECT_EQ(got, 0xABCDu);
}

TEST(Session, BufferBoundsChecked)
{
    Session s;
    Buffer b = s.alloc(64);
    uint32_t v = 0;
    EXPECT_THROW(s.write(b, &v, 4, 64), SimError);
    EXPECT_THROW(s.read(b, &v, 4, 4096), SimError);
}

TEST(Session, BufferBoundsDoNotWrap)
{
    // offset + len wraps past SIZE_MAX to a small sum that fits: the
    // bound must not be computed by adding them.
    Session s;
    Buffer b = s.alloc(64);
    uint32_t v = 0;
    EXPECT_THROW(s.write(b, &v, 4, SIZE_MAX - 1), SimError);
    EXPECT_THROW(s.read(b, &v, SIZE_MAX, 8), SimError);
}

TEST(Session, OversizedAllocRejectedAndHeapKept)
{
    Session s;
    Buffer a = s.alloc(64);
    // Rounding this size up to a page wraps it to 0, which would fit.
    EXPECT_THROW(s.alloc(SIZE_MAX - 100), SimError);
    // Larger than what is left of RAM: rejected, and the failure does
    // not use up the heap.
    EXPECT_THROW(s.alloc(s.system().mem().size()), SimError);
    Buffer b = s.alloc(64);
    EXPECT_EQ(b.pa, a.pa + 4096);
}

TEST(Session, DistinctBuffersDistinctVas)
{
    Session s;
    Buffer a = s.alloc(4096);
    Buffer b = s.alloc(4096);
    EXPECT_NE(a.gpuVa, b.gpuVa);
    EXPECT_NE(a.pa, b.pa);
}

TEST(Session, SaxpyDirect)
{
    Session s;
    constexpr int kN = 1000;
    std::vector<float> x(kN), y(kN);
    for (int i = 0; i < kN; ++i) {
        x[i] = static_cast<float>(i);
        y[i] = 1.0f;
    }
    Buffer dx = s.alloc(kN * 4), dy = s.alloc(kN * 4);
    s.write(dx, x.data(), kN * 4);
    s.write(dy, y.data(), kN * 4);
    KernelHandle k = s.compile(kSaxpy, "saxpy");
    gpu::JobResult r = s.enqueue(k, NDRange{1024, 1, 1},
                                 NDRange{64, 1, 1},
                                 {Arg::buf(dx), Arg::buf(dy),
                                  Arg::i32(kN), Arg::f32(2.0f)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    std::vector<float> got(kN);
    s.read(dy, got.data(), kN * 4);
    for (int i = 0; i < kN; ++i)
        ASSERT_FLOAT_EQ(got[i], 2.0f * i + 1.0f);
}

TEST(Session, SaxpyFullSystemMatchesDirect)
{
    constexpr int kN = 256;
    std::vector<float> x(kN), base(kN);
    for (int i = 0; i < kN; ++i) {
        x[i] = 0.25f * i;
        base[i] = 3.0f;
    }
    std::vector<std::vector<float>> results;
    for (Mode mode : {Mode::Direct, Mode::FullSystem}) {
        Session s(SystemConfig(), mode);
        Buffer dx = s.alloc(kN * 4), dy = s.alloc(kN * 4);
        s.write(dx, x.data(), kN * 4);
        s.write(dy, base.data(), kN * 4);
        KernelHandle k = s.compile(kSaxpy, "saxpy");
        gpu::JobResult r = s.enqueue(k, NDRange{kN, 1, 1},
                                     NDRange{64, 1, 1},
                                     {Arg::buf(dx), Arg::buf(dy),
                                      Arg::i32(kN), Arg::f32(-1.5f)});
        ASSERT_FALSE(r.faulted) << r.fault.detail;
        std::vector<float> got(kN);
        s.read(dy, got.data(), kN * 4);
        results.push_back(got);
    }
    EXPECT_EQ(results[0], results[1]);
}

TEST(Session, FullSystemDriverExecutesInstructions)
{
    Session s(SystemConfig(), Mode::FullSystem);
    Buffer dx = s.alloc(64 << 10);   // 16 pages to map.
    Buffer dy = s.alloc(64 << 10);
    KernelHandle k = s.compile(kSaxpy, "saxpy");
    gpu::JobResult r = s.enqueue(k, NDRange{64, 1, 1}, NDRange{64, 1, 1},
                                 {Arg::buf(dx), Arg::buf(dy),
                                  Arg::i32(64), Arg::f32(1.0f)});
    ASSERT_FALSE(r.faulted);
    EXPECT_GT(s.driverInstructions(), 500u);
    EXPECT_GE(s.mappedPages(), 32u);
    // The guest handled at least one GPU interrupt.
    PhysMem &m = s.system().mem();
    guestos::Layout lay = guestos::defaultLayout(System::kRamBase);
    EXPECT_GE(m.read<uint32_t>(lay.mailbox + guestos::kMbIrqCount), 1u);
}

TEST(Session, DriverMapsScaleWithBufferSize)
{
    auto pages_for = [](size_t bytes) {
        Session s(SystemConfig(), Mode::FullSystem);
        Buffer b = s.alloc(bytes);
        KernelHandle k = s.compile(kSaxpy, "saxpy");
        s.enqueue(k, NDRange{64, 1, 1}, NDRange{64, 1, 1},
                  {Arg::buf(b), Arg::buf(b), Arg::i32(0),
                   Arg::f32(0.0f)});
        return s.mappedPages();
    };
    uint64_t small = pages_for(4096);
    uint64_t large = pages_for(1 << 20);
    EXPECT_GT(large, small + 200);
}

TEST(Session, CtrlRegTrafficCounted)
{
    Session s(SystemConfig(), Mode::FullSystem);
    Buffer b = s.alloc(4096);
    KernelHandle k = s.compile(kSaxpy, "saxpy");
    s.enqueue(k, NDRange{64, 1, 1}, NDRange{64, 1, 1},
              {Arg::buf(b), Arg::buf(b), Arg::i32(0), Arg::f32(0.0f)});
    gpu::SystemStats st = s.system().gpu().systemStats();
    EXPECT_GE(st.ctrlRegWrites, 4u);   // mask, transtab, ascmd, submit.
    EXPECT_GE(st.ctrlRegReads, 2u);    // irq status, js status.
    EXPECT_EQ(st.computeJobs, 1u);
    EXPECT_GE(st.irqsAsserted, 1u);
}

TEST(Session, MultipleEnqueuesAccumulate)
{
    Session s;
    Buffer b = s.alloc(4096);
    KernelHandle k = s.compile(kSaxpy, "saxpy");
    for (int i = 0; i < 3; ++i) {
        gpu::JobResult r = s.enqueue(
            k, NDRange{64, 1, 1}, NDRange{64, 1, 1},
            {Arg::buf(b), Arg::buf(b), Arg::i32(0), Arg::f32(0.0f)});
        ASSERT_FALSE(r.faulted);
    }
    EXPECT_EQ(s.system().gpu().systemStats().computeJobs, 3u);
    gpu::KernelStats total = s.system().gpu().totalKernelStats();
    EXPECT_EQ(total.threadsLaunched, 3u * 64u);
}

TEST(Session, GuestOsPingCommand)
{
    Session s(SystemConfig(), Mode::FullSystem);
    PhysMem &m = s.system().mem();
    guestos::Layout lay = guestos::defaultLayout(System::kRamBase);
    m.write<uint32_t>(lay.mailbox + guestos::kMbStatus, 0);
    m.write<uint32_t>(lay.mailbox + guestos::kMbCmd, guestos::kCmdPing);
    s.system().runCpu(100000);
    EXPECT_EQ(m.read<uint32_t>(lay.mailbox + guestos::kMbStatus), 2u);
    EXPECT_EQ(m.read<uint32_t>(lay.mailbox + guestos::kMbCmd), 0u);
}

TEST(Session, CompileErrorsPropagate)
{
    Session s;
    EXPECT_THROW(s.compile("kernel void f() { syntax error", "f"),
                 SimError);
    EXPECT_THROW(s.compile(kSaxpy, "not_there"), SimError);
}

TEST(Session, TooManyArgsRejected)
{
    Session s;
    KernelHandle k = s.compile(kSaxpy, "saxpy");
    std::vector<Arg> args(bif::kMaxArgWords + 1, Arg::i32(0));
    EXPECT_THROW(
        s.enqueue(k, NDRange{64, 1, 1}, NDRange{64, 1, 1}, args),
        SimError);
}

TEST(System, UartEchoFromGuest)
{
    Session s(SystemConfig(), Mode::FullSystem);
    // The OS doesn't print by itself; poke the UART via the bus the
    // way guest code would.
    Bus &bus = s.system().bus();
    for (char c : std::string("ok"))
        bus.write(System::kUartBase + soc::Uart::kRegThr, 4,
                  static_cast<uint32_t>(c));
    EXPECT_EQ(s.system().uart().output(), "ok");
}

TEST(System, TimerInterruptReachesGuest)
{
    // A bare-metal guest that programs the timer and waits for the
    // timer interrupt.
    Session s;   // Direct mode: no OS loaded.
    const char *src = R"(
        .org 0x80000000
        la   t0, handler
        csrw mtvec, t0
        li   t0, 0x80          # mie.MTIE
        csrw mie, t0
        li   t0, 0x8
        csrw mstatus, t0
        # mtimecmp = 500
        li   t0, TIMER
        li   t1, 500
        sw   t1, 8(t0)
        sw   zero, 12(t0)
wait:
        beqz a0, wait
        halt
handler:
        li   a0, 1
        # Push mtimecmp far out to drop the level.
        li   t0, TIMER
        li   t1, 0x7FFFFFFF
        sw   t1, 8(t0)
        mret
    )";
    sa32::Program p =
        sa32::assemble(src, {{"TIMER", System::kTimerBase}});
    p.loadInto(s.system().mem());
    s.system().cpu().reset();
    bool halted = s.system().runUntilHalt(2'000'000);
    EXPECT_TRUE(halted);
    EXPECT_EQ(s.system().cpu().reg(10), 1u);
}

} // namespace
} // namespace bifsim::rt

/** @file Tests for the job-lifecycle trace subsystem: ring-buffer
 *  semantics, disabled-path behaviour, Chrome JSON export, and the
 *  causal order of the full submit -> decode -> exec -> IRQ -> wake
 *  lifecycle in both Direct and FullSystem modes. */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "gpu/gpu.h"
#include "guestos/guest_os.h"
#include "runtime/session.h"
#include "trace/trace.h"

namespace bifsim {
namespace {

/** First (earliest, since export sorts by ts) timestamp of an event
 *  with @p name in the exported JSON, or -1 if absent. */
double
firstTs(const std::string &json, const std::string &name)
{
    std::string needle = "\"name\":\"" + name + "\"";
    size_t pos = json.find(needle);
    if (pos == std::string::npos)
        return -1.0;
    size_t ts = json.find("\"ts\":", pos);
    if (ts == std::string::npos)
        return -1.0;
    return std::stod(json.substr(ts + 5));
}

int
countOf(const std::string &json, const std::string &name)
{
    std::string needle = "\"name\":\"" + name + "\"";
    int n = 0;
    for (size_t pos = json.find(needle); pos != std::string::npos;
         pos = json.find(needle, pos + needle.size()))
        n++;
    return n;
}

/** Events named @p name on the thread registered as @p thread (the
 *  export writes one event per line, thread names first). */
int
countOnThread(const std::string &json, const std::string &name,
              const std::string &thread)
{
    std::istringstream lines(json);
    std::string line, tid;
    int n = 0;
    while (std::getline(lines, line)) {
        if (line.find("\"args\":{\"name\":\"" + thread + "\"}") !=
            std::string::npos) {
            size_t at = line.find("\"tid\":") + 6;
            tid = "\"tid\":" + line.substr(at, line.find(',', at) - at) + ",";
        } else if (!tid.empty() &&
                   line.find("\"name\":\"" + name + "\"") !=
                       std::string::npos &&
                   line.find(tid) != std::string::npos) {
            n++;
        }
    }
    return n;
}

/** Structural sanity: balanced braces/brackets, no trailing comma. */
void
expectBalancedJson(const std::string &json)
{
    long brace = 0, bracket = 0;
    bool in_str = false;
    for (size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (in_str) {
            if (c == '\\')
                i++;
            else if (c == '"')
                in_str = false;
            continue;
        }
        switch (c) {
          case '"': in_str = true; break;
          case '{': brace++; break;
          case '}': brace--; break;
          case '[': bracket++; break;
          case ']': bracket--; break;
          default: break;
        }
        EXPECT_GE(brace, 0);
        EXPECT_GE(bracket, 0);
    }
    EXPECT_EQ(brace, 0);
    EXPECT_EQ(bracket, 0);
    EXPECT_EQ(json.find(",]"), std::string::npos);
    EXPECT_EQ(json.find(",\n]"), std::string::npos);
}

TEST(TraceBuffer, RingWrapsKeepingNewest)
{
    constexpr uint64_t kCap = trace::TraceBuffer::kCapacity;
    trace::TraceBuffer buf("t");
    for (uint64_t i = 0; i < kCap + 24; ++i)
        buf.instant("ev", "cat", "i", i);
    EXPECT_EQ(buf.pushed(), kCap + 24);
    EXPECT_EQ(buf.size(), kCap);
    std::vector<trace::Event> evs;
    buf.snapshot(evs);
    ASSERT_EQ(evs.size(), kCap);
    EXPECT_EQ(evs.front().args[0].value, 24u);        // Oldest retained.
    EXPECT_EQ(evs.back().args[0].value, kCap + 23);   // Newest.
}

TEST(Tracer, DisabledHandsOutNullBuffers)
{
    trace::Tracer t(false);
    EXPECT_FALSE(t.enabled());
    EXPECT_EQ(t.registerThread("x"), nullptr);
    EXPECT_EQ(t.eventCount(), 0u);
    std::ostringstream os;
    t.exportChromeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    expectBalancedJson(json);
}

TEST(Tracer, SpanDurationAndCounterExport)
{
    trace::Tracer t(true);
    trace::TraceBuffer *b = t.registerThread("worker");
    ASSERT_NE(b, nullptr);
    uint64_t t0 = trace::nowNs();
    b->span("work", "cat", t0, "items", 3);
    b->counter("kernel.arith_instrs", 42);
    std::ostringstream os;
    t.exportChromeJson(os);
    std::string json = os.str();
    expectBalancedJson(json);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"items\":3"), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("worker"), std::string::npos);
}

/** The sgemm smoke test the tracing subsystem is specified against:
 *  trace a full kernel launch and check the exported lifecycle. */
TEST(TraceSmoke, SgemmDirectLifecycle)
{
    const char *src = R"(
kernel void sgemm(global const float* A, global const float* B,
                  global float* C, int n) {
    int col = get_global_id(0);
    int row = get_global_id(1);
    float acc = 0.0f;
    for (int k = 0; k < n; k += 1) {
        acc += A[row * n + k] * B[k * n + col];
    }
    C[row * n + col] = acc;
}
)";
    constexpr uint32_t n = 16;
    rt::SystemConfig cfg;
    cfg.gpu.trace = true;
    cfg.gpu.hostThreads = 2;
    rt::Session s(cfg, rt::Mode::Direct);
    ASSERT_TRUE(s.tracer().enabled());

    rt::KernelHandle k = s.compile(src, "sgemm");
    rt::Buffer a = s.alloc(n * n * 4), b = s.alloc(n * n * 4),
               c = s.alloc(n * n * 4);
    std::vector<float> ha(n * n), hb(n * n);
    for (uint32_t i = 0; i < n * n; ++i) {
        ha[i] = static_cast<float>(i % 7) * 0.5f;
        hb[i] = static_cast<float>(i % 5) - 2.0f;
    }
    s.write(a, ha.data(), ha.size() * 4);
    s.write(b, hb.data(), hb.size() * 4);
    gpu::JobResult r = s.enqueue(
        k, rt::NDRange{n, n, 1}, rt::NDRange{8, 8, 1},
        {rt::Arg::buf(a), rt::Arg::buf(b), rt::Arg::buf(c),
         rt::Arg::i32(static_cast<int32_t>(n))});
    ASSERT_FALSE(r.faulted) << r.fault.detail;

    // The traced run still computes the right answer.
    std::vector<float> hc(n * n);
    s.read(c, hc.data(), hc.size() * 4);
    for (uint32_t row = 0; row < n; row += 5) {
        for (uint32_t col = 0; col < n; col += 3) {
            float acc = 0.0f;
            for (uint32_t kk = 0; kk < n; ++kk)
                acc += ha[row * n + kk] * hb[kk * n + col];
            EXPECT_FLOAT_EQ(hc[row * n + col], acc);
        }
    }

    std::ostringstream os;
    s.tracer().exportChromeJson(os);
    std::string json = os.str();
    expectBalancedJson(json);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

    // Every lifecycle stage must appear...
    double t_submit = firstTs(json, "js_submit");
    double t_decode = firstTs(json, "decode");
    double t_group = firstTs(json, "workgroup");
    double t_worker = firstTs(json, "worker_exec");
    double t_job = firstTs(json, "job");
    double t_irq = firstTs(json, "irq_raise");
    double t_wake = firstTs(json, "driver_wake");
    ASSERT_GE(t_submit, 0.0);
    ASSERT_GE(t_decode, 0.0);
    ASSERT_GE(t_group, 0.0);
    ASSERT_GE(t_worker, 0.0);
    ASSERT_GE(t_job, 0.0);
    ASSERT_GE(t_irq, 0.0);
    ASSERT_GE(t_wake, 0.0);

    // ...in causal order (timestamps are span starts, so each stage
    // begins no earlier than the one that triggered it).
    EXPECT_LE(t_submit, t_decode);
    EXPECT_LE(t_decode, t_group);
    EXPECT_LE(t_group, t_irq);
    EXPECT_LE(t_irq, t_wake);

    // Counters recorded once per completed job.
    EXPECT_NE(json.find("kernel.arith_instrs"), std::string::npos);
    EXPECT_NE(json.find("tlb.walks"), std::string::npos);
    EXPECT_NE(json.find("sys.compute_jobs"), std::string::npos);

    // Thread metadata for every producer.  Executor 0 runs on the
    // chain thread, so its workgroups are traced on gpu-jm; the one
    // pool thread of a two-worker device is gpu-worker-1.
    EXPECT_NE(json.find("gpu-device"), std::string::npos);
    EXPECT_NE(json.find("gpu-jm"), std::string::npos);
    EXPECT_GT(countOnThread(json, "workgroup", "gpu-jm"), 0);
    EXPECT_EQ(countOnThread(json, "worker_exec", "gpu-jm"), 1);
    EXPECT_NE(json.find("gpu-worker-1"), std::string::npos);
    EXPECT_EQ(json.find("gpu-worker-0"), std::string::npos);
    EXPECT_NE(json.find("cpu-driver"), std::string::npos);

    // Human-readable summary mentions the job.
    std::ostringstream sum;
    s.tracer().writeSummary(sum);
    EXPECT_NE(sum.str().find("job #0"), std::string::npos);
    EXPECT_NE(sum.str().find("workgroup"), std::string::npos);
}

TEST(TraceSmoke, FullSystemGuestDriverWake)
{
    const char *src = R"(
kernel void copy(global const int* in, global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = in[i];
    }
}
)";
    rt::SystemConfig cfg;
    cfg.gpu.trace = true;
    cfg.gpu.hostThreads = 2;
    rt::Session s(cfg, rt::Mode::FullSystem);
    rt::KernelHandle k = s.compile(src, "copy");
    rt::Buffer a = s.alloc(256), b = s.alloc(256);
    std::vector<int32_t> in(64);
    for (int i = 0; i < 64; ++i)
        in[i] = i * 3;
    s.write(a, in.data(), 256);
    gpu::JobResult r = s.enqueue(
        k, rt::NDRange{64, 1, 1}, rt::NDRange{64, 1, 1},
        {rt::Arg::buf(a), rt::Arg::buf(b), rt::Arg::i32(64)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;

    // The guest driver's WFI loop observed the completion flag and
    // bumped the wake counter in the mailbox.
    guestos::Layout layout = guestos::defaultLayout(rt::System::kRamBase);
    uint32_t wakes = s.system().mem().read<uint32_t>(
        layout.mailbox + guestos::kMbWakes);
    EXPECT_GE(wakes, 1u);

    std::ostringstream os;
    s.tracer().exportChromeJson(os);
    std::string json = os.str();
    expectBalancedJson(json);
    EXPECT_GE(countOf(json, "driver_wake"), 1);
    EXPECT_GE(countOf(json, "driver_cmd"), 1);
    EXPECT_NE(json.find("\"guest_wakes\""), std::string::npos);
    double t_submit = firstTs(json, "js_submit");
    double t_wake = firstTs(json, "driver_wake");
    ASSERT_GE(t_submit, 0.0);
    ASSERT_GE(t_wake, 0.0);
    EXPECT_LE(t_submit, t_wake);
}

TEST(TraceSmoke, DisabledTracingRecordsNothing)
{
    rt::SystemConfig cfg;   // trace defaults to false
    cfg.gpu.hostThreads = 2;
    rt::Session s(cfg, rt::Mode::Direct);
    EXPECT_FALSE(s.tracer().enabled());
    const char *src = R"(
kernel void fill(global int* out) {
    out[get_global_id(0)] = 7;
}
)";
    rt::KernelHandle k = s.compile(src, "fill");
    rt::Buffer b = s.alloc(64);
    gpu::JobResult r = s.enqueue(k, rt::NDRange{16, 1, 1},
                                 rt::NDRange{4, 1, 1},
                                 {rt::Arg::buf(b)});
    ASSERT_FALSE(r.faulted);
    EXPECT_EQ(s.tracer().eventCount(), 0u);
}

} // namespace
} // namespace bifsim

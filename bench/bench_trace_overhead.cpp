/**
 * @file
 * Trace-subsystem overhead A/B: the same kernels with GpuConfig::trace
 * off (the default; every event site is one predictable branch on a
 * null pointer) versus on (per-thread ring-buffer recording).
 *
 * Reports per kernel: MIPS both ways and the relative overhead.  The
 * tracing-on column bounds the recording cost; the disabled path is
 * exercised by bench_interp_hotpath, whose MIPS must stay within 2% of
 * its recorded baseline.  Results go to BENCH_trace_overhead.json.
 *
 * Each kernel is a bench::measure(): one discarded warm-up repetition,
 * then 40 timed ones.  A repetition times tracing off and on back to
 * back, alternating which runs first, and yields their ratio, so host
 * drift cancels out of it.  The overhead is the median ratio minus 1,
 * with its spread (1.4826 x MAD) under "overhead_noise"; each side's
 * seconds are the median of its own timings.  One pair's ratio
 * spreads ~10% on a shared 4-vCPU host; 40 pairs hold the median to a
 * few percent, well inside the baseline differ's overhead band.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "runtime/session.h"

namespace {

using namespace bifsim;

const char *kMadLoop = R"(
kernel void mad_loop(global float* out, int iters, int n) {
    int i = get_global_id(0);
    if (i < n) {
        float a = i * 0.5f + 1.0f;
        float b = 1.0009f;
        float c = 0.0001f;
        for (int k = 0; k < iters; ++k) {
            a = a * b + c;
            a = a * b - c;
        }
        out[i] = a;
    }
}
)";

const char *kTriad = R"(
kernel void triad(global const float* a, global const float* b,
                  global float* c, float s, int n) {
    int i = get_global_id(0);
    if (i < n) {
        c[i] = a[i] + s * b[i];
    }
}
)";

struct RunMetrics
{
    double secs = 0;
    double mips = 0;
    uint64_t instrs = 0;
    size_t events = 0;
};

struct KernelCase
{
    const char *name;
    const char *source;
    int n;
    int iters;
    int launches;
};

RunMetrics
runCase(const KernelCase &kc, bool trace)
{
    rt::SystemConfig cfg;
    cfg.gpu.trace = trace;
    rt::Session s(cfg);

    rt::KernelHandle k = s.compile(kc.source, kc.name);
    size_t bytes = static_cast<size_t>(kc.n) * 4;
    rt::Buffer a = s.alloc(bytes);
    rt::Buffer b = s.alloc(bytes);
    rt::Buffer c = s.alloc(bytes);

    std::vector<float> init(kc.n);
    for (int i = 0; i < kc.n; ++i)
        init[i] = 0.25f * static_cast<float>(i % 97);
    s.write(a, init.data(), bytes);
    s.write(b, init.data(), bytes);

    std::vector<rt::Arg> args;
    if (std::string(kc.name) == "mad_loop")
        args = {rt::Arg::buf(c), rt::Arg::i32(kc.iters),
                rt::Arg::i32(kc.n)};
    else
        args = {rt::Arg::buf(a), rt::Arg::buf(b), rt::Arg::buf(c),
                rt::Arg::f32(1.5f), rt::Arg::i32(kc.n)};

    rt::NDRange global{static_cast<uint32_t>(kc.n), 1, 1};
    rt::NDRange local{64, 1, 1};

    s.enqueue(k, global, local, args);   // Warm-up.

    RunMetrics m;
    gpu::KernelStats total;
    bench::Timer t;
    for (int it = 0; it < kc.launches; ++it) {
        gpu::JobResult r = s.enqueue(k, global, local, args);
        if (r.faulted) {
            std::fprintf(stderr, "%s: job faulted\n", kc.name);
            std::exit(1);
        }
        total.merge(r.kernel);
    }
    m.secs = t.seconds();
    m.instrs = total.totalInstrs();
    m.mips = m.secs > 0 ? m.instrs / m.secs / 1e6 : 0;
    m.events = s.tracer().eventCount();
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bifsim;
    bench::Options opt = bench::Options::parse(argc, argv, 0.25);
    setInformEnabled(false);

    bench::banner("Trace subsystem overhead",
                  "A/B of GpuConfig::trace off (null-pointer branch per "
                  "event site) vs on (ring-buffer recording).");

    int n = static_cast<int>(16384 * opt.scale) & ~63;
    if (n < 256)
        n = 256;
    std::vector<KernelCase> cases = {
        {"mad_loop", kMadLoop, n, 400, 4},
        {"triad", kTriad, n * 4, 0, 12},
    };

    std::printf("%-10s %12s %12s %10s %7s %10s\n", "kernel", "off MIPS",
                "on MIPS", "overhead", "+-", "events");

    constexpr unsigned kReps = 40;
    bench::Report report("trace_overhead", opt.scale);
    json::Value kernels = json::Value::array();
    for (size_t i = 0; i < cases.size(); ++i) {
        const KernelCase &kc = cases[i];
        // Paired repetitions: triad runs ~20 ms a side, so one host
        // blip between two separately timed sides would swing the
        // overhead ratio the baseline differ watches.
        RunMetrics off, on;
        std::vector<double> off_secs, on_secs;
        unsigned rep = 0;
        bench::Measurement ratio = bench::measure(
            [&] {
                bool on_first = rep++ % 2 == 0;
                RunMetrics a = runCase(kc, on_first);
                RunMetrics b = runCase(kc, !on_first);
                off = on_first ? b : a;
                on = on_first ? a : b;
                off_secs.push_back(off.secs);
                on_secs.push_back(on.secs);
                return on.secs / off.secs;
            },
            kReps);
        // Drop the warm-up pair's timings.
        off_secs.erase(off_secs.begin());
        on_secs.erase(on_secs.begin());
        off.secs = bench::median(off_secs);
        off.mips = off.instrs / off.secs / 1e6;
        on.secs = bench::median(on_secs);
        on.mips = on.instrs / on.secs / 1e6;
        double overhead = ratio.median - 1.0;
        std::printf("%-10s %12.1f %12.1f %9.1f%% %6.1f%% %10zu\n",
                    kc.name, off.mips, on.mips, 100.0 * overhead,
                    100.0 * ratio.mad, on.events);
        json::Value k = json::Value::object();
        k.set("name", json::Value(kc.name));
        k.set("instrs", json::Value(off.instrs));
        json::Value o = json::Value::object();
        o.set("secs", json::Value(off.secs));
        o.set("mips", json::Value(off.mips));
        k.set("off", std::move(o));
        json::Value onv = json::Value::object();
        onv.set("secs", json::Value(on.secs));
        onv.set("mips", json::Value(on.mips));
        onv.set("events", json::Value(static_cast<uint64_t>(on.events)));
        k.set("on", std::move(onv));
        k.set("overhead", json::Value(overhead));
        k.set("overhead_noise", json::Value(ratio.mad));
        kernels.push(std::move(k));
    }
    report.metrics().set("kernels", std::move(kernels));
    report.write();
    return 0;
}

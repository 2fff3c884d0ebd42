/**
 * @file
 * Interpreter hot-path benchmark: the shader-core executor (flattened
 * micro-op dispatch with the host-pointer TLB) on a compute-bound and
 * a memory-bound kernel.
 *
 * Reports, per kernel: wall-clock seconds, simulated MIPS (executed
 * shader instructions per host second), TLB hit rate, and nanoseconds
 * per global memory access.  The compute-bound kernel's threads are
 * also run one by one through the independent scalar reference
 * interpreter (gpu/ref/), which must execute exactly as many
 * instructions.  Both run on one host thread, and the gate is the
 * executor's MIPS over the reference's: a speed ratio that divides the
 * host out.  Results are also written
 * to BENCH_interp_hotpath.json in the current directory.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/logging.h"
#include "gpu/ref/ref_interp.h"
#include "kclc/compiler.h"
#include "runtime/session.h"

namespace {

using namespace bifsim;

// Compute-bound: a long multiply-add dependency chain per thread keeps
// the interpreter in arithmetic clauses with almost no memory traffic.
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

// Memory-bound: streaming triad, one store and two loads per thread,
// exercises the translation fast path.
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
    double nsPerAccess = 0;
    double tlbHitRate = 0;
    uint64_t instrs = 0;
    uint64_t accesses = 0;
    double refMips = 0;      ///< mad_loop only: reference interpreter.
    double refSpeedup = 0;   ///< mad_loop only: mips / refMips.
    uint64_t refInstrs = 0;  ///< Per launch, summed over threads.
};

struct KernelCase
{
    const char *name;
    const char *source;
    int n;
    int iters;       // mad_loop only
    int launches;
};

/** Timed repetitions per kernel; executor and reference alternate
 *  within each, and every reported figure is the median. */
constexpr int kReps = 5;

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Runs one launch's threads of mad_loop case @p kc (output buffer at
 *  GPU VA @p out_va) through the reference interpreter over a flat
 *  memory where GPU VA == index.  Returns the seconds taken and adds
 *  the executed instructions to @p instrs. */
double
runReference(const KernelCase &kc, const bif::Module &mod,
             uint32_t out_va, uint64_t &instrs)
{
    std::vector<uint8_t> flat(out_va + static_cast<size_t>(kc.n) * 4, 0);
    const uint32_t n = static_cast<uint32_t>(kc.n);
    const uint32_t wg = 64;
    bench::Timer t;
    for (uint32_t i = 0; i < n; ++i) {
        gpu::ref::RefContext ctx;
        ctx.localId[0] = i % wg;
        ctx.groupId[0] = i / wg;
        ctx.localSize[0] = wg;
        ctx.gridSize[0] = n;
        ctx.numGroups[0] = n / wg;
        ctx.laneId = i % bif::kWarpWidth;
        ctx.args = {out_va, static_cast<uint32_t>(kc.iters), n};
        ctx.globalMem = &flat;
        gpu::ref::RefResult rr = gpu::ref::runThread(mod, ctx);
        if (!rr.ok) {
            std::fprintf(stderr, "%s: reference thread %u: %s\n",
                         kc.name, i, rr.error.c_str());
            std::exit(1);
        }
        instrs += rr.executedInstrs;
    }
    return t.seconds();
}

RunMetrics
runCase(const KernelCase &kc)
{
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 1;   // Per-thread speed, like the reference.
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
    if (kc.iters > 0)
        args = {rt::Arg::buf(c), rt::Arg::i32(kc.iters),
                rt::Arg::i32(kc.n)};
    else
        args = {rt::Arg::buf(a), rt::Arg::buf(b), rt::Arg::buf(c),
                rt::Arg::f32(1.5f), rt::Arg::i32(kc.n)};
    kclc::CompiledKernel ck;
    if (kc.iters > 0)
        ck = kclc::compileKernel(kc.source, kc.name);

    rt::NDRange global{static_cast<uint32_t>(kc.n), 1, 1};
    rt::NDRange local{64, 1, 1};

    // Warm-up launch: populates the decode cache and faults in pages so
    // the timed region measures steady-state interpretation.
    s.enqueue(k, global, local, args);

    RunMetrics m;
    std::vector<double> secs, ref_mips, ratios;
    for (int rep = 0; rep < kReps; ++rep) {
        gpu::KernelStats total;
        gpu::TlbStats tlb;
        bench::Timer t;
        for (int it = 0; it < kc.launches; ++it) {
            gpu::JobResult r = s.enqueue(k, global, local, args);
            if (r.faulted) {
                std::fprintf(stderr, "%s: job faulted\n", kc.name);
                std::exit(1);
            }
            total.merge(r.kernel);
            tlb.merge(r.tlb);
        }
        secs.push_back(t.seconds());
        m.instrs = total.totalInstrs();
        m.accesses = total.globalLdSt + total.localLdSt;
        m.tlbHitRate = tlb.hitRate();
        if (kc.iters == 0)
            continue;
        m.refInstrs = 0;
        double ref_secs = runReference(kc, ck.mod, c.gpuVa, m.refInstrs);
        double mips = m.instrs / secs.back() / 1e6;
        ref_mips.push_back(m.refInstrs / ref_secs / 1e6);
        ratios.push_back(mips / ref_mips.back());
    }
    m.secs = median(secs);
    m.mips = m.instrs / m.secs / 1e6;
    m.nsPerAccess =
        m.accesses ? m.secs * 1e9 / static_cast<double>(m.accesses) : 0;
    if (kc.iters > 0) {
        m.refMips = median(ref_mips);
        m.refSpeedup = median(ratios);
    }
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bifsim;
    bench::Options opt = bench::Options::parse(argc, argv, 0.25);
    setInformEnabled(false);

    bench::banner("Interpreter hot path — micro-op dispatch + host-pointer"
                  " TLB",
                  "Executor throughput, checked against the scalar "
                  "reference interpreter on the same threads.");

    int n = static_cast<int>(16384 * opt.scale) & ~63;
    if (n < 256)
        n = 256;
    std::vector<KernelCase> cases = {
        {"mad_loop", kMadLoop, n, 400, 4},
        {"triad", kTriad, n * 4, 0, 12},
    };

    std::printf("%-10s %10s %10s %9s %10s %9s\n", "kernel", "MIPS",
                "ref MIPS", "vs ref", "ns/access", "TLB hit%");

    // The executor's MIPS over the reference interpreter's on mad_loop:
    // medians of 1.28-1.94 over 12 runs on a 4-vCPU x86-64 host.  The
    // gate sits under half the lowest, so it catches a collapse of the
    // hot path, not host noise.
    constexpr double kMinSpeedupVsRef = 0.6;

    bench::Report report("interp_hotpath", opt.scale);
    json::Value kernels = json::Value::array();
    bool ok = true;
    double gate_speedup = 0;
    for (const KernelCase &kc : cases) {
        RunMetrics m = runCase(kc);
        json::Value k = json::Value::object();
        k.set("name", json::Value(kc.name));
        k.set("instrs", json::Value(m.instrs));
        k.set("secs", json::Value(m.secs));
        k.set("mips", json::Value(m.mips));
        k.set("ns_per_access", json::Value(m.nsPerAccess));
        k.set("tlb_hit_rate", json::Value(m.tlbHitRate));
        if (kc.iters > 0) {
            k.set("ref_mips", json::Value(m.refMips));
            k.set("ref_speedup", json::Value(m.refSpeedup));
            gate_speedup = m.refSpeedup;
            if (m.refSpeedup < kMinSpeedupVsRef)
                ok = false;
            if (m.refInstrs * kc.launches != m.instrs) {
                std::fprintf(stderr,
                             "FAIL: %s: executor ran %llu instructions "
                             "per launch, reference %llu\n",
                             kc.name,
                             static_cast<unsigned long long>(
                                 m.instrs / kc.launches),
                             static_cast<unsigned long long>(
                                 m.refInstrs));
                ok = false;
            }
        }
        kernels.push(std::move(k));
        std::printf("%-10s %10.1f", kc.name, m.mips);
        if (kc.iters > 0)
            std::printf(" %10.1f %8.2fx", m.refMips, m.refSpeedup);
        else
            std::printf(" %10s %9s", "-", "-");
        std::printf(" %10.1f %8.1f%%\n", m.nsPerAccess,
                    100.0 * m.tlbHitRate);
    }
    report.metrics().set("kernels", std::move(kernels));
    report.gate("kernels.mad_loop.ref_speedup", kMinSpeedupVsRef,
                gate_speedup, true);
    report.write();

    if (!ok) {
        std::fprintf(stderr, "FAIL: mad_loop below %.1fx the reference "
                             "interpreter, or instruction counts "
                             "disagree\n",
                     kMinSpeedupVsRef);
        return 1;
    }
    return 0;
}

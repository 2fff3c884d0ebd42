/**
 * @file
 * Always-on metrics overhead (DESIGN.md §5k): what the per-job
 * publish hook costs relative to a job, measured two ways.
 *
 * The GATED number is modeled: the real hook body (build the delta
 * vector, five instrument::appendCounters calls, the sys and
 * shader-cache delta baseline, one locked publish) is timed directly over tens of
 * thousands of iterations — a multi-millisecond region with no
 * differencing in it — and divided by the per-job time from the
 * disabled side of the A/B.  Both inputs are solid measurements, so
 * the ratio is stable to well under the 2% budget even on a noisy
 * host.
 *
 * The wall-clock A/B (same kernels, registry disabled vs enabled,
 * alternating reps, ratio of summed times) is RECORDED but not gated:
 * it differences two multi-second numbers, and on a contended host
 * the difference floats in a ±5% band that swamps a sub-0.1% true
 * effect.  It is kept as a cross-check — a hook regression large
 * enough to matter (say 10%) would show up in both columns — along
 * with a contemporaneous null split of the disabled reps estimating
 * the host's noise floor at measurement time.
 *
 * Two cases:
 *
 *  - mad_loop: the bench_interp_hotpath compute kernel, the workload
 *    the <= 2% overhead budget is written against.  This is the gated
 *    series.
 *  - short_jobs: the same kernel shrunk until publish cost is the
 *    largest possible fraction of a job (64 threads, 1 iter, many
 *    launches).  Reported to bound the worst case; not gated, because
 *    a sub-100us job amplifies fixed costs no real workload sees.
 *
 * Writes BENCH_metrics_overhead.json.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "instrument/stats.h"
#include "metrics/metrics.h"
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

struct CaseSpec
{
    const char *name;
    int n;
    int iters;
    int launches;
    bool gated;
};

struct Side
{
    double secs = 1e30;   ///< Best-of-reps wall time.
    uint64_t instrs = 0;
    double mips = 0;
};

/** ONE session serves both sides of the A/B, toggling the registry's
 *  kill switch per rep: with separate sessions, allocator and page
 *  layout differences between the two instances dwarf the sub-percent
 *  effect being measured. */
class Runner
{
  public:
    explicit Runner(const CaseSpec &kc) : kc_(kc), session_(config())
    {
        kernel_ = session_.compile(kMadLoop, "mad_loop");
        out_ = session_.alloc(static_cast<size_t>(kc.n) * 4);
        args_ = {rt::Arg::buf(out_), rt::Arg::i32(kc.iters),
                 rt::Arg::i32(kc.n)};
        rep(true, nullptr);   // Warm-up: decode cache, page faults.
    }

    void
    rep(bool metrics_on, Side *best)
    {
        metrics::registry().setEnabled(metrics_on);
        rt::NDRange global{static_cast<uint32_t>(kc_.n), 1, 1};
        rt::NDRange local{64, 1, 1};
        gpu::KernelStats total;
        bench::Timer t;
        for (int it = 0; it < kc_.launches; ++it) {
            gpu::JobResult r = session_.enqueue(kernel_, global, local,
                                                args_);
            if (r.faulted) {
                std::fprintf(stderr, "%s: job faulted\n", kc_.name);
                std::exit(1);
            }
            total.merge(r.kernel);
        }
        double secs = t.seconds();
        metrics::registry().setEnabled(true);
        if (best && secs < best->secs) {
            best->secs = secs;
            best->instrs = total.totalInstrs();
        }
    }

    /** One real job's result, for building a representative delta
     *  batch for the hook microbenchmark. */
    gpu::JobResult
    probe()
    {
        rt::NDRange global{static_cast<uint32_t>(kc_.n), 1, 1};
        rt::NDRange local{64, 1, 1};
        return session_.enqueue(kernel_, global, local, args_);
    }

  private:
    /** Inline submission: the job runs on the caller's thread, so the
     *  timed region has no cross-thread wakeup latency in it — that
     *  jitter is milliseconds on a contended host, far larger than
     *  the effect being measured. */
    static rt::SystemConfig
    config()
    {
        rt::SystemConfig cfg;
        cfg.gpu.syncSubmit = true;
        return cfg;
    }

    CaseSpec kc_;
    rt::Session session_;
    rt::KernelHandle kernel_;
    rt::Buffer out_;
    std::vector<rt::Arg> args_;
};

/**
 * Times the real per-job hook body (GpuDevice::runJob's publish
 * block): construct the delta vector, append kernel + tlb + sched
 * counters, append the sys counters' growth through the delta
 * baseline, and publish under the registry lock.  Sched and sys
 * counters are nonzero (sys grows by one job's worth per call) so no
 * counter takes publish()'s skip-zero fast path — a slight
 * overestimate of the average job, which is the right direction for
 * a gate.
 *
 * Returns seconds per hook invocation, best of several multi-thousand
 * iteration blocks (each block is a multi-millisecond timed region).
 */
double
hookCostSecs(const gpu::JobResult &job)
{
    gpu::SchedStats sched;
    sched.slicesRun = 8;
    sched.groupsRun = 32;
    sched.steals = 1;
    sched.stealAttempts = 2;
    gpu::SystemStats sys;
    gpu::ShaderCacheStats cache;
    metrics::CounterBaseline sysBase;
    auto hook = [&] {
        sys.pagesAccessed += 4;
        sys.ctrlRegReads += 6;
        sys.ctrlRegWrites += 6;
        sys.irqsAsserted += 1;
        sys.computeJobs += 1;
        cache.hits += 1;
        std::vector<gpu::NamedCounter> deltas;
        gpu::appendCounters(deltas, job.kernel);
        gpu::appendCounters(deltas, job.tlb);
        gpu::appendCounters(deltas, sched);
        std::vector<gpu::NamedCounter> sysNow;
        gpu::appendCounters(sysNow, sys);
        gpu::appendCounters(sysNow, cache);
        sysBase.appendDeltas(deltas, sysNow);
        metrics::registry().publish(deltas);
    };

    // One untimed call, so the timed blocks start with warm caches.
    hook();

    constexpr int kIters = 20000;
    constexpr int kBlocks = 5;
    double best = 1e30;
    for (int blk = 0; blk < kBlocks; ++blk) {
        bench::Timer t;
        for (int i = 0; i < kIters; ++i)
            hook();
        best = std::min(best, t.seconds());
    }
    return best / kIters;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bifsim;
    bench::Options opt = bench::Options::parse(argc, argv, 0.25);
    setInformEnabled(false);

    bench::banner("Always-on metrics overhead",
                  "per-job publish hook cost, modeled against job time "
                  "(gated) and cross-checked by a wall-clock A/B.");

    int n = static_cast<int>(16384 * opt.scale) & ~63;
    if (n < 256)
        n = 256;
    std::vector<CaseSpec> cases = {
        {"mad_loop", n, 400, 4, true},
        {"short_jobs", 64, 1, 200, false},
    };

    std::printf("%-12s %12s %12s %11s %11s\n", "case", "off MIPS",
                "on MIPS", "wall A/B", "modeled");

    bench::Report report("metrics_overhead", opt.scale);
    json::Value kernels = json::Value::array();
    double gated_overhead = 0;
    double hook_ns = 0;
    double noise_floor = 0;
    metrics::RegistryStats before = metrics::registry().stats();
    for (const CaseSpec &kc : cases) {
        Runner runner(kc);

        Side off_best, on_best;
        // The recorded wall number is the ratio of summed times over
        // all alternating pairs: each (off, on) pair shares whatever
        // slow drift the host is under, and summing averages per-rep
        // scheduler jitter down by ~sqrt(reps).  The off reps also
        // split even/odd into a contemporaneous null A/B — two
        // identical-configuration halves of the SAME window — whose
        // ratio estimates how much of the measured wall overhead is
        // just the host being noisy right now.
        constexpr int kPairs = 10;
        double off_sum = 0, on_sum = 0;
        double null_a = 0, null_b = 0;
        int null_an = 0, null_bn = 0;
        for (int rep = 0; rep < kPairs; ++rep) {
            Side off_rep, on_rep;
            if (rep & 1) {
                runner.rep(true, &on_rep);
                runner.rep(false, &off_rep);
                null_b += off_rep.secs;
                ++null_bn;
            } else {
                runner.rep(false, &off_rep);
                runner.rep(true, &on_rep);
                null_a += off_rep.secs;
                ++null_an;
            }
            off_sum += off_rep.secs;
            on_sum += on_rep.secs;
            if (off_rep.secs < off_best.secs)
                off_best = off_rep;
            if (on_rep.secs < on_best.secs)
                on_best = on_rep;
        }
        if (kc.gated && null_a > 0 && null_bn > 0)
            noise_floor = std::fabs((null_b / null_bn) /
                                        (null_a / null_an) -
                                    1.0);
        off_best.mips = off_best.secs > 0
                            ? off_best.instrs / off_best.secs / 1e6
                            : 0;
        on_best.mips =
            on_best.secs > 0 ? on_best.instrs / on_best.secs / 1e6 : 0;
        double wall_overhead =
            off_sum > 0 ? on_sum / off_sum - 1.0 : 0;

        // The gated instrument: hook cost per job over job time, both
        // from solid timed regions.  Uses the best-of (not mean) off
        // time in the denominator — the job's true cost with the
        // host's interference stripped, again the conservative
        // direction for an overhead bound.
        double hook_secs = hookCostSecs(runner.probe());
        double per_job = off_best.secs / kc.launches;
        double modeled = per_job > 0 ? hook_secs / per_job : 0;
        if (kc.gated) {
            gated_overhead = modeled;
            hook_ns = hook_secs * 1e9;
        }

        std::printf("%-12s %12.1f %12.1f %10.2f%% %10.4f%%\n", kc.name,
                    off_best.mips, on_best.mips, 100.0 * wall_overhead,
                    100.0 * modeled);
        json::Value k = json::Value::object();
        k.set("name", json::Value(kc.name));
        k.set("instrs", json::Value(off_best.instrs));
        json::Value o = json::Value::object();
        o.set("secs", json::Value(off_best.secs));
        o.set("mips", json::Value(off_best.mips));
        k.set("off", std::move(o));
        json::Value e = json::Value::object();
        e.set("secs", json::Value(on_best.secs));
        e.set("mips", json::Value(on_best.mips));
        k.set("on", std::move(e));
        k.set("wall_overhead", json::Value(wall_overhead));
        k.set("modeled_overhead", json::Value(modeled));
        kernels.push(std::move(k));
    }
    metrics::RegistryStats after = metrics::registry().stats();
    constexpr double kBudget = 0.02;
    report.metrics().set("kernels", std::move(kernels));
    report.metrics().set("publish_hook_ns", json::Value(hook_ns));
    report.metrics().set("publishes",
                         json::Value(after.publishes - before.publishes));
    report.metrics().set("noise_floor_overhead",
                         json::Value(noise_floor));
    report.gate("kernels.mad_loop.modeled_overhead", kBudget,
                gated_overhead, true);
    report.write();

    std::printf("\nmad_loop metrics overhead: %.4f%% modeled "
                "(%.0f ns publish hook; budget <= 2%%; wall A/B noise "
                "floor %.2f%%)\n",
                100.0 * gated_overhead, hook_ns, 100.0 * noise_floor);
    if (gated_overhead > kBudget) {
        std::fprintf(stderr,
                     "FAIL: always-on metrics overhead above the 2%% "
                     "budget\n");
        return 1;
    }
    return 0;
}

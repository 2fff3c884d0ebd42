/**
 * @file
 * Fig. 8: our simulator's speed relative to the Multi2Sim-style
 * functional baseline (m2ssim = 1.0), with and without
 * instrumentation.  The paper reports mostly comparable performance
 * (0.1x-8.8x) and an instrumentation overhead under 5%.
 *
 * Each side of each benchmark is timed with bench::measure(): one
 * discarded warm-up run, then five timed runs, each on a freshly built
 * device (set-up untimed).  The table shows median seconds, and a
 * speedup is flagged "noisy" when either of its sides has a spread
 * (1.4826 x MAD) above 10% of its median.
 */

#include <cmath>
#include <cstdlib>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "workloads/workload.h"

namespace {

using namespace bifsim;

/** Builds @p wl's kernels on @p dev and returns the seconds its run
 *  takes; exits if the run fails or its output does not verify. */
double
timedRun(workloads::Workload &wl, workloads::Device &dev, const char *side)
{
    dev.build(wl.source(), kclc::CompilerOptions());
    bench::Timer t;
    workloads::RunResult rr = wl.run(dev);
    double secs = t.seconds();
    if (!rr.ok) {
        std::fprintf(stderr, "%s (%s): %s\n", wl.name().c_str(), side,
                     rr.error.c_str());
        std::exit(1);
    }
    return secs;
}

/** Times workload @p name on our simulator, instrumented or not. */
bench::Measurement
timeOurs(const std::string &name, double scale, bool instrument)
{
    return bench::measure([&] {
        auto wl = workloads::makeWorkload(name, scale);
        rt::SystemConfig cfg;
        cfg.gpu.instrument = instrument;
        rt::Session session(cfg);
        workloads::SessionDevice dev(session);
        return timedRun(*wl, dev, instrument ? "ours, instr" : "ours");
    });
}

const char *
noisyFlag(const bench::Measurement &a, const bench::Measurement &b)
{
    return a.noisy || b.noisy ? "noisy" : "";
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::Options::parse(argc, argv, 0.02);
    setInformEnabled(false);

    bench::banner("Fig. 8 — speed relative to Multi2Sim-style baseline",
                  "Speedup over m2ssim functional simulation (=1.0), "
                  "with and without instrumentation (median of 5 runs "
                  "per side).");

    std::printf("%-18s %10s %10s %9s %-6s %12s %9s %-6s\n", "benchmark",
                "m2s(s)", "ours(s)", "speedup", "", "w/ instr(s)",
                "speedup", "");

    double geo_noinstr = 0, geo_instr = 0;
    int count = 0;
    for (const std::string &name : workloads::fig8WorkloadNames()) {
        bench::Measurement m2s = bench::measure([&] {
            auto wl = workloads::makeWorkload(name, opt.scale);
            workloads::M2sDevice dev(256u << 20);
            return timedRun(*wl, dev, "m2s");
        });
        bench::Measurement off = timeOurs(name, opt.scale, false);
        bench::Measurement on = timeOurs(name, opt.scale, true);
        double s_off = m2s.median / off.median;
        double s_on = m2s.median / on.median;
        geo_noinstr += std::log(s_off);
        geo_instr += std::log(s_on);
        count++;
        std::printf("%-18s %10.4f %10.4f %8.2fx %-6s %12.4f %8.2fx %-6s\n",
                    name.c_str(), m2s.median, off.median, s_off,
                    noisyFlag(m2s, off), on.median, s_on,
                    noisyFlag(m2s, on));
    }
    std::printf("\ngeomean speedup: %.2fx without instrumentation, "
                "%.2fx with (overhead %.1f%%)\n",
                std::exp(geo_noinstr / count),
                std::exp(geo_instr / count),
                100.0 * (std::exp(geo_noinstr / count) /
                             std::exp(geo_instr / count) -
                         1.0));
    return 0;
}

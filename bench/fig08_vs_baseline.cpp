/**
 * @file
 * Fig. 8: our simulator's speed relative to the Multi2Sim-style
 * functional baseline (m2ssim = 1.0), with and without
 * instrumentation.  The paper reports mostly comparable performance
 * (0.1x-8.8x) and an instrumentation overhead under 5%.
 */

#include <cmath>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "workloads/workload.h"

int
main(int argc, char **argv)
{
    using namespace bifsim;
    bench::Options opt = bench::Options::parse(argc, argv, 0.02);
    setInformEnabled(false);

    bench::banner("Fig. 8 — speed relative to Multi2Sim-style baseline",
                  "Speedup over m2ssim functional simulation (=1.0), "
                  "with and without instrumentation.");

    std::printf("%-18s %10s %10s %10s %12s %10s\n", "benchmark",
                "m2s(s)", "ours(s)", "speedup", "w/ instr(s)",
                "speedup");

    double geo_noinstr = 0, geo_instr = 0;
    int count = 0;
    for (const std::string &name : workloads::fig8WorkloadNames()) {
        // Baseline.
        double t_m2s;
        {
            auto wl = workloads::makeWorkload(name, opt.scale);
            workloads::M2sDevice dev(256u << 20);
            dev.build(wl->source(), kclc::CompilerOptions());
            bench::Timer t;
            workloads::RunResult rr = wl->run(dev);
            t_m2s = t.seconds();
            if (!rr.ok) {
                std::fprintf(stderr, "%s (m2s): %s\n", name.c_str(),
                             rr.error.c_str());
                return 1;
            }
        }
        // Ours without instrumentation.
        double t_off;
        {
            auto wl = workloads::makeWorkload(name, opt.scale);
            rt::SystemConfig cfg;
            cfg.gpu.instrument = false;
            rt::Session session(cfg);
            workloads::SessionDevice dev(session);
            dev.build(wl->source(), kclc::CompilerOptions());
            bench::Timer t;
            workloads::RunResult rr = wl->run(dev);
            t_off = t.seconds();
            if (!rr.ok) {
                std::fprintf(stderr, "%s: %s\n", name.c_str(),
                             rr.error.c_str());
                return 1;
            }
        }
        // Ours with full instrumentation.
        double t_on;
        {
            auto wl = workloads::makeWorkload(name, opt.scale);
            rt::Session session;
            workloads::SessionDevice dev(session);
            dev.build(wl->source(), kclc::CompilerOptions());
            bench::Timer t;
            workloads::RunResult rr = wl->run(dev);
            t_on = t.seconds();
            if (!rr.ok) {
                std::fprintf(stderr, "%s: %s\n", name.c_str(),
                             rr.error.c_str());
                return 1;
            }
        }
        geo_noinstr += std::log(t_m2s / t_off);
        geo_instr += std::log(t_m2s / t_on);
        count++;
        std::printf("%-18s %10.3f %10.3f %9.2fx %12.3f %9.2fx\n",
                    name.c_str(), t_m2s, t_off, t_m2s / t_off, t_on,
                    t_m2s / t_on);
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

/**
 * @file
 * Throughput of the static shader analyzer (src/analysis/).  The
 * analyzer sits on the GPU's shader decode path (GpuDevice::getShader)
 * and in kclc's output gate, so its cost per module bounds how much
 * decode-time verification adds to a job's cold-start latency —
 * compare against the decode span in bench ablation_caches.
 *
 * Prints the mean wall time of one pass over every workload kernel:
 * analysis at -O0 and -O3, and the clause-CFG build alone.  `--scale
 * S` scales the pass counts (default 1).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "analysis/analysis.h"
#include "bench_util.h"
#include "common/logging.h"
#include "kclc/compiler.h"
#include "workloads/workload.h"

namespace {

using namespace bifsim;

/** All workload kernels compiled at the given optimisation level. */
std::vector<bif::Module>
workloadModules(int level)
{
    std::vector<bif::Module> mods;
    kclc::CompilerOptions opts = kclc::CompilerOptions::forLevel(level);
    for (const std::string &name : workloads::allWorkloadNames()) {
        std::unique_ptr<workloads::Workload> w =
            workloads::makeWorkload(name);
        for (kclc::CompiledKernel &k :
             kclc::compileAll(w->source(), opts))
            mods.push_back(std::move(k.mod));
    }
    return mods;
}

/** Keeps the measured results observable. */
volatile size_t g_sink;

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::Options::parse(argc, argv, 1.0);
    setInformEnabled(false);
    bench::banner("Static shader analyzer throughput",
                  "Mean wall time per pass over every workload kernel.");
    int passes = std::max(1, static_cast<int>(200 * opt.scale));

    std::printf("%-22s %6s %8s %8s %10s %12s %8s\n", "case", "level",
                "kernels", "clauses", "us/pass", "clauses/s", "diags");
    for (int level : {0, 3}) {
        std::vector<bif::Module> mods = workloadModules(level);
        size_t clauses = 0;
        for (const bif::Module &m : mods)
            clauses += m.clauses.size();
        size_t diags = 0;
        bench::Timer t;
        for (int p = 0; p < passes; ++p) {
            for (const bif::Module &m : mods)
                diags += analysis::analyze(m).diags.size();
        }
        double us = t.seconds() * 1e6 / passes;
        g_sink = diags;
        std::printf("%-22s %6d %8zu %8zu %10.1f %12.0f %8zu\n",
                    "analyze_workloads", level, mods.size(), clauses, us,
                    clauses / (us * 1e-6), diags / passes);
    }

    std::vector<bif::Module> mods = workloadModules(3);
    size_t nodes = 0;
    bench::Timer t;
    for (int p = 0; p < passes; ++p) {
        for (const bif::Module &m : mods)
            nodes += analysis::ClauseCfg::build(m).nodes.size();
    }
    g_sink = nodes;
    std::printf("%-22s %6d %8zu %8s %10.1f\n", "clause_cfg_build", 3,
                mods.size(), "-", t.seconds() * 1e6 / passes);
    return 0;
}

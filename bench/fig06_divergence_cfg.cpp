/**
 * @file
 * Fig. 6: the simulator reconstructs a control-flow graph over actual
 * GPU instructions (clauses) from per-thread PC tracking, pinpointing
 * the divergence in BFS with per-edge thread proportions.
 */

#include <algorithm>

#include "bench_util.h"
#include "common/logging.h"
#include "instrument/cfg.h"
#include "workloads/workload.h"

int
main(int argc, char **argv)
{
    using namespace bifsim;
    bench::Options opt = bench::Options::parse(argc, argv, 0.005);
    setInformEnabled(false);

    bench::banner("Fig. 6 — BFS divergence CFG",
                  "Clause-level CFG with the proportion of threads on "
                  "each edge; divergent blocks flagged.");

    auto wl = workloads::makeWorkload("bfs", opt.scale);
    // One host worker: bfs work-items race on global memory, so more
    // workers make the CFG shares differ from run to run.
    rt::SystemConfig sys_cfg;
    sys_cfg.gpu.hostThreads = 1;
    rt::Session session(sys_cfg);
    workloads::SessionDevice dev(session);
    dev.build(wl->source(), kclc::CompilerOptions());
    workloads::RunResult rr = wl->run(dev);
    if (!rr.ok) {
        std::fprintf(stderr, "bfs failed: %s\n", rr.error.c_str());
        return 1;
    }

    gpu::KernelStats ks = session.system().gpu().totalKernelStats();
    instrument::Cfg cfg = instrument::buildCfg(ks);

    std::printf("%-12s %-12s %10s %9s %s\n", "block", "successor",
                "threads", "share", "");
    for (const instrument::CfgNode &n : cfg.nodes) {
        bool first = true;
        for (const instrument::CfgEdge &e : cfg.edges) {
            if (e.from != n.clause)
                continue;
            std::printf("%-12s %-12s %10llu %8.2f%% %s\n",
                        first ? instrument::nodeLabel(n.clause).c_str()
                              : "",
                        instrument::nodeLabel(e.to).c_str(),
                        static_cast<unsigned long long>(e.threads),
                        e.fraction * 100.0,
                        first && n.divergent ? "<- divergence" : "");
            first = false;
        }
    }
    std::printf("\ndivergent warp branches: %llu of %llu clause "
                "executions\n",
                static_cast<unsigned long long>(ks.divergentBranches),
                static_cast<unsigned long long>(ks.clausesExecuted));
    std::printf("(paper shows e.g. an 83.32%% / 16.68%% split at the "
                "divergence point)\n");
    return 0;
}

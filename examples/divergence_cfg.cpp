/**
 * @file
 * Reproduces the Fig. 6 use case: run BFS and emit the control-flow
 * graph the simulator reconstructs from per-thread PCs at clause
 * boundaries, with the proportion of threads following each edge and
 * divergent blocks flagged.  Output is GraphViz DOT on stdout.
 *
 * Usage: divergence_cfg [--scale S]
 */

#include <cstdio>
#include <cstring>
#include <map>

#include "common/logging.h"
#include "instrument/cfg.h"
#include "workloads/workload.h"

int
main(int argc, char **argv)
{
    using namespace bifsim;

    double scale = 0.005;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc)
            scale = std::atof(argv[++i]);
    }
    setInformEnabled(false);

    auto wl = workloads::makeWorkload("bfs", scale);
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
    std::fputs(instrument::toDot(cfg).c_str(), stdout);

    std::fprintf(stderr,
                 "bfs: %llu clause executions, %llu divergent warp "
                 "branches, %zu CFG edges\n",
                 static_cast<unsigned long long>(ks.clausesExecuted),
                 static_cast<unsigned long long>(ks.divergentBranches),
                 ks.cfgEdges.size());
    return 0;
}

/**
 * @file
 * Ablation of the two decode caches DESIGN.md calls out:
 *
 *  - the GPU shader decode cache (paper §III-B3: "the entire shader
 *    program is decoded exactly once") — measured by re-running a
 *    kernel with and without flushing the cache between jobs;
 *  - the CPU basic-block decode cache (the DBT analog) — measured on a
 *    guest busy loop.
 *
 * Prints the mean wall time per iteration with each cache off and on.
 * `--scale S` scales the iteration counts (default 1).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/logging.h"
#include "cpu/asm/assembler.h"
#include "gpu/gpu.h"
#include "runtime/session.h"

namespace {

using namespace bifsim;

const char *kKernel = R"(
kernel void saxpy(global const float* x, global float* y, int n,
                  float a) {
    int i = get_global_id(0);
    if (i < n) {
        y[i] = a * x[i] + y[i];
    }
}
)";

/** Runs saxpy @p iters times, flushing the shader decode cache before
 *  each job unless @p cached.  Returns ms per job, or -1 on a fault. */
double
gpuShaderDecodeCache(bool cached, int iters, gpu::ShaderCacheStats &cs)
{
    rt::Session session;
    constexpr int kN = 4096;
    rt::Buffer x = session.alloc(kN * 4);
    rt::Buffer y = session.alloc(kN * 4);
    rt::KernelHandle k = session.compile(kKernel, "saxpy");
    bench::Timer t;
    for (int i = 0; i < iters; ++i) {
        if (!cached) {
            session.system().bus().write(
                rt::System::kGpuBase + gpu::kRegGpuCmd, 4, 1);
        }
        gpu::JobResult r = session.enqueue(
            k, rt::NDRange{kN, 1, 1}, rt::NDRange{64, 1, 1},
            {rt::Arg::buf(x), rt::Arg::buf(y), rt::Arg::i32(kN),
             rt::Arg::f32(2.0f)});
        if (r.faulted)
            return -1;
    }
    double ms = t.seconds() * 1e3 / iters;
    cs = session.system().gpu().shaderCacheStats();
    return ms;
}

/** Runs a guest busy loop (~20 instructions per iteration) to halt
 *  @p iters times on fresh sessions.  Returns ms per run, session
 *  construction excluded, or -1 if the guest does not halt. */
double
cpuBlockCache(bool cached, int iters)
{
    const char *src = R"(
        .org 0x80000000
        li   t0, 0
        li   t1, 100000
loop:
        addi t0, t0, 1
        addi t2, t0, 3
        xor  t3, t2, t0
        and  t4, t3, t2
        or   t5, t4, t0
        slli t6, t5, 2
        srli t6, t6, 1
        add  t2, t2, t3
        sub  t3, t3, t4
        bne  t0, t1, loop
        halt
)";
    sa32::Program prog = sa32::assemble(src);

    rt::SystemConfig cfg;
    cfg.cpuBlockCache = cached;
    double secs = 0;
    for (int i = 0; i < iters; ++i) {
        rt::Session session(cfg, rt::Mode::Direct);
        prog.loadInto(session.system().mem());
        session.system().cpu().reset();
        bench::Timer t;
        bool halted = session.system().runUntilHalt(5'000'000);
        secs += t.seconds();
        if (!halted)
            return -1;
    }
    return secs * 1e3 / iters;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::Options::parse(argc, argv, 1.0);
    setInformEnabled(false);
    bench::banner("Ablation: decode caches",
                  "Mean wall time per iteration with each decode cache "
                  "off and on.");
    int gpu_iters = std::max(1, static_cast<int>(200 * opt.scale));
    int cpu_iters = std::max(1, static_cast<int>(10 * opt.scale));

    std::printf("%-26s %6s %10s %10s %10s\n", "case", "cached",
                "ms/iter", "decodes", "hits");
    for (bool cached : {false, true}) {
        gpu::ShaderCacheStats cs;
        double ms = gpuShaderDecodeCache(cached, gpu_iters, cs);
        if (ms < 0) {
            std::fprintf(stderr, "GPU fault\n");
            return 1;
        }
        std::printf("%-26s %6d %10.3f %10llu %10llu\n",
                    "gpu_shader_decode_cache", cached ? 1 : 0, ms,
                    static_cast<unsigned long long>(cs.decodes),
                    static_cast<unsigned long long>(cs.hits));
    }
    for (bool cached : {false, true}) {
        double ms = cpuBlockCache(cached, cpu_iters);
        if (ms < 0) {
            std::fprintf(stderr, "guest did not halt\n");
            return 1;
        }
        std::printf("%-26s %6d %10.3f\n", "cpu_block_cache",
                    cached ? 1 : 0, ms);
    }
    return 0;
}

/**
 * @file
 * simsweep — the configuration-sweep and baseline-diff harness
 * (docs/METRICS.md §4, EXPERIMENTS.md).
 *
 * Three stages, each skippable:
 *
 *  1. Bench regen (unless --skip-bench): runs every figure bench from
 *     --bench-dir at its default scale so each rewrites its
 *     BENCH_*.json into the current directory through the shared
 *     bench::Report emitter.
 *  2. Configuration sweep: in-process matrix of two GPU workloads
 *     (compute-bound mad_loop, memory-bound triad) across
 *     {trace off/on} x {verifier off/unsafe/strict} x
 *     {1/2 host threads}, plus a CPU interpreter-vs-DBT A/B on a
 *     bare-metal guest.  Wall time is recorded per cell; the gated
 *     output is *instruction-count invariance* — every configuration
 *     of a workload must execute exactly the same simulated
 *     instructions (agree == 1.0), the simulator's core determinism
 *     promise.  Writes BENCH_sweep.json.
 *  3. Baseline diff (when --baseline-dir is given): every BENCH_*.json
 *     in the baseline directory is diffed against the same-named file
 *     in the current directory under the per-metric tolerance policy
 *     of src/metrics/sweep.h.  Any regression (including a missing
 *     candidate file or metric) makes simsweep exit non-zero.
 *
 * --quick shrinks the sweep problem sizes, not the matrix: the set of
 * flattened keys is identical either way, so quick candidates diff
 * cleanly against quick baselines.  Regenerate baselines with the
 * same --quick/full choice you diff with.
 *
 * Typical CI invocation, from the build directory:
 *
 *   ./examples/simsweep --quick --bench-dir bench --baseline-dir ..
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "../bench/bench_util.h"
#include "common/logging.h"
#include "cpu/asm/assembler.h"
#include "cpu/core.h"
#include "mem/bus.h"
#include "mem/phys_mem.h"
#include "metrics/sweep.h"
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

/** Compute-heavy bare-metal guest for the CPU tier A/B: checksum loop
 *  with a call per iteration, runs to halt (fully deterministic). */
const char *kCpuProgram = R"(
        .org 0x80000000
        li   s0, 0
        li   s1, 0
        li   s2, %ITERS%
loop:
        jal  ra, body
        addi s1, s1, 1
        bltu s1, s2, loop
        halt
body:
        xor  t0, s0, s1
        slli t1, s1, 3
        add  s0, s0, t0
        mul  t2, t0, t1
        add  s0, s0, t2
        ret
)";

struct SweepCell
{
    const char *cfg;      ///< Configuration label (stable key).
    double secs = 0;
    uint64_t instrs = 0;
};

struct CellSpec
{
    const char *cfg;
    bool trace;
    analysis::Strictness verify;
    unsigned hostThreads;
};

/** The fixed configuration matrix — the same labels in quick and full
 *  runs, so baseline keys never shift. */
const CellSpec kCells[] = {
    {"base", false, analysis::Strictness::kUnsafe, 1},
    {"traced", true, analysis::Strictness::kUnsafe, 1},
    {"verify_off", false, analysis::Strictness::kOff, 1},
    {"verify_strict", false, analysis::Strictness::kStrict, 1},
    {"threads2", false, analysis::Strictness::kUnsafe, 2},
};

SweepCell
runGpuCell(const CellSpec &spec, const char *kernel_name,
           const char *source, int n, int iters, int launches)
{
    rt::SystemConfig cfg;
    cfg.gpu.trace = spec.trace;
    cfg.gpu.verify = spec.verify;
    cfg.gpu.hostThreads = spec.hostThreads;
    rt::Session s(cfg);

    rt::KernelHandle k = s.compile(source, kernel_name);
    size_t bytes = static_cast<size_t>(n) * 4;
    rt::Buffer a = s.alloc(bytes);
    rt::Buffer b = s.alloc(bytes);
    rt::Buffer c = s.alloc(bytes);
    std::vector<float> init(n);
    for (int i = 0; i < n; ++i)
        init[i] = 0.25f * static_cast<float>(i % 97);
    s.write(a, init.data(), bytes);
    s.write(b, init.data(), bytes);

    std::vector<rt::Arg> args;
    if (std::strcmp(kernel_name, "mad_loop") == 0)
        args = {rt::Arg::buf(c), rt::Arg::i32(iters), rt::Arg::i32(n)};
    else
        args = {rt::Arg::buf(a), rt::Arg::buf(b), rt::Arg::buf(c),
                rt::Arg::f32(1.5f), rt::Arg::i32(n)};
    rt::NDRange global{static_cast<uint32_t>(n), 1, 1};
    rt::NDRange local{64, 1, 1};

    SweepCell cell;
    cell.cfg = spec.cfg;
    gpu::KernelStats total;
    bench::Timer t;
    for (int it = 0; it < launches; ++it) {
        gpu::JobResult r = s.enqueue(k, global, local, args);
        if (r.faulted) {
            std::fprintf(stderr, "sweep %s/%s: job faulted: %s\n",
                         kernel_name, spec.cfg, r.fault.detail.c_str());
            std::exit(1);
        }
        total.merge(r.kernel);
    }
    cell.secs = t.seconds();
    cell.instrs = total.totalInstrs();
    return cell;
}

SweepCell
runCpuCell(const sa32::Program &prog, bool dbt)
{
    constexpr Addr kBase = 0x80000000;
    PhysMem mem(kBase, 4u << 20);
    Bus bus;
    bus.attachMemory(&mem);
    sa32::CoreConfig cfg;
    cfg.dbt = dbt;
    sa32::Core core(bus, cfg);
    prog.loadInto(mem);
    core.reset();
    SweepCell cell;
    cell.cfg = dbt ? "dbt" : "interp";
    bench::Timer t;
    sa32::StopReason r;
    do {
        r = core.run(1u << 20);
    } while (r == sa32::StopReason::MaxInsts);
    cell.secs = t.seconds();
    cell.instrs = core.stats().instret;
    return cell;
}

/** min/max agreement ratio: 1.0 iff every cell executed the same
 *  simulated instruction count. */
double
agreeRatio(const std::vector<SweepCell> &cells)
{
    uint64_t lo = UINT64_MAX, hi = 0;
    for (const SweepCell &c : cells) {
        lo = std::min(lo, c.instrs);
        hi = std::max(hi, c.instrs);
    }
    return hi > 0 ? static_cast<double>(lo) / static_cast<double>(hi)
                  : 0.0;
}

json::Value
cellsToJson(const std::vector<SweepCell> &cells)
{
    json::Value arr = json::Value::array();
    for (const SweepCell &c : cells) {
        json::Value v = json::Value::object();
        v.set("name", json::Value(c.cfg));
        v.set("secs", json::Value(c.secs));
        v.set("instrs", json::Value(c.instrs));
        arr.push(std::move(v));
    }
    return arr;
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options]\n"
        "  --quick            shrink sweep problem sizes (CI size);\n"
        "                     the key set is unchanged\n"
        "  --skip-bench       skip stage 1 (figure-bench regen)\n"
        "  --skip-sweep       skip stage 2 (the in-process matrix)\n"
        "  --bench-dir DIR    figure-bench executables (default: bench)\n"
        "  --baseline-dir DIR diff ./BENCH_*.json against the baselines\n"
        "                     in DIR; exit 1 on any regression\n"
        "  --verbose          print every diff row, not just failures\n",
        argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = false, skip_bench = false, skip_sweep = false;
    bool verbose = false;
    std::string bench_dir = "bench";
    std::string baseline_dir;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0)
            quick = true;
        else if (std::strcmp(argv[i], "--skip-bench") == 0)
            skip_bench = true;
        else if (std::strcmp(argv[i], "--skip-sweep") == 0)
            skip_sweep = true;
        else if (std::strcmp(argv[i], "--verbose") == 0)
            verbose = true;
        else if (std::strcmp(argv[i], "--bench-dir") == 0 &&
                 i + 1 < argc)
            bench_dir = argv[++i];
        else if (std::strcmp(argv[i], "--baseline-dir") == 0 &&
                 i + 1 < argc)
            baseline_dir = argv[++i];
        else
            return usage(argv[0]);
    }
    setInformEnabled(false);

    int exit_code = 0;

    // ---- Stage 1: regenerate the figure benches' BENCH_*.json ----
    if (!skip_bench) {
        // Default scales only: the committed baselines were produced
        // at defaults, and the differ's identity rule rejects a scale
        // mismatch anyway.
        const char *benches[] = {
            "bench_interp_hotpath", "bench_snapshot",  "bench_cpu_dbt",
            "fig10_thread_scaling", "bench_replay",    "bench_fleet",
            "bench_trace_overhead", "bench_metrics_overhead",
        };
        for (const char *b : benches) {
            std::string cmd = bench_dir + "/" + b + " >/dev/null";
            std::printf("simsweep: regen %s\n", b);
            int rc = std::system(cmd.c_str());
            if (rc != 0) {
                // The bench still wrote its file; keep going so the
                // diff stage can show *what* moved, then fail at exit.
                std::fprintf(stderr,
                             "simsweep: %s exited %d (its own gate "
                             "failed?)\n",
                             b, rc);
                exit_code = 1;
            }
        }
    }

    // ---- Stage 2: the in-process configuration sweep ----
    if (!skip_sweep) {
        const int n = quick ? 1024 : 8192;
        const int iters = quick ? 50 : 200;
        const int launches = quick ? 2 : 4;
        const unsigned cpu_iters = quick ? 20000 : 200000;

        bench::Report report("sweep", quick ? 0.25 : 1.0);
        json::Value &m = report.metrics();
        m.set("n", json::Value(n));
        m.set("iters", json::Value(iters));
        m.set("launches", json::Value(launches));
        m.set("cpu_iters", json::Value(static_cast<uint64_t>(cpu_iters)));

        double min_agree = 1.0;
        struct Wl
        {
            const char *name;
            const char *source;
        };
        const Wl workloads[] = {{"mad_loop", kMadLoop},
                                {"triad", kTriad}};
        json::Value gpu = json::Value::array();
        for (const Wl &wl : workloads) {
            std::vector<SweepCell> cells;
            for (const CellSpec &spec : kCells)
                cells.push_back(runGpuCell(spec, wl.name, wl.source, n,
                                           iters, launches));
            double agree = agreeRatio(cells);
            min_agree = std::min(min_agree, agree);
            std::printf("simsweep: %-10s %zu configs, instr agree "
                        "%.6f\n",
                        wl.name, cells.size(), agree);
            json::Value w = json::Value::object();
            w.set("name", json::Value(wl.name));
            w.set("configs", cellsToJson(cells));
            w.set("instr_agree", json::Value(agree));
            gpu.push(std::move(w));
        }
        m.set("gpu", std::move(gpu));

        std::string src = kCpuProgram;
        size_t at = src.find("%ITERS%");
        src.replace(at, 7, std::to_string(cpu_iters));
        sa32::Program prog = sa32::assemble(src);
        std::vector<SweepCell> tiers = {runCpuCell(prog, false),
                                        runCpuCell(prog, true)};
        double cpu_agree = agreeRatio(tiers);
        min_agree = std::min(min_agree, cpu_agree);
        std::printf("simsweep: cpu        2 tiers,   instret agree "
                    "%.6f\n",
                    cpu_agree);
        json::Value cpu = json::Value::object();
        cpu.set("configs", cellsToJson(tiers));
        cpu.set("instret_agree", json::Value(cpu_agree));
        m.set("cpu", std::move(cpu));

        report.gate("min_agree", 1.0, min_agree, true);
        report.write();
        if (min_agree < 1.0) {
            std::fprintf(stderr,
                         "simsweep: FAIL: instruction counts diverge "
                         "across configurations (min agree %.6f)\n",
                         min_agree);
            exit_code = 1;
        }
    }

    // ---- Stage 3: diff against the committed baselines ----
    if (!baseline_dir.empty()) {
        namespace fs = std::filesystem;
        size_t files = 0, failed = 0;
        std::vector<std::string> names;
        for (const fs::directory_entry &e :
             fs::directory_iterator(baseline_dir)) {
            std::string name = e.path().filename().string();
            if (name.rfind("BENCH_", 0) == 0 &&
                name.size() > 5 &&
                name.compare(name.size() - 5, 5, ".json") == 0)
                names.push_back(name);
        }
        std::sort(names.begin(), names.end());
        for (const std::string &name : names) {
            ++files;
            json::Value base, cand;
            try {
                base = json::Value::parseFile(baseline_dir + "/" + name);
            } catch (const SimError &e) {
                std::fprintf(stderr, "simsweep: baseline %s: %s\n",
                             name.c_str(), e.what());
                ++failed;
                continue;
            }
            try {
                cand = json::Value::parseFile(name);
            } catch (const SimError &e) {
                std::fprintf(stderr,
                             "simsweep: REGRESSION %s: candidate "
                             "missing or unreadable (%s)\n",
                             name.c_str(), e.what());
                ++failed;
                continue;
            }
            metrics::sweep::DiffResult d = metrics::sweep::diff(base,
                                                                cand);
            std::fputs(d.render(name, verbose).c_str(), stdout);
            if (d.regressions > 0)
                ++failed;
        }
        if (files == 0) {
            std::fprintf(stderr,
                         "simsweep: no BENCH_*.json baselines in %s\n",
                         baseline_dir.c_str());
            return 1;
        }
        std::printf("simsweep: %zu baseline%s diffed, %zu failed\n",
                    files, files == 1 ? "" : "s", failed);
        if (failed > 0)
            exit_code = 1;
    }
    return exit_code;
}

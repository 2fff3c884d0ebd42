/**
 * @file
 * Record/replay benchmark (DESIGN.md §5h): re-running a recorded GPU
 * workload from its BRPL log versus re-running the full system that
 * produced it.  Each chain of the workload has the *guest CPU* prepare
 * the input buffer (a simulated store loop, ~¼M instructions) before
 * the driver submits the job — the CPU-side work a boundary log
 * captures as a handful of RAM delta pages.  Replay applies those
 * pages with memcpy and drives the GPU directly, so it skips the
 * simulated CPU entirely; the gate enforces the >=5x
 * replay-vs-full-system speedup target.  The same run recorded is
 * timed too (`record_secs`) and must stay within 2x of the unrecorded
 * run: the recorder re-CRCs only the pages written per chain.
 * Validated replay (re-record + fingerprint diff) is reported
 * alongside.
 *
 * Writes BENCH_replay.json.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "cpu/asm/assembler.h"
#include "replay/replay.h"
#include "runtime/session.h"

using namespace bifsim;

namespace {

const char *kKernel = R"(
kernel void scale(global const int* in, global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = in[i] * 3 + 1;
    }
}
)";

/** Guest-side input generation: fills `count` words at `buf` with a
 *  seeded arithmetic pattern, then halts.  Runs in machine mode with
 *  paging off, so label addresses are physical. */
const char *kFillProgram = R"(
        .org 0x81800000
        j    start
params:
        .word 0             # buffer PA
        .word 0             # word count
        .word 0             # seed
start:
        la   s0, params
        lw   t0, 0(s0)
        lw   t1, 4(s0)
        lw   t2, 8(s0)
loop:
        sw   t2, 0(t0)
        addi t0, t0, 4
        addi t2, t2, 7
        addi t1, t1, -1
        bnez t1, loop
        halt
)";

constexpr Addr kFillPa = 0x81800000;       // kRamBase + 24 MiB.
constexpr Addr kParamsPa = kFillPa + 4;
constexpr uint32_t kWords = 131072;        // 512 KiB per chain.
constexpr uint32_t kGrid = 1024;           // GPU threads per chain.

rt::SystemConfig
makeConfig()
{
    rt::SystemConfig cfg;
    cfg.ramBytes = 32u << 20;
    cfg.gpu.hostThreads = 2;
    cfg.gpu.syncSubmit = true;   // Same submission mode as recording.
    return cfg;
}

/** Boot-to-done full-system run: construct the machine, JIT the
 *  kernel, then per chain have the guest generate the inputs and the
 *  guest driver submit the job.  Returns the recording if @p record. */
std::vector<uint8_t>
fullSystemRun(int chains, bool record)
{
    rt::Session s(makeConfig(), rt::Mode::FullSystem);
    rt::System &sys = s.system();
    rt::KernelHandle k = s.compile(kKernel, "scale");
    rt::Buffer in = s.alloc(kWords * 4);
    rt::Buffer out = s.alloc(kGrid * 4);

    sa32::Program fill = sa32::assemble(kFillProgram);
    sys.mem().writeBlock(kFillPa, fill.bytes.data(), fill.bytes.size());

    auto enqueue = [&] {
        gpu::JobResult r = s.enqueue(
            k, rt::NDRange{kGrid, 1, 1}, rt::NDRange{64, 1, 1},
            {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::i32(kGrid)});
        if (r.faulted) {
            std::fprintf(stderr, "job faulted: %s\n",
                         r.fault.detail.c_str());
            std::exit(1);
        }
    };

    // Prime once so the guest OS is booted and the mappings installed
    // before the measured (or recorded) chains begin.
    enqueue();
    if (record)
        s.startRecording();
    for (int c = 0; c < chains; ++c) {
        // Guest-side input generation (the expensive CPU work).
        sys.mem().write<uint32_t>(kParamsPa + 0,
                                  static_cast<uint32_t>(in.pa));
        sys.mem().write<uint32_t>(kParamsPa + 4, kWords);
        sys.mem().write<uint32_t>(kParamsPa + 8,
                                  static_cast<uint32_t>(c * 13 + 1));
        sys.cpu().setPc(kFillPa);
        sys.runCpu(static_cast<uint64_t>(kWords) * 6 + 1000);
        // Re-enter the OS command loop for the submission.
        sys.cpu().setPc(rt::System::kRamBase);
        sys.runCpu(10000);
        enqueue();
    }
    return record ? s.stopRecording() : std::vector<uint8_t>();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opt = bench::Options::parse(argc, argv, 1.0);
    bench::banner("replay",
                  "BRPL boundary replay vs full-system re-execution");

    const int chains = opt.full ? 16 : 8;
    const int reps = 3;   // Best-of-N: the regions are milliseconds.

    // Warm-up, then the timed full-system runs.
    fullSystemRun(1, false);
    bench::Timer t;
    double full_s = 1e30;
    for (int i = 0; i < reps; ++i) {
        t.reset();
        fullSystemRun(chains, false);
        full_s = std::min(full_s, t.seconds());
    }

    // Timed: the same workload, recorded, start to sealed log.
    std::vector<uint8_t> bytes;
    double record_s = 1e30;
    for (int i = 0; i < reps; ++i) {
        t.reset();
        bytes = fullSystemRun(chains, true);
        record_s = std::min(record_s, t.seconds());
    }
    size_t log_bytes = bytes.size();

    t.reset();
    replay::Log log = replay::Log::fromBytes(std::move(bytes));
    double load_s = t.seconds();

    // Timed: fast replay (inputs only, no validation scans).
    replay::ReplayOptions fast;
    fast.validate = false;
    fast.hostThreads = 2;
    replay::ReplayResult rf;
    double replay_s = 1e30;
    for (int i = 0; i < reps; ++i) {
        t.reset();
        rf = replay::replay(log, fast);
        replay_s = std::min(replay_s, t.seconds());
    }

    // Timed: validated replay (re-record + fingerprint diff).
    replay::ReplayOptions val;
    val.hostThreads = 2;
    t.reset();
    replay::ReplayResult rv = replay::replay(log, val);
    double replay_val_s = t.seconds();
    if (!rv.ok) {
        std::fprintf(stderr, "validated replay DIVERGED: %s\n",
                     rv.divergence.c_str());
        return 1;
    }
    if (rf.chains != static_cast<size_t>(chains) ||
        rv.chains != static_cast<size_t>(chains)) {
        std::fprintf(stderr, "chain count mismatch\n");
        return 1;
    }

    double speedup = replay_s > 0 ? full_s / replay_s : 0;

    std::printf("%-36s %10d\n", "chains:", chains);
    std::printf("%-36s %10u words guest-filled per chain\n",
                "input size:", kWords);
    std::printf("%-36s %10.2f ms\n", "full-system run (boot+fill+drive):",
                full_s * 1e3);
    std::printf("%-36s %10.2f ms (limit %.2f ms)\n",
                "recorded run:", record_s * 1e3, 2 * full_s * 1e3);
    std::printf("%-36s %10.2f ms\n", "log parse+validate:", load_s * 1e3);
    std::printf("%-36s %10.2f ms\n", "replay (inputs only):",
                replay_s * 1e3);
    std::printf("%-36s %10.2f ms\n", "replay (validated):",
                replay_val_s * 1e3);
    std::printf("%-36s %10.1f KiB\n", "log size:", log_bytes / 1024.0);
    std::printf("%-36s %10.1fx (target >= 5x)\n", "replay speedup:",
                speedup);

    bench::Report report("replay", opt.scale);
    json::Value &m = report.metrics();
    m.set("chains", json::Value(chains));
    m.set("guest_words_per_chain",
          json::Value(static_cast<uint64_t>(kWords)));
    m.set("full_system_secs", json::Value(full_s));
    m.set("record_secs", json::Value(record_s));
    m.set("log_load_secs", json::Value(load_s));
    m.set("replay_secs", json::Value(replay_s));
    m.set("replay_validated_secs", json::Value(replay_val_s));
    m.set("log_bytes", json::Value(static_cast<uint64_t>(log_bytes)));
    m.set("ram_bytes", json::Value(static_cast<uint64_t>(32u << 20)));
    m.set("replay_speedup", json::Value(speedup));
    report.gate("replay_speedup", 5.0, speedup, true);
    report.write();

    if (speedup < 5.0) {
        std::fprintf(stderr,
                     "FAIL: replay speedup below 5x target\n");
        return 1;
    }
    if (record_s > 2 * full_s) {
        std::fprintf(stderr,
                     "FAIL: recording costs more than 2x the unrecorded "
                     "run\n");
        return 1;
    }
    return 0;
}

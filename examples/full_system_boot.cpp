/**
 * @file
 * Full-system demonstration: boots the mini guest OS on the simulated
 * SA32 CPU, runs a *user-mode* guest program behind the CPU MMU that
 * prints through a syscall, then drives a GPU job through the guest
 * kernel driver (page-table setup, Job Manager MMIO, WFI and the
 * completion interrupt all executed by simulated guest code).
 *
 * Snapshot support (DESIGN.md §5e):
 *   --save-snapshot=<file>  capture a warm-boot image at the post-boot
 *                           quiescent point, before the GPU job
 *   --restore=<file>        skip boot entirely: restore the image and
 *                           go straight to the GPU job
 *
 * Record/replay support (DESIGN.md §5h):
 *   --record=<file>         record the CPU<->GPU boundary of the GPU
 *                           job into a BRPL log (composes with
 *                           --restore and --save-snapshot)
 *   --replay=<file>         replay a BRPL log into a standalone GPU —
 *                           no boot, no guest OS, no CPU — and verify
 *                           it reproduces the recorded fingerprints
 *
 * Live metrics HUD (DESIGN.md §5k, docs/METRICS.md):
 *   --hud[=<seconds>]       after boot, drive GPU jobs continuously
 *                           for <seconds> (default 5) while rendering
 *                           refresh-in-place rates (MIPS, jobs/s,
 *                           TLB hit %, steal ratio) from the
 *                           always-on metrics registry
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#ifdef __unix__
#include <unistd.h>
#endif

#include "common/logging.h"
#include "cpu/asm/assembler.h"
#include "cpu/mmu.h"
#include "metrics/hud.h"
#include "metrics/metrics.h"
#include "replay/replay.h"
#include "runtime/session.h"

namespace {

/** A user-mode program: prints a message via the putchar syscall,
 *  then exits via the exit syscall. */
const char *kUserProgram = R"(
        .org 0x00400000
start:
        la   s0, message
loop:
        lbu  a0, 0(s0)
        beqz a0, done
        li   a7, 1          # syscall: putchar(a0)
        ecall
        addi s0, s0, 1
        j    loop
done:
        li   a7, 2          # syscall: exit
        ecall
message:
        .asciz "hello from user mode!\n"
)";

const char *kKernel = R"(
kernel void scale(global const float* in, global float* out, int n,
                  float k) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = in[i] * k;
    }
}
)";

/** Part 2: a GPU job through the guest driver. */
int
runGpuJob(bifsim::rt::Session &session)
{
    using namespace bifsim;

    constexpr int kN = 1024;
    std::vector<float> in(kN), out(kN);
    for (int i = 0; i < kN; ++i)
        in[i] = static_cast<float>(i);

    rt::Buffer din = session.alloc(kN * 4);
    rt::Buffer dout = session.alloc(kN * 4);
    session.write(din, in.data(), kN * 4);
    rt::KernelHandle k = session.compile(kKernel, "scale");
    gpu::JobResult r =
        session.enqueue(k, rt::NDRange{kN, 1, 1}, rt::NDRange{64, 1, 1},
                        {rt::Arg::buf(din), rt::Arg::buf(dout),
                         rt::Arg::i32(kN), rt::Arg::f32(3.0f)});
    if (r.faulted) {
        std::fprintf(stderr, "GPU fault: %s\n", r.fault.detail.c_str());
        return 1;
    }
    session.read(dout, out.data(), kN * 4);
    int errors = 0;
    for (int i = 0; i < kN; ++i) {
        if (out[i] != in[i] * 3.0f)
            errors++;
    }

    rt::System &sys = session.system();
    gpu::SystemStats gs = sys.gpu().systemStats();
    std::printf("GPU job through guest driver: %s\n",
                errors == 0 ? "PASS" : "FAIL");
    std::printf("driver instructions executed: %llu\n",
                static_cast<unsigned long long>(
                    session.driverInstructions()));
    std::printf("GPU pages mapped by driver:   %llu\n",
                static_cast<unsigned long long>(session.mappedPages()));
    std::printf("ctrl regs: %llu reads / %llu writes, interrupts: "
                "%llu, jobs: %llu\n",
                static_cast<unsigned long long>(gs.ctrlRegReads),
                static_cast<unsigned long long>(gs.ctrlRegWrites),
                static_cast<unsigned long long>(gs.irqsAsserted),
                static_cast<unsigned long long>(gs.computeJobs));
    return errors == 0 ? 0 : 1;
}

/**
 * --hud: drive the scale kernel through the guest driver in a loop
 * for @p seconds, sampling the metrics registry ~20x/s and rewriting
 * the HUD block in place (plain periodic lines when stdout is not a
 * terminal).  Returns nonzero if any job faults or misverifies.
 */
int
runHudLoop(bifsim::rt::Session &session, double seconds)
{
    using namespace bifsim;
    namespace chrono = std::chrono;

    constexpr int kN = 1024;
    std::vector<float> in(kN), out(kN);
    for (int i = 0; i < kN; ++i)
        in[i] = static_cast<float>(i);
    rt::Buffer din = session.alloc(kN * 4);
    rt::Buffer dout = session.alloc(kN * 4);
    session.write(din, in.data(), kN * 4);
    rt::KernelHandle k = session.compile(kKernel, "scale");

    bool tty = false;
#ifdef __unix__
    tty = isatty(fileno(stdout)) != 0;
#endif
    metrics::Registry &reg = metrics::registry();

    auto t0 = chrono::steady_clock::now();
    auto next_render = t0;
    int rendered_lines = 0;
    uint64_t jobs = 0;
    while (chrono::duration<double>(chrono::steady_clock::now() - t0)
               .count() < seconds) {
        gpu::JobResult r = session.enqueue(
            k, rt::NDRange{kN, 1, 1}, rt::NDRange{64, 1, 1},
            {rt::Arg::buf(din), rt::Arg::buf(dout), rt::Arg::i32(kN),
             rt::Arg::f32(3.0f)});
        if (r.faulted) {
            std::fprintf(stderr, "GPU fault: %s\n",
                         r.fault.detail.c_str());
            return 1;
        }
        ++jobs;
        // Sample every job (cheap: one totals() sum); render at most
        // ~10x/s so the terminal isn't the bottleneck.
        reg.sample();
        auto now = chrono::steady_clock::now();
        if (now >= next_render) {
            next_render = now + chrono::milliseconds(tty ? 100 : 1000);
            std::string frame = renderHud(reg);
            if (tty && rendered_lines > 0)
                std::printf("\x1b[%dA", rendered_lines);
            fputs(frame.c_str(), stdout);
            std::fflush(stdout);
            rendered_lines = 0;
            for (char c : frame)
                rendered_lines += c == '\n';
        }
    }

    session.read(dout, out.data(), kN * 4);
    int errors = 0;
    for (int i = 0; i < kN; ++i) {
        if (out[i] != in[i] * 3.0f)
            errors++;
    }
    std::printf("hud run: %llu jobs in %.1fs, verify %s\n",
                static_cast<unsigned long long>(jobs), seconds,
                errors == 0 ? "PASS" : "FAIL");
    return errors == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bifsim;

    std::string save_path, restore_path, record_path, replay_path;
    double hud_seconds = 0;
    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--save-snapshot=", 16) == 0) {
            save_path = a + 16;
        } else if (std::strncmp(a, "--restore=", 10) == 0) {
            restore_path = a + 10;
            if (restore_path.empty()) {
                std::fprintf(stderr, "--restore needs a file path\n");
                return 2;
            }
        } else if (std::strncmp(a, "--record=", 9) == 0) {
            record_path = a + 9;
        } else if (std::strncmp(a, "--replay=", 9) == 0) {
            replay_path = a + 9;
        } else if (std::strcmp(a, "--hud") == 0) {
            hud_seconds = 5;
        } else if (std::strncmp(a, "--hud=", 6) == 0) {
            hud_seconds = std::atof(a + 6);
            if (hud_seconds <= 0) {
                std::fprintf(stderr,
                             "--hud needs a positive duration\n");
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--save-snapshot=<file>] "
                         "[--restore=<file>] [--record=<file>] "
                         "[--replay=<file>] [--hud[=<seconds>]]\n",
                         argv[0]);
            return 2;
        }
    }

    // ---- Replay: drive the GPU from a log, no system at all ----
    if (!replay_path.empty()) {
        try {
            replay::Log log = replay::Log::load(replay_path);
            replay::ReplayResult r = replay::replay(log);
            std::printf("replayed %llu events / %llu chains from %s\n",
                        static_cast<unsigned long long>(log.eventCount()),
                        static_cast<unsigned long long>(r.chains),
                        replay_path.c_str());
            if (!r.ok) {
                std::fprintf(stderr, "DIVERGED at event %llu: %s\n",
                             static_cast<unsigned long long>(
                                 r.divergenceEvent),
                             r.divergence.c_str());
                return 1;
            }
            std::printf("replay verified: fingerprints match\n");
            return 0;
        } catch (const SimError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }

    rt::SystemConfig cfg;
    if (!record_path.empty())
        cfg.gpu.syncSubmit = true;   // The recording contract.

    auto runAndMaybeRecord = [&](rt::Session &s) {
        if (!record_path.empty())
            s.startRecording();
        int rc = hud_seconds > 0 ? runHudLoop(s, hud_seconds)
                                 : runGpuJob(s);
        if (!record_path.empty()) {
            s.stopRecordingToFile(record_path);
            std::printf("recorded CPU<->GPU boundary to %s\n",
                        record_path.c_str());
        }
        return rc;
    };

    // ---- Warm boot: restore the machine instead of booting it ----
    if (!restore_path.empty()) {
        // Catch SimError, not just SnapshotError: a missing file, a
        // corrupt image and a config mismatch must all exit 1 with a
        // located message, never abort (the WILL_FAIL regression test
        // in tests/CMakeLists.txt pins this).
        try {
            auto session = rt::Session::fromSnapshot(restore_path, cfg);
            std::printf("restored warm-boot image %s\n",
                        restore_path.c_str());
            std::printf("guest console output: %s",
                        session->system().uart().output().c_str());
            return runAndMaybeRecord(*session);
        } catch (const SimError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }

    rt::Session session(cfg, rt::Mode::FullSystem);
    rt::System &sys = session.system();

    // ---- Part 1: user-mode execution behind the CPU MMU ----
    sa32::Program user = sa32::assemble(kUserProgram);
    // Place the user image in guest physical memory and build a page
    // table mapping VA 0x00400000 -> that physical page (U+R+W+X).
    Addr user_pa = rt::System::kRamBase + 0x00200000;
    user.bytes.resize(8192, 0);
    sys.mem().writeBlock(user_pa, user.bytes.data(), user.bytes.size());

    Addr root_pa = rt::System::kRamBase + 0x00300000;
    Addr l0_pa = root_pa + 4096;
    sys.mem().fill(root_pa, 0, 8192);
    uint32_t va = 0x00400000;
    uint32_t vpn1 = va >> 22, vpn0 = (va >> 12) & 0x3ff;
    sys.mem().write<uint32_t>(root_pa + vpn1 * 4,
                              static_cast<uint32_t>((l0_pa >> 12) << 10) |
                                  sa32::kPteValid);
    for (unsigned page = 0; page < 2; ++page) {
        uint32_t pte =
            static_cast<uint32_t>(((user_pa >> 12) + page) << 10) |
            sa32::kPteValid | sa32::kPteRead | sa32::kPteWrite |
            sa32::kPteExec | sa32::kPteUser;
        sys.mem().write<uint32_t>(l0_pa + (vpn0 + page) * 4, pte);
    }
    uint32_t satp = 0x80000000u |
                    static_cast<uint32_t>(root_pa >> 12);

    bool exited = session.runUserProgram(va, satp);
    std::printf("user program exited cleanly: %s\n",
                exited ? "yes" : "no");
    std::printf("guest console output: %s",
                sys.uart().output().c_str());
    if (!exited)
        return 1;

    // The user program ends in HALT; bring the OS back to its command
    // loop for the GPU submission below.
    session.system().cpu().setPc(rt::System::kRamBase);
    session.system().runCpu(10000);

    // ---- Post-boot quiescent point: capture the warm-boot image ----
    if (!save_path.empty()) {
        session.saveSnapshot(save_path);
        std::printf("saved warm-boot image to %s\n", save_path.c_str());
    }

    // ---- Part 2: a GPU job through the guest driver ----
    return runAndMaybeRecord(session);
}

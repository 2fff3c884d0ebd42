/**
 * @file
 * BRPL corpus tool (DESIGN.md §5h): generates, verifies and inspects
 * CPU<->GPU boundary recordings.
 *
 *   replaycap record <dir>    regenerate the deterministic scenario
 *                             corpus into <dir>/NAME.brpl
 *   replaycap verify <path>   replay a .brpl file — or every .brpl in
 *                             a directory — on {1,2,4} worker threads
 *                             and check every fingerprint
 *   replaycap info <file>     dump the event stream of one log
 *
 * The committed corpus/ directory is generated by `record` and checked
 * by `verify` in CI: any simulator change that breaks bit-identical
 * replay of an old log is a determinism (or format) regression.
 */

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/logging.h"
#include "gpu/gpu.h"
#include "replay/replay.h"
#include "runtime/session.h"

namespace {

using namespace bifsim;

const char *kScaleSrc = R"(
kernel void scale(global const int* in, global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = in[i] * 3 + 1;
    }
}
)";

const char *kBranchySrc = R"(
kernel void branchy(global int* data, int n) {
    int i = get_global_id(0);
    if (i < n) {
        if ((i & 1) == 0) {
            data[i] = data[i] * 2;
        } else {
            data[i] = data[i] + 7;
        }
    }
}
)";

const char *kOobSrc = R"(
kernel void oob(global int* out, int n) {
    int i = get_global_id(0);
    out[i] = i;
    if (i == n - 1) {
        out[1048576 + i] = 7;
    }
}
)";

rt::SystemConfig
baseConfig(size_t ram_bytes, unsigned threads)
{
    rt::SystemConfig cfg;
    cfg.ramBytes = ram_bytes;
    cfg.gpu.hostThreads = threads;
    cfg.gpu.syncSubmit = true;
    return cfg;
}

void
fillBuffer(rt::Session &s, const rt::Buffer &b, uint32_t n,
           uint32_t seed)
{
    for (uint32_t i = 0; i < n; ++i) {
        int32_t v = static_cast<int32_t>(i * seed + 3);
        s.write(b, &v, 4, i * 4);
    }
}

/** Two scale chains with a rewritten input in between. */
std::vector<uint8_t>
recordScale(rt::Mode mode, unsigned threads)
{
    size_t ram = mode == rt::Mode::FullSystem ? 32u << 20 : 8u << 20;
    rt::Session s(baseConfig(ram, threads), mode);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(256 * 4);
    rt::Buffer out = s.alloc(256 * 4);
    fillBuffer(s, in, 256, 7);
    s.startRecording();
    s.enqueue(k, rt::NDRange{256, 1, 1}, rt::NDRange{64, 1, 1},
              {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::i32(256)});
    fillBuffer(s, in, 256, 11);
    s.enqueue(k, rt::NDRange{256, 1, 1}, rt::NDRange{64, 1, 1},
              {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::i32(256)});
    return s.stopRecording();
}

/** Warp-divergent workload. */
std::vector<uint8_t>
recordBranchy()
{
    rt::Session s(baseConfig(8u << 20, 2), rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kBranchySrc, "branchy");
    rt::Buffer data = s.alloc(512 * 4);
    fillBuffer(s, data, 512, 5);
    s.startRecording();
    s.enqueue(k, rt::NDRange{512, 1, 1}, rt::NDRange{32, 1, 1},
              {rt::Arg::buf(data), rt::Arg::i32(512)});
    return s.stopRecording();
}

/** MMU fault: the last work-item stores 4 MiB past its buffer. */
std::vector<uint8_t>
recordMmuFault()
{
    rt::Session s(baseConfig(8u << 20, 2), rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kOobSrc, "oob");
    rt::Buffer out = s.alloc(64 * 4);
    s.startRecording();
    s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{1, 1, 1},
              {rt::Arg::buf(out), rt::Arg::i32(64)});
    return s.stopRecording();
}

/** Job-chain fault: a self-linked null descriptor. */
std::vector<uint8_t>
recordBadDescriptor()
{
    rt::Session s(baseConfig(8u << 20, 2), rt::Mode::Direct);
    rt::KernelHandle k = s.compile(kScaleSrc, "scale");
    rt::Buffer in = s.alloc(64 * 4);
    rt::Buffer out = s.alloc(64 * 4);
    // Prime once so the GPU MMU root is installed for the raw submit.
    s.enqueue(k, rt::NDRange{64, 1, 1}, rt::NDRange{16, 1, 1},
              {rt::Arg::buf(in), rt::Arg::buf(out), rt::Arg::i32(64)});
    rt::Buffer b = s.alloc(4096);
    gpu::JobDescriptor d;
    d.jobType = gpu::JobDescriptor::kTypeNull;
    d.next = b.gpuVa;
    uint8_t raw[gpu::JobDescriptor::kSizeBytes];
    d.writeTo(raw);
    s.write(b, raw, sizeof(raw));
    s.startRecording();
    rt::System &sys = s.system();
    sys.bus().write(rt::System::kGpuBase + gpu::kRegIrqMask, 4, 7);
    sys.bus().write(rt::System::kGpuBase + gpu::kRegJsSubmit, 4,
                    b.gpuVa);
    sys.gpu().waitIdle();
    return s.stopRecording();
}

struct Scenario
{
    const char *name;
    std::vector<uint8_t> (*make)();
};

const Scenario kScenarios[] = {
    {"direct_scale", [] { return recordScale(rt::Mode::Direct, 2); }},
    {"direct_mt4", [] { return recordScale(rt::Mode::Direct, 4); }},
    {"fullsystem_scale",
     [] { return recordScale(rt::Mode::FullSystem, 2); }},
    {"branchy", recordBranchy},
    {"fault_mmu", recordMmuFault},
    {"fault_baddesc", recordBadDescriptor},
};

int
cmdRecord(const std::string &dir)
{
    std::filesystem::create_directories(dir);
    for (const Scenario &sc : kScenarios) {
        replay::Log log = replay::Log::fromBytes(sc.make());
        std::string path = dir + "/" + sc.name + ".brpl";
        log.save(path);
        std::printf("%-20s %6llu bytes, %llu events\n", sc.name,
                    static_cast<unsigned long long>(log.sizeBytes()),
                    static_cast<unsigned long long>(log.eventCount()));
    }
    return 0;
}

int
verifyOne(const std::string &path)
{
    replay::Log log = replay::Log::load(path);
    for (unsigned threads : {1u, 2u, 4u}) {
        replay::ReplayOptions opt;
        opt.hostThreads = threads;
        replay::ReplayResult r = replay::replay(log, opt);
        if (!r.ok) {
            std::fprintf(stderr,
                         "%s: DIVERGED (threads=%u) at event %llu: %s\n",
                         path.c_str(), threads,
                         static_cast<unsigned long long>(
                             r.divergenceEvent),
                         r.divergence.c_str());
            return 1;
        }
    }
    std::printf("%s: PASS (1/2/4 workers)\n", path.c_str());
    return 0;
}

int
cmdVerify(const std::string &path)
{
    if (!std::filesystem::is_directory(path))
        return verifyOne(path);
    std::vector<std::string> files;
    for (const auto &e : std::filesystem::directory_iterator(path)) {
        if (e.path().extension() == ".brpl")
            files.push_back(e.path().string());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        std::fprintf(stderr, "%s: no .brpl files\n", path.c_str());
        return 1;
    }
    int rc = 0;
    for (const std::string &f : files)
        rc |= verifyOne(f);
    return rc;
}

int
cmdInfo(const std::string &path)
{
    replay::Log log = replay::Log::load(path);
    std::printf("%s: %llu bytes, %llu events\n", path.c_str(),
                static_cast<unsigned long long>(log.sizeBytes()),
                static_cast<unsigned long long>(log.eventCount()));
    for (size_t i = 0; i < log.eventCount(); ++i)
        std::printf("  [%3llu] %s\n",
                    static_cast<unsigned long long>(i),
                    replay::describeEvent(log, i).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: %s record <dir> | verify <file|dir> | "
                     "info <file>\n",
                     argv[0]);
        return 2;
    }
    std::string cmd = argv[1], path = argv[2];
    try {
        if (cmd == "record")
            return cmdRecord(path);
        if (cmd == "verify")
            return cmdVerify(path);
        if (cmd == "info")
            return cmdInfo(path);
    } catch (const bifsim::SimError &e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
    return 2;
}

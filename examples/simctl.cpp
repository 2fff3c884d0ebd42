/**
 * @file
 * simctl: command-line client for the simd fleet daemon.
 *
 *   simctl --socket=<path> info
 *   simctl --socket=<path> stats
 *   simctl --socket=<path> shutdown
 *   simctl --socket=<path> sgemm [--jobs=N] [--kernel=I]
 *          [--tenant=NAME] [--seed=S] [--verify] [--ram-crc]
 *
 * `sgemm` submits N jobs against the warm image's A/B/C buffers:
 * deterministic pseudo-random matrices seeded per job, full C
 * readback, optional host-side verification and post-job RAM CRC.
 * Exits nonzero if any job fails (or misverifies), so CI smoke jobs
 * can fan out many concurrent simctl tenants and just check exit
 * codes.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.h"
#include "fleet/proto.h"

namespace {

using namespace bifsim;

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --socket=<path> info|stats|shutdown\n"
                 "       %s --socket=<path> sgemm [--jobs=N] "
                 "[--kernel=I] [--tenant=NAME] [--seed=S] [--verify] "
                 "[--ram-crc]\n",
                 argv0, argv0);
    return 2;
}

int
connectTo(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) {
        std::fprintf(stderr, "simctl: socket: %s\n",
                     std::strerror(errno));
        return -1;
    }
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "simctl: socket path too long\n");
        ::close(fd);
        return -1;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        std::fprintf(stderr, "simctl: connect %s: %s\n", path.c_str(),
                     std::strerror(errno));
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Deterministic matrix fill: xorshift from a per-job seed, so every
 *  tenant (and the bit-identity tests) can regenerate the inputs. */
void
fillMatrix(std::vector<float> &m, uint32_t seed)
{
    uint32_t x = seed * 2654435761u + 1;
    for (float &v : m) {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        v = static_cast<float>(x % 1024) / 256.0f;
    }
}

int
runSgemm(int fd, const fleet::Welcome &wl, uint32_t jobs,
         uint32_t kernel, const std::string &tenant, uint32_t seed,
         bool verify, bool ram_crc)
{
    if (kernel >= wl.kernels.size()) {
        std::fprintf(stderr, "simctl: kernel %u out of range (%zu)\n",
                     kernel, wl.kernels.size());
        return 1;
    }
    if (wl.bufferBytes.size() < 3) {
        std::fprintf(stderr, "simctl: image has no A/B/C buffers\n");
        return 1;
    }
    uint32_t n = static_cast<uint32_t>(
        std::lround(std::sqrt(double(wl.bufferBytes[0] / 4))));
    size_t bytes = static_cast<size_t>(n) * n * 4;

    std::vector<float> a(static_cast<size_t>(n) * n);
    std::vector<float> b(static_cast<size_t>(n) * n);
    uint64_t exec_ns_total = 0, queue_ns_total = 0;
    for (uint32_t j = 0; j < jobs; ++j) {
        fillMatrix(a, seed + 2 * j);
        fillMatrix(b, seed + 2 * j + 1);

        fleet::JobRequest req;
        req.tenant = tenant;
        req.kernel = kernel;
        req.gx = req.gy = n;
        req.gz = 1;
        req.lx = req.ly = 8;
        req.lz = 1;
        req.args = {{fleet::ArgSpec::Kind::BufIndex, 0},
                    {fleet::ArgSpec::Kind::BufIndex, 1},
                    {fleet::ArgSpec::Kind::BufIndex, 2},
                    {fleet::ArgSpec::Kind::I32, n}};
        fleet::WriteSpec wa{0, 0, {}};
        wa.bytes.resize(bytes);
        std::memcpy(wa.bytes.data(), a.data(), bytes);
        fleet::WriteSpec wb{1, 0, {}};
        wb.bytes.resize(bytes);
        std::memcpy(wb.bytes.data(), b.data(), bytes);
        req.writes.push_back(std::move(wa));
        req.writes.push_back(std::move(wb));
        req.reads.push_back(fleet::ReadSpec{2, 0, bytes});
        req.wantRamCrc = ram_crc;

        snapshot::ChunkWriter w;
        req.serialize(w);
        fleet::writeFrame(fd, fleet::kMsgJob, w.data());

        fleet::Frame f;
        if (!fleet::readFrame(fd, f) || f.kind != fleet::kMsgResult) {
            std::fprintf(stderr, "simctl: lost connection mid-job\n");
            return 1;
        }
        snapshot::ChunkReader r = f.reader();
        fleet::JobResultMsg m = fleet::JobResultMsg::parse(r);
        if (m.status != fleet::JobStatus::Ok) {
            std::fprintf(stderr, "simctl: job %u %s: %s\n", j,
                         fleet::jobStatusName(m.status),
                         m.detail.c_str());
            return 1;
        }
        if (m.readback.size() != bytes) {
            std::fprintf(stderr, "simctl: job %u readback %zu bytes, "
                         "want %zu\n", j, m.readback.size(), bytes);
            return 1;
        }
        exec_ns_total += m.execNs;
        queue_ns_total += m.queueNs;

        if (verify) {
            const float *c =
                reinterpret_cast<const float *>(m.readback.data());
            for (uint32_t row = 0; row < n; ++row) {
                for (uint32_t col = 0; col < n; ++col) {
                    float want = 0;
                    for (uint32_t k = 0; k < n; ++k)
                        want += a[row * n + k] * b[k * n + col];
                    float got = c[row * n + col];
                    if (std::fabs(got - want) >
                        1e-3f * std::max(1.0f, std::fabs(want))) {
                        std::fprintf(stderr,
                                     "simctl: job %u C[%u,%u] = %g, "
                                     "want %g\n",
                                     j, row, col, got, want);
                        return 1;
                    }
                }
            }
        }
        if (ram_crc)
            std::printf("job %u ram crc 0x%08x session %u\n", j,
                        m.ramCrc, m.sessionId);
    }
    std::printf("simctl: %u %s jobs ok (n=%u%s), mean queue %.2f ms, "
                "mean exec %.2f ms\n",
                jobs, wl.kernels[kernel].c_str(), n,
                verify ? ", verified" : "",
                queue_ns_total / 1e6 / jobs, exec_ns_total / 1e6 / jobs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string socket_path, command, tenant = "simctl";
    uint32_t jobs = 1, kernel = 0, seed = 1;
    bool verify = false, ram_crc = false;

    for (int i = 1; i < argc; ++i) {
        const char *a = argv[i];
        if (std::strncmp(a, "--socket=", 9) == 0)
            socket_path = a + 9;
        else if (std::strncmp(a, "--jobs=", 7) == 0)
            jobs = static_cast<uint32_t>(std::atoi(a + 7));
        else if (std::strncmp(a, "--kernel=", 9) == 0)
            kernel = static_cast<uint32_t>(std::atoi(a + 9));
        else if (std::strncmp(a, "--tenant=", 9) == 0)
            tenant = a + 9;
        else if (std::strncmp(a, "--seed=", 7) == 0)
            seed = static_cast<uint32_t>(std::atoi(a + 7));
        else if (std::strcmp(a, "--verify") == 0)
            verify = true;
        else if (std::strcmp(a, "--ram-crc") == 0)
            ram_crc = true;
        else if (a[0] == '-')
            return usage(argv[0]);
        else if (command.empty())
            command = a;
        else
            return usage(argv[0]);
    }
    if (socket_path.empty() || command.empty())
        return usage(argv[0]);

    int fd = connectTo(socket_path);
    if (fd < 0)
        return 1;

    int rc = 1;
    try {
        fleet::Frame f;
        if (!fleet::readFrame(fd, f) || f.kind != fleet::kMsgWelcome) {
            std::fprintf(stderr, "simctl: no welcome from daemon\n");
            ::close(fd);
            return 1;
        }
        snapshot::ChunkReader r = f.reader();
        fleet::Welcome wl = fleet::Welcome::parse(r);

        if (command == "info") {
            std::printf("proto v%u, %zu kernels, %zu buffers\n",
                        wl.version, wl.kernels.size(),
                        wl.bufferBytes.size());
            for (size_t i = 0; i < wl.kernels.size(); ++i)
                std::printf("  kernel %zu: %s\n", i,
                            wl.kernels[i].c_str());
            for (size_t i = 0; i < wl.bufferBytes.size(); ++i)
                std::printf("  buffer %zu: %llu bytes\n", i,
                            static_cast<unsigned long long>(
                                wl.bufferBytes[i]));
            rc = 0;
        } else if (command == "stats") {
            fleet::writeFrame(fd, fleet::kMsgStatsQuery, {});
            fleet::Frame sf;
            if (fleet::readFrame(fd, sf) &&
                sf.kind == fleet::kMsgStatsReply) {
                snapshot::ChunkReader sr = sf.reader();
                fleet::StatsReply reply = fleet::StatsReply::parse(sr);
                for (const auto &[name, value] : reply.counters)
                    std::printf("%-28s %llu\n", name.c_str(),
                                static_cast<unsigned long long>(value));
                // Uptime and per-tenant rates.
                double up = static_cast<double>(reply.uptimeNs) * 1e-9;
                if (reply.uptimeNs)
                    std::printf("%-28s %.1f\n", "uptime_secs", up);
                if (!reply.tenants.empty()) {
                    std::printf("\n%-16s %10s %10s %8s %9s %11s\n",
                                "tenant", "submitted", "completed",
                                "faulted", "jobs/s", "avg_exec_ms");
                    for (const auto &t : reply.tenants) {
                        double rate =
                            up > 0 ? static_cast<double>(t.completed) /
                                         up
                                   : 0;
                        double avg_ms =
                            t.completed
                                ? static_cast<double>(t.execNs) * 1e-6 /
                                      static_cast<double>(t.completed)
                                : 0;
                        std::printf(
                            "%-16s %10llu %10llu %8llu %9.2f %11.3f\n",
                            t.name.c_str(),
                            static_cast<unsigned long long>(t.submitted),
                            static_cast<unsigned long long>(t.completed),
                            static_cast<unsigned long long>(t.faulted),
                            rate, avg_ms);
                    }
                }
                rc = 0;
            }
        } else if (command == "shutdown") {
            fleet::writeFrame(fd, fleet::kMsgShutdown, {});
            rc = 0;
        } else if (command == "sgemm") {
            rc = runSgemm(fd, wl, jobs, kernel, tenant, seed, verify,
                          ram_crc);
        } else {
            rc = usage(argv[0]);
        }
    } catch (const bifsim::SimError &e) {
        std::fprintf(stderr, "simctl: %s\n", e.what());
        rc = 1;
    }
    ::close(fd);
    return rc;
}

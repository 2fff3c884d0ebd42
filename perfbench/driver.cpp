/**
 * @file
 * End-to-end benchmark driver (see README.md in this directory).
 *
 * Runs one of four closed-loop workloads against the simulator's public
 * API, checks every output on the host, and prints human-readable lines
 * followed by one JSON object on the last line of standard output:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * With --trace 0 the metrics are the end-to-end set; with --trace 1 the
 * run alternates rounds with the benchmark's span recorder off and on
 * and prints the per-layer set instead.  Spans are recorded only here,
 * around calls into the simulator's public functions; nothing inside the
 * simulator is instrumented for this benchmark.
 *
 * All timings are host time.  Every simulated statistic is an exact
 * count; the "digest" line lists the ones that must not change between
 * two runs at the same seed.
 */

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.h"
#include "fleet/fleet.h"
#include "fleet/proto.h"
#include "fleet/warm_image.h"
#include "metrics/metrics.h"
#include "replay/replay.h"
#include "runtime/session.h"
#include "snapshot/snapshot.h"
#include "trace/trace.h"
#include "workloads/device.h"
#include "workloads/workload.h"

using namespace bifsim;

namespace {

// ------------------------------------------------------------ basics

uint64_t
nowNs()
{
    return trace::nowNs();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Nearest-rank percentile of @p v (0 < p <= 100). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

/** The highest of a fixed ladder of percentiles that still has at
 *  least ten samples above it (0 when there are too few samples). */
double
tailPercentile(size_t n)
{
    for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
        size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
        if (n >= rank + 10)
            return p;
    }
    return 0;
}

/** Deterministic input stream (splitmix64). */
class Rng
{
  public:
    explicit Rng(uint64_t seed) : s_(seed) {}

    uint64_t
    next()
    {
        uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    uint32_t below(uint32_t n) { return static_cast<uint32_t>(next() % n); }
    double unit() { return (next() >> 11) * 0x1.0p-53; }

  private:
    uint64_t s_;
};

unsigned
hostCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss / 1024.0;   // ru_maxrss is in KiB on Linux.
}

/** Host calibration: median time of a fixed integer reference loop
 *  (2^20 dependent xorshift-multiply steps), so absolute numbers from
 *  different hosts can be put side by side. */
double
calibNs()
{
    static volatile uint64_t sink;
    std::vector<double> reps;
    for (int r = 0; r < 7; ++r) {
        uint64_t x = 0x9E3779B97F4A7C15ull + r, acc = 0;
        uint64_t t0 = nowNs();
        for (uint32_t i = 0; i < (1u << 20); ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc += x * 0x2545F4914F6CDD1Dull;
        }
        reps.push_back(static_cast<double>(nowNs() - t0));
        sink = sink ^ acc;
    }
    return median(reps);
}

/** Registry totals by name: the process-wide, always-on counters the
 *  simulator publishes at each GPU job and CPU batch (docs/METRICS.md). */
using Counters = std::map<std::string, uint64_t>;

Counters
readCounters()
{
    metrics::Registry &reg = metrics::registry();
    std::array<uint64_t, metrics::kMaxSlots> t = reg.totals();
    Counters c;
    size_t n = std::min(reg.slotCount(), metrics::kMaxSlots);
    for (size_t i = 0; i < n; ++i)
        if (const char *name = reg.slotName(static_cast<uint16_t>(i)))
            c[name] = t[i];
    return c;
}

Counters
operator-(const Counters &a, const Counters &b)
{
    Counters d;
    for (const auto &[k, v] : a) {
        auto it = b.find(k);
        uint64_t base = it == b.end() ? 0 : it->second;
        d[k] = v >= base ? v - base : 0;
    }
    return d;
}

uint64_t
get(const Counters &c, const char *name)
{
    auto it = c.find(name);
    return it == c.end() ? 0 : it->second;
}

uint64_t
gpuInstrs(const Counters &c)
{
    return get(c, "kernel.arith_instrs") + get(c, "kernel.ls_instrs") +
           get(c, "kernel.cf_instrs");
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

// ------------------------------------------------------------- spans

/** One span: a timed call into a simulator layer.  Ids are 1-based
 *  indices into the owning log; parent 0 is a root. */
struct Span
{
    const char *name;
    uint32_t parent;
    uint32_t op;   ///< Operation id shared by one launch/job's spans.
    uint64_t t0, t1;
};

/** kclc compile calls happen only during set-up, outside the traced
 *  rounds, so their cost is timed directly (calls, total ns). */
struct CompileTime
{
    uint64_t calls = 0;
    uint64_t ns = 0;
} g_compile;

/** Per-thread in-memory span recorder; cost is paid only while on. */
class SpanLog
{
  public:
    bool on = false;

    uint32_t
    open(const char *name, uint32_t op)
    {
        if (!on)
            return 0;
        uint32_t parent = stack_.empty() ? 0 : stack_.back();
        spans_.push_back(Span{name, parent, op, nowNs(), 0});
        uint32_t id = static_cast<uint32_t>(spans_.size());
        stack_.push_back(id);
        return id;
    }

    void
    close(uint32_t id)
    {
        if (!id)
            return;
        spans_[id - 1].t1 = nowNs();
        stack_.pop_back();
    }

    /** A child of @p parent whose duration was measured elsewhere
     *  (server-side queue/exec time carried in a result frame). */
    void
    measured(const char *name, uint32_t parent, uint64_t dur_ns)
    {
        if (!parent)
            return;
        const Span &p = spans_[parent - 1];
        spans_.push_back(Span{name, parent, p.op, p.t0, p.t0 + dur_ns});
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    std::vector<Span> spans_;
    std::vector<uint32_t> stack_;
};

class Scope
{
  public:
    Scope(SpanLog &log, const char *name, uint32_t op)
        : log_(log), id_(log.open(name, op))
    {
    }
    ~Scope() { log_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    uint32_t id() const { return id_; }

  private:
    SpanLog &log_;
    uint32_t id_;
};

/** The layer each span's self time is charged to.  Spans named here
 *  wrap public calls; "op" roots and anything unlisted count as other. */
const char *
layerOf(const std::string &span)
{
    static const std::map<std::string, const char *> kLayers = {
        {"runtime.alloc", "runtime"},
        {"runtime.write", "runtime"},
        {"runtime.read", "runtime"},
        {"runtime.enqueue.direct", "gpu"},
        {"runtime.enqueue.fullsystem", "driver"},
        {"fleet.roundtrip", "fleet_wire"},
        {"fleet.queue", "fleet_queue"},
        {"fleet.exec", "fleet_exec"},
        {"bench.recycle", "bench"},
        {"replay.start", "replay"},
        {"replay.stop", "replay"},
        {"replay.parse", "replay"},
        {"replay.replay", "replay"},
        {"bench.gen", "bench"},
        {"bench.verify", "bench"},
    };
    auto it = kLayers.find(span);
    return it == kLayers.end() ? "other" : it->second;
}

const char *const kShareLayers[] = {
    "runtime",    "gpu",    "driver", "fleet_wire", "fleet_queue",
    "fleet_exec", "replay", "bench",  "other",
};

struct SpanAgg
{
    uint64_t calls = 0;
    uint64_t durNs = 0;
    uint64_t selfNs = 0;
};

/** Per-name call counts, total and self time (duration minus the time
 *  covered by direct children) over every span of @p logs. */
std::map<std::string, SpanAgg>
aggregate(const std::vector<const SpanLog *> &logs)
{
    std::map<std::string, SpanAgg> agg;
    for (const SpanLog *log : logs) {
        const std::vector<Span> &s = log->spans();
        std::vector<uint64_t> child(s.size(), 0);
        for (const Span &sp : s)
            if (sp.parent)
                child[sp.parent - 1] += sp.t1 - sp.t0;
        for (size_t i = 0; i < s.size(); ++i) {
            uint64_t dur = s[i].t1 - s[i].t0;
            if (child[i] > dur)
                simError("span '%s' has children longer than itself",
                         s[i].name);
            SpanAgg &a = agg[s[i].name];
            ++a.calls;
            a.durNs += dur;
            a.selfNs += dur - child[i];
        }
    }
    return agg;
}

/** Writes every span as Chrome trace_event JSON (ui.perfetto.dev). */
void
writeSpans(const std::string &path, const std::vector<const SpanLog *> &logs)
{
    std::ofstream os(path);
    os << "{\"traceEvents\":[";
    bool first = true;
    for (size_t tid = 0; tid < logs.size(); ++tid) {
        const std::vector<Span> &s = logs[tid]->spans();
        for (size_t i = 0; i < s.size(); ++i) {
            os << (first ? "" : ",") << "\n{\"name\":\"" << s[i].name
               << "\",\"cat\":\"" << layerOf(s[i].name)
               << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
               << ",\"ts\":" << s[i].t0 / 1000.0
               << ",\"dur\":" << (s[i].t1 - s[i].t0) / 1000.0
               << ",\"args\":{\"id\":" << i + 1
               << ",\"parent\":" << s[i].parent << ",\"op\":" << s[i].op
               << "}}";
            first = false;
        }
    }
    os << "\n]}\n";
}

// ----------------------------------------------------------- options

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    unsigned clients = 4;          ///< fleet_serve connections.
    std::string inject;            ///< Self-test fault: corrupt-readback
                                   ///< or flip-log.
    std::string workDir = ".";     ///< Socket and span output directory.
};

constexpr unsigned kSetupReps = 9;   ///< Set-ups per run; setup_s is
                                     ///< their median.

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload gpu_compute|"
                 "fs_launch_storm|fleet_serve|record_replay --seed N "
                 "--seconds S --trace 0|1 [--clients N] "
                 "[--inject corrupt-readback|flip-log] [--work-dir D]\n");
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage();
        std::string v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (a == "--seconds")
            o.seconds = std::atof(v.c_str());
        else if (a == "--trace")
            o.trace = v == "1";
        else if (a == "--clients")
            o.clients = static_cast<unsigned>(std::atoi(v.c_str()));
        else if (a == "--inject")
            o.inject = v;
        else if (a == "--work-dir")
            o.workDir = v;
        else
            usage();
    }
    // At most one connection per CPU of the machine.  The machine's
    // count, not the affinity mask's, so a fleet_serve run pinned to
    // fewer CPUs (taskset) can still reproduce more tenants than CPUs.
    if (o.workload.empty() || o.seconds <= 0 || o.clients == 0 ||
        o.clients > std::max(1u, std::thread::hardware_concurrency()))
        usage();
    if (!o.inject.empty() && o.inject != "corrupt-readback" &&
        o.inject != "flip-log")
        usage();
    return o;
}

/** Self-test hook: flips an exponent bit of one word in every seventh
 *  readback (a float result must fail too, not just an integer one). */
bool
corruptThis(const Options &o, uint64_t op)
{
    return o.inject == "corrupt-readback" && op % 7 == 3;
}

// ------------------------------------------------------------ result

/** Everything one run measured; turned into metrics by endToEnd() or
 *  perLayer(). */
struct Result
{
    std::vector<double> setupS;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<double> latMs;      ///< Per-operation program time.
    double timedS = 0;              ///< Timed region (see README).
    Counters timed;                 ///< Registry deltas, timed region.
    uint64_t launches = 0;          ///< GPU launches in the timed region.
    std::vector<std::pair<std::string, uint64_t>> digest;
    std::map<std::string, double> layer;   ///< Per-layer extras.
    std::vector<std::pair<std::string, std::string>> notes;   ///< Human.

    // Per window (see Windows): throughput and latency percentiles.
    std::vector<double> winOpsPerS, winMips, winP50, winP90;

    /** Books one window: @p ops operations, @p instrs GPU instructions
     *  and latencies @p lat_ms, over @p secs of timed time. */
    void
    window(size_t ops, uint64_t instrs, double secs,
           const std::vector<double> &lat_ms)
    {
        winOpsPerS.push_back(ops / secs);
        winMips.push_back(instrs / secs / 1e6);
        winP50.push_back(percentile(lat_ms, 50));
        winP90.push_back(percentile(lat_ms, 90));
    }

    // Trace A/B: for each adjacent (untraced, traced) pair of rounds,
    // traced program time per operation over untraced.
    std::vector<double> roundRatio;
    double wallOnS = 0;             ///< Traced rounds, summed over threads.
    std::vector<std::unique_ptr<SpanLog>> logs;

    std::mutex lock;                ///< Guards the above for fleet clients.

    void
    note(const std::string &k, const std::string &v)
    {
        notes.emplace_back(k, v);
    }
};

/** Alternates span recording by round in traced runs (odd rounds on)
 *  and books each round's program time per operation to its mode;
 *  pairing each traced round with the untraced one before it cancels
 *  slow drift (cache warm-up, recycles) out of the overhead figure. */
class Rounds
{
  public:
    Rounds(bool traced, size_t len, SpanLog &log)
        : traced_(traced), len_(len), log_(log)
    {
    }

    /** Call before each operation (or batch of operations) starts. */
    void
    before()
    {
        if (!traced_ || ops_ % len_ != 0)
            return;
        flush(false);
        log_.on = (done_ / len_) % 2 == 1;
        wallT0_ = nowNs();
    }

    /** Call after each operation with its program time. */
    void
    after(double op_s)
    {
        progS_ += op_s;
        ++ops_;
        ++done_;
    }

    /** Books the round in progress; @p final drops a partial one. */
    void
    flush(bool final)
    {
        if (!traced_ || ops_ == 0)
            return;
        if (!final || ops_ == len_) {
            (log_.on ? on_ : off_).push_back(progS_ / ops_);
            if (log_.on)
                wallOnS_ += (nowNs() - wallT0_) / 1e9;
        } else if (log_.on) {
            wallOnS_ += (nowNs() - wallT0_) / 1e9;
        }
        progS_ = 0;
        ops_ = 0;
    }

    void
    finish(Result &r)
    {
        flush(true);
        log_.on = false;
        std::lock_guard<std::mutex> g(r.lock);
        for (size_t k = 0; k < std::min(off_.size(), on_.size()); ++k)
            r.roundRatio.push_back(on_[k] / off_[k]);
        r.wallOnS += wallOnS_;
    }

  private:
    bool traced_;
    size_t len_;
    SpanLog &log_;
    double progS_ = 0;
    size_t ops_ = 0;    ///< Operations in the current round.
    size_t done_ = 0;   ///< Operations in all rounds.
    uint64_t wallT0_ = 0;
    double wallOnS_ = 0;
    std::vector<double> off_, on_;
};

double
secondsSince(uint64_t t0)
{
    return (nowNs() - t0) / 1e9;
}

/**
 * Splits a single caller's timed region into windows of a fixed number
 * of operations.  The end-to-end throughput and latency metrics are
 * medians over windows, so a burst of interference from other processes
 * on the host moves one window instead of the whole run.  The registry
 * is read only at window boundaries, between operations.
 */
class Windows
{
  public:
    Windows(size_t len, Result &r)
        : len_(len), r_(r), instrs0_(gpuInstrs(readCounters()))
    {
    }

    void
    after(double op_s)
    {
        progS_ += op_s;
        lat_.push_back(op_s * 1e3);
        if (lat_.size() < len_)
            return;
        uint64_t instrs = gpuInstrs(readCounters());
        r_.window(lat_.size(), instrs - instrs0_, progS_, lat_);
        instrs0_ = instrs;
        progS_ = 0;
        lat_.clear();
    }

    /** A batch whose program time @p prog_s is more than the sum of
     *  its operations' latencies @p lat_ms (record_replay: the stop,
     *  parse and replay that follow the launches). */
    void
    batch(const std::vector<double> &lat_ms, double prog_s)
    {
        progS_ += prog_s;
        lat_.insert(lat_.end(), lat_ms.begin(), lat_ms.end());
        if (lat_.size() < len_)
            return;
        uint64_t instrs = gpuInstrs(readCounters());
        r_.window(lat_.size(), instrs - instrs0_, progS_, lat_);
        instrs0_ = instrs;
        progS_ = 0;
        lat_.clear();
    }

  private:
    size_t len_;
    Result &r_;
    uint64_t instrs0_;
    double progS_ = 0;
    std::vector<double> lat_;
};

/** True while a single-caller loop should start another operation:
 *  until the timed time reaches --seconds, or, should operations keep
 *  failing (adding no timed time), until a wall-clock cap. */
bool
keepGoing(const Options &o, const Result &r, uint64_t wall0)
{
    return r.timedS < o.seconds && secondsSince(wall0) < 3 * o.seconds + 10;
}

/** Runs @p fn once per setup repetition and records each duration. */
template <class Fn>
void
timedSetups(Result &r, Fn fn)
{
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        uint64_t t0 = nowNs();
        fn(rep + 1 == kSetupReps);
        r.setupS.push_back(secondsSince(t0));
    }
}

// ===================================================== launch storm
//
// Small launches of benchmark-owned kernels: shared by fs_launch_storm
// (plain FullSystem) and record_replay (the same stream, recorded).

const char *kStormSource = R"(
kernel void affine(global const int* x, global const int* y,
                   global int* out, int a, int b, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = x[i] * a + b;
    }
}

kernel void mix(global const int* x, global const int* y,
                global int* out, int a, int b, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = (x[i] ^ y[i]) + (x[i] >> 3) - (y[i] & 255);
    }
}

kernel void stencil(global const int* x, global const int* y,
                    global int* out, int a, int b, int n) {
    int i = get_global_id(0);
    if (i < n) {
        int v = x[i] * 2;
        if (i > 0) {
            v = v + x[i - 1];
        }
        if (i < n - 1) {
            v = v + x[i + 1];
        }
        out[i] = v;
    }
}

kernel void saxpy(global const float* x, global const float* y,
                  global float* out, float a, int b, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = a * x[i] + y[i];
    }
}
)";

const char *const kStormKernels[] = {"affine", "mix", "stencil", "saxpy"};
constexpr uint32_t kStormMaxN = 1024;
constexpr uint32_t kStormLocal = 64;

/** One generated launch: kernel, size, scalars, inputs and the host
 *  reference output (as raw 32-bit words). */
struct StormOp
{
    uint32_t kernel = 0;
    uint32_t n = 0;
    uint32_t a = 0, b = 0;
    std::vector<uint32_t> x, y, want;
};

/** A launch of kernel @p kernel over @p n work-items, inputs from @p rng. */
StormOp
genStorm(Rng &rng, uint32_t kernel, uint32_t n)
{
    StormOp op;
    op.kernel = kernel;
    op.n = n;
    op.x.resize(op.n);
    op.y.resize(op.n);
    op.want.resize(op.n);
    if (op.kernel == 3) {
        float a = static_cast<float>(rng.below(1000)) / 250.0f - 2.0f;
        std::memcpy(&op.a, &a, 4);
        for (uint32_t i = 0; i < op.n; ++i) {
            float xv = static_cast<float>(rng.below(1 << 16)) / 4096.0f;
            float yv = static_cast<float>(rng.below(1 << 16)) / 1024.0f;
            float w = a * xv + yv;
            std::memcpy(&op.x[i], &xv, 4);
            std::memcpy(&op.y[i], &yv, 4);
            std::memcpy(&op.want[i], &w, 4);
        }
        return op;
    }
    op.a = 1 + rng.below(200);
    op.b = rng.below(1 << 16);
    for (uint32_t i = 0; i < op.n; ++i) {
        op.x[i] = rng.below(1 << 16);
        op.y[i] = rng.below(1 << 16);
    }
    for (uint32_t i = 0; i < op.n; ++i) {
        int32_t x = static_cast<int32_t>(op.x[i]);
        int32_t y = static_cast<int32_t>(op.y[i]);
        int32_t w = 0;
        switch (op.kernel) {
          case 0:
            w = x * static_cast<int32_t>(op.a) + static_cast<int32_t>(op.b);
            break;
          case 1: w = (x ^ y) + (x >> 3) - (y & 255); break;
          default:
            w = x * 2 + (i > 0 ? static_cast<int32_t>(op.x[i - 1]) : 0) +
                (i + 1 < op.n ? static_cast<int32_t>(op.x[i + 1]) : 0);
            break;
        }
        op.want[i] = static_cast<uint32_t>(w);
    }
    return op;
}

/** A launch with seeded kernel and size (64..1024 work-items). */
StormOp
genStorm(Rng &rng)
{
    uint32_t kernel = rng.below(4);
    return genStorm(rng, kernel,
                    kStormLocal * (1 + rng.below(kStormMaxN / kStormLocal)));
}

/**
 * Eight launches with the same total work in every batch: each kernel
 * twice and sizes 128..1024 in steps of 128, in a seeded order.  A
 * record_replay window spans only two batches, so free sizes would make
 * its GPU instruction rate follow the seed.
 */
std::vector<StormOp>
genStormBatch(Rng &rng)
{
    uint32_t kernels[8] = {0, 1, 2, 3, 0, 1, 2, 3};
    uint32_t sizes[8];
    for (uint32_t i = 0; i < 8; ++i)
        sizes[i] = 128 * (i + 1);
    for (uint32_t i = 8; i > 1; --i) {
        std::swap(kernels[i - 1], kernels[rng.below(i)]);
        std::swap(sizes[i - 1], sizes[rng.below(i)]);
    }
    std::vector<StormOp> ops;
    for (uint32_t i = 0; i < 8; ++i)
        ops.push_back(genStorm(rng, kernels[i], sizes[i]));
    return ops;
}

bool
checkStorm(const StormOp &op, const std::vector<uint32_t> &got)
{
    if (op.kernel != 3)
        return got == op.want;
    for (uint32_t i = 0; i < op.n; ++i) {
        float g, w;
        std::memcpy(&g, &got[i], 4);
        std::memcpy(&w, &op.want[i], 4);
        if (!(std::fabs(g - w) <= 1e-5f * (std::fabs(w) + 1.0f)))
            return false;
    }
    return true;
}

/** A session prepared for storm launches. */
struct StormRig
{
    rt::SystemConfig cfg;
    std::unique_ptr<rt::Session> session;
    std::vector<rt::KernelHandle> kernels;
    rt::Buffer x, y, out;
    uint64_t sinceRecycle = 0;   ///< Launches since the session was built.
};

StormRig
makeStormRig(const rt::SystemConfig &cfg)
{
    StormRig rig;
    rig.cfg = cfg;
    rig.session = std::make_unique<rt::Session>(cfg, rt::Mode::FullSystem);
    for (const char *k : kStormKernels) {
        uint64_t t0 = nowNs();
        rig.kernels.push_back(rig.session->compile(kStormSource, k));
        g_compile.ns += nowNs() - t0;
        ++g_compile.calls;
    }
    rig.x = rig.session->alloc(kStormMaxN * 4);
    rig.y = rig.session->alloc(kStormMaxN * 4);
    rig.out = rig.session->alloc(kStormMaxN * 4);
    // One launch installs the buffer mappings through the guest driver,
    // so every launch after it starts warm.
    gpu::JobResult r =
        rig.session->enqueue(rig.kernels[0], rt::NDRange{kStormLocal, 1, 1},
                  rt::NDRange{kStormLocal, 1, 1},
                  {rt::Arg::buf(rig.x), rt::Arg::buf(rig.y),
                   rt::Arg::buf(rig.out), rt::Arg::i32(1), rt::Arg::i32(0),
                   rt::Arg::i32(kStormLocal)});
    if (r.faulted)
        simError("storm priming launch faulted: %s", r.fault.detail.c_str());
    return rig;
}

/** The guest driver allocates a fresh page per submission and the
 *  runtime never frees, so before @p launches more would take the
 *  session past @p limit launches, the rig is built afresh (untimed;
 *  guest RAM and RSS stay bounded).  A rebuild costs one set-up, a few
 *  ms; resetting from a snapshot would need a whole-RAM snapshot scan in
 *  set-up instead. */
void
recycleBefore(StormRig &rig, uint64_t launches, uint64_t limit,
              SpanLog &log)
{
    if (rig.sinceRecycle + launches <= limit)
        return;
    Scope s(log, "bench.recycle", 0);
    rt::SystemConfig cfg = rig.cfg;
    rig = StormRig();   // The old session goes before the new one comes.
    rig = makeStormRig(cfg);
}

/** write -> enqueue -> read; returns the program time in seconds, or a
 *  negative value if the launch faulted. */
double
stormLaunch(StormRig &rig, const StormOp &op, uint32_t id, SpanLog &log,
            std::vector<uint32_t> &got)
{
    rt::Session &s = *rig.session;
    ++rig.sinceRecycle;
    uint64_t t0 = nowNs();
    {
        Scope w(log, "runtime.write", id);
        s.write(rig.x, op.x.data(), op.n * 4);
    }
    if (op.kernel == 1 || op.kernel == 3) {
        Scope w(log, "runtime.write", id);
        s.write(rig.y, op.y.data(), op.n * 4);
    }
    gpu::JobResult jr;
    {
        Scope e(log, "runtime.enqueue.fullsystem", id);
        jr = s.enqueue(rig.kernels[op.kernel], rt::NDRange{op.n, 1, 1},
                       rt::NDRange{kStormLocal, 1, 1},
                       {rt::Arg::buf(rig.x), rt::Arg::buf(rig.y),
                        rt::Arg::buf(rig.out), rt::Arg::u32(op.a),
                        rt::Arg::u32(op.b), rt::Arg::u32(op.n)});
    }
    if (jr.faulted)
        return -1;
    got.resize(op.n);
    {
        Scope rd(log, "runtime.read", id);
        s.read(rig.out, got.data(), op.n * 4);
    }
    return secondsSince(t0);
}

/**
 * Session counters that a snapshot restore rewinds (the guest driver's
 * instruction count, the decode-cache statistics), summed per call of
 * around() so the untimed recycles between operations cannot skew them.
 */
struct SessionCounters
{
    uint64_t driverInstrs = 0;
    uint64_t decodes = 0;
    uint64_t hits = 0;

    template <class Fn>
    auto
    around(rt::Session &s, Fn fn)
    {
        uint64_t d0 = s.driverInstructions();
        gpu::ShaderCacheStats c0 = s.system().gpu().shaderCacheStats();
        auto out = fn();
        gpu::ShaderCacheStats c1 = s.system().gpu().shaderCacheStats();
        driverInstrs += s.driverInstructions() - d0;
        decodes += c1.decodes - c0.decodes;
        hits += c1.hits - c0.hits;
        return out;
    }

    void
    report(Result &r, double launches) const
    {
        r.layer["guestos.driver_instrs_per_launch"] =
            ratio(static_cast<double>(driverInstrs), launches);
        r.layer["gpu.shader_cache.decodes"] = static_cast<double>(decodes);
        r.layer["gpu.shader_cache.hit_ratio"] =
            ratio(static_cast<double>(hits),
                  static_cast<double>(hits + decodes));
    }
};

// ====================================================== gpu_compute

/** A workloads::SessionDevice whose calls into the runtime are timed
 *  (always, for the op latency) and recorded as spans (when on). */
class TimedDevice : public workloads::SessionDevice
{
  public:
    TimedDevice(rt::Session &s, SpanLog &log)
        : SessionDevice(s), log_(log)
    {
    }

    uint32_t op = 0;
    uint64_t progNs = 0;       ///< Time inside runtime calls.
    uint64_t allocBytes = 0;   ///< Guest RAM taken since last reset.
    bool corrupt = false;      ///< Self-test: flip a readback byte.

    /** Compiles every kernel of @p src (one timed compile call). */
    void
    build(const std::string &src, const kclc::CompilerOptions &opts) override
    {
        uint64_t t0 = nowNs();
        SessionDevice::build(src, opts);
        g_compile.ns += nowNs() - t0;
        ++g_compile.calls;
    }

    workloads::BufHandle
    alloc(size_t bytes) override
    {
        Timed t(*this, "runtime.alloc");
        allocBytes += (bytes + 4095) & ~size_t(4095);
        return SessionDevice::alloc(bytes);
    }

    void
    write(workloads::BufHandle b, const void *src, size_t len,
          size_t off) override
    {
        Timed t(*this, "runtime.write");
        SessionDevice::write(b, src, len, off);
    }

    void
    read(workloads::BufHandle b, void *dst, size_t len,
         size_t off) override
    {
        {
            Timed t(*this, "runtime.read");
            SessionDevice::read(b, dst, len, off);
        }
        if (corrupt && len >= 4) {
            static_cast<uint8_t *>(dst)[(len / 2 & ~size_t(3)) + 3] ^= 0x40;
            corrupt = false;
        }
    }

    bool
    launch(const std::string &k, workloads::Dim3 g, workloads::Dim3 l,
           const std::vector<workloads::WArg> &args,
           std::string &err) override
    {
        Timed t(*this, "runtime.enqueue.direct");
        return SessionDevice::launch(k, g, l, args, err);
    }

  private:
    struct Timed
    {
        Timed(TimedDevice &d, const char *name)
            : d(d), scope(d.log_, name, d.op), t0(nowNs())
        {
        }
        ~Timed() { d.progNs += nowNs() - t0; }
        TimedDevice &d;
        Scope scope;
        uint64_t t0;
    };

    SpanLog &log_;
};

/** Table II compute kernels with run-to-run identical instruction
 *  counts, each with a scale band sized to a similar per-run cost. */
struct ComputeKernel
{
    const char *name;
    double lo, hi;
};

const ComputeKernel kComputeKernels[] = {
    {"dct", 0.00130, 0.00143},   {"sgemm", 1.0, 1.0},
    {"cutcp", 0.048, 0.053},     {"reduction", 0.0115, 0.0127},
    {"dwthaar1d", 0.023, 0.025}, {"sobelfilter", 0.070, 0.077},
};
constexpr unsigned kComputeInstances = 3;   ///< Scales per kernel.

void
runGpuCompute(const Options &o, Result &r)
{
    Rng rng(o.seed);
    struct Instance
    {
        std::unique_ptr<workloads::Workload> w;
        size_t device;   ///< Index into kComputeKernels.
        double scale;
        uint64_t allocBytes = 0;   ///< Guest RAM one run takes.
    };
    std::vector<Instance> inst;
    for (size_t k = 0; k < std::size(kComputeKernels); ++k) {
        const ComputeKernel &ck = kComputeKernels[k];
        for (unsigned i = 0; i < kComputeInstances; ++i) {
            double s = ck.lo + (ck.hi - ck.lo) * rng.unit();
            inst.push_back({workloads::makeWorkload(ck.name, s), k, s, 0});
        }
    }
    std::vector<size_t> order(inst.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    for (size_t i = order.size(); i > 1; --i)
        std::swap(order[i - 1], order[rng.below(static_cast<uint32_t>(i))]);

    rt::SystemConfig cfg;
    cfg.ramBytes = 256u << 20;
    cfg.gpu.hostThreads = hostCpus();
    r.logs.push_back(std::make_unique<SpanLog>());
    SpanLog &log = *r.logs.back();

    std::unique_ptr<rt::Session> session;
    std::vector<std::unique_ptr<TimedDevice>> devs;
    auto build = [&] {
        devs.clear();   // They refer to the old session.
        session.reset();
        session = std::make_unique<rt::Session>(cfg, rt::Mode::Direct);
        // Instances come in kernel order, kComputeInstances apiece.
        for (size_t k = 0; k < std::size(kComputeKernels); ++k) {
            devs.push_back(std::make_unique<TimedDevice>(*session, log));
            devs[k]->build(inst[k * kComputeInstances].w->source(),
                           kclc::CompilerOptions());
        }
    };
    timedSetups(r, [&](bool) { build(); });
    r.layer["kclc.kernels"] = static_cast<double>(session->kernels().size());

    // The runtime never frees guest RAM, so the session is rebuilt
    // (untimed) before the run that would cross the budget; the RAM in
    // use, and with it the RSS, then peaks at the same level on every
    // seed.
    const uint64_t kRecycleBytes = 64ull << 20;
    auto recycle = [&](uint64_t next) {
        uint64_t used = 0;
        for (auto &d : devs)
            used += d->allocBytes;
        if (used + inst[order[next % order.size()]].allocBytes <=
            kRecycleBytes)
            return;
        Scope s(log, "bench.recycle", 0);
        build();
    };

    auto runOne = [&](uint64_t i, bool timed) -> double {
        Instance &in = inst[order[i % order.size()]];
        TimedDevice &d = *devs[in.device];
        d.op = static_cast<uint32_t>(i);
        d.progNs = 0;
        d.corrupt = timed && corruptThis(o, i);
        workloads::RunResult rr;
        {
            Scope s(log, "op", d.op);
            try {
                rr = in.w->run(d);
            } catch (const SimError &e) {
                rr.ok = false;
                rr.error = e.what();
            }
        }
        if (!rr.ok) {
            std::fprintf(stderr, "gpu_compute: %s (scale %.4f): %s\n",
                         in.w->name().c_str(), in.scale, rr.error.c_str());
            return -1;
        }
        return d.progNs / 1e9;
    };

    // Warm-up and digest: one fixed pass over every instance.
    Counters c0 = readCounters();
    uint64_t warm_failed = 0;
    for (size_t i = 0; i < order.size(); ++i) {
        recycle(i);
        TimedDevice &d = *devs[inst[order[i]].device];
        uint64_t before = d.allocBytes;
        if (runOne(i, false) < 0)
            ++warm_failed;
        inst[order[i]].allocBytes = d.allocBytes - before;
    }
    Counters dw = readCounters() - c0;
    r.digest = {{"gpu_instrs", gpuInstrs(dw)},
                {"clauses", get(dw, "kernel.clauses_executed")},
                {"workgroups", get(dw, "kernel.workgroups")},
                {"launches", get(dw, "sys.compute_jobs")}};
    r.attempted += order.size();
    r.failed += warm_failed;

    // Timed region: closed loop until the program time is spent.
    SessionCounters sc;
    Counters t0 = readCounters();
    Rounds rounds(o.trace, order.size(), log);
    Windows windows(order.size(), r);
    uint64_t i = order.size();
    uint64_t wall0 = nowNs();
    while (keepGoing(o, r, wall0)) {
        recycle(i);
        rounds.before();
        double s = sc.around(*session, [&] { return runOne(i, true); });
        ++r.attempted;
        if (s < 0) {
            ++r.failed;
        } else {
            r.latMs.push_back(s * 1e3);
            r.timedS += s;
            rounds.after(s);
            windows.after(s);
        }
        ++i;
    }
    rounds.finish(r);
    r.timed = readCounters() - t0;
    r.launches = get(r.timed, "sys.compute_jobs");
    sc.report(r, static_cast<double>(r.launches));
    r.note("instances", std::to_string(inst.size()) + " (" +
                            std::to_string(std::size(kComputeKernels)) +
                            " kernels x " +
                            std::to_string(kComputeInstances) + " scales)");
}

// ================================================== fs_launch_storm

void
runLaunchStorm(const Options &o, Result &r)
{
    rt::SystemConfig cfg;
    cfg.ramBytes = 128u << 20;
    cfg.gpu.hostThreads = 1;   // Tiny grids: no use for more workers.
    cfg.gpu.syncSubmit = false;
    cfg.cpuDbt = true;
    r.logs.push_back(std::make_unique<SpanLog>());
    SpanLog &log = *r.logs.back();

    StormRig rig;
    timedSetups(r, [&](bool keep) {
        rig = makeStormRig(cfg);
        if (!keep)
            rig = StormRig();
    });
    r.layer["kclc.kernels"] = static_cast<double>(std::size(kStormKernels));
    constexpr uint64_t kRecycleLimit = 4096;

    std::vector<uint32_t> got;
    auto runOne = [&](Rng &rng, uint64_t i, bool timed) -> double {
        StormOp op;
        {
            Scope g(log, "bench.gen", static_cast<uint32_t>(i));
            op = genStorm(rng);
        }
        double sec;
        try {
            sec = stormLaunch(rig, op, static_cast<uint32_t>(i), log, got);
        } catch (const SimError &e) {
            std::fprintf(stderr, "fs_launch_storm: %s\n", e.what());
            return -1;
        }
        if (sec < 0)
            return -1;
        if (timed && corruptThis(o, i))
            got[op.n / 2] ^= 0x40000000;
        Scope v(log, "bench.verify", static_cast<uint32_t>(i));
        return checkStorm(op, got) ? sec : -1;
    };

    // Warm-up and digest: a fixed stream of 256 launches.
    Rng warm(o.seed * 0x100000001B3ull + 7);
    Counters c0 = readCounters();
    for (uint64_t i = 0; i < 256; ++i) {
        recycleBefore(rig, 1, kRecycleLimit, log);
        ++r.attempted;
        if (runOne(warm, i, false) < 0)
            ++r.failed;
    }
    Counters dw = readCounters() - c0;
    r.digest = {{"gpu_instrs", gpuInstrs(dw)},
                {"clauses", get(dw, "kernel.clauses_executed")},
                {"launches", get(dw, "sys.compute_jobs")},
                {"irqs", get(dw, "sys.irqs_asserted")}};
    r.note("digest_excluded",
           "guest instret and driver instructions (async submit: the "
           "driver's WFI/poll count depends on host timing)");

    Rng rng(o.seed);
    SessionCounters sc;
    rig.session->system().publishMetrics();
    Counters t0 = readCounters();
    Rounds rounds(o.trace, 64, log);
    Windows windows(1024, r);
    uint64_t i = 256;
    uint64_t wall0 = nowNs();
    while (keepGoing(o, r, wall0)) {
        recycleBefore(rig, 1, kRecycleLimit, log);
        rounds.before();
        double sec = sc.around(*rig.session, [&] {
            Scope op(log, "op", static_cast<uint32_t>(i));
            return runOne(rng, i, true);
        });
        ++r.attempted;
        if (sec < 0) {
            ++r.failed;
        } else {
            r.latMs.push_back(sec * 1e3);
            r.timedS += sec;
            rounds.after(sec);
            windows.after(sec);
        }
        ++i;
    }
    rounds.finish(r);
    rig.session->system().publishMetrics();
    r.timed = readCounters() - t0;
    r.launches = get(r.timed, "sys.compute_jobs");
    sc.report(r, static_cast<double>(r.launches));
}

// ==================================================== record_replay

void
runRecordReplay(const Options &o, Result &r)
{
    rt::SystemConfig cfg;
    cfg.ramBytes = 32u << 20;
    cfg.gpu.hostThreads = 1;
    cfg.gpu.syncSubmit = true;   // Recording requires it.
    cfg.cpuDbt = true;
    r.logs.push_back(std::make_unique<SpanLog>());
    SpanLog &log = *r.logs.back();

    StormRig rig;
    timedSetups(r, [&](bool keep) {
        rig = makeStormRig(cfg);
        if (!keep)
            rig = StormRig();
    });
    r.layer["kclc.kernels"] = static_cast<double>(std::size(kStormKernels));
    constexpr uint32_t kBatch = 8;   ///< Chains per recorded log
                                     ///< (genStormBatch's size).
    replay::ReplayOptions ropt;
    ropt.hostThreads = 1;
    ropt.validate = true;

    struct Batch
    {
        bool ok = true;
        uint64_t failedChains = 0;
        double launchS = 0;    ///< Recorded write/enqueue/read time.
        double stopS = 0, parseS = 0, replayS = 0;
        std::vector<double> latMs;
        size_t logBytes = 0;
        std::vector<uint8_t> bytes;
    };

    constexpr uint64_t kRecycleLimit = 1024;   // 4 MiB of 32 MiB RAM.

    auto runBatch = [&](Rng &rng, uint64_t first, bool timed) {
        Batch b;
        std::vector<uint32_t> got;
        std::vector<StormOp> plan;
        {
            Scope g(log, "bench.gen", static_cast<uint32_t>(first));
            plan = genStormBatch(rng);
        }
        uint64_t t0 = nowNs();
        {
            Scope sc(log, "replay.start", static_cast<uint32_t>(first));
            rig.session->startRecording();
        }
        double start_s = secondsSince(t0);
        for (uint32_t c = 0; c < kBatch; ++c) {
            uint32_t id = static_cast<uint32_t>(first + c);
            Scope op(log, "op", id);
            const StormOp &sop = plan[c];
            double sec = stormLaunch(rig, sop, id, log, got);
            bool ok = sec >= 0;
            if (ok) {
                if (timed && corruptThis(o, id))
                    got[sop.n / 2] ^= 0x40000000;
                Scope v(log, "bench.verify", id);
                ok = checkStorm(sop, got);
            }
            if (!ok)
                ++b.failedChains;
            if (sec >= 0) {
                b.launchS += sec;
                b.latMs.push_back(sec * 1e3);
            }
        }
        b.launchS += start_s;
        t0 = nowNs();
        {
            Scope sc(log, "replay.stop", static_cast<uint32_t>(first));
            b.bytes = rig.session->stopRecording();
        }
        b.stopS = secondsSince(t0);
        b.logBytes = b.bytes.size();
        std::vector<uint8_t> bytes = b.bytes;
        if (o.inject == "flip-log" && timed)
            bytes[(first * 7919) % bytes.size()] ^= 0x10;
        try {
            t0 = nowNs();
            std::optional<replay::Log> lg;
            {
                Scope sc(log, "replay.parse", static_cast<uint32_t>(first));
                lg.emplace(replay::Log::fromBytes(std::move(bytes)));
            }
            b.parseS = secondsSince(t0);
            t0 = nowNs();
            replay::ReplayResult rr;
            {
                Scope sc(log, "replay.replay", static_cast<uint32_t>(first));
                rr = replay::replay(*lg, ropt);
            }
            b.replayS = secondsSince(t0);
            if (!rr.ok || rr.chains != kBatch) {
                std::fprintf(stderr, "record_replay: replay diverged "
                             "(%zu chains): %s\n", rr.chains,
                             rr.divergence.c_str());
                b.ok = false;
            }
        } catch (const SimError &e) {
            std::fprintf(stderr, "record_replay: %s\n", e.what());
            b.ok = false;
        }
        if (!b.ok)
            b.failedChains = kBatch;
        return b;
    };

    // Warm-up and digest: one fixed batch, recorded and replayed.
    Rng warm(o.seed * 0x100000001B3ull + 11);
    Counters c0 = readCounters();
    rt::Session &s = *rig.session;   // No recycle before the digest.
    uint64_t instret0 = s.system().cpu().stats().instret;
    uint64_t drv0 = s.driverInstructions();
    Batch wb = runBatch(warm, 0, false);
    Counters dw = readCounters() - c0;
    r.attempted += kBatch;
    r.failed += wb.failedChains;
    r.digest = {{"gpu_instrs", gpuInstrs(dw)},
                {"clauses", get(dw, "kernel.clauses_executed")},
                {"guest_instret",
                 s.system().cpu().stats().instret - instret0},
                {"driver_instrs", s.driverInstructions() - drv0},
                {"chains", kBatch},
                {"log_bytes", wb.logBytes}};

    Rng rng(o.seed);
    SessionCounters sc;
    rig.session->system().publishMetrics();
    Counters t0 = readCounters();
    double rec_s = 0, rep_s = 0, stop_s = 0, parse_s = 0, val_s = 0;
    uint64_t batches = 0, log_bytes = 0;
    Rounds rounds(o.trace, kBatch, log);
    Windows windows(2 * kBatch, r);
    uint64_t i = kBatch;
    std::vector<uint8_t> last_log = wb.bytes;
    uint64_t wall0 = nowNs();
    while (keepGoing(o, r, wall0)) {
        recycleBefore(rig, kBatch, kRecycleLimit, log);
        rounds.before();
        Batch b = sc.around(*rig.session,
                            [&] { return runBatch(rng, i, true); });
        r.attempted += kBatch;
        r.failed += b.failedChains;
        r.latMs.insert(r.latMs.end(), b.latMs.begin(), b.latMs.end());
        double prog = b.launchS + b.stopS + b.parseS + b.replayS;
        r.timedS += prog;
        rec_s += b.launchS + b.stopS;
        rep_s += b.parseS + b.replayS;
        stop_s += b.stopS;
        parse_s += b.parseS;
        val_s += b.replayS;
        log_bytes += b.logBytes;
        ++batches;
        for (uint32_t c = 0; c < kBatch; ++c)
            rounds.after(prog / kBatch);
        windows.batch(b.latMs, prog);
        i += kBatch;
        last_log = std::move(b.bytes);
    }
    rounds.finish(r);
    rig.session->system().publishMetrics();
    r.timed = readCounters() - t0;
    r.launches = batches * kBatch;
    double chains = static_cast<double>(batches * kBatch);
    r.note("record_chains_per_s", std::to_string(ratio(chains, rec_s)));
    r.note("replay_chains_per_s", std::to_string(ratio(chains, rep_s)));
    r.layer["replay.stop_ms"] = ratio(stop_s * 1e3, batches);
    r.layer["replay.parse_ms"] = ratio(parse_s * 1e3, batches);
    r.layer["replay.validate_ms"] = ratio(val_s * 1e3, batches);
    r.layer["replay.log_bytes"] = ratio(static_cast<double>(log_bytes),
                                        static_cast<double>(batches));
    sc.report(r, chains);

    if (!o.trace)
        return;
    // Traced run only, untimed by the loop above: the recording's
    // cost against the same stream unrecorded, and the inputs-only
    // replay of the last log.
    Rng a(o.seed * 0x100000001B3ull + 13), b(o.seed * 0x100000001B3ull + 13);
    SpanLog quiet;
    std::vector<uint32_t> got;
    auto stream = [&](Rng &rg, bool record) {
        recycleBefore(rig, kBatch, kRecycleLimit, quiet);
        uint64_t t = nowNs();
        if (record)
            rig.session->startRecording();
        for (const StormOp &sop : genStormBatch(rg))
            stormLaunch(rig, sop, 0, quiet, got);
        if (record)
            rig.session->stopRecording();
        return secondsSince(t);
    };
    std::vector<double> plain, recorded;
    for (int rep = 0; rep < 5; ++rep) {
        Rng pa = a, pb = b;
        plain.push_back(stream(pa, false));
        recorded.push_back(stream(pb, true));
    }
    r.layer["replay.record_overhead"] = ratio(median(recorded),
                                              median(plain));
    replay::Log lg = replay::Log::fromBytes(last_log);
    replay::ReplayOptions fast = ropt;
    fast.validate = false;
    std::vector<double> io;
    for (int rep = 0; rep < 5; ++rep) {
        uint64_t t = nowNs();
        replay::ReplayResult rr = replay::replay(lg, fast);
        io.push_back(secondsSince(t) * 1e3);
        if (rr.chains != kBatch)
            simError("inputs-only replay ran %zu chains", rr.chains);
    }
    r.layer["replay.inputs_only_ms"] = median(io);
}

// ====================================================== fleet_serve

constexpr uint32_t kFleetN = 32;   ///< Warm-image matrix size.

/** Launch shape of each SGEMM variant at n (mirrors Fig. 15's table). */
struct VariantShape
{
    uint32_t gx, gy, lx, ly;
    bool transposedB;
};

VariantShape
variantShape(uint32_t v, uint32_t n)
{
    switch (v) {
      case 0: return {n, n, 16, 16, false};
      case 1: return {n, n, 16, 16, false};
      case 2: return {n, n / 4, 16, 4, false};
      case 3: return {n / 2, n / 2, 16, 16, false};
      case 4: return {n, n, 16, 16, true};
      default: return {n / 2, n / 2, 16, 16, false};
    }
}

void
fillMatrix(Rng &rng, std::vector<float> &m, uint32_t rows_from,
           uint32_t rows_to, uint32_t n)
{
    for (uint32_t r = rows_from; r < rows_to; ++r)
        for (uint32_t c = 0; c < n; ++c)
            m[r * n + c] = static_cast<float>(rng.below(1024)) / 256.0f;
}

/** One generated fleet job and what its readback must hold. */
struct FleetJob
{
    enum Kind { Full, Light, RamCrc } kind = Full;
    fleet::JobRequest req;
    uint32_t rowFrom = 0, rowTo = 0;   ///< Rows of C read back.
    std::vector<float> want;            ///< Those rows of A*B.
    uint32_t crcKey = 0;
};

FleetJob
genFleet(Rng &rng, const std::string &tenant, uint64_t seed)
{
    const uint32_t n = kFleetN;
    FleetJob j;
    uint32_t pick = rng.below(100);
    // RAM-CRC jobs stay rare: each reads all 32 MiB of guest RAM
    // (~100 ms), and at 5 % they took most of the workers' time and made
    // run-to-run latency track the host's memory bandwidth.
    j.kind = pick < 1 ? FleetJob::RamCrc
           : pick < 31 ? FleetJob::Light
                       : FleetJob::Full;
    // RAM-CRC jobs come from a small fixed set so every repeat of one
    // must report the same post-job RAM CRC, on whichever session.
    Rng local(seed * 31 + (j.crcKey = rng.below(4)));
    Rng &in = j.kind == FleetJob::RamCrc ? local : rng;
    uint32_t v = in.below(6);
    if (j.kind == FleetJob::Light && v == 4)
        v = 0;   // A transposed B cannot be written by row range.
    VariantShape sh = variantShape(v, n);

    std::vector<float> a(n * n, 0.0f), b(n * n, 0.0f);
    uint32_t ar0 = 0, ar1 = n, br0 = 0, br1 = n;
    if (j.kind == FleetJob::Light) {
        ar0 = in.below(n - 4);
        ar1 = ar0 + 1 + in.below(4);
        br0 = in.below(n - 4);
        br1 = br0 + 1 + in.below(4);
    }
    fillMatrix(in, a, ar0, ar1, n);
    fillMatrix(in, b, br0, br1, n);

    j.req.tenant = tenant;
    j.req.kernel = v;
    j.req.gx = sh.gx;
    j.req.gy = sh.gy;
    j.req.gz = 1;
    j.req.lx = sh.lx;
    j.req.ly = sh.ly;
    j.req.lz = 1;
    j.req.args = {{fleet::ArgSpec::Kind::BufIndex, 0},
                  {fleet::ArgSpec::Kind::BufIndex, 1},
                  {fleet::ArgSpec::Kind::BufIndex, 2},
                  {fleet::ArgSpec::Kind::I32, n}};
    auto rows = [&](uint32_t buf, const std::vector<float> &m, uint32_t r0,
                    uint32_t r1) {
        fleet::WriteSpec w{buf, static_cast<uint64_t>(r0) * n * 4, {}};
        w.bytes.resize(static_cast<size_t>(r1 - r0) * n * 4);
        std::memcpy(w.bytes.data(), &m[r0 * n], w.bytes.size());
        j.req.writes.push_back(std::move(w));
    };
    rows(0, a, ar0, ar1);
    if (sh.transposedB) {
        std::vector<float> bt(n * n);
        for (uint32_t r = 0; r < n; ++r)
            for (uint32_t c = 0; c < n; ++c)
                bt[c * n + r] = b[r * n + c];
        rows(1, bt, 0, n);
    } else {
        rows(1, b, br0, br1);
    }
    j.rowFrom = ar0;
    j.rowTo = ar1;
    j.req.reads.push_back(fleet::ReadSpec{
        2, static_cast<uint64_t>(ar0) * n * 4,
        static_cast<uint64_t>(ar1 - ar0) * n * 4});
    j.req.wantRamCrc = j.kind == FleetJob::RamCrc;
    j.want.assign(static_cast<size_t>(ar1 - ar0) * n, 0.0f);
    for (uint32_t r = ar0; r < ar1; ++r)
        for (uint32_t k = 0; k < n; ++k) {
            float av = a[r * n + k];
            for (uint32_t c = 0; c < n; ++c)
                j.want[(r - ar0) * n + c] += av * b[k * n + c];
        }
    return j;
}

bool
checkFleet(const FleetJob &j, const std::vector<uint8_t> &got)
{
    if (got.size() != j.want.size() * 4)
        return false;
    for (size_t i = 0; i < j.want.size(); ++i) {
        float g;
        std::memcpy(&g, &got[i * 4], 4);
        if (!(std::fabs(g - j.want[i]) <=
              1e-3f * std::max(1.0f, std::fabs(j.want[i]))))
            return false;
    }
    return true;
}

int
connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path))
        simError("socket path too long: %s", path.c_str());
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    for (int tries = 0; tries < 500; ++tries) {
        int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0)
            simError("socket: %s", std::strerror(errno));
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0)
            return fd;
        ::close(fd);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    simError("could not connect to %s", path.c_str());
}

/** An in-process FleetServer serving a Unix socket, plus one client
 *  connection per tenant (each greeted with its Welcome frame). */
class FleetRig
{
  public:
    FleetRig(const Options &o, unsigned rep)
    {
        uint64_t t = nowNs();
        std::vector<uint8_t> bytes =
            fleet::buildSgemmWarmImage(kFleetN, 32u << 20);
        imageBuildMs = secondsSince(t) * 1e3;
        imageBytes = bytes.size();
        t = nowNs();
        image = std::make_shared<const snapshot::Image>(
            snapshot::Image::fromBytes(std::move(bytes)));
        parseMs = secondsSince(t) * 1e3;
        fleet::FleetConfig fc;
        fc.pool.maxSessions = o.clients;
        fc.pool.base.gpu.hostThreads = 1;
        fc.workers = o.clients;
        server = std::make_unique<fleet::FleetServer>(image, fc);
        sock = o.workDir + "/fleet-" + std::to_string(::getpid()) + "-" +
               std::to_string(rep) + ".sock";
        // serve() reports its own socket errors on stderr; the connect
        // below then fails with a located error.
        serveThread = std::thread([this] { server->serve(sock); });
        try {
            for (unsigned c = 0; c < o.clients; ++c) {
                fds.push_back(connectUnix(sock));
                fleet::Frame f;
                if (!fleet::readFrame(fds.back(), f) ||
                    f.kind != fleet::kMsgWelcome)
                    simError("fleet: no welcome frame");
                snapshot::ChunkReader rd = f.reader();
                fleet::Welcome w = fleet::Welcome::parse(rd);
                if (w.kernels.size() != 6 || w.bufferBytes.size() < 3)
                    simError("fleet: unexpected warm image inventory");
            }
        } catch (...) {
            shutdown();
            throw;
        }
    }

    ~FleetRig() { shutdown(); }
    FleetRig(const FleetRig &) = delete;
    FleetRig &operator=(const FleetRig &) = delete;

    void
    shutdown()
    {
        for (int fd : fds)
            ::close(fd);
        fds.clear();
        if (server)
            server->requestShutdown();
        if (serveThread.joinable())
            serveThread.join();
        server.reset();
    }

    std::shared_ptr<const snapshot::Image> image;
    std::unique_ptr<fleet::FleetServer> server;
    std::string sock;
    std::vector<int> fds;
    double imageBuildMs = 0, parseMs = 0;
    size_t imageBytes = 0;

  private:
    std::thread serveThread;   // Declared after what it uses.
};

/** Sends one job frame and waits for its result frame.  The span's
 *  children are the server-measured queue and exec times, so its self
 *  time is the wire: framing, socket and the server's reader thread. */
fleet::JobResultMsg
roundTrip(int fd, const fleet::JobRequest &req, SpanLog &log, uint32_t id)
{
    Scope s(log, "fleet.roundtrip", id);
    snapshot::ChunkWriter w;
    req.serialize(w);
    fleet::writeFrame(fd, fleet::kMsgJob, w.data());
    fleet::Frame f;
    if (!fleet::readFrame(fd, f) || f.kind != fleet::kMsgResult)
        simError("fleet: connection lost mid-job");
    snapshot::ChunkReader rd = f.reader();
    fleet::JobResultMsg m = fleet::JobResultMsg::parse(rd);
    log.measured("fleet.queue", s.id(), m.queueNs);
    log.measured("fleet.exec", s.id(), m.execNs);
    return m;
}

void
runFleet(const Options &o, Result &r)
{
    std::unique_ptr<FleetRig> rig;
    std::vector<double> build_ms, parse_ms;
    unsigned rep = 0;
    timedSetups(r, [&](bool keep) {
        rig.reset();
        rig = std::make_unique<FleetRig>(o, rep++);
        build_ms.push_back(rig->imageBuildMs);
        parse_ms.push_back(rig->parseMs);
        if (!keep)
            rig.reset();
    });
    r.layer["snapshot.image_build_ms"] = median(build_ms);
    r.layer["snapshot.parse_ms"] = median(parse_ms);
    r.layer["snapshot.image_bytes"] = static_cast<double>(rig->imageBytes);
    r.layer["kclc.kernels"] = 6;

    std::mutex crc_lock;
    /** (stream seed, crcKey) -> the RAM CRC its first run reported. */
    std::map<std::pair<uint64_t, uint32_t>, uint32_t> crc_seen;

    struct ClientOut
    {
        uint64_t attempted = 0, failed = 0;
        std::vector<double> lat, queue, exec, wire, ramcrc;
        std::vector<uint64_t> endNs, jobInstrs;   ///< Per job, for windows.
        uint64_t instrs = 0, threads = 0, readbackCrc = 0, ramCrc = 0;
    };

    auto client = [&](unsigned c, uint64_t jobs, double until_s,
                      uint64_t stream_seed, bool timed, SpanLog &log,
                      ClientOut &out) {
        Rng rng(stream_seed * 0x100000001B3ull + c);
        Rounds rounds(o.trace && timed, 16, log);
        const std::string tenant = "tenant-" + std::to_string(c);
        uint64_t start = nowNs();
        for (uint64_t i = 0;
             jobs ? i < jobs : secondsSince(start) < until_s; ++i) {
            uint32_t id = static_cast<uint32_t>(c << 24 | (i & 0xffffff));
            rounds.before();
            Scope op(log, "op", id);
            FleetJob job;
            {
                Scope g(log, "bench.gen", id);
                job = genFleet(rng, tenant, stream_seed);
            }
            ++out.attempted;
            uint64_t t0 = nowNs();
            fleet::JobResultMsg m;
            try {
                m = roundTrip(rig->fds[c], job.req, log, id);
            } catch (const SimError &e) {
                std::fprintf(stderr, "fleet_serve: %s\n", e.what());
                ++out.failed;
                break;
            }
            double rt_s = secondsSince(t0);
            if (timed && corruptThis(o, i) && m.readback.size() >= 4)
                m.readback[(m.readback.size() / 2 & ~size_t(3)) + 3] ^= 0x40;
            bool ok = m.status == fleet::JobStatus::Ok;
            {
                Scope v(log, "bench.verify", id);
                ok = ok && checkFleet(job, m.readback);
                if (ok && job.kind == FleetJob::RamCrc) {
                    std::lock_guard<std::mutex> g(crc_lock);
                    auto [it, fresh] = crc_seen.emplace(
                        std::make_pair(stream_seed, job.crcKey), m.ramCrc);
                    ok = fresh || it->second == m.ramCrc;
                }
            }
            if (!ok) {
                std::fprintf(stderr, "fleet_serve: job %u/%llu %s: %s\n",
                             c, static_cast<unsigned long long>(i),
                             fleet::jobStatusName(m.status),
                             m.detail.empty() ? "readback mismatch"
                                              : m.detail.c_str());
                ++out.failed;
                continue;
            }
            double ms = rt_s * 1e3;
            out.lat.push_back(ms);
            out.queue.push_back(m.queueNs / 1e6);
            out.exec.push_back(m.execNs / 1e6);
            out.wire.push_back(ms - (m.queueNs + m.execNs) / 1e6);
            if (job.kind == FleetJob::RamCrc)
                out.ramcrc.push_back(ms);
            out.endNs.push_back(nowNs());
            out.jobInstrs.push_back(m.kernelInstrs);
            out.instrs += m.kernelInstrs;
            out.threads += m.threadsLaunched;
            out.readbackCrc +=
                snapshot::crc32(m.readback.data(), m.readback.size());
            out.ramCrc += m.ramCrc;
            rounds.after(rt_s);
        }
        rounds.finish(r);
    };

    auto runClients = [&](uint64_t jobs, double until_s, uint64_t seed,
                          bool timed) {
        std::vector<ClientOut> outs(o.clients);
        std::vector<std::thread> th;
        for (unsigned c = 0; c < o.clients; ++c) {
            r.logs.push_back(std::make_unique<SpanLog>());
            SpanLog *log = r.logs.back().get();
            th.emplace_back([&, c, log] {
                client(c, jobs, until_s, seed, timed, *log, outs[c]);
            });
        }
        for (std::thread &t : th)
            t.join();
        return outs;
    };

    // Warm-up and digest: 16 fixed jobs per client.  Each job's result
    // is deterministic whichever session runs it, so order-free sums
    // of them repeat exactly.
    Counters c0 = readCounters();
    std::vector<ClientOut> warm = runClients(16, 0, o.seed ^ 0xABCDEFull,
                                             false);
    Counters dw = readCounters() - c0;
    uint64_t instrs = 0, threads = 0, rb = 0, rc = 0;
    for (const ClientOut &w : warm) {
        r.attempted += w.attempted;
        r.failed += w.failed;
        instrs += w.instrs;
        threads += w.threads;
        rb += w.readbackCrc;
        rc += w.ramCrc;
    }
    r.digest = {{"gpu_instrs", instrs},
                {"clauses", get(dw, "kernel.clauses_executed")},
                {"threads", threads},
                {"readback_crc_sum", rb},
                {"ram_crc_sum", rc}};
    r.note("digest_excluded",
           "guest instret and driver instructions (pooled sessions are "
           "not reachable from outside the server)");
    // The warm-up's spans are not part of the traced rounds.
    r.logs.clear();

    fleet::FleetStats f0 = rig->server->stats();
    Counters t0 = readCounters();
    uint64_t wall0 = nowNs();
    std::vector<ClientOut> outs = runClients(0, o.seconds, o.seed, true);
    r.timedS = secondsSince(wall0);
    r.timed = readCounters() - t0;
    fleet::FleetStats f1 = rig->server->stats();
    // One-second windows by completion time; the tail window, cut short
    // by the end of the loop, is dropped.
    size_t nwin = static_cast<size_t>(o.seconds);
    std::vector<std::vector<double>> win_lat(nwin);
    std::vector<uint64_t> win_instrs(nwin, 0);
    for (const ClientOut &c : outs)
        for (size_t j = 0; j < c.lat.size(); ++j) {
            size_t w = static_cast<size_t>((c.endNs[j] - wall0) / 1e9);
            if (w < nwin) {
                win_lat[w].push_back(c.lat[j]);
                win_instrs[w] += c.jobInstrs[j];
            }
        }
    for (size_t w = 0; w < nwin; ++w)
        if (!win_lat[w].empty())
            r.window(win_lat[w].size(), win_instrs[w], 1.0, win_lat[w]);
    std::vector<double> q, e, wi, rcm;
    for (const ClientOut &c : outs) {
        r.attempted += c.attempted;
        r.failed += c.failed;
        r.latMs.insert(r.latMs.end(), c.lat.begin(), c.lat.end());
        q.insert(q.end(), c.queue.begin(), c.queue.end());
        e.insert(e.end(), c.exec.begin(), c.exec.end());
        wi.insert(wi.end(), c.wire.begin(), c.wire.end());
        rcm.insert(rcm.end(), c.ramcrc.begin(), c.ramcrc.end());
    }
    r.launches = get(r.timed, "sys.compute_jobs");
    r.layer["fleet.queue_ms_p50"] = percentile(q, 50);
    r.layer["fleet.exec_ms_p50"] = percentile(e, 50);
    r.layer["fleet.wire_ms_p50"] = percentile(wi, 50);
    r.layer["fleet.ramcrc_job_ms_p50"] = percentile(rcm, 50);
    double spawns = static_cast<double>(f1.spawns - f0.spawns);
    double recycles = static_cast<double>(f1.recycles - f0.recycles);
    r.layer["fleet.recycle_ratio"] = ratio(recycles, spawns + recycles);
    r.layer["fleet.acquire_waits"] =
        static_cast<double>(f1.acquireWaits - f0.acquireWaits);
    r.layer["fleet.rejected"] =
        static_cast<double>(f1.jobsRejected - f0.jobsRejected);
    r.layer["runtime.bytes_in"] =
        ratio(static_cast<double>(f1.bytesIn - f0.bytesIn),
              static_cast<double>(r.latMs.size()));
    r.layer["runtime.bytes_out"] =
        ratio(static_cast<double>(f1.bytesOut - f0.bytesOut),
              static_cast<double>(r.latMs.size()));
    r.note("clients", std::to_string(o.clients));
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "queue %.3f  exec %.3f  wire %.3f  ramcrc-job %.3f",
                  percentile(q, 50), percentile(e, 50), percentile(wi, 50),
                  percentile(rcm, 50));
    r.note("fleet_p50_ms", buf);
    rig.reset();
}

// ============================================================ report

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** The end-to-end metrics (BENCHMARK.json "end_to_end", same order). */
std::vector<Metric>
endToEnd(const Result &r)
{
    double ok = static_cast<double>(r.attempted - r.failed);
    // Medians over windows; a run too short for one whole window falls
    // back to the whole timed region.
    bool win = !r.winOpsPerS.empty();
    auto pick = [&](const std::vector<double> &w, double whole) {
        return win ? median(w) : whole;
    };
    return {
        {"setup_s", median(r.setupS), "s"},
        {"ops_per_s",
         pick(r.winOpsPerS,
              ratio(static_cast<double>(r.latMs.size()), r.timedS)),
         "1/s"},
        {"op_p50_ms", pick(r.winP50, percentile(r.latMs, 50)), "ms"},
        {"op_p90_ms", pick(r.winP90, percentile(r.latMs, 90)), "ms"},
        {"gpu_mips",
         pick(r.winMips,
              ratio(static_cast<double>(gpuInstrs(r.timed)), r.timedS) /
                  1e6),
         "MIPS"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ok_frac", ratio(ok, static_cast<double>(r.attempted)), "frac"},
    };
}

/** The per-layer metrics (BENCHMARK.json "per_layer", same order). */
std::vector<Metric>
perLayer(Result &r, double calib)
{
    std::vector<const SpanLog *> logs;
    for (const auto &l : r.logs)
        logs.push_back(l.get());
    std::map<std::string, SpanAgg> agg = aggregate(logs);
    auto meanUs = [&](const char *name) {
        const SpanAgg &a = agg[name];
        return ratio(a.durNs / 1e3, static_cast<double>(a.calls));
    };
    double launches = static_cast<double>(r.launches);
    const Counters &t = r.timed;
    auto L = [&](const char *k) {
        auto it = r.layer.find(k);
        return it == r.layer.end() ? 0.0 : it->second;
    };

    // Coverage: self time by layer plus "other" equals the traced wall.
    std::map<std::string, double> self;
    double covered = 0;
    for (const auto &[name, a] : agg) {
        if (name == "op" || std::string(layerOf(name)) == "other")
            continue;
        self[layerOf(name)] += a.selfNs / 1e9;
        covered += a.selfNs / 1e9;
    }
    double wall = r.wallOnS;
    self["other"] = std::max(0.0, wall - covered);

    // Overhead: median traced/untraced pair ratio.  Noise: the robust
    // spread of those ratios, shrunk by the number of pairs; a negative
    // overhead beyond twice that is flagged as a measurement artefact.
    double mid = median(r.roundRatio);
    double overhead = r.roundRatio.empty() ? 0 : mid - 1;
    std::vector<double> dev;
    for (double x : r.roundRatio)
        dev.push_back(std::fabs(x - mid));
    double noise = r.roundRatio.empty()
                       ? 0
                       : 1.4826 * median(dev) /
                             std::sqrt(static_cast<double>(
                                 r.roundRatio.size()));
    bool flag = overhead < -2 * noise;

    double cpu_instret = static_cast<double>(get(t, "cpu.instret"));
    double enq_fs_s = agg["runtime.enqueue.fullsystem"].durNs / 1e9;
    uint64_t blk = get(t, "cpu.block_hits"), dec = get(t, "cpu.blocks_decoded");
    uint64_t tlb_hits = get(t, "tlb.last_page_hits") + get(t, "tlb.array_hits");
    uint64_t walks = get(t, "tlb.walks");
    uint64_t l1 = get(t, "sched.shader_l1_hits");
    uint64_t l2 = get(t, "sched.shader_l2_fills");

    std::vector<Metric> m = {
        {"host.calib_ns", calib, "ns"},
        {"host.nproc", static_cast<double>(hostCpus()), "count"},
        {"kclc.compile_ms",
         ratio(g_compile.ns / 1e6, static_cast<double>(g_compile.calls)),
         "ms"},
        {"kclc.kernels", L("kclc.kernels"), "count"},
        {"runtime.alloc_us", meanUs("runtime.alloc"), "us"},
        {"runtime.write_us", meanUs("runtime.write"), "us"},
        {"runtime.enqueue_us",
         std::max(meanUs("runtime.enqueue.direct"),
                  meanUs("runtime.enqueue.fullsystem")),
         "us"},
        {"runtime.read_us", meanUs("runtime.read"), "us"},
        {"runtime.bytes_in", L("runtime.bytes_in"), "bytes"},
        {"runtime.bytes_out", L("runtime.bytes_out"), "bytes"},
        {"cpu.instret", ratio(cpu_instret, launches), "count"},
        {"cpu.mips", ratio(cpu_instret, enq_fs_s) / 1e6, "MIPS"},
        {"cpu.block_hit_ratio",
         ratio(static_cast<double>(blk), static_cast<double>(blk + dec)),
         "frac"},
        {"cpu.dbt_chain_follows",
         ratio(static_cast<double>(get(t, "cpu.dbt_chain_follows")),
               launches),
         "count"},
        {"guestos.driver_instrs_per_launch",
         L("guestos.driver_instrs_per_launch"), "count"},
        {"soc.irqs_per_launch",
         ratio(static_cast<double>(get(t, "sys.irqs_asserted")), launches),
         "count"},
        {"soc.ctrl_reg_accesses_per_launch",
         ratio(static_cast<double>(get(t, "sys.ctrl_reg_reads") +
                                   get(t, "sys.ctrl_reg_writes")),
               launches),
         "count"},
        {"gpu.instrs", ratio(static_cast<double>(gpuInstrs(t)), launches),
         "count"},
        {"gpu.clauses",
         ratio(static_cast<double>(get(t, "kernel.clauses_executed")),
               launches),
         "count"},
        {"gpu.workgroups",
         ratio(static_cast<double>(get(t, "kernel.workgroups")), launches),
         "count"},
        {"gpu.exec_ms", meanUs("runtime.enqueue.direct") / 1e3, "ms"},
        {"gpu.shader_cache.decodes", L("gpu.shader_cache.decodes"),
         "count"},
        {"gpu.shader_cache.hit_ratio", L("gpu.shader_cache.hit_ratio"),
         "frac"},
        {"gpu.sched.steal_ratio",
         ratio(static_cast<double>(get(t, "sched.steals")),
               static_cast<double>(get(t, "sched.slices_run"))),
         "frac"},
        {"gpu.sched.l1_hit_ratio",
         ratio(static_cast<double>(l1), static_cast<double>(l1 + l2)),
         "frac"},
        {"gpu.gmmu.tlb_hit_ratio",
         ratio(static_cast<double>(tlb_hits),
               static_cast<double>(tlb_hits + walks)),
         "frac"},
        {"gpu.gmmu.walks", ratio(static_cast<double>(walks), launches),
         "count"},
        {"gpu.pages_accessed",
         ratio(static_cast<double>(get(t, "sys.pages_accessed")), launches),
         "count"},
        {"snapshot.image_build_ms", L("snapshot.image_build_ms"), "ms"},
        {"snapshot.parse_ms", L("snapshot.parse_ms"), "ms"},
        {"snapshot.image_bytes", L("snapshot.image_bytes"), "bytes"},
        {"fleet.queue_ms_p50", L("fleet.queue_ms_p50"), "ms"},
        {"fleet.exec_ms_p50", L("fleet.exec_ms_p50"), "ms"},
        {"fleet.wire_ms_p50", L("fleet.wire_ms_p50"), "ms"},
        {"fleet.ramcrc_job_ms_p50", L("fleet.ramcrc_job_ms_p50"), "ms"},
        {"fleet.recycle_ratio", L("fleet.recycle_ratio"), "frac"},
        {"fleet.acquire_waits", L("fleet.acquire_waits"), "count"},
        {"fleet.rejected", L("fleet.rejected"), "count"},
        {"replay.record_overhead", L("replay.record_overhead"), "ratio"},
        {"replay.stop_ms", L("replay.stop_ms"), "ms"},
        {"replay.log_bytes", L("replay.log_bytes"), "bytes"},
        {"replay.parse_ms", L("replay.parse_ms"), "ms"},
        {"replay.validate_ms", L("replay.validate_ms"), "ms"},
        {"replay.inputs_only_ms", L("replay.inputs_only_ms"), "ms"},
        {"trace.overhead_frac", overhead, "frac"},
        {"trace.overhead_flag", flag ? 1.0 : 0.0, "count"},
        {"trace.uncovered_frac", ratio(self["other"], wall), "frac"},
    };
    for (const char *layer : kShareLayers)
        m.push_back({std::string("share.") + layer,
                     ratio(self[layer], wall), "frac"});
    return m;
}

std::string
fmtNum(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parseOptions(argc, argv);
    double calib = calibNs();
    Result r;
    std::vector<Metric> metrics;
    try {
        if (o.workload == "gpu_compute")
            runGpuCompute(o, r);
        else if (o.workload == "fs_launch_storm")
            runLaunchStorm(o, r);
        else if (o.workload == "fleet_serve")
            runFleet(o, r);
        else if (o.workload == "record_replay")
            runRecordReplay(o, r);
        else
            usage();
        metrics = o.trace ? perLayer(r, calib) : endToEnd(r);
    } catch (const SimError &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", o.workload.c_str(),
                     e.what());
        return 1;
    }

    std::printf("workload %s seed %llu seconds %g trace %d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace ? 1 : 0);
    std::printf("host calib_ns %.0f nproc %u\n", calib, hostCpus());
    uint64_t h = 0xcbf29ce484222325ull;
    std::printf("digest");
    for (const auto &[k, v] : r.digest) {
        std::printf(" %s=%llu", k.c_str(), static_cast<unsigned long long>(v));
        for (char ch : k + "=" + std::to_string(v))
            h = (h ^ static_cast<uint8_t>(ch)) * 0x100000001b3ull;
    }
    std::printf(" hash=%016llx\n", static_cast<unsigned long long>(h));
    for (const auto &[k, v] : r.notes)
        std::printf("note %s: %s\n", k.c_str(), v.c_str());
    size_t n = r.latMs.size();
    double tail = tailPercentile(n);
    std::printf("latency n=%zu p50=%.4f ms p%g=%.4f ms\n", n,
                percentile(r.latMs, 50), tail, percentile(r.latMs, tail));

    for (const Metric &m : metrics)
        std::printf("%-36s %14s %s\n", m.name.c_str(),
                    fmtNum(m.value).c_str(), m.unit);
    if (o.trace) {
        std::vector<const SpanLog *> logs;
        for (const auto &l : r.logs)
            logs.push_back(l.get());
        std::string path = o.workDir + "/spans-" + o.workload + "-" +
                           std::to_string(o.seed) + ".json";
        writeSpans(path, logs);
        std::printf("spans written to %s\n", path.c_str());
    }

    bool correct = r.failed == 0 && r.attempted > 0;
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(r.attempted);
    json += ", \"failed\": " + std::to_string(r.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
                "\": {\"value\": " + fmtNum(metrics[i].value) +
                ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

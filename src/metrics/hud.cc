#include "metrics/hud.h"

#include <cstdarg>
#include <cstdio>

#include "metrics/metrics.h"

namespace bifsim::metrics {

using gpu::counterSlot;

namespace {

/** Rate window; the refresh loop samples often enough that a few
 *  samples land inside it. */
constexpr uint64_t kWindowNs = 1'000'000'000;

/** Every line is padded to this width so an ANSI cursor-up rewrite
 *  fully covers the previous frame. */
constexpr size_t kWidth = 64;

std::string
fmtRate(double v)
{
    char buf[32];
    if (v >= 1e9)
        std::snprintf(buf, sizeof buf, "%7.2fG", v * 1e-9);
    else if (v >= 1e6)
        std::snprintf(buf, sizeof buf, "%7.2fM", v * 1e-6);
    else if (v >= 1e3)
        std::snprintf(buf, sizeof buf, "%7.2fk", v * 1e-3);
    else
        std::snprintf(buf, sizeof buf, "%7.1f ", v);
    return buf;
}

void
addLine(std::string &out, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

void
addLine(std::string &out, const char *fmt, ...)
{
    char buf[160];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    std::string line(buf);
    if (line.size() < kWidth)
        line.append(kWidth - line.size(), ' ');
    out += line;
    out += '\n';
}

} // namespace

std::string
renderHud(const Registry &reg)
{
    Sample newest;
    bool have = reg.ringAt(0, newest);
    std::array<uint64_t, kMaxSlots> totals =
        have ? newest.v : reg.totals();

    auto rate = [&](uint16_t slot) { return reg.rate(slot, kWindowNs); };

    // CPU.
    double mips = rate(counterSlot("cpu.instret")) * 1e-6;
    uint64_t instret = totals[counterSlot("cpu.instret")];

    // GPU: thread-weighted kernel instructions per second + jobs/s.
    double kinstr = rate(counterSlot("kernel.arith_instrs")) +
                    rate(counterSlot("kernel.ls_instrs")) +
                    rate(counterSlot("kernel.cf_instrs"));
    double jobs = rate(counterSlot("sys.compute_jobs"));
    uint64_t jobsTotal = totals[counterSlot("sys.compute_jobs")];

    // TLB: windowed hit ratio.  Rates share the window, so the ratio
    // of rates equals the ratio of deltas.
    double hits = rate(counterSlot("tlb.last_page_hits")) +
                  rate(counterSlot("tlb.array_hits"));
    double walks = rate(counterSlot("tlb.walks"));
    double tlbPct = hits + walks > 0 ? 100.0 * hits / (hits + walks) : 0;

    // Scheduler: successful steals per attempt, windowed.
    double steals = rate(counterSlot("sched.steals"));
    double attempts = rate(counterSlot("sched.steal_attempts"));
    double stealPct = attempts > 0 ? 100.0 * steals / attempts : 0;

    std::string out;
    addLine(out, "cpu   %s insts/s   (%llu retired)",
            fmtRate(mips * 1e6).c_str(),
            static_cast<unsigned long long>(instret));
    addLine(out, "gpu   %s kinsts/s  %6.1f jobs/s  (%llu jobs)",
            fmtRate(kinstr).c_str(), jobs,
            static_cast<unsigned long long>(jobsTotal));
    addLine(out, "tlb   %5.1f%% hit      %s walks/s", tlbPct,
            fmtRate(walks).c_str());
    addLine(out, "sched %5.1f%% steal    %s attempts/s", stealPct,
            fmtRate(attempts).c_str());

    // Fleet block only when a server has ever published (gauges are
    // set on the first completed job).
    uint64_t live = totals[counterSlot("fleet.sessions_live")];
    uint64_t submitted = totals[counterSlot("fleet.jobs_submitted")];
    if (live || submitted) {
        double fjobs = rate(counterSlot("fleet.jobs_completed"));
        addLine(out,
                "fleet %6.1f jobs/s  depth %-4llu live %-3llu idle %-3llu",
                fjobs,
                static_cast<unsigned long long>(
                    totals[counterSlot("fleet.queue_depth")]),
                static_cast<unsigned long long>(live),
                static_cast<unsigned long long>(
                    totals[counterSlot("fleet.sessions_idle")]));
    }
    return out;
}

} // namespace bifsim::metrics

#ifndef BIFSIM_BENCH_BENCH_UTIL_H
#define BIFSIM_BENCH_BENCH_UTIL_H

/**
 * @file
 * Shared helpers for the figure-reproduction benches.  Every bench
 * accepts `--full` to run at (or near) the paper's input sizes and
 * `--scale S` for explicit control; defaults are sized so the whole
 * bench suite completes in minutes on a laptop-class host.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"

namespace bifsim::bench {

/** Common command-line options. */
struct Options
{
    double scale = 0.02;
    bool full = false;

    static Options
    parse(int argc, char **argv, double default_scale = 0.02)
    {
        Options o;
        o.scale = default_scale;
        for (int i = 1; i < argc; ++i) {
            if (std::strcmp(argv[i], "--full") == 0) {
                o.full = true;
                o.scale = 1.0;
            } else if (std::strcmp(argv[i], "--scale") == 0 &&
                       i + 1 < argc) {
                o.scale = std::atof(argv[++i]);
            }
        }
        return o;
    }
};

/** Wall-clock stopwatch. */
class Timer
{
  public:
    Timer() : start_(Clock::now()) {}

    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_)
            .count();
    }

    void reset() { start_ = Clock::now(); }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/**
 * Robust summary of repeated measurements (usually seconds): the
 * median, its spread as 1.4826 x MAD (median absolute deviation scaled
 * to estimate a normal sigma, so one slow outlier cannot inflate it),
 * and a flag when that spread exceeds kNoisyFraction of the median.
 */
struct Measurement
{
    static constexpr double kNoisyFraction = 0.10;

    std::vector<double> samples;   ///< Kept repetitions.
    double median = 0;
    double mad = 0;                ///< 1.4826 x MAD.
    bool noisy = false;            ///< mad > kNoisyFraction x median.
};

/** Median of @p v (mean of the middle two for an even count). */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : (v[h - 1] + v[h]) / 2;
}

/** Summarises @p samples: median, 1.4826 x MAD and the noisy flag. */
inline Measurement
summarize(std::vector<double> samples)
{
    Measurement m;
    m.samples = std::move(samples);
    m.median = median(m.samples);
    std::vector<double> dev;
    for (double x : m.samples)
        dev.push_back(std::fabs(x - m.median));
    m.mad = 1.4826 * median(dev);
    m.noisy = m.mad > Measurement::kNoisyFraction * m.median;
    return m;
}

/**
 * The one timing primitive: runs @p rep @p warmup times and discards
 * the results, then @p reps times and summarises them.  @p rep runs
 * one repetition and returns what it measured, usually the seconds it
 * timed, so each bench decides what is inside the timed region (set-up
 * is not).
 */
template <typename Rep>
Measurement
measure(Rep &&rep, unsigned reps = 5, unsigned warmup = 1)
{
    for (unsigned i = 0; i < warmup; ++i)
        rep();
    std::vector<double> samples;
    for (unsigned i = 0; i < reps; ++i)
        samples.push_back(rep());
    return summarize(std::move(samples));
}

/** Prints the standard bench banner. */
inline void
banner(const char *figure, const char *description)
{
    std::printf("==== %s ====\n%s\n\n", figure, description);
}

/**
 * The one BENCH_*.json writer (docs/METRICS.md).  Every bench fills
 * its numbers into metrics() and calls write(); the envelope —
 * identity, scale, host shape, gate outcome — is uniform so the
 * simsweep baseline differ (src/metrics/sweep.h) can flatten any
 * bench file with one set of tolerance rules:
 *
 *   {
 *     "bench": "<name>", "schema": 2, "scale": S,
 *     "host": {"hw_threads": N},
 *     "gate": {"enforced": b, "metric": "...", "threshold": t,
 *              "value": v},
 *     "metrics": { ...bench-specific... }
 *   }
 *
 * `gate` reports what the bench's own pass/fail check did (enforced
 * false = self-disarmed, e.g. a thread-scaling gate on a 1-core
 * host); the differ never gates on it, it is provenance.
 */
class Report
{
  public:
    Report(std::string bench, double scale)
        : bench_(std::move(bench)), scale_(scale),
          metrics_(json::Value::object())
    {
    }

    /** The bench-specific metrics object; fill freely. */
    json::Value &metrics() { return metrics_; }

    /** Records the bench's own gate check (call at most once). */
    void
    gate(const char *metric, double threshold, double value,
         bool enforced)
    {
        gate_ = json::Value::object();
        gate_.set("enforced", json::Value(enforced));
        gate_.set("metric", json::Value(metric));
        gate_.set("threshold", json::Value(threshold));
        gate_.set("value", json::Value(value));
    }

    /** Writes BENCH_<bench>.json into the current directory. */
    bool
    write() const
    {
        json::Value doc = json::Value::object();
        doc.set("bench", json::Value(bench_));
        doc.set("schema", json::Value(2));
        doc.set("scale", json::Value(scale_));
        json::Value host = json::Value::object();
        host.set("hw_threads",
                 json::Value(static_cast<uint64_t>(
                     std::thread::hardware_concurrency())));
        doc.set("host", std::move(host));
        if (!gate_.isNull())
            doc.set("gate", gate_);
        doc.set("metrics", metrics_);
        std::string path = "BENCH_" + bench_ + ".json";
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        std::string text = doc.dump();
        std::fputs(text.c_str(), f);
        std::fclose(f);
        std::printf("\nwrote %s\n", path.c_str());
        return true;
    }

  private:
    std::string bench_;
    double scale_;
    json::Value metrics_;
    json::Value gate_;
};

} // namespace bifsim::bench

#endif // BIFSIM_BENCH_BENCH_UTIL_H

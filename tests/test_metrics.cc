/** @file Always-on metrics registry (DESIGN.md §5k): slots are the
 *  counter tables' positions, batch atomicity under a concurrent
 *  publisher (the TSan job runs this), sampled-vs-exact totals across
 *  threads, gauge store-latest semantics, no state inherited by a
 *  registry built in a dead one's storage, the publishers' delta
 *  baseline, ring wraparound and windowed rates, HUD rendering, and
 *  the sweep differ's flatten / classify / tolerance fixtures that
 *  simsweep's CI gate rides on. */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <new>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/logging.h"
#include "instrument/stats.h"
#include "metrics/hud.h"
#include "metrics/metrics.h"
#include "metrics/sweep.h"

namespace bifsim {
namespace {

using gpu::counterSlot;
using gpu::NamedCounter;
using metrics::kMaxSlots;
using metrics::Registry;

// Counters the tests below publish; any registered name would do.
constexpr uint16_t kArith = counterSlot("kernel.arith_instrs");
constexpr uint16_t kWalks = counterSlot("tlb.walks");
constexpr uint16_t kSteals = counterSlot("sched.steals");
constexpr uint16_t kInstret = counterSlot("cpu.instret");
constexpr uint16_t kDepth = counterSlot("fleet.queue_depth");   // Gauge.

// ------------------------------------------------------ Slot table

// counterSlot resolves every registered name to its own position.
static_assert([]() consteval {
    for (size_t i = 0; i < gpu::kCounters.size(); ++i)
        if (counterSlot(gpu::kCounters[i].name) != i)
            return false;
    return true;
}());

/** Slot whose name is @p name, found by scanning the slot names. */
size_t
slotByName(const char *name)
{
    for (size_t i = 0; i < Registry::slotCount(); ++i)
        if (std::string(Registry::slotName(static_cast<uint16_t>(i))) ==
            name)
            return i;
    ADD_FAILURE() << name << " has no slot";
    return 0;
}

/** Sets every counter of an @p S to a distinct value, publishes it
 *  through appendCounters, and checks each value landed in the slot
 *  named like its table entry (gauges: ignored by publish).  Returns
 *  the table length. */
template <typename S>
size_t
checkPublishedAtNamedSlots()
{
    S s;
    uint64_t v = 1;
    for (const gpu::CounterField<S> &c : gpu::kCounterTable<S>)
        s.*c.field = v++;
    std::vector<NamedCounter> batch;
    gpu::appendCounters(batch, s);
    Registry reg;
    reg.publish(batch);
    std::array<uint64_t, kMaxSlots> t = reg.totals();
    v = 1;
    for (const gpu::CounterField<S> &c : gpu::kCounterTable<S>) {
        size_t slot = slotByName(c.name);
        EXPECT_EQ(c.gauge, gpu::counterIsGauge(slot)) << c.name;
        EXPECT_EQ(c.gauge ? 0 : v, t[slot]) << c.name;
        ++v;
    }
    return batch.size();
}

TEST(MetricsRegistry, SlotsAreTablePositions)
{
    // Dense and unique: every slot has a name, no two share one.
    std::set<std::string> names;
    for (size_t i = 0; i < kMaxSlots; ++i) {
        const char *n = Registry::slotName(static_cast<uint16_t>(i));
        ASSERT_NE(nullptr, n);
        EXPECT_STREQ(gpu::counterName(static_cast<uint16_t>(i)), n);
        names.insert(n);
    }
    EXPECT_EQ(kMaxSlots, names.size());
    EXPECT_EQ(kMaxSlots, Registry::slotCount());
    EXPECT_EQ(nullptr, Registry::slotName(kMaxSlots));
    EXPECT_STREQ("tlb.walks", Registry::slotName(kWalks));
    EXPECT_STREQ("fleet.queue_depth", Registry::slotName(kDepth));

    // Every table lands at its named slots, and together the tables
    // fill the slot table exactly.
    size_t entries = checkPublishedAtNamedSlots<gpu::KernelStats>() +
                     checkPublishedAtNamedSlots<gpu::TlbStats>() +
                     checkPublishedAtNamedSlots<gpu::SystemStats>() +
                     checkPublishedAtNamedSlots<gpu::SchedStats>() +
                     checkPublishedAtNamedSlots<sa32::CoreStats>() +
                     checkPublishedAtNamedSlots<fleet::FleetStats>() +
                     checkPublishedAtNamedSlots<gpu::ShaderCacheStats>();
    EXPECT_EQ(kMaxSlots, entries);
}

// ---------------------------------------------------- Publish paths

TEST(MetricsRegistry, PublishAccumulatesDeltas)
{
    Registry reg;
    reg.publish({{kArith, 5}, {kWalks, 2}});
    reg.publish({{kArith, 1}, {kWalks, 0}});
    auto totals = reg.totals();
    EXPECT_EQ(6u, totals[kArith]);
    EXPECT_EQ(2u, totals[kWalks]);
    EXPECT_EQ(2u, reg.stats().publishes);
}

TEST(MetricsRegistry, DisabledRegistryDropsBatches)
{
    Registry reg;
    reg.publish({{kSteals, 1}});
    reg.setEnabled(false);
    EXPECT_FALSE(reg.enabled());
    reg.publish({{kSteals, 100}});
    reg.setEnabled(true);
    reg.publish({{kSteals, 2}});
    EXPECT_EQ(3u, reg.totals()[kSteals]);
    EXPECT_EQ(2u, reg.stats().publishes);
}

TEST(MetricsRegistry, GaugeStoresLatestNotSum)
{
    Registry reg;
    reg.setGauge(kDepth, 5);
    reg.setGauge(kDepth, 3);
    EXPECT_EQ(3u, reg.totals()[kDepth]);
    reg.setGauge(kDepth, 0);   // Gauges can legally return to 0.
    EXPECT_EQ(0u, reg.totals()[kDepth]);
    // A delta naming a gauge is ignored: a level is not a sum.
    reg.publish({{kDepth, 9}});
    EXPECT_EQ(0u, reg.totals()[kDepth]);
}

TEST(MetricsRegistry, RegistryInReusedStorageInheritsNoSlots)
{
    // A registry built where a destroyed one lived (common for
    // stack-allocated test registries) must start empty: no cell of
    // the dead registry may leak in through publish() or setGauge().
    alignas(Registry) unsigned char storage[sizeof(Registry)];
    Registry *dead = new (storage) Registry(4);
    dead->setGauge(kDepth, 3);
    dead->publish({{kWalks, 1}});
    dead->~Registry();

    Registry *reg = new (storage) Registry(4);
    reg->publish({{kInstret, 7}});
    reg->setGauge(kDepth, 5);
    std::array<uint64_t, kMaxSlots> t = reg->totals();
    uint64_t sum = 0;
    for (uint64_t v : t)
        sum += v;
    EXPECT_EQ(12u, sum);   // Nothing but this registry's two cells.
    EXPECT_EQ(7u, t[kInstret]);
    EXPECT_EQ(5u, t[kDepth]);
    reg->~Registry();
}

TEST(MetricsBaseline, PublishesGrowthOnceAndRebases)
{
    metrics::CounterBaseline base;
    std::vector<NamedCounter> out;
    base.appendDeltas(out, {{kArith, 5}, {kWalks, 0}});
    ASSERT_EQ(1u, out.size());   // Only counters that grew.
    EXPECT_EQ(kArith, out[0].slot);
    EXPECT_STREQ("kernel.arith_instrs", out[0].name());
    EXPECT_EQ(5u, out[0].value);

    out.clear();
    base.appendDeltas(out, {{kArith, 8}, {kWalks, 2}});
    ASSERT_EQ(2u, out.size());
    EXPECT_EQ(3u, out[0].value);
    EXPECT_EQ(2u, out[1].value);

    // Totals read before the previous call (a racing reader) publish
    // nothing twice, and the baseline never moves backwards.
    out.clear();
    base.appendDeltas(out, {{kArith, 6}, {kWalks, 2}});
    EXPECT_TRUE(out.empty());
    base.appendDeltas(out, {{kArith, 9}, {kWalks, 2}});
    ASSERT_EQ(1u, out.size());
    EXPECT_EQ(1u, out[0].value);

    // After a reset the owner rebases; only later growth is published.
    out.clear();
    base.rebase({{kArith, 0}, {kWalks, 0}});
    base.appendDeltas(out, {{kArith, 4}, {kWalks, 0}});
    ASSERT_EQ(1u, out.size());
    EXPECT_EQ(4u, out[0].value);
}

// -------------------------------------------------- Concurrency

TEST(MetricsRegistry, SampledTotalsMatchExactAfterJoin)
{
    Registry reg;
    constexpr int kThreads = 4;
    constexpr int kBatches = 1000;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([&reg] {
            for (int i = 0; i < kBatches; ++i)
                reg.publish({{kArith, 3}, {kWalks, 1}});
        });
    }
    for (std::thread &w : workers)
        w.join();
    auto totals = reg.totals();
    EXPECT_EQ(uint64_t{kThreads} * kBatches * 3, totals[kArith]);
    EXPECT_EQ(uint64_t{kThreads} * kBatches, totals[kWalks]);
}

TEST(MetricsRegistry, SnapshotSeesBatchesAtomically)
{
    // A writer publishes batches whose two counters always move in
    // lockstep; a concurrent reader reads totals() the whole time and
    // must always see them equal — a batch is added under the lock,
    // so it is seen whole or not at all — never decreasing, never
    // overshooting.  TSan runs this test.
    Registry reg;
    constexpr uint64_t kBatches = 20000;
    std::atomic<bool> done{false};
    std::atomic<bool> seen{false};
    std::thread writer([&] {
        for (uint64_t i = 0; i < kBatches; ++i) {
            reg.publish({{kArith, 1}, {kWalks, 1}});
            // Hold after the first batch until the reader has read it,
            // so reads overlap writes even when the host deschedules
            // the reader for the whole run.
            while (i == 0 && !seen.load(std::memory_order_acquire))
                std::this_thread::yield();
        }
        done.store(true, std::memory_order_release);
    });

    uint64_t prev_a = 0;
    uint64_t reads = 0;
    while (!done.load(std::memory_order_acquire)) {
        auto totals = reg.totals();
        uint64_t a = totals[kArith];
        uint64_t b = totals[kWalks];
        EXPECT_GE(a, prev_a) << "totals went backwards";
        EXPECT_LE(a, kBatches);
        EXPECT_LE(b, kBatches);
        EXPECT_EQ(a, b) << "torn batch";
        prev_a = a;
        ++reads;
        seen.store(true, std::memory_order_release);
    }
    writer.join();
    auto totals = reg.totals();
    EXPECT_EQ(kBatches, totals[kArith]);
    EXPECT_EQ(kBatches, totals[kWalks]);
    EXPECT_GT(reads, 0u);
}

// ------------------------------------------------------------ Ring

TEST(MetricsRegistry, RingWrapsKeepingNewest)
{
    Registry reg(4);
    EXPECT_EQ(4u, reg.ringCapacity());
    for (uint64_t i = 1; i <= 7; ++i) {
        reg.publish({{kSteals, 1}});
        reg.sample();
    }
    EXPECT_EQ(4u, reg.ringSize());
    EXPECT_EQ(7u, reg.ringPushed());
    EXPECT_EQ(7u, reg.stats().samples);

    metrics::Sample smp;
    ASSERT_TRUE(reg.ringAt(0, smp));
    EXPECT_EQ(7u, smp.v[kSteals]);    // Newest sample.
    uint64_t newest_ns = smp.ns;
    ASSERT_TRUE(reg.ringAt(3, smp));
    EXPECT_EQ(4u, smp.v[kSteals]);    // Oldest retained (5,6,7 evicted
                                      // samples 1..3).
    EXPECT_LE(smp.ns, newest_ns);     // Timeline is monotone.
    EXPECT_FALSE(reg.ringAt(4, smp)); // Wrapped away.
}

TEST(MetricsRegistry, RateMatchesHandComputedRingDelta)
{
    Registry reg;
    reg.publish({{kInstret, 100}});
    reg.sample();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    reg.publish({{kInstret, 900}});
    reg.sample();

    metrics::Sample newest, oldest;
    ASSERT_TRUE(reg.ringAt(0, newest));
    ASSERT_TRUE(reg.ringAt(1, oldest));
    ASSERT_GT(newest.ns, oldest.ns);
    double expect =
        static_cast<double>(newest.v[kInstret] - oldest.v[kInstret]) /
        (static_cast<double>(newest.ns - oldest.ns) * 1e-9);
    EXPECT_NEAR(expect, reg.rate(kInstret, UINT64_MAX / 2),
                expect * 1e-9);
}

TEST(MetricsRegistry, RateNeedsTwoSamples)
{
    Registry reg;
    reg.publish({{kInstret, 5}});
    EXPECT_EQ(0.0, reg.rate(kInstret, 1'000'000'000));
    reg.sample();
    EXPECT_EQ(0.0, reg.rate(kInstret, 1'000'000'000));
}

// ------------------------------------------------------------- HUD

TEST(MetricsHud, RendersStableFrameShape)
{
    Registry reg;
    reg.publish({{kInstret, 1000000},
                 {kArith, 5000},
                 {counterSlot("kernel.ls_instrs"), 2000},
                 {counterSlot("kernel.cf_instrs"), 500},
                 {counterSlot("sys.compute_jobs"), 3},
                 {counterSlot("tlb.last_page_hits"), 90},
                 {counterSlot("tlb.array_hits"), 8},
                 {kWalks, 2},
                 {kSteals, 4},
                 {counterSlot("sched.steal_attempts"), 10}});
    reg.sample();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    reg.publish({{kInstret, 1000000}});
    reg.sample();

    std::string frame = metrics::renderHud(reg);
    ASSERT_FALSE(frame.empty());
    EXPECT_EQ('\n', frame.back());
    EXPECT_NE(std::string::npos, frame.find("cpu"));
    EXPECT_NE(std::string::npos, frame.find("tlb"));
    EXPECT_EQ(std::string::npos, frame.find("fleet"))
        << "fleet block must stay hidden until a server publishes";

    auto lines = [](const std::string &s) {
        size_t n = 0;
        for (char c : s)
            n += c == '\n';
        return n;
    };
    EXPECT_EQ(4u, lines(frame));

    // A second frame has the same line count (cursor-up rewrite
    // contract) until a new subsystem appears.
    reg.sample();
    EXPECT_EQ(4u, lines(metrics::renderHud(reg)));

    // Fleet gauges unhide the fleet line.
    reg.setGauge(counterSlot("fleet.sessions_live"), 2);
    reg.setGauge(kDepth, 1);
    reg.sample();
    std::string fleet_frame = metrics::renderHud(reg);
    EXPECT_EQ(5u, lines(fleet_frame));
    EXPECT_NE(std::string::npos, fleet_frame.find("fleet"));
}

// ------------------------------------------------- Sweep: flatten

TEST(SweepFlatten, DotsObjectsAndNamesArrays)
{
    json::Value doc = json::Value::parse(R"({
      "bench": "demo",
      "nested": {"inner": {"leaf": 3}},
      "named": [{"name": "a", "v": 1}, {"name": "b", "v": 2}],
      "plain": [10, 20],
      "flag": true
    })");
    auto flat = metrics::sweep::flatten(doc);

    EXPECT_EQ(1u, flat.count("bench"));
    EXPECT_TRUE(flat.at("bench").isStr);
    EXPECT_EQ("demo", flat.at("bench").str);
    EXPECT_EQ(3.0, flat.at("nested.inner.leaf").num);
    // Named arrays key by element name, and the "name" member itself
    // is dropped (it already is the key).
    EXPECT_EQ(1.0, flat.at("named.a.v").num);
    EXPECT_EQ(2.0, flat.at("named.b.v").num);
    EXPECT_EQ(0u, flat.count("named.a.name"));
    // Unnamed arrays key by index; bools flatten to 0/1.
    EXPECT_EQ(10.0, flat.at("plain.0").num);
    EXPECT_EQ(20.0, flat.at("plain.1").num);
    EXPECT_EQ(1.0, flat.at("flag").num);
}

// ------------------------------------------------ Sweep: classify

TEST(SweepClassify, RoutesKeysToRules)
{
    using metrics::sweep::Rule;
    using metrics::sweep::classify;

    EXPECT_EQ(Rule::Identity, classify("bench"));
    EXPECT_EQ(Rule::Identity, classify("schema"));
    EXPECT_EQ(Rule::Identity, classify("scale"));
    EXPECT_EQ(Rule::Provenance, classify("host.hw_threads"));
    EXPECT_EQ(Rule::Provenance, classify("gate.threshold"));

    EXPECT_EQ(Rule::Timing, classify("cold_boot_secs"));
    EXPECT_EQ(Rule::Timing, classify("job_p99_ms"));
    EXPECT_EQ(Rule::Timing, classify("kernels.mad_loop.off.mips"));
    EXPECT_EQ(Rule::Timing, classify("publish_hook_ns"));
    // Wall-clock A/B deltas and host-noise estimates are host
    // measurements even though they end in "overhead".
    EXPECT_EQ(Rule::Timing,
              classify("kernels.mad_loop.wall_overhead"));
    EXPECT_EQ(Rule::Timing, classify("noise_floor_overhead"));

    EXPECT_EQ(Rule::Ratio, classify("warm_spawn_speedup"));
    EXPECT_EQ(Rule::Ratio, classify("tlb.hit_rate"));
    EXPECT_EQ(Rule::Ratio, classify("cpu.instret_agree"));
    EXPECT_EQ(Rule::Ratio,
              classify("kernels.mad_loop.modeled_overhead"));

    EXPECT_EQ(Rule::Schedule, classify("sched.steals"));
    EXPECT_EQ(Rule::Schedule, classify("pool_spawns"));
    EXPECT_EQ(Rule::Schedule, classify("driver_loop.driver_instret"));
    EXPECT_EQ(Rule::Schedule, classify("trace.events"));

    EXPECT_EQ(Rule::Count, classify("image_bytes"));
    EXPECT_EQ(Rule::Count, classify("jobs_run"));
    EXPECT_EQ(Rule::Count, classify("guest_boot.instret"));
}

// ---------------------------------------------------- Sweep: diff

metrics::sweep::DiffResult
diffDocs(const char *base, const char *cand)
{
    return metrics::sweep::diff(json::Value::parse(base),
                                json::Value::parse(cand));
}

TEST(SweepDiff, SeededSpeedupRegressionFails)
{
    auto res = diffDocs(R"({"warm_speedup": 12.0})",
                        R"({"warm_speedup": 4.0})");
    EXPECT_EQ(1u, res.regressions);
    std::string report = res.render("seeded");
    EXPECT_NE(std::string::npos, report.find("REGRESSION"));
    EXPECT_NE(std::string::npos, report.find("warm_speedup"));
}

TEST(SweepDiff, NoiseBandSpeedupSelfDisarms)
{
    // Baseline below 2x carries no effect to regress from (a host
    // with fewer cores than the sweep measures ~1x +- noise).
    auto res = diffDocs(R"({"scaling_speedup": 1.2})",
                        R"({"scaling_speedup": 0.5})");
    EXPECT_EQ(0u, res.regressions);
}

TEST(SweepDiff, OverheadClampsNegativeBaseline)
{
    // A lucky baseline run measured negative overhead; the clamp
    // keeps the band satisfiable.
    EXPECT_EQ(0u, diffDocs(R"({"trace_overhead": -0.03})",
                           R"({"trace_overhead": 0.05})")
                      .regressions);
    EXPECT_EQ(1u, diffDocs(R"({"trace_overhead": -0.03})",
                           R"({"trace_overhead": 0.2})")
                      .regressions);
}

TEST(SweepDiff, BoundedRatiosAreTight)
{
    EXPECT_EQ(0u, diffDocs(R"({"tlb_hit_rate": 0.99})",
                           R"({"tlb_hit_rate": 0.95})")
                      .regressions);
    EXPECT_EQ(1u, diffDocs(R"({"tlb_hit_rate": 0.99})",
                           R"({"tlb_hit_rate": 0.93})")
                      .regressions);
}

TEST(SweepDiff, DeterministicCountsGateBothWays)
{
    EXPECT_EQ(0u, diffDocs(R"({"instret": 1000})",
                           R"({"instret": 1005})")
                      .regressions);
    EXPECT_EQ(1u, diffDocs(R"({"instret": 1000})",
                           R"({"instret": 1020})")
                      .regressions);
    EXPECT_EQ(1u, diffDocs(R"({"instret": 1000})",
                           R"({"instret": 980})")
                      .regressions);
}

TEST(SweepDiff, TimingAndScheduleNeverGate)
{
    auto res = diffDocs(
        R"({"boot_secs": 0.1, "sched_steals": 5, "mips": 900})",
        R"({"boot_secs": 5.0, "sched_steals": 5000, "mips": 90})");
    EXPECT_EQ(0u, res.regressions);
}

TEST(SweepDiff, MissingKeyIsRegressionAddedIsNot)
{
    auto res = diffDocs(R"({"kept": 1, "vanished": 2})",
                        R"({"kept": 1, "brand_new": 3})");
    EXPECT_EQ(1u, res.regressions);
    bool saw_missing = false, saw_added = false;
    for (const auto &row : res.rows) {
        if (row.key == "vanished")
            saw_missing =
                row.status == metrics::sweep::DiffStatus::Missing;
        if (row.key == "brand_new")
            saw_added =
                row.status == metrics::sweep::DiffStatus::Added;
    }
    EXPECT_TRUE(saw_missing);
    EXPECT_TRUE(saw_added);
}

TEST(SweepDiff, IdentityMismatchFails)
{
    EXPECT_EQ(1u, diffDocs(R"({"bench": "fleet"})",
                           R"({"bench": "replay"})")
                      .regressions);
    EXPECT_EQ(1u,
              diffDocs(R"({"scale": 1.0})", R"({"scale": 0.25})")
                  .regressions);
    EXPECT_EQ(0u, diffDocs(R"({"bench": "fleet", "scale": 0.25})",
                           R"({"bench": "fleet", "scale": 0.25})")
                      .regressions);
}

TEST(SweepDiff, HeadBenchDocPassesAgainstItself)
{
    // The shape simsweep actually diffs: envelope + nested metrics.
    const char *doc = R"({
      "bench": "metrics_overhead", "schema": 2, "scale": 0.25,
      "host": {"hw_threads": 1},
      "gate": {"enforced": true, "metric": "x", "threshold": 0.02,
               "value": 0.0004},
      "metrics": {
        "kernels": [
          {"name": "mad_loop", "instrs": 26236928,
           "off": {"secs": 0.29, "mips": 90.0},
           "on": {"secs": 0.29, "mips": 90.0},
           "wall_overhead": 0.01, "modeled_overhead": 0.000004}
        ],
        "publish_hook_ns": 291.0,
        "publishes": 200184,
        "noise_floor_overhead": 0.017
      }
    })";
    auto res = diffDocs(doc, doc);
    EXPECT_EQ(0u, res.regressions);
}

// ----------------------------------------------------------- JSON

TEST(MetricsJson, BenchDocRoundTripsThroughDump)
{
    json::Value doc = json::Value::object();
    doc.set("bench", json::Value("demo"));
    doc.set("count", json::Value(uint64_t{26236928}));
    doc.set("ratio", json::Value(0.017));
    json::Value parsed = json::Value::parse(doc.dump());
    auto a = metrics::sweep::flatten(doc);
    auto b = metrics::sweep::flatten(parsed);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.at("count").num, b.at("count").num);
    EXPECT_DOUBLE_EQ(a.at("ratio").num, b.at("ratio").num);
}

TEST(MetricsJson, ParseErrorsThrowSimError)
{
    EXPECT_THROW(json::Value::parse("{\"unterminated\": "), SimError);
    EXPECT_THROW(json::Value::parseFile("/nonexistent/bench.json"),
                 SimError);
}

} // namespace
} // namespace bifsim

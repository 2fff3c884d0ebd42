/** @file Tests for the instrumentation layer: decode-time clause
 *  analysis, CFG reconstruction, stats merging, and the counter
 *  registry's names and snapshot bytes. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "cpu/core.h"
#include "fleet/fleet_stats.h"
#include "instrument/cfg.h"
#include "instrument/stats.h"
#include "mem/bus.h"

namespace bifsim::gpu {
namespace {

using bif::Instr;
using bif::Op;

constexpr uint8_t kNone = bif::kOperandNone;

Instr
mk(Op op, uint8_t dst, uint8_t s0, uint8_t s1, uint8_t s2, int32_t imm)
{
    Instr i;
    i.op = op;
    i.dst = dst;
    i.src0 = s0;
    i.src1 = s1;
    i.src2 = s2;
    i.imm = imm;
    return i;
}

TEST(ClauseAnalysis, CountsCategoriesAndAccesses)
{
    bif::Module m;
    bif::Clause cl;
    bif::Tuple t1;
    // slot0: FMA r1 <- r2, t0, special; slot1: temp write.
    t1.slot[0] = mk(Op::MovImm, bif::kOperandTemp0, kNone, kNone, kNone,
                    5);
    t1.slot[1] = mk(Op::IAdd, 1, 2, bif::kOperandTemp0, kNone, 0);
    bif::Tuple t2;
    t2.slot[0] = mk(Op::LdGlobal, 3, 1, kNone, kNone, 0);
    t2.slot[1] = mk(Op::Ret, kNone, kNone, kNone, kNone, 0);
    cl.tuples = {t1, t2};
    m.clauses.push_back(cl);

    std::vector<ClauseStaticInfo> info = analyzeClauses(m);
    ASSERT_EQ(info.size(), 1u);
    const ClauseStaticInfo &ci = info[0];
    EXPECT_EQ(ci.sizeTuples, 2u);
    EXPECT_EQ(ci.arith, 2u);      // MovImm + IAdd.
    EXPECT_EQ(ci.ls, 1u);         // LdGlobal.
    EXPECT_EQ(ci.cf, 1u);         // Ret.
    EXPECT_EQ(ci.nop, 0u);
    EXPECT_EQ(ci.tempWrites, 1u);
    EXPECT_EQ(ci.tempReads, 1u);
    EXPECT_EQ(ci.grfWrites, 2u);  // r1, r3.
    EXPECT_EQ(ci.grfReads, 2u);   // r2 and r1 (address).
    EXPECT_EQ(ci.globalLd, 1u);
    EXPECT_EQ(ci.globalSt, 0u);
}

TEST(ClauseAnalysis, EmptySlotsAreNops)
{
    bif::Module m;
    bif::Clause cl;
    bif::Tuple t;
    t.slot[0] = mk(Op::IAdd, 0, 0, 0, kNone, 0);
    // slot1 left Nop.
    cl.tuples = {t};
    m.clauses.push_back(cl);
    std::vector<ClauseStaticInfo> info = analyzeClauses(m);
    EXPECT_EQ(info[0].nop, 1u);
}

TEST(ClauseAnalysis, SpecialsCountAsGrfReads)
{
    bif::Module m;
    bif::Clause cl;
    bif::Tuple t;
    t.slot[0] =
        mk(Op::IAdd, 0, bif::kSrLocalIdX, bif::kSrGroupIdX, kNone, 0);
    cl.tuples = {t};
    m.clauses.push_back(cl);
    EXPECT_EQ(analyzeClauses(m)[0].grfReads, 2u);
}

TEST(ClauseAnalysis, AtomicsCountBothWays)
{
    bif::Module m;
    bif::Clause cl;
    bif::Tuple t;
    t.slot[0] = mk(Op::AtomAddG, 1, 2, 3, kNone, 0);
    cl.tuples = {t};
    m.clauses.push_back(cl);
    const ClauseStaticInfo ci = analyzeClauses(m)[0];
    EXPECT_EQ(ci.globalLd, 1u);
    EXPECT_EQ(ci.globalSt, 1u);
    EXPECT_EQ(ci.ls, 1u);
}

TEST(KernelStatsTest, MergeAccumulates)
{
    KernelStats a, b;
    a.arithInstrs = 10;
    a.clauseSizes.sample(2, 5);
    a.cfgEdges[cfgEdgeKey(0, 1)] = 3;
    b.arithInstrs = 7;
    b.clauseSizes.sample(2, 1);
    b.cfgEdges[cfgEdgeKey(0, 1)] = 2;
    b.cfgEdges[cfgEdgeKey(1, 2)] = 9;
    a.merge(b);
    EXPECT_EQ(a.arithInstrs, 17u);
    EXPECT_EQ(a.clauseSizes.count(2), 6u);
    EXPECT_EQ(a.cfgEdges[cfgEdgeKey(0, 1)], 5u);
    EXPECT_EQ(a.cfgEdges[cfgEdgeKey(1, 2)], 9u);
}

TEST(KernelStatsTest, TotalsAndAverages)
{
    KernelStats s;
    s.arithInstrs = 6;
    s.lsInstrs = 3;
    s.cfInstrs = 1;
    s.nopSlots = 2;
    EXPECT_EQ(s.totalInstrs(), 10u);
    EXPECT_EQ(s.totalSlots(), 12u);
    s.clauseSizes.sample(4, 10);
    EXPECT_DOUBLE_EQ(s.avgClauseSize(), 4.0);
}

TEST(CfgBuild, EdgesAndDivergence)
{
    KernelStats s;
    s.cfgEdges[cfgEdgeKey(0, 1)] = 75;
    s.cfgEdges[cfgEdgeKey(0, 2)] = 25;
    s.cfgEdges[cfgEdgeKey(2, instrument::kCfgExit)] = 25;
    instrument::Cfg cfg = instrument::buildCfg(s);
    ASSERT_EQ(cfg.nodes.size(), 2u);
    const instrument::CfgNode &n0 = cfg.nodes[0];
    EXPECT_EQ(n0.clause, 0u);
    EXPECT_TRUE(n0.divergent);
    EXPECT_EQ(n0.outThreads, 100u);
    EXPECT_FALSE(cfg.nodes[1].divergent);
    double frac = 0;
    for (const instrument::CfgEdge &e : cfg.edges) {
        if (e.from == 0 && e.to == 1)
            frac = e.fraction;
    }
    EXPECT_DOUBLE_EQ(frac, 0.75);
}

TEST(CfgBuild, DotOutput)
{
    KernelStats s;
    s.cfgEdges[cfgEdgeKey(3, 4)] = 10;
    instrument::Cfg cfg = instrument::buildCfg(s);
    std::string dot = instrument::toDot(cfg);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find(instrument::nodeLabel(3)), std::string::npos);
    EXPECT_NE(dot.find("100.00%"), std::string::npos);
}

TEST(CfgBuild, NodeLabels)
{
    EXPECT_EQ(instrument::nodeLabel(instrument::kCfgExit), "exit");
    EXPECT_EQ(instrument::nodeLabel(0), "aa000070");
    EXPECT_EQ(instrument::nodeLabel(1), "aa000080");
}

TEST(PageSetTest, DedupesCountsAndClearsForReuse)
{
    constexpr uint32_t kLastVpn = 0xFFFFF;
    static_assert(kLastVpn == PageSet::kVpns - 1);
    PageSet s;
    EXPECT_EQ(s.size(), 0u);
    for (uint32_t vpn : {0u, kLastVpn, 63u, 64u, 0u, kLastVpn, 64u})
        s.insert(vpn);
    EXPECT_EQ(s.size(), 4u);

    // A cleared set forgets its bits as well as its list: re-inserting
    // the same VPNs counts them again, exactly once each.
    s.clear();
    EXPECT_EQ(s.size(), 0u);
    s.insert(kLastVpn);
    s.insert(kLastVpn);
    s.insert(0);
    EXPECT_EQ(s.size(), 2u);

    PageSet other;
    other.insert(0);
    other.insert(12345);
    s.merge(other);
    EXPECT_EQ(s.size(), 3u);
    s.merge(other);
    EXPECT_EQ(s.size(), 3u);
}

TEST(WorkerCollectorTest, ResetClears)
{
    WorkerCollector c;
    c.reset(4);
    c.clauseExec[2] = 7;
    c.taken[3] = 5;
    c.divergent = 9;
    c.pages.insert(123);
    c.reset(2);
    EXPECT_EQ(c.clauseExec, (std::vector<uint64_t>{0, 0}));
    EXPECT_EQ(c.taken, (std::vector<uint64_t>{0, 0}));
    EXPECT_EQ(c.divergent, 0u);
    EXPECT_EQ(c.pages.size(), 0u);
}

// --------------------------------------------- counter registry goldens
//
// Every counter of every stats struct set to a distinct value by name,
// then compared with the snapshot bytes and the exported name/value
// list.  The literals pin the counter names, their order and the
// snapshot byte layout: a reordered, renamed or dropped counter fails
// here even where no checked-in corpus covers the struct.

using Counters = std::vector<std::pair<std::string, uint64_t>>;

template <typename S>
Counters
countersOf(const S &s)
{
    std::vector<NamedCounter> out;
    appendCounters(out, s);
    Counters c;
    for (const NamedCounter &n : out)
        c.emplace_back(n.name(), n.value);
    return c;
}

std::string
hexOf(const std::vector<uint8_t> &bytes)
{
    std::string s;
    char buf[3];
    for (uint8_t b : bytes) {
        std::snprintf(buf, sizeof(buf), "%02x", b);
        s += buf;
    }
    return s;
}

std::vector<uint8_t>
fromHex(const std::string &hex)
{
    std::vector<uint8_t> out;
    for (size_t i = 0; i + 1 < hex.size(); i += 2)
        out.push_back(
            static_cast<uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
    return out;
}

/** saveStats() bytes of @p s, checked to restore to the same bytes. */
template <typename S>
std::string
savedHex(const S &s)
{
    snapshot::ChunkWriter w;
    saveStats(w, s);
    S back;
    snapshot::ChunkReader r(0, w.data().data(), w.data().size());
    restoreStats(r, back);
    EXPECT_EQ(r.remaining(), 0u);
    snapshot::ChunkWriter again;
    saveStats(again, back);
    EXPECT_EQ(again.data(), w.data());
    return hexOf(w.data());
}

TEST(CounterRegistry, KernelStatsBytesAndNames)
{
    KernelStats k;
    k.arithInstrs = 101;
    k.lsInstrs = 102;
    k.cfInstrs = 103;
    k.nopSlots = 104;
    k.grfReads = 105;
    k.grfWrites = 106;
    k.tempAccesses = 107;
    k.constReads = 108;
    k.romReads = 109;
    k.globalLdSt = 110;
    k.localLdSt = 111;
    k.clausesExecuted = 112;
    k.threadsLaunched = 113;
    k.warpsLaunched = 114;
    k.workgroups = 115;
    k.divergentBranches = 116;
    k.clauseSizes.sample(1, 121);
    k.clauseSizes.sample(8, 128);
    k.cfgEdges[cfgEdgeKey(0, 1)] = 131;
    k.cfgEdges[cfgEdgeKey(2, instrument::kCfgExit)] = 132;
    k.cfgEdges[cfgEdgeKey(3, 0)] = 133;
    EXPECT_EQ(savedHex(k),
              "650000000000000066000000000000006700000000000000"
              "680000000000000069000000000000006a00000000000000"
              "6b000000000000006c000000000000006d00000000000000"
              "6e000000000000006f000000000000007000000000000000"
              "710000000000000072000000000000007300000000000000"
              "740000000000000009000000000000000000000079000000"
              "000000000000000000000000000000000000000000000000"
              "000000000000000000000000000000000000000000000000"
              "000000008000000000000000030000000100000000000000"
              "8300000000000000ffffffff020000008400000000000000"
              "00000000030000008500000000000000");
    EXPECT_EQ(countersOf(k),
              (Counters{
               {"kernel.arith_instrs", 101},
               {"kernel.ls_instrs", 102},
               {"kernel.cf_instrs", 103},
               {"kernel.nop_slots", 104},
               {"kernel.grf_reads", 105},
               {"kernel.grf_writes", 106},
               {"kernel.temp_accesses", 107},
               {"kernel.const_reads", 108},
               {"kernel.rom_reads", 109},
               {"kernel.global_ldst", 110},
               {"kernel.local_ldst", 111},
               {"kernel.clauses_executed", 112},
               {"kernel.threads_launched", 113},
               {"kernel.warps_launched", 114},
               {"kernel.workgroups", 115},
               {"kernel.divergent_branches", 116},
              }));
}

TEST(CounterRegistry, TlbAndSystemStatsBytesAndNames)
{
    TlbStats t;
    t.lastPageHits = 201;
    t.arrayHits = 202;
    t.walks = 203;
    EXPECT_EQ(savedHex(t),
              "c900000000000000ca00000000000000cb00000000000000");
    EXPECT_EQ(countersOf(t),
              (Counters{
               {"tlb.last_page_hits", 201},
               {"tlb.array_hits", 202},
               {"tlb.walks", 203},
              }));

    SystemStats s;
    s.pagesAccessed = 301;
    s.ctrlRegReads = 302;
    s.ctrlRegWrites = 303;
    s.irqsAsserted = 304;
    s.computeJobs = 305;
    EXPECT_EQ(savedHex(s),
              "2d010000000000002e010000000000002f01000000000000"
              "30010000000000003101000000000000");
    EXPECT_EQ(countersOf(s),
              (Counters{
               {"sys.pages_accessed", 301},
               {"sys.ctrl_reg_reads", 302},
               {"sys.ctrl_reg_writes", 303},
               {"sys.irqs_asserted", 304},
               {"sys.compute_jobs", 305},
              }));
}

TEST(CounterRegistry, ShaderCacheStatsBytesAndNames)
{
    ShaderCacheStats c;
    c.decodes = 701;
    c.hits = 702;
    // The GPU chunk's last two u64s: decodes, then hits.
    EXPECT_EQ(savedHex(c), "bd02000000000000be02000000000000");
    EXPECT_EQ(countersOf(c),
              (Counters{
               {"shader.decodes", 701},
               {"shader.cache_hits", 702},
              }));
}

TEST(CounterRegistry, CoreStatsAreTheTailOfCoreState)
{
    // CoreStats has no setter: write the counters through the last
    // 11 u64s of a Core state chunk and read them back by name.
    const std::vector<uint8_t> tail = fromHex(
        "910100000000000092010000000000009301000000000000"
        "940100000000000095010000000000009601000000000000"
        "970100000000000098010000000000009901000000000000"
        "9a010000000000009b01000000000000");
    Bus bus;
    sa32::Core core(bus);
    snapshot::ChunkWriter fresh;
    core.saveState(fresh);
    std::vector<uint8_t> bytes = fresh.data();
    ASSERT_GE(bytes.size(), tail.size());
    std::copy(tail.begin(), tail.end(), bytes.end() - tail.size());
    snapshot::ChunkReader r(0, bytes.data(), bytes.size());
    core.restoreState(r);

    const sa32::CoreStats &c = core.stats();
    EXPECT_EQ(c.instret, 401u);
    EXPECT_EQ(c.blocksDecoded, 402u);
    EXPECT_EQ(c.blockHits, 403u);
    EXPECT_EQ(c.traps, 404u);
    EXPECT_EQ(c.interrupts, 405u);
    EXPECT_EQ(c.cacheFlushes, 406u);
    EXPECT_EQ(c.dbtBlocks, 407u);
    EXPECT_EQ(c.dbtChainLinks, 408u);
    EXPECT_EQ(c.dbtChainFollows, 409u);
    EXPECT_EQ(c.dbtChainBreaks, 410u);
    EXPECT_EQ(c.dbtRetires, 411u);
    EXPECT_EQ(countersOf(c),
              (Counters{
               {"cpu.instret", 401},
               {"cpu.blocks_decoded", 402},
               {"cpu.block_hits", 403},
               {"cpu.traps", 404},
               {"cpu.interrupts", 405},
               {"cpu.cache_flushes", 406},
               {"cpu.dbt_blocks", 407},
               {"cpu.dbt_chain_links", 408},
               {"cpu.dbt_chain_follows", 409},
               {"cpu.dbt_chain_breaks", 410},
               {"cpu.dbt_retires", 411},
              }));
    snapshot::ChunkWriter again;
    core.saveState(again);
    EXPECT_EQ(again.data(), bytes);
}

TEST(CounterRegistry, SchedAndFleetStatsNames)
{
    SchedStats s;
    s.slicesRun = 501;
    s.groupsRun = 502;
    s.steals = 503;
    s.stealAttempts = 504;
    EXPECT_EQ(countersOf(s),
              (Counters{
               {"sched.slices_run", 501},
               {"sched.groups_run", 502},
               {"sched.steals", 503},
               {"sched.steal_attempts", 504},
              }));

    fleet::FleetStats f;
    f.jobsSubmitted = 601;
    f.jobsCompleted = 602;
    f.jobsFaulted = 603;
    f.jobsRejected = 604;
    f.jobsBadRequest = 605;
    f.queueNsTotal = 606;
    f.execNsTotal = 607;
    f.queuePeak = 608;
    f.tenantsSeen = 609;
    f.bytesIn = 610;
    f.bytesOut = 611;
    f.spawns = 612;
    f.recycles = 613;
    f.recycleFailures = 614;
    f.acquireWaits = 615;
    f.sessionsLive = 616;
    f.sessionsIdle = 617;
    f.queueDepth = 618;
    EXPECT_EQ(countersOf(f),
              (Counters{
               {"fleet.jobs_submitted", 601},
               {"fleet.jobs_completed", 602},
               {"fleet.jobs_faulted", 603},
               {"fleet.jobs_rejected", 604},
               {"fleet.jobs_bad_request", 605},
               {"fleet.queue_ns_total", 606},
               {"fleet.exec_ns_total", 607},
               {"fleet.queue_peak", 608},
               {"fleet.tenants_seen", 609},
               {"fleet.bytes_in", 610},
               {"fleet.bytes_out", 611},
               {"fleet.spawns", 612},
               {"fleet.recycles", 613},
               {"fleet.recycle_failures", 614},
               {"fleet.acquire_waits", 615},
               {"fleet.sessions_live", 616},
               {"fleet.sessions_idle", 617},
               {"fleet.queue_depth", 618},
              }));
}

} // namespace
} // namespace bifsim::gpu

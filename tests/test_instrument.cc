/** @file Tests for the instrumentation layer: decode-time clause
 *  analysis, CFG reconstruction, and stats merging. */

#include <gtest/gtest.h>

#include "instrument/cfg.h"
#include "instrument/stats.h"

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

} // namespace
} // namespace bifsim::gpu

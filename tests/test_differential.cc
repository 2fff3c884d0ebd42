/** @file Differential validation of the GPU model (paper §V-A2): the
 *  optimised warp executor is fuzzed against the independent reference
 *  interpreter over randomly generated BIF programs — the open
 *  equivalent of tracing against Arm's proprietary simulator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <map>
#include <random>

#include "gpu/isa/bif.h"
#include "gpu/ref/ref_interp.h"
#include "runtime/session.h"
#include "workloads/sgemm_variants.h"

namespace bifsim {
namespace {

using bif::Instr;
using bif::Op;

constexpr uint8_t kNone = bif::kOperandNone;

/** Ops safe for pure-arithmetic fuzzing (no memory, no CF). */
const Op kFuzzOps[] = {
    Op::FAdd, Op::FSub, Op::FMul, Op::FFma, Op::FMin, Op::FMax,
    Op::FAbs, Op::FNeg, Op::FFloor, Op::IAdd, Op::ISub, Op::IMul,
    Op::IAnd, Op::IOr, Op::IXor, Op::INot, Op::IShl, Op::IShr,
    Op::IAsr, Op::IMin, Op::IMax, Op::UMin, Op::UMax, Op::FCmp,
    Op::ICmp, Op::UCmp, Op::CSel, Op::Mov, Op::MovImm, Op::F2I,
    Op::F2U, Op::I2F, Op::U2F, Op::IDiv, Op::IRem, Op::UDiv, Op::URem,
    Op::LdRom,
};

/** Generates a random arithmetic program: several clauses, GRF-only
 *  operands (plus specials), with structurally valid slot placement. */
bif::Module
randomProgram(uint32_t seed)
{
    std::mt19937 rng(seed);
    auto reg = [&]() -> uint8_t {
        return static_cast<uint8_t>(rng() % 16);   // r0..r15
    };
    auto src = [&]() -> uint8_t {
        uint32_t pick = rng() % 10;
        if (pick < 7)
            return reg();
        if (pick < 9) {
            return static_cast<uint8_t>(bif::kSrLaneId +
                                        rng() % (bif::kSrZero -
                                                 bif::kSrLaneId + 1));
        }
        return bif::kSrZero;
    };

    bif::Module m;
    unsigned num_clauses = 1 + rng() % 4;
    for (unsigned c = 0; c < num_clauses; ++c) {
        bif::Clause cl;
        unsigned tuples = 1 + rng() % bif::kMaxTuplesPerClause;
        for (unsigned t = 0; t < tuples; ++t) {
            bif::Tuple tu;
            for (int s = 0; s < 2; ++s) {
                if (rng() % 5 == 0)
                    continue;   // Leave an empty slot.
                Instr in;
                in.op = kFuzzOps[rng() % std::size(kFuzzOps)];
                in.dst = reg();
                in.src0 = src();
                in.src1 = src();
                in.src2 = src();
                in.imm = static_cast<int32_t>(rng() % 11) - 5;
                if (in.op == Op::LdRom)
                    in.imm = static_cast<int32_t>(rng() % 4);
                tu.slot[s] = in;
            }
            cl.tuples.push_back(tu);
        }
        m.clauses.push_back(cl);
    }
    // Terminate.
    bif::Tuple ret;
    ret.slot[1].op = Op::Ret;
    m.clauses.back().tuples.push_back(ret);
    if (m.clauses.back().tuples.size() > bif::kMaxTuplesPerClause) {
        bif::Clause cl;
        cl.tuples.push_back(m.clauses.back().tuples.back());
        m.clauses.back().tuples.pop_back();
        m.clauses.push_back(cl);
    }
    m.rom = {0x3f800000, 0x40000000, 0xbf000000, 0x00000007};
    m.regCount = 16;
    return m;
}

/** Runs the program on the full GPU model and dumps each thread's
 *  GRF to a buffer, then compares against the reference interpreter
 *  thread by thread. */
class DifferentialFuzz : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(DifferentialFuzz, CoreMatchesReference)
{
    uint32_t seed = GetParam();
    bif::Module prog = randomProgram(seed);
    ASSERT_EQ(bif::validate(prog), "");

    // Append a dump stage: out[(gid*16 + i)*4] = r_i for r0..r15.
    bif::Module dumper = prog;
    // Recompute global id into r16.. using specials (kept out of the
    // fuzzed register range r0..r15).
    bif::Clause dump;
    auto add = [&](Instr in) {
        bif::Tuple t;
        t.slot[0] = in;
        dump.tuples.push_back(t);
        if (dump.tuples.size() == bif::kMaxTuplesPerClause) {
            dumper.clauses.push_back(dump);
            dump.tuples.clear();
        }
    };
    Instr in;
    in = Instr();
    in.op = Op::IMul;
    in.dst = 16;
    in.src0 = bif::kSrGroupIdX;
    in.src1 = bif::kSrLocalSizeX;
    add(in);
    in = Instr();
    in.op = Op::IAdd;
    in.dst = 16;
    in.src0 = 16;
    in.src1 = bif::kSrLocalIdX;
    add(in);
    // r17 = base + gid*64
    in = Instr();
    in.op = Op::MovImm;
    in.dst = 18;
    in.imm = 6;
    add(in);
    in = Instr();
    in.op = Op::IShl;
    in.dst = 17;
    in.src0 = 16;
    in.src1 = 18;
    add(in);
    in = Instr();
    in.op = Op::LdArg;
    in.dst = 19;
    in.imm = 0;
    add(in);
    in = Instr();
    in.op = Op::IAdd;
    in.dst = 17;
    in.src0 = 17;
    in.src1 = 19;
    add(in);
    for (int r = 0; r < 16; ++r) {
        in = Instr();
        in.op = Op::StGlobal;
        in.dst = kNone;
        in.src0 = 17;
        in.src1 = static_cast<uint8_t>(r);
        in.imm = r * 4;
        add(in);
    }
    if (!dump.tuples.empty())
        dumper.clauses.push_back(dump);
    bif::Clause fin;
    bif::Tuple rt;
    rt.slot[1].op = Op::Ret;
    fin.tuples.push_back(rt);
    dumper.clauses.push_back(fin);
    dumper.regCount = 20;   // The dump stage scratches r16..r19.

    // Strip the original Ret (it would end threads before the dump).
    for (bif::Clause &cl : dumper.clauses) {
        for (bif::Tuple &t : cl.tuples) {
            for (Instr &i2 : t.slot) {
                if (i2.op == Op::Ret &&
                    &cl != &dumper.clauses.back()) {
                    i2 = Instr();   // Nop
                }
            }
        }
    }
    ASSERT_EQ(bif::validate(dumper), "");

    constexpr uint32_t kThreads = 8;
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 2;
    rt::Session session(cfg);
    kclc::CompiledKernel ck;
    ck.name = "fuzz";
    ck.mod = dumper;
    ck.binary = bif::encode(dumper);
    rt::KernelHandle k = session.load(ck);
    rt::Buffer out = session.alloc(kThreads * 64);
    gpu::JobResult r = session.enqueue(
        k, rt::NDRange{kThreads, 1, 1}, rt::NDRange{4, 1, 1},
        {rt::Arg::buf(out)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    std::vector<uint32_t> got(kThreads * 16);
    session.read(out, got.data(), got.size() * 4);

    // Reference: run each thread independently on the scalar
    // interpreter over the *original* program.
    for (uint32_t t = 0; t < kThreads; ++t) {
        gpu::ref::RefContext ctx;
        ctx.localId[0] = t % 4;
        ctx.groupId[0] = t / 4;
        ctx.localSize[0] = 4;
        ctx.gridSize[0] = kThreads;
        ctx.numGroups[0] = kThreads / 4;
        ctx.laneId = t % 4;
        gpu::ref::RefResult rr = gpu::ref::runThread(prog, ctx);
        ASSERT_TRUE(rr.ok) << rr.error;
        for (int reg = 0; reg < 16; ++reg) {
            EXPECT_EQ(got[t * 16 + reg], rr.grf[reg])
                << "seed " << seed << " thread " << t << " r" << reg;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(FuzzSeeds, DifferentialFuzz,
                         ::testing::Range(1u, 33u));

/** Random forward-branching program: every clause may end in a
 *  Branch/BranchZ/BranchNZ to a later clause, conditions derived from
 *  lane-varying state so warps actually diverge.  No Ret — threads
 *  fall off the end (so a dump stage can be appended unchanged). */
bif::Module
randomBranchProgram(uint32_t seed)
{
    std::mt19937 rng(seed);
    bif::Module m;
    unsigned num_clauses = 4 + rng() % 5;   // 4..8
    static const Op kOps[] = {Op::IAdd, Op::ISub, Op::IXor, Op::IAnd,
                              Op::MovImm, Op::IMul, Op::ICmp};
    for (unsigned c = 0; c < num_clauses; ++c) {
        bif::Clause cl;
        if (c == 0) {
            // Seed lane-varying state into r0 so conditions diverge.
            Instr in;
            in.op = Op::IAdd;
            in.dst = 0;
            in.src0 = bif::kSrLaneId;
            in.src1 = bif::kSrLocalIdX;
            bif::Tuple t;
            t.slot[0] = in;
            cl.tuples.push_back(t);
        }
        unsigned tuples = 1 + rng() % 3;
        for (unsigned t = 0; t < tuples; ++t) {
            Instr in;
            in.op = kOps[rng() % std::size(kOps)];
            in.dst = static_cast<uint8_t>(rng() % 8);
            in.src0 = static_cast<uint8_t>(rng() % 8);
            in.src1 = static_cast<uint8_t>(rng() % 8);
            in.imm = static_cast<int32_t>(rng() % 7) - 3;
            if (in.op == Op::ICmp)
                in.imm = static_cast<int32_t>(rng() % 6);
            bif::Tuple tu;
            tu.slot[0] = in;
            cl.tuples.push_back(tu);
        }
        if (c + 1 < num_clauses && rng() % 4 != 0) {
            Instr br;
            unsigned kind = rng() % 3;
            br.op = kind == 0   ? Op::Branch
                    : kind == 1 ? Op::BranchZ
                                : Op::BranchNZ;
            if (br.op != Op::Branch)
                br.src0 = static_cast<uint8_t>(rng() % 8);
            br.imm = static_cast<int32_t>(c + 1 +
                                          rng() % (num_clauses - c - 1));
            bif::Tuple bt;
            bt.slot[1] = br;
            cl.tuples.push_back(bt);
        }
        m.clauses.push_back(cl);
    }
    m.regCount = 8;
    return m;
}

/** Branch/BranchZ/BranchNZ clauses: the shader-core executor and the
 *  scalar reference must agree bit-exactly on the final GRF state (the
 *  analyzer's CFG is built from the same successor rules, so both
 *  define the executed paths). */
class BranchDifferential : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(BranchDifferential, AllInterpretersAgree)
{
    uint32_t seed = GetParam();
    bif::Module prog = randomBranchProgram(seed);
    ASSERT_EQ(bif::validate(prog), "");

    // Append the dump stage: out[gid*32 + i*4] = r_i for r0..r7.
    bif::Module dumper = prog;
    bif::Clause dump;
    auto add = [&](Instr in) {
        bif::Tuple t;
        t.slot[0] = in;
        dump.tuples.push_back(t);
        if (dump.tuples.size() == bif::kMaxTuplesPerClause) {
            dumper.clauses.push_back(dump);
            dump.tuples.clear();
        }
    };
    Instr in;
    in = Instr();
    in.op = Op::IMul;
    in.dst = 16;
    in.src0 = bif::kSrGroupIdX;
    in.src1 = bif::kSrLocalSizeX;
    add(in);
    in = Instr();
    in.op = Op::IAdd;
    in.dst = 16;
    in.src0 = 16;
    in.src1 = bif::kSrLocalIdX;
    add(in);
    in = Instr();
    in.op = Op::MovImm;
    in.dst = 18;
    in.imm = 5;
    add(in);
    in = Instr();
    in.op = Op::IShl;
    in.dst = 17;
    in.src0 = 16;
    in.src1 = 18;
    add(in);
    in = Instr();
    in.op = Op::LdArg;
    in.dst = 19;
    in.imm = 0;
    add(in);
    in = Instr();
    in.op = Op::IAdd;
    in.dst = 17;
    in.src0 = 17;
    in.src1 = 19;
    add(in);
    for (int r = 0; r < 8; ++r) {
        in = Instr();
        in.op = Op::StGlobal;
        in.dst = kNone;
        in.src0 = 17;
        in.src1 = static_cast<uint8_t>(r);
        in.imm = r * 4;
        add(in);
    }
    if (!dump.tuples.empty())
        dumper.clauses.push_back(dump);
    bif::Clause fin;
    bif::Tuple rt;
    rt.slot[1].op = Op::Ret;
    fin.tuples.push_back(rt);
    dumper.clauses.push_back(fin);
    dumper.regCount = 20;
    ASSERT_EQ(bif::validate(dumper), "");

    constexpr uint32_t kThreads = 8;
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 2;
    rt::Session s(cfg);
    kclc::CompiledKernel ck;
    ck.name = "branchfuzz";
    ck.mod = dumper;
    ck.binary = bif::encode(dumper);
    ck.regCount = dumper.regCount;
    rt::KernelHandle k = s.load(ck);
    rt::Buffer out = s.alloc(kThreads * 32);
    gpu::JobResult r = s.enqueue(k, rt::NDRange{kThreads, 1, 1},
                                 rt::NDRange{4, 1, 1}, {rt::Arg::buf(out)});
    EXPECT_FALSE(r.faulted) << r.fault.detail;
    std::vector<uint32_t> got(kThreads * 8);
    s.read(out, got.data(), got.size() * 4);

    for (uint32_t t = 0; t < kThreads; ++t) {
        gpu::ref::RefContext ctx;
        ctx.localId[0] = t % 4;
        ctx.groupId[0] = t / 4;
        ctx.localSize[0] = 4;
        ctx.gridSize[0] = kThreads;
        ctx.numGroups[0] = kThreads / 4;
        ctx.laneId = t % 4;
        gpu::ref::RefResult rr = gpu::ref::runThread(prog, ctx);
        ASSERT_TRUE(rr.ok) << rr.error;
        for (int reg = 0; reg < 8; ++reg) {
            EXPECT_EQ(got[t * 8 + reg], rr.grf[reg])
                << "seed " << seed << " thread " << t << " r" << reg;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(BranchSeeds, BranchDifferential,
                         ::testing::Range(1u, 25u));

// Register plan of randomWarpProgram: r0..r11 are fuzzed, r12 counts
// loop trips, r16..r19 hold the prologue's per-thread addresses and
// r20..r22 belong to the dump stage.  Only r0..r12 are dumped.
constexpr uint8_t kWarpFuzzRegs = 12;
constexpr uint8_t kTripReg = 12;
constexpr uint8_t kGidReg = 16;
constexpr uint8_t kSlotReg = 17;      ///< This thread's global slot.
constexpr uint8_t kLocalSlotReg = 18; ///< This thread's local slot.
constexpr uint8_t kCounterReg = 19;   ///< The shared atomic counter.
constexpr uint32_t kSlotBytes = 64;
constexpr uint32_t kLocalSlotBytes = 16;
constexpr uint32_t kMaxGroupSize = 13;

/** Every op the warp fuzzer draws for an arithmetic slot. */
const Op kWarpAluOps[] = {
    Op::FAdd, Op::FSub, Op::FMul, Op::FFma, Op::FMin, Op::FMax,
    Op::FAbs, Op::FNeg, Op::FFloor, Op::IAdd, Op::ISub, Op::IMul,
    Op::IAnd, Op::IOr, Op::IXor, Op::INot, Op::IShl, Op::IShr,
    Op::IAsr, Op::IMin, Op::IMax, Op::UMin, Op::UMax, Op::FCmp,
    Op::ICmp, Op::UCmp, Op::CSel, Op::Mov, Op::MovImm, Op::F2I,
    Op::F2U, Op::I2F, Op::U2F, Op::FRcp, Op::FRsqrt, Op::FSqrt,
    Op::FExp2, Op::FLog2, Op::FSin, Op::FCos, Op::IDiv, Op::IRem,
    Op::UDiv, Op::URem, Op::LdRom, Op::LdArg,
};

/** Float edge cases next to ordinary constants: 1.0, 2.0, -0.5, 7,
 *  quiet NaN, +Inf, -Inf, -0, the smallest and the largest denormal. */
const std::vector<uint32_t> kWarpRom = {
    0x3f800000, 0x40000000, 0xbf000000, 0x00000007, 0x7fc00000,
    0x7f800000, 0xff800000, 0x80000000, 0x00000001, 0x007fffff,
};

/** Builds one clause of random instructions, tracking which clause
 *  temporaries have been written so every temp read is legal. */
class ClauseGen
{
  public:
    explicit ClauseGen(std::mt19937 &rng) : rng_(rng) {}

    uint32_t pick(uint32_t n) { return static_cast<uint32_t>(rng_() % n); }

    /** A source: a fuzzed or trip register, a written temp, a special
     *  or the thread's global id. */
    uint8_t
    src()
    {
        uint32_t p = pick(20);
        if (p < 12)
            return static_cast<uint8_t>(pick(kWarpFuzzRegs + 1));
        if (p < 15 && numTemps_ > 0)
            return temps_[pick(numTemps_)];
        if (p < 19) {
            return static_cast<uint8_t>(
                bif::kSrLaneId + pick(bif::kSrZero - bif::kSrLaneId + 1));
        }
        return kGidReg;
    }

    /** A destination: a fuzzed register or a clause temporary. */
    uint8_t
    dst()
    {
        if (pick(5) == 0)
            return static_cast<uint8_t>(bif::kOperandTemp0 + pick(8));
        return static_cast<uint8_t>(pick(kWarpFuzzRegs));
    }

    /** A random instruction legal in @p slot; slot 0 may touch the
     *  thread's own global and local slots or the shared counter. */
    Instr
    random(int slot)
    {
        Instr in;
        in.src0 = src();
        in.src1 = src();
        in.src2 = src();
        if (slot == 0 && pick(3) == 0) {
            in.dst = bif::kOperandNone;
            switch (pick(9)) {
              case 0: in.op = Op::LdGlobal; in.dst = dst(); break;
              case 1: in.op = Op::LdGlobalU8; in.dst = dst(); break;
              case 2: in.op = Op::StGlobal; break;
              case 3: in.op = Op::StGlobalU8; break;
              case 4: in.op = Op::AtomAddG; in.dst = dst(); break;
              case 5: in.op = Op::LdLocal; in.dst = dst(); break;
              case 6: in.op = Op::StLocal; break;
              case 7: in.op = Op::AtomAddL; in.dst = dst(); break;
              default:
                // The returned old value depends on thread order, so
                // it is discarded; the final count is compared.
                in.op = Op::AtomAddG;
                in.src0 = kCounterReg;
                in.imm = 0;
                return in;
            }
            bool local = in.op == Op::LdLocal || in.op == Op::StLocal ||
                         in.op == Op::AtomAddL;
            bool byte = in.op == Op::LdGlobalU8 || in.op == Op::StGlobalU8;
            in.src0 = local ? kLocalSlotReg : kSlotReg;
            uint32_t span = local ? kLocalSlotBytes : kSlotBytes;
            in.imm = static_cast<int32_t>(byte ? pick(span)
                                               : 4 * pick(span / 4));
        } else {
            in.op = kWarpAluOps[pick(std::size(kWarpAluOps))];
            in.dst = dst();
            in.imm = static_cast<int32_t>(pick(11)) - 5;
            if (in.op == Op::LdRom)
                in.imm = static_cast<int32_t>(pick(kWarpRom.size()));
            else if (in.op == Op::LdArg)
                in.imm = static_cast<int32_t>(pick(3));
        }
        noteWrite(in);
        return in;
    }

    /** Appends a tuple of up to two random instructions. */
    void
    randomTuple()
    {
        bif::Tuple t;
        for (int s = 0; s < 2; ++s) {
            if (pick(5) != 0)
                t.slot[s] = random(s);
        }
        cl.tuples.push_back(t);
    }

    /** Appends a tuple holding @p in in slot 0. */
    void
    put(Instr in)
    {
        noteWrite(in);
        bif::Tuple t;
        t.slot[0] = in;
        cl.tuples.push_back(t);
    }

    bif::Clause cl;

  private:
    void
    noteWrite(const Instr &in)
    {
        if (bif::writesDest(in.op) && bif::isTemp(in.dst) &&
            std::find(temps_, temps_ + numTemps_, in.dst) ==
                temps_ + numTemps_) {
            temps_[numTemps_++] = in.dst;
        }
    }

    std::mt19937 &rng_;
    uint8_t temps_[bif::kNumTempRegs] = {};
    unsigned numTemps_ = 0;
};

Instr
mkInstr(Op op, uint8_t dst, uint8_t src0 = kNone, uint8_t src1 = kNone,
        int32_t imm = 0)
{
    Instr in;
    in.op = op;
    in.dst = dst;
    in.src0 = src0;
    in.src1 = src1;
    in.imm = imm;
    return in;
}

/**
 * Random program for the warp-level differential test.  After a fixed
 * prologue that computes per-thread addresses, it runs one to three
 * segments separated by barriers.  A segment is a run of blocks:
 *  - plain clauses of random arithmetic, clause temporaries, global
 *    and local slot accesses and atomics, optionally ending in a
 *    divergent forward branch to a later block of the segment;
 *  - loops whose trip count (1..4) differs per lane, so back-edges
 *    diverge.
 * Branches never cross a barrier, so warps always reach it converged.
 * A dump stage stores r0..r12 to out[gid * 64].  Arguments: out,
 * slots (64 bytes per thread), counter.
 */
bif::Module
randomWarpProgram(uint32_t seed)
{
    std::mt19937 rng(seed);
    auto pick = [&](uint32_t n) { return static_cast<uint32_t>(rng() % n); };
    bif::Module m;
    m.rom = kWarpRom;
    m.regCount = 23;
    m.localBytes = kMaxGroupSize * kLocalSlotBytes;

    auto t = [](unsigned i) {
        return static_cast<uint8_t>(bif::kOperandTemp0 + i);
    };
    {
        ClauseGen g(rng);
        g.put(mkInstr(Op::IMul, kGidReg, bif::kSrGroupIdX,
                      bif::kSrLocalSizeX));
        g.put(mkInstr(Op::IAdd, kGidReg, kGidReg, bif::kSrLocalIdX));
        g.put(mkInstr(Op::MovImm, t(0), kNone, kNone, 6));
        g.put(mkInstr(Op::IShl, t(1), kGidReg, t(0)));
        g.put(mkInstr(Op::LdArg, t(2), kNone, kNone, 1));
        g.put(mkInstr(Op::IAdd, kSlotReg, t(1), t(2)));
        g.put(mkInstr(Op::MovImm, t(3), kNone, kNone, 4));
        g.put(mkInstr(Op::IShl, kLocalSlotReg, bif::kSrLocalIdX, t(3)));
        m.clauses.push_back(g.cl);
        ClauseGen g2(rng);
        g2.put(mkInstr(Op::LdArg, kCounterReg, kNone, kNone, 2));
        m.clauses.push_back(g2.cl);
    }

    struct PendingBranch
    {
        size_t clause;
        size_t block;
    };
    unsigned segments = 1 + pick(3);
    for (unsigned seg = 0; seg < segments; ++seg) {
        std::vector<size_t> block_starts;
        std::vector<PendingBranch> pending;
        unsigned blocks = 1 + pick(4);
        for (unsigned b = 0; b < blocks; ++b) {
            block_starts.push_back(m.clauses.size());
            if (pick(10) < 3) {
                // Loop: init r12 = ((rX ^ gid) & 3) + 1, then one or two
                // body clauses; the last decrements r12 and branches
                // back while it is non-zero.
                ClauseGen init(rng);
                init.put(mkInstr(Op::MovImm, t(0), kNone, kNone, 3));
                init.put(mkInstr(Op::IXor, t(1),
                                 static_cast<uint8_t>(pick(kWarpFuzzRegs)),
                                 kGidReg));
                init.put(mkInstr(Op::IAnd, kTripReg, t(1), t(0)));
                init.put(mkInstr(Op::MovImm, t(2), kNone, kNone, 1));
                init.put(mkInstr(Op::IAdd, kTripReg, kTripReg, t(2)));
                m.clauses.push_back(init.cl);
                size_t head = m.clauses.size();
                unsigned body = 1 + pick(2);
                for (unsigned k = 0; k < body; ++k) {
                    ClauseGen g(rng);
                    unsigned tuples = 1 + pick(4);
                    for (unsigned i = 0; i < tuples; ++i)
                        g.randomTuple();
                    if (k + 1 == body) {
                        g.put(mkInstr(Op::MovImm, t(7), kNone, kNone, 1));
                        g.cl.tuples.back().slot[1] =
                            mkInstr(Op::ISub, kTripReg, kTripReg, t(7));
                        bif::Tuple br;
                        br.slot[1] = mkInstr(Op::BranchNZ, kNone, kTripReg,
                                             kNone,
                                             static_cast<int32_t>(head));
                        g.cl.tuples.push_back(br);
                    }
                    m.clauses.push_back(g.cl);
                }
            } else {
                ClauseGen g(rng);
                unsigned tuples = 1 + pick(7);
                for (unsigned i = 0; i < tuples; ++i)
                    g.randomTuple();
                if (pick(2) == 0) {
                    unsigned kind = pick(3);
                    bif::Tuple br;
                    br.slot[1].op = kind == 0   ? Op::Branch
                                    : kind == 1 ? Op::BranchZ
                                                : Op::BranchNZ;
                    br.slot[1].src0 =
                        static_cast<uint8_t>(pick(kWarpFuzzRegs + 1));
                    g.cl.tuples.push_back(br);
                    pending.push_back({m.clauses.size(), b});
                }
                m.clauses.push_back(g.cl);
            }
        }
        // The segment ends at its barrier, or at the dump stage.
        size_t seg_end = m.clauses.size();
        for (const PendingBranch &p : pending) {
            size_t later = block_starts.size() - p.block;   // >= 1
            size_t k = p.block + 1 + pick(static_cast<uint32_t>(later));
            size_t target = k < block_starts.size() ? block_starts[k]
                                                    : seg_end;
            m.clauses[p.clause].tuples.back().slot[1].imm =
                static_cast<int32_t>(target);
        }
        if (seg + 1 < segments) {
            bif::Clause bar;
            bif::Tuple bt;
            bt.slot[1].op = Op::Barrier;
            bar.tuples.push_back(bt);
            m.clauses.push_back(bar);
            m.usesBarrier = true;
        }
    }

    // Dump stage: out[gid * 64 + 4 * i] = r_i for r0..r12.
    ClauseGen d(rng);
    d.put(mkInstr(Op::MovImm, 20, kNone, kNone, 6));
    d.put(mkInstr(Op::IShl, 21, kGidReg, 20));
    d.put(mkInstr(Op::LdArg, 22, kNone, kNone, 0));
    d.put(mkInstr(Op::IAdd, 21, 21, 22));
    for (uint8_t r = 0; r <= kTripReg; ++r) {
        d.put(mkInstr(Op::StGlobal, kNone, 21, r, r * 4));
        if (d.cl.tuples.size() == bif::kMaxTuplesPerClause) {
            m.clauses.push_back(d.cl);
            d.cl.tuples.clear();
        }
    }
    bif::Tuple ret;
    ret.slot[1].op = Op::Ret;
    d.cl.tuples.push_back(ret);
    m.clauses.push_back(d.cl);
    return m;
}

/**
 * The warp executor against the scalar reference over programs that
 * mix memory, atomics, barriers and divergent loops, for group sizes
 * 1..7 and 13 (tail warps with dead lanes) at one and four workers.
 * Compared: every thread's dumped r0..r12, every thread's global slot
 * bytes and the shared counter's final value.
 */
class WarpDifferential : public ::testing::TestWithParam<uint32_t>
{
};

TEST_P(WarpDifferential, MatchesReferenceAtOneAndFourWorkers)
{
    static const uint32_t kGroupSizes[] = {1, 2, 3, 4, 5, 6, 7, 13};
    const uint32_t seed = GetParam();
    const bif::Module prog = randomWarpProgram(seed);
    ASSERT_EQ(bif::validate(prog), "") << "seed " << seed;

    const uint32_t ls = kGroupSizes[seed % std::size(kGroupSizes)];
    const uint32_t groups = 2 + seed % 2;
    const uint32_t threads = ls * groups;
    std::mt19937 rng(seed * 2654435761u);
    std::vector<uint8_t> slots0(threads * kSlotBytes);
    for (uint8_t &b : slots0)
        b = static_cast<uint8_t>(rng());
    const uint32_t counter0 = rng();

    kclc::CompiledKernel ck;
    ck.name = "warpfuzz";
    ck.mod = prog;
    ck.binary = bif::encode(prog);
    ck.regCount = prog.regCount;

    for (unsigned workers : {1u, 4u}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed " << seed << " group size " << ls
                     << " workers " << workers);
        rt::SystemConfig cfg;
        cfg.gpu.hostThreads = workers;
        rt::Session s(cfg);
        rt::KernelHandle k = s.load(ck);
        rt::Buffer out = s.alloc(threads * kSlotBytes);
        rt::Buffer slots = s.alloc(threads * kSlotBytes);
        rt::Buffer counter = s.alloc(4);
        s.write(slots, slots0.data(), slots0.size());
        s.write(counter, &counter0, 4);
        gpu::JobResult r = s.enqueue(
            k, rt::NDRange{threads, 1, 1}, rt::NDRange{ls, 1, 1},
            {rt::Arg::buf(out), rt::Arg::buf(slots), rt::Arg::buf(counter)});
        ASSERT_FALSE(r.faulted) << r.fault.detail;
        std::vector<uint8_t> got_out(threads * kSlotBytes);
        std::vector<uint8_t> got_slots(threads * kSlotBytes);
        uint32_t got_counter = 0;
        s.read(out, got_out.data(), got_out.size());
        s.read(slots, got_slots.data(), got_slots.size());
        s.read(counter, &got_counter, 4);

        // Reference: every thread in turn over one flat image at the
        // same GPU VAs.  Local slots are per thread, so a fresh zeroed
        // local buffer per thread matches the per-group zeroing.
        std::vector<uint8_t> flat(counter.gpuVa + 4, 0);
        std::memcpy(flat.data() + slots.gpuVa, slots0.data(),
                    slots0.size());
        std::memcpy(flat.data() + counter.gpuVa, &counter0, 4);
        for (uint32_t tid = 0; tid < threads; ++tid) {
            std::vector<uint8_t> local(prog.localBytes, 0);
            gpu::ref::RefContext ctx;
            ctx.localId[0] = tid % ls;
            ctx.groupId[0] = tid / ls;
            ctx.localSize[0] = ls;
            ctx.gridSize[0] = threads;
            ctx.numGroups[0] = groups;
            ctx.laneId = (tid % ls) % bif::kWarpWidth;
            ctx.args = {out.gpuVa, slots.gpuVa, counter.gpuVa};
            ctx.globalMem = &flat;
            ctx.localMem = &local;
            gpu::ref::RefResult rr = gpu::ref::runThread(prog, ctx);
            ASSERT_TRUE(rr.ok) << rr.error << " thread " << tid;
        }

        for (uint32_t tid = 0; tid < threads; ++tid) {
            for (uint32_t reg = 0; reg <= kTripReg; ++reg) {
                size_t off = tid * kSlotBytes + reg * 4;
                uint32_t want = 0, have = 0;
                std::memcpy(&want, flat.data() + out.gpuVa + off, 4);
                std::memcpy(&have, got_out.data() + off, 4);
                EXPECT_EQ(have, want) << "thread " << tid << " r" << reg;
            }
        }
        EXPECT_EQ(std::memcmp(got_slots.data(), flat.data() + slots.gpuVa,
                              got_slots.size()),
                  0)
            << "global slots differ";
        uint32_t want_counter = 0;
        std::memcpy(&want_counter, flat.data() + counter.gpuVa, 4);
        EXPECT_EQ(got_counter, want_counter);
    }
}

INSTANTIATE_TEST_SUITE_P(WarpSeeds, WarpDifferential,
                         ::testing::Range(1u, 41u));

/** FFma is an unfused multiply-add in both interpreters.  With
 *  a = b = 1 + 2^-12 and c = -(1 + 2^-11), a*b rounds to 1 + 2^-11, so
 *  the unfused result is +0 while a fused one is 2^-24; a compiler that
 *  contracted either expression into an FMA would break the match. */
TEST(FpContract, FFmaIsUnfusedInBothInterpreters)
{
    const uint32_t a = 0x3f800800;   // 1 + 2^-12
    const uint32_t c = 0xbf801000;   // -(1 + 2^-11)
    ASSERT_NE(std::bit_cast<uint32_t>(std::fmaf(std::bit_cast<float>(a),
                                                std::bit_cast<float>(a),
                                                std::bit_cast<float>(c))),
              0u)
        << "operands do not tell fused from unfused";

    bif::Module m;
    m.rom = {a, c};
    m.regCount = 4;
    bif::Clause cl;
    auto put = [&](Instr in) {
        bif::Tuple t;
        t.slot[0] = in;
        cl.tuples.push_back(t);
    };
    put(mkInstr(Op::LdRom, 0, kNone, kNone, 0));
    put(mkInstr(Op::LdRom, 1, kNone, kNone, 1));
    Instr fma = mkInstr(Op::FFma, 2, 0, 0);
    fma.src2 = 1;
    put(fma);
    put(mkInstr(Op::LdArg, 3, kNone, kNone, 0));
    put(mkInstr(Op::StGlobal, kNone, 3, 2));
    bif::Tuple ret;
    ret.slot[1].op = Op::Ret;
    cl.tuples.push_back(ret);
    m.clauses.push_back(cl);
    ASSERT_EQ(bif::validate(m), "");

    rt::Session s(rt::SystemConfig{});
    kclc::CompiledKernel ck;
    ck.name = "ffma";
    ck.mod = m;
    ck.binary = bif::encode(m);
    ck.regCount = m.regCount;
    rt::KernelHandle k = s.load(ck);
    rt::Buffer out = s.alloc(4);
    gpu::JobResult r = s.enqueue(k, rt::NDRange{1, 1, 1},
                                 rt::NDRange{1, 1, 1}, {rt::Arg::buf(out)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    uint32_t got = 0xdeadbeef;
    s.read(out, &got, 4);

    gpu::ref::RefContext ctx;
    std::vector<uint8_t> flat(out.gpuVa + 4, 0);
    ctx.args = {out.gpuVa};
    ctx.globalMem = &flat;
    gpu::ref::RefResult rr = gpu::ref::runThread(m, ctx);
    ASSERT_TRUE(rr.ok) << rr.error;

    EXPECT_EQ(got, rr.grf[2]);
    EXPECT_EQ(got, 0u);   // The unfused value, +0.
}

/** The reference interpreter's tracing mode (paper's instruction
 *  tracing validation). */
TEST(RefInterp, TraceMode)
{
    bif::Module m = randomProgram(7);
    gpu::ref::RefContext ctx;
    gpu::ref::RefResult r = gpu::ref::runThread(m, ctx, true);
    ASSERT_TRUE(r.ok);
    EXPECT_EQ(r.trace.size(), r.executedInstrs);
    EXPECT_FALSE(r.trace.empty());
}

/** Runs sgemm1 (naive, no barriers) once and returns output bytes plus
 *  the job's kernel statistics. */
static gpu::JobResult
runSgemm1(uint32_t n, const std::vector<float> &a,
          const std::vector<float> &b, std::vector<uint8_t> &out_bytes,
          std::vector<uint32_t> *buffer_vas = nullptr)
{
    rt::Session s(rt::SystemConfig{});
    rt::KernelHandle k =
        s.compile(workloads::sgemmVariantsSource(), "sgemm1");
    size_t bytes = static_cast<size_t>(n) * n * 4;
    rt::Buffer da = s.alloc(bytes), db = s.alloc(bytes),
               dc = s.alloc(bytes);
    s.write(da, a.data(), bytes);
    s.write(db, b.data(), bytes);
    gpu::JobResult r = s.enqueue(
        k, rt::NDRange{n, n, 1}, rt::NDRange{16, 16, 1},
        {rt::Arg::buf(da), rt::Arg::buf(db), rt::Arg::buf(dc),
         rt::Arg::i32(static_cast<int32_t>(n))});
    out_bytes.resize(bytes);
    s.read(dc, out_bytes.data(), bytes);
    if (buffer_vas)
        *buffer_vas = {da.gpuVa, db.gpuVa, dc.gpuVa};
    return r;
}

/** The executor folds its clause counts into KernelStats lazily, once
 *  per workgroup and worker; the folded totals must equal eagerly
 *  counted ones.  The expected values were recorded on this exact job
 *  from the retired tuple-walking interpreter, which counted every
 *  instruction as it executed it. */
TEST(SgemmDifferential, InstrumentationTotalsExact)
{
    constexpr uint32_t n = 32;
    std::vector<float> a(n * n), b(n * n);
    std::mt19937 rng(42);
    auto rnd = [&] {
        return static_cast<float>(rng() % 65536) / 65536.0f - 0.5f;
    };
    for (float &v : a)
        v = rnd();
    for (float &v : b)
        v = rnd();

    std::vector<uint8_t> out;
    gpu::JobResult r = runSgemm1(n, a, b, out);
    ASSERT_FALSE(r.faulted) << r.fault.detail;

    const gpu::KernelStats &k = r.kernel;
    EXPECT_EQ(k.arithInstrs, 575488u);
    EXPECT_EQ(k.lsInstrs, 66560u);
    EXPECT_EQ(k.cfInstrs, 67584u);
    EXPECT_EQ(k.nopSlots, 33792u);
    EXPECT_EQ(k.grfReads, 603136u);
    EXPECT_EQ(k.grfWrites, 270336u);
    EXPECT_EQ(k.tempAccesses, 741376u);
    EXPECT_EQ(k.constReads, 4096u);
    EXPECT_EQ(k.romReads, 0u);
    EXPECT_EQ(k.globalLdSt, 66560u);
    EXPECT_EQ(k.localLdSt, 0u);
    EXPECT_EQ(k.clausesExecuted, 101376u);
    EXPECT_EQ(k.threadsLaunched, 1024u);
    EXPECT_EQ(k.warpsLaunched, 256u);
    EXPECT_EQ(k.workgroups, 4u);
    EXPECT_EQ(k.divergentBranches, 0u);
    EXPECT_EQ(k.clauseSizes.total(), 101376u);
    const std::map<uint64_t, uint64_t> edges = {
        {0x100000002ull, 32768},
        {0x100000004ull, 1024},
        {0x300000001ull, 32768},
        {0x4ffffffffull, 1024},
    };
    EXPECT_EQ(k.cfgEdges, edges);

    // Global accesses went through the translation fast path.
    EXPECT_GT(r.tlb.lookups(), 0u);
    EXPECT_GT(r.tlb.hitRate(), 0.9);
}

/** The executor against the independent scalar reference interpreter
 *  (paper §V-A2), thread by thread over a flat memory image where
 *  GPU VA == vector index. */
TEST(SgemmDifferential, MatchesScalarReference)
{
    constexpr uint32_t n = 32;
    std::vector<float> a(n * n), b(n * n);
    std::mt19937 rng(7);
    auto rnd = [&] {
        return static_cast<float>(rng() % 65536) / 65536.0f - 0.5f;
    };
    for (float &v : a)
        v = rnd();
    for (float &v : b)
        v = rnd();

    std::vector<uint8_t> out;
    std::vector<uint32_t> vas;
    gpu::JobResult r = runSgemm1(n, a, b, out, &vas);
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    const uint32_t va_a = vas[0], va_b = vas[1], va_c = vas[2];

    // Build the flat reference image at the same GPU VAs.
    size_t bytes = static_cast<size_t>(n) * n * 4;
    std::vector<uint8_t> flat(static_cast<size_t>(va_c) + bytes, 0);
    std::memcpy(flat.data() + va_a, a.data(), bytes);
    std::memcpy(flat.data() + va_b, b.data(), bytes);

    kclc::CompiledKernel ck =
        kclc::compileKernel(workloads::sgemmVariantsSource(), "sgemm1");

    std::vector<uint8_t> local(64 * 1024, 0);
    for (uint32_t row = 0; row < n; ++row) {
        for (uint32_t col = 0; col < n; ++col) {
            gpu::ref::RefContext ctx;
            ctx.localId[0] = col % 16;
            ctx.localId[1] = row % 16;
            ctx.groupId[0] = col / 16;
            ctx.groupId[1] = row / 16;
            ctx.localSize[0] = 16;
            ctx.localSize[1] = 16;
            ctx.gridSize[0] = n;
            ctx.gridSize[1] = n;
            ctx.numGroups[0] = n / 16;
            ctx.numGroups[1] = n / 16;
            ctx.laneId =
                (ctx.localId[1] * 16 + ctx.localId[0]) % bif::kWarpWidth;
            ctx.args = {va_a, va_b, va_c, n};
            ctx.globalMem = &flat;
            ctx.localMem = &local;
            gpu::ref::RefResult rr = gpu::ref::runThread(ck.mod, ctx);
            ASSERT_TRUE(rr.ok)
                << rr.error << " at row " << row << " col " << col;
        }
    }

    // Bit-identical C matrix.
    EXPECT_EQ(std::memcmp(out.data(), flat.data() + va_c, bytes), 0);
}

TEST(RefInterp, BudgetGuard)
{
    // An infinite loop trips the instruction budget.
    bif::Module m;
    bif::Clause cl;
    bif::Tuple t;
    t.slot[1].op = Op::Branch;
    t.slot[1].imm = 0;
    cl.tuples.push_back(t);
    m.clauses.push_back(cl);
    gpu::ref::RefContext ctx;
    gpu::ref::RefResult r = gpu::ref::runThread(m, ctx, false, 1000);
    EXPECT_FALSE(r.ok);
}

} // namespace
} // namespace bifsim

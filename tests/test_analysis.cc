/** @file Tests for the BIF static analyzer (src/analysis/): clause CFG
 *  construction, the seeded-violation diagnostic matrix, workload lint
 *  at every optimisation level, and the decode-time GPU verifier gate
 *  in both Direct and FullSystem modes. */

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/analysis.h"
#include "guestos/guest_os.h"
#include "gpu/gpu.h"
#include "gpu/isa/bif.h"
#include "instrument/cfg.h"
#include "kclc/compiler.h"
#include "runtime/session.h"
#include "workloads/workload.h"

namespace bifsim {
namespace {

using analysis::Check;
using analysis::Severity;
using bif::Instr;
using bif::Op;

constexpr uint8_t kNone = bif::kOperandNone;
constexpr uint8_t kT0 = bif::kOperandTemp0;

Instr
mk(Op op, uint8_t dst, uint8_t s0, uint8_t s1 = kNone,
   uint8_t s2 = kNone, int32_t imm = 0)
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

/** One clause per instruction group; each instr gets its own tuple. */
bif::Module
buildModule(const std::vector<std::vector<Instr>> &clauses,
            uint32_t reg_count, std::vector<uint32_t> rom = {})
{
    bif::Module m;
    for (const auto &instrs : clauses) {
        bif::Clause cl;
        for (const Instr &in : instrs) {
            bif::Tuple t;
            if (bif::legalInSlot0(in.op))
                t.slot[0] = in;
            else
                t.slot[1] = in;
            cl.tuples.push_back(t);
        }
        m.clauses.push_back(cl);
    }
    m.rom = std::move(rom);
    m.regCount = reg_count;
    return m;
}

/** First diagnostic of class @p c, or nullptr. */
const analysis::Diag *
findDiag(const analysis::Result &r, Check c)
{
    for (const analysis::Diag &d : r.diags) {
        if (d.check == c)
            return &d;
    }
    return nullptr;
}

size_t
countDiags(const analysis::Result &r, Check c)
{
    size_t n = 0;
    for (const analysis::Diag &d : r.diags)
        n += d.check == c ? 1 : 0;
    return n;
}

// ---------------------------------------------------------------------
// Clause CFG construction.
// ---------------------------------------------------------------------

TEST(ClauseCfg, LinearFallThrough)
{
    bif::Module m = buildModule(
        {
            {mk(Op::MovImm, 1, kNone, kNone, kNone, 5)},
            {mk(Op::IAdd, 2, 1, 1)},
            {mk(Op::Ret, kNone, kNone)},
        },
        4);
    analysis::ClauseCfg cfg = analysis::ClauseCfg::build(m);
    ASSERT_EQ(cfg.nodes.size(), 3u);
    EXPECT_EQ(cfg.nodes[0].succs, (std::vector<uint32_t>{1}));
    EXPECT_EQ(cfg.nodes[1].succs, (std::vector<uint32_t>{2}));
    EXPECT_EQ(cfg.nodes[2].succs,
              (std::vector<uint32_t>{analysis::ClauseCfg::kExit}));
    EXPECT_EQ(cfg.nodes[1].preds, (std::vector<uint32_t>{0}));
    for (const auto &n : cfg.nodes)
        EXPECT_TRUE(n.reachable);
}

TEST(ClauseCfg, ConditionalBranchKeepsFallThrough)
{
    bif::Module m = buildModule(
        {
            {mk(Op::MovImm, 1, kNone, kNone, kNone, 1),
             mk(Op::BranchZ, kNone, 1, kNone, kNone, 2)},
            {mk(Op::MovImm, 2, kNone, kNone, kNone, 7)},
            {mk(Op::Ret, kNone, kNone)},
        },
        4);
    analysis::ClauseCfg cfg = analysis::ClauseCfg::build(m);
    EXPECT_EQ(cfg.nodes[0].succs, (std::vector<uint32_t>{1, 2}));
    EXPECT_EQ(cfg.nodes[2].preds, (std::vector<uint32_t>{0, 1}));
}

TEST(ClauseCfg, UnconditionalBranchDropsFallThrough)
{
    bif::Module m = buildModule(
        {
            {mk(Op::Branch, kNone, kNone, kNone, kNone, 2)},
            {mk(Op::MovImm, 1, kNone, kNone, kNone, 9)},   // Unreachable.
            {mk(Op::Ret, kNone, kNone)},
        },
        4);
    analysis::ClauseCfg cfg = analysis::ClauseCfg::build(m);
    EXPECT_EQ(cfg.nodes[0].succs, (std::vector<uint32_t>{2}));
    EXPECT_FALSE(cfg.nodes[1].reachable);
    EXPECT_TRUE(cfg.nodes[2].reachable);
}

TEST(ClauseCfg, FallingOffEndIsExit)
{
    bif::Module m =
        buildModule({{mk(Op::MovImm, 1, kNone, kNone, kNone, 3)}}, 4);
    analysis::ClauseCfg cfg = analysis::ClauseCfg::build(m);
    EXPECT_EQ(cfg.nodes[0].succs,
              (std::vector<uint32_t>{analysis::ClauseCfg::kExit}));
}

TEST(ClauseCfg, ConvertsToInstrumentCfgDot)
{
    bif::Module m = buildModule(
        {
            {mk(Op::MovImm, 1, kNone, kNone, kNone, 1),
             mk(Op::BranchNZ, kNone, 1, kNone, kNone, 2)},
            {mk(Op::MovImm, 2, kNone, kNone, kNone, 0)},
            {mk(Op::Ret, kNone, kNone)},
        },
        4);
    analysis::Result r = analysis::analyze(m);
    instrument::Cfg icfg = r.cfg.toInstrumentCfg();
    ASSERT_EQ(icfg.nodes.size(), 3u);
    EXPECT_TRUE(icfg.nodes[0].divergent);    // Two static successors.
    EXPECT_FALSE(icfg.nodes[2].divergent);
    std::string dot = instrument::toDot(icfg);
    EXPECT_NE(dot.find("digraph"), std::string::npos);
}

// ---------------------------------------------------------------------
// Seeded-violation matrix: each diagnostic class caught with the
// expected clause/tuple location.
// ---------------------------------------------------------------------

TEST(Analyzer, CleanModuleHasNoDiagnostics)
{
    bif::Module m = buildModule(
        {{
            mk(Op::MovImm, 1, kNone, kNone, kNone, 21),
            mk(Op::IAdd, 2, 1, 1),
            mk(Op::LdArg, 3, kNone, kNone, kNone, 0),
            mk(Op::StGlobal, kNone, 3, 2),
            mk(Op::Ret, kNone, kNone),
        }},
        4);
    analysis::Result r = analysis::analyze(m);
    EXPECT_TRUE(r.diags.empty()) << r.render();
}

TEST(Analyzer, DetectsUninitGrfRead)
{
    // r5 is read in clause 0 tuple 1 but never written anywhere.
    bif::Module m = buildModule(
        {{
            mk(Op::MovImm, 1, kNone, kNone, kNone, 1),
            mk(Op::IAdd, 2, 5, 1),
            mk(Op::LdArg, 3, kNone, kNone, kNone, 0),
            mk(Op::StGlobal, kNone, 3, 2),
            mk(Op::Ret, kNone, kNone),
        }},
        8);
    analysis::Result r = analysis::analyze(m);
    const analysis::Diag *d = findDiag(r, Check::UninitRead);
    ASSERT_NE(d, nullptr) << r.render();
    EXPECT_EQ(d->sev, Severity::Error);
    EXPECT_EQ(d->clause, 0u);
    EXPECT_EQ(d->tuple, 1u);
    EXPECT_EQ(d->reg, 5);
    EXPECT_TRUE(r.hasErrors());
    // An uninitialised read is lint, not unsafe: hardware reads zero.
    EXPECT_FALSE(r.hasUnsafe());
}

TEST(Analyzer, DetectsMaybeUninitReadOnOnePath)
{
    // Diamond: only the taken path writes r3; the join reads it.
    bif::Module m = buildModule(
        {
            {mk(Op::MovImm, 1, kNone, kNone, kNone, 1),
             mk(Op::BranchZ, kNone, 1, kNone, kNone, 2)},
            {mk(Op::MovImm, 3, kNone, kNone, kNone, 7)},
            {mk(Op::LdArg, 4, kNone, kNone, kNone, 0),
             mk(Op::StGlobal, kNone, 4, 3),
             mk(Op::Ret, kNone, kNone)},
        },
        8);
    analysis::Result r = analysis::analyze(m);
    const analysis::Diag *d = findDiag(r, Check::MaybeUninitRead);
    ASSERT_NE(d, nullptr) << r.render();
    EXPECT_EQ(d->sev, Severity::Warning);
    EXPECT_EQ(d->clause, 2u);
    EXPECT_EQ(d->reg, 3);
    EXPECT_EQ(findDiag(r, Check::UninitRead), nullptr) << r.render();
    EXPECT_FALSE(r.hasErrors());
}

TEST(Analyzer, DetectsTempLiveAcrossClause)
{
    // t0 written in clause 0, read in clause 1: temps do not survive
    // clause boundaries.
    bif::Module m = buildModule(
        {
            {mk(Op::MovImm, kT0, kNone, kNone, kNone, 11)},
            {mk(Op::Mov, 1, kT0),
             mk(Op::LdArg, 2, kNone, kNone, kNone, 0),
             mk(Op::StGlobal, kNone, 2, 1),
             mk(Op::Ret, kNone, kNone)},
        },
        4);
    analysis::Result r = analysis::analyze(m);
    const analysis::Diag *d = findDiag(r, Check::TempScope);
    ASSERT_NE(d, nullptr) << r.render();
    EXPECT_EQ(d->sev, Severity::Error);
    EXPECT_EQ(d->clause, 1u);
    EXPECT_EQ(d->tuple, 0u);
    EXPECT_EQ(d->reg, 0);
    EXPECT_TRUE(r.hasUnsafe());
}

TEST(Analyzer, DetectsDeadWrite)
{
    // r2 is written in clause 0 tuple 1 and never read again.
    bif::Module m = buildModule(
        {{
            mk(Op::MovImm, 1, kNone, kNone, kNone, 1),
            mk(Op::MovImm, 2, kNone, kNone, kNone, 99),
            mk(Op::LdArg, 3, kNone, kNone, kNone, 0),
            mk(Op::StGlobal, kNone, 3, 1),
            mk(Op::Ret, kNone, kNone),
        }},
        4);
    analysis::Result r = analysis::analyze(m);
    const analysis::Diag *d = findDiag(r, Check::DeadWrite);
    ASSERT_NE(d, nullptr) << r.render();
    EXPECT_EQ(d->sev, Severity::Warning);
    EXPECT_EQ(d->clause, 0u);
    EXPECT_EQ(d->tuple, 1u);
    EXPECT_EQ(d->reg, 2);
    // A value carried into a later clause is not a dead write.
    EXPECT_EQ(countDiags(r, Check::DeadWrite), 1u) << r.render();
}

TEST(Analyzer, RedefinitionBeforeUseIsDeadWrite)
{
    // First write to r1 is clobbered before any read.
    bif::Module m = buildModule(
        {{
            mk(Op::MovImm, 1, kNone, kNone, kNone, 5),
            mk(Op::MovImm, 1, kNone, kNone, kNone, 6),
            mk(Op::LdArg, 2, kNone, kNone, kNone, 0),
            mk(Op::StGlobal, kNone, 2, 1),
            mk(Op::Ret, kNone, kNone),
        }},
        4);
    analysis::Result r = analysis::analyze(m);
    const analysis::Diag *d = findDiag(r, Check::DeadWrite);
    ASSERT_NE(d, nullptr) << r.render();
    EXPECT_EQ(d->tuple, 0u);
    EXPECT_EQ(countDiags(r, Check::DeadWrite), 1u) << r.render();
}

TEST(Analyzer, DetectsOobRomIndex)
{
    bif::Module m = buildModule(
        {{
            mk(Op::LdRom, 1, kNone, kNone, kNone, 3),   // rom has 1 word
            mk(Op::LdArg, 2, kNone, kNone, kNone, 0),
            mk(Op::StGlobal, kNone, 2, 1),
            mk(Op::Ret, kNone, kNone),
        }},
        4, {42});
    analysis::Result r = analysis::analyze(m);
    const analysis::Diag *d = findDiag(r, Check::RomBounds);
    ASSERT_NE(d, nullptr) << r.render();
    EXPECT_EQ(d->sev, Severity::Error);
    EXPECT_EQ(d->clause, 0u);
    EXPECT_EQ(d->tuple, 0u);
    EXPECT_TRUE(r.hasUnsafe());
}

TEST(Analyzer, DetectsOobArgIndex)
{
    bif::Module m = buildModule(
        {{
            mk(Op::LdArg, 1, kNone, kNone, kNone, 64),  // Table: 64 words.
            mk(Op::Ret, kNone, kNone),
        }},
        4);
    analysis::Result r = analysis::analyze(m);
    const analysis::Diag *d = findDiag(r, Check::ArgBounds);
    ASSERT_NE(d, nullptr) << r.render();
    EXPECT_EQ(d->clause, 0u);
    EXPECT_EQ(d->tuple, 0u);
    EXPECT_TRUE(r.hasUnsafe());
}

TEST(Analyzer, DetectsGrfBeyondRegCount)
{
    // regCount says 2 but r7 is read and r9 written.
    bif::Module m = buildModule(
        {{
            mk(Op::IAdd, 9, 7, 7),
            mk(Op::Ret, kNone, kNone),
        }},
        2);
    analysis::Result r = analysis::analyze(m);
    EXPECT_EQ(countDiags(r, Check::GrfBounds), 2u) << r.render();
    const analysis::Diag *d = findDiag(r, Check::GrfBounds);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->clause, 0u);
    EXPECT_EQ(d->tuple, 0u);
    EXPECT_TRUE(r.hasUnsafe());
}

TEST(Analyzer, DetectsBadBranchTarget)
{
    bif::Module m = buildModule(
        {
            {mk(Op::MovImm, 1, kNone, kNone, kNone, 1),
             mk(Op::BranchZ, kNone, 1, kNone, kNone, 9)},
            {mk(Op::Ret, kNone, kNone)},
        },
        4);
    analysis::Result r = analysis::analyze(m);
    const analysis::Diag *d = findDiag(r, Check::BadBranch);
    ASSERT_NE(d, nullptr) << r.render();
    EXPECT_EQ(d->clause, 0u);
    EXPECT_EQ(d->tuple, 1u);
    EXPECT_TRUE(r.hasUnsafe());
}

TEST(Analyzer, NotesUnreachableClause)
{
    bif::Module m = buildModule(
        {
            {mk(Op::Branch, kNone, kNone, kNone, kNone, 2)},
            {mk(Op::MovImm, 1, kNone, kNone, kNone, 1)},
            {mk(Op::Ret, kNone, kNone)},
        },
        4);
    analysis::Result r = analysis::analyze(m);
    const analysis::Diag *d = findDiag(r, Check::Unreachable);
    ASSERT_NE(d, nullptr) << r.render();
    EXPECT_EQ(d->sev, Severity::Note);
    EXPECT_EQ(d->clause, 1u);
}

TEST(Analyzer, RenderIncludesLocationAndExcerpt)
{
    bif::Module m = buildModule(
        {{
            mk(Op::LdRom, 1, kNone, kNone, kNone, 8),
            mk(Op::Ret, kNone, kNone),
        }},
        4);
    analysis::Result r = analysis::analyze(m);
    std::string text = r.render();
    EXPECT_NE(text.find("error"), std::string::npos) << text;
    EXPECT_NE(text.find("clause 0 tuple 0"), std::string::npos) << text;
    EXPECT_NE(text.find("rom-bounds"), std::string::npos) << text;
    EXPECT_NE(text.find("ldrom"), std::string::npos) << text;
}

// ---------------------------------------------------------------------
// Rejection policy.
// ---------------------------------------------------------------------

TEST(Analyzer, RejectsOnlyUnsafeClasses)
{
    // Lint-only defect (uninit read): an error-severity finding, but
    // the verifier's one policy lets it execute.
    bif::Module lint = buildModule(
        {{
            mk(Op::LdArg, 2, kNone, kNone, kNone, 0),
            mk(Op::StGlobal, kNone, 2, 1),   // r1 never written.
            mk(Op::Ret, kNone, kNone),
        }},
        4);
    analysis::Result rl = analysis::analyze(lint);
    EXPECT_TRUE(rl.hasErrors());
    EXPECT_EQ(analysis::firstRejected(rl), nullptr);

    // Unsafe defect (OOB ROM): rejected.
    bif::Module unsafe = buildModule(
        {{
            mk(Op::LdRom, 1, kNone, kNone, kNone, 4),
            mk(Op::Ret, kNone, kNone),
        }},
        4);
    analysis::Result ru = analysis::analyze(unsafe);
    const analysis::Diag *d = analysis::firstRejected(ru);
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->check, Check::RomBounds);
}

// ---------------------------------------------------------------------
// kclc workload lint: zero error-severity findings at O0..O3 on every
// Table II workload (the CI gate biflint --check-workloads mirrors).
// ---------------------------------------------------------------------

TEST(WorkloadLint, AllWorkloadsCleanAtEveryOptLevel)
{
    for (const std::string &name : workloads::allWorkloadNames()) {
        std::unique_ptr<workloads::Workload> w =
            workloads::makeWorkload(name);
        std::string src = w->source();
        for (int level = 0; level <= 3; ++level) {
            kclc::CompilerOptions opts =
                kclc::CompilerOptions::forLevel(level);
            // compileAll itself runs the analyzer gate and throws on
            // error-severity findings; re-check explicitly anyway.
            std::vector<kclc::CompiledKernel> kernels =
                kclc::compileAll(src, opts);
            for (const kclc::CompiledKernel &k : kernels) {
                analysis::Result r = analysis::analyze(k.mod);
                EXPECT_EQ(r.count(Severity::Error), 0u)
                    << name << ":" << k.name << " at O" << level << "\n"
                    << r.render();
                EXPECT_FALSE(r.hasUnsafe())
                    << name << ":" << k.name << " at O" << level << "\n"
                    << r.render();
            }
        }
    }
}

// ---------------------------------------------------------------------
// The GPU decode-time verifier.
// ---------------------------------------------------------------------

/** OOB LdRom passes bif::validate/encode (the executor defines the read
 *  as zero; the verifier must catch it before execution). */
bif::Module
oobRomModule()
{
    return buildModule(
        {{
            mk(Op::LdRom, 1, kNone, kNone, kNone, 3),   // No ROM at all.
            mk(Op::LdArg, 2, kNone, kNone, kNone, 0),
            mk(Op::StGlobal, kNone, 2, 1),
            mk(Op::Ret, kNone, kNone),
        }},
        4);
}

rt::KernelHandle
loadModule(rt::Session &s, const bif::Module &m)
{
    kclc::CompiledKernel ck;
    ck.name = "raw";
    ck.mod = m;
    ck.binary = bif::encode(m);
    ck.localBytes = m.localBytes;
    ck.regCount = m.regCount;
    return s.load(ck);
}

TEST(GpuVerifier, RejectsUnsafeShaderWithJobFault)
{
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 2;
    rt::Session s(cfg, rt::Mode::Direct);
    rt::KernelHandle k = loadModule(s, oobRomModule());
    rt::Buffer out = s.alloc(16);
    gpu::JobResult r = s.enqueue(k, rt::NDRange{1, 1, 1},
                                 rt::NDRange{1, 1, 1},
                                 {rt::Arg::buf(out)});
    ASSERT_TRUE(r.faulted);
    EXPECT_EQ(r.fault.kind, gpu::JobFaultKind::ShaderVerify);
    EXPECT_NE(r.fault.detail.find("rom-bounds"), std::string::npos)
        << r.fault.detail;
    uint64_t status = 0;
    s.system().bus().read(
        rt::System::kGpuBase + gpu::kRegAsFaultStatus, 4, status);
    EXPECT_EQ(status,
              static_cast<uint64_t>(gpu::JobFaultKind::ShaderVerify));
}

TEST(GpuVerifier, LintOnlyFindingExecutes)
{
    // An uninitialised GRF read is a lint-class finding: the verifier
    // lets the shader execute (the read is architectural zero).
    bif::Module m = buildModule(
        {{
            mk(Op::LdArg, 2, kNone, kNone, kNone, 0),
            mk(Op::StGlobal, kNone, 2, 1),   // r1 never written.
            mk(Op::Ret, kNone, kNone),
        }},
        4);
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 2;
    rt::Session s(cfg, rt::Mode::Direct);
    rt::KernelHandle k = loadModule(s, m);
    rt::Buffer out = s.alloc(16);
    gpu::JobResult r = s.enqueue(k, rt::NDRange{1, 1, 1},
                                 rt::NDRange{1, 1, 1},
                                 {rt::Arg::buf(out)});
    EXPECT_FALSE(r.faulted) << r.fault.detail;
}

TEST(GpuVerifier, FullSystemFaultRaisesIrqThroughDriver)
{
    // The rejected shader must surface as an architectural job fault:
    // the guest driver observes JOB_FAULT, reports RESULT=1 through the
    // mailbox, and the IRQ count advances.
    rt::Session s(rt::SystemConfig(), rt::Mode::FullSystem);
    rt::KernelHandle k = loadModule(s, oobRomModule());
    rt::Buffer out = s.alloc(4096);
    gpu::JobResult r = s.enqueue(k, rt::NDRange{1, 1, 1},
                                 rt::NDRange{1, 1, 1},
                                 {rt::Arg::buf(out)});
    ASSERT_TRUE(r.faulted);
    EXPECT_EQ(r.fault.kind, gpu::JobFaultKind::ShaderVerify);
    guestos::Layout lay = guestos::defaultLayout(rt::System::kRamBase);
    EXPECT_EQ(s.system().mem().read<uint32_t>(lay.mailbox +
                                              guestos::kMbResult),
              1u);
    EXPECT_GE(s.system().mem().read<uint32_t>(lay.mailbox +
                                              guestos::kMbIrqCount),
              1u);
}

TEST(GpuVerifier, VerifierDiagnosticsLandInTrace)
{
    rt::SystemConfig cfg;
    cfg.gpu.hostThreads = 2;
    cfg.gpu.trace = true;
    rt::Session s(cfg, rt::Mode::Direct);
    rt::KernelHandle k = loadModule(s, oobRomModule());
    gpu::JobResult r = s.enqueue(k, rt::NDRange{1, 1, 1},
                                 rt::NDRange{1, 1, 1}, {});
    ASSERT_TRUE(r.faulted);
    std::ostringstream os;
    s.system().gpu().tracer().exportChromeJson(os);
    std::string json = os.str();
    EXPECT_NE(json.find("rom-bounds"), std::string::npos);
    EXPECT_NE(json.find("\"verify\""), std::string::npos);
}

} // namespace
} // namespace bifsim

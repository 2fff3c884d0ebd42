/** @file Unit tests for the SA32 CPU core: decoder, instruction
 *  semantics, traps, interrupts and the block decode cache. */

#include <gtest/gtest.h>

#include "cpu/asm/assembler.h"
#include "cpu/core.h"
#include "cpu/dbt.h"
#include "cpu/sa32.h"
#include "mem/bus.h"
#include "mem/phys_mem.h"

namespace bifsim::sa32 {
namespace {

constexpr Addr kBase = 0x80000000;

/** A minimal CPU fixture: RAM + bus + one core. */
class CpuTest : public ::testing::Test
{
  protected:
    CpuTest() : mem(kBase, 1 << 20)
    {
        bus.attachMemory(&mem);
        core = std::make_unique<Core>(bus);
    }

    /** Assembles (with .org at kBase prepended), loads, runs to HALT. */
    StopReason
    runAsm(const std::string &body, uint64_t max_insts = 100000)
    {
        Program p = assemble("        .org 0x80000000\n" + body);
        p.loadInto(mem);
        core->reset();
        return core->run(max_insts);
    }

    uint32_t reg(unsigned r) const { return core->reg(r); }

    PhysMem mem;
    Bus bus;
    std::unique_ptr<Core> core;
};

// ------------------------------------------------------------- decoder

TEST(Sa32Decoder, RTypeRoundTrip)
{
    uint32_t word = encR(kFnAdd, 3, 4, 5);
    DecodedInst d = decode(word);
    EXPECT_EQ(d.op, Op::Add);
    EXPECT_EQ(d.rd, 3);
    EXPECT_EQ(d.rs1, 4);
    EXPECT_EQ(d.rs2, 5);
}

TEST(Sa32Decoder, ImmediateSignExtension)
{
    DecodedInst d = decode(encI(kOpAddI, 1, 2, 0xFFFF));
    EXPECT_EQ(d.op, Op::AddI);
    EXPECT_EQ(d.imm, -1);
    d = decode(encI(kOpAndI, 1, 2, 0xFFFF));
    EXPECT_EQ(d.imm, 0xFFFF);   // Logical immediates zero-extend.
}

TEST(Sa32Decoder, JalOffset)
{
    DecodedInst d = decode(encJ(1, 0x1FFFFF));   // -1 in 21 bits
    EXPECT_EQ(d.op, Op::Jal);
    EXPECT_EQ(d.imm, -1);
}

TEST(Sa32Decoder, IllegalOpcode)
{
    DecodedInst d = decode(0xFC000000);
    EXPECT_EQ(d.op, Op::Illegal);
}

TEST(Sa32Decoder, SystemOps)
{
    EXPECT_EQ(decode(encSys(kSysECall)).op, Op::ECall);
    EXPECT_EQ(decode(encSys(kSysMRet)).op, Op::MRet);
    EXPECT_EQ(decode(encSys(kSysWfi)).op, Op::Wfi);
    EXPECT_EQ(decode(encSys(kSysHalt)).op, Op::Halt);
    EXPECT_EQ(decode(encSys(999)).op, Op::Illegal);
}

TEST(Sa32Decoder, Disassemble)
{
    DecodedInst d = decode(encR(kFnXor, 1, 2, 3));
    EXPECT_EQ(disassemble(d, 0), "xor x1, x2, x3");
    d = decode(encI(kOpLw, 5, 6, 8));
    EXPECT_EQ(disassemble(d, 0), "lw x5, 8(x6)");
}

// ----------------------------------------------------------- semantics

TEST_F(CpuTest, ArithmeticBasics)
{
    runAsm(R"(
        li   t0, 20
        li   t1, 22
        add  a0, t0, t1
        sub  a1, t0, t1
        mul  a2, t0, t1
        halt
    )");
    EXPECT_EQ(reg(10), 42u);
    EXPECT_EQ(reg(11), static_cast<uint32_t>(-2));
    EXPECT_EQ(reg(12), 440u);
}

TEST_F(CpuTest, LogicAndShifts)
{
    runAsm(R"(
        li   t0, 0xF0F0
        li   t1, 0x0FF0
        and  a0, t0, t1
        or   a1, t0, t1
        xor  a2, t0, t1
        li   t2, 4
        sll  a3, t1, t2
        srl  a4, t0, t2
        li   t3, 0x80000000
        li   t4, 4
        sra  a5, t3, t4
    )"
           "        halt\n");
    EXPECT_EQ(reg(10), 0x00F0u);
    EXPECT_EQ(reg(11), 0xFFF0u);
    EXPECT_EQ(reg(12), 0xFF00u);
    EXPECT_EQ(reg(13), 0xFF00u);
    EXPECT_EQ(reg(14), 0x0F0Fu);
    EXPECT_EQ(reg(15), 0xF8000000u);
}

TEST_F(CpuTest, SetLessThan)
{
    runAsm(R"(
        li   t0, -1
        li   t1, 1
        slt  a0, t0, t1
        sltu a1, t0, t1
        slti a2, t1, 5
        sltui a3, t1, 5
        halt
    )");
    EXPECT_EQ(reg(10), 1u);
    EXPECT_EQ(reg(11), 0u);   // 0xFFFFFFFF unsigned-greater than 1.
    EXPECT_EQ(reg(12), 1u);
    EXPECT_EQ(reg(13), 1u);
}

TEST_F(CpuTest, MulHighDivRem)
{
    runAsm(R"(
        li   t0, 0x40000000
        li   t1, 8
        mulh a0, t0, t1
        mulhu a1, t0, t1
        li   t2, -7
        li   t3, 2
        div  a2, t2, t3
        rem  a3, t2, t3
        divu a4, t2, t3
        halt
    )");
    EXPECT_EQ(reg(10), 2u);
    EXPECT_EQ(reg(11), 2u);
    EXPECT_EQ(reg(12), static_cast<uint32_t>(-3));
    EXPECT_EQ(reg(13), static_cast<uint32_t>(-1));
    EXPECT_EQ(reg(14), (0xFFFFFFF9u) / 2);
}

TEST_F(CpuTest, DivideByZeroSemantics)
{
    runAsm(R"(
        li   t0, 9
        li   t1, 0
        div  a0, t0, t1
        divu a1, t0, t1
        rem  a2, t0, t1
        remu a3, t0, t1
        halt
    )");
    EXPECT_EQ(reg(10), 0xFFFFFFFFu);
    EXPECT_EQ(reg(11), 0xFFFFFFFFu);
    EXPECT_EQ(reg(12), 9u);
    EXPECT_EQ(reg(13), 9u);
}

TEST_F(CpuTest, X0IsHardwiredZero)
{
    runAsm(R"(
        li   t0, 5
        add  zero, t0, t0
        mv   a0, zero
        halt
    )");
    EXPECT_EQ(reg(10), 0u);
}

TEST_F(CpuTest, LoadStoreBytesHalvesWords)
{
    runAsm(R"(
        li   t0, 0x80001000
        li   t1, 0xDEADBEEF
        sw   t1, 0(t0)
        lb   a0, 0(t0)
        lbu  a1, 0(t0)
        lh   a2, 2(t0)
        lhu  a3, 2(t0)
        lw   a4, 0(t0)
        sb   zero, 3(t0)
        lw   a5, 0(t0)
        halt
    )");
    EXPECT_EQ(reg(10), 0xFFFFFFEFu);
    EXPECT_EQ(reg(11), 0xEFu);
    EXPECT_EQ(reg(12), 0xFFFFDEADu);
    EXPECT_EQ(reg(13), 0xDEADu);
    EXPECT_EQ(reg(14), 0xDEADBEEFu);
    EXPECT_EQ(reg(15), 0x00ADBEEFu);
}

TEST_F(CpuTest, BranchesAndLoops)
{
    runAsm(R"(
        li   t0, 0        # i
        li   t1, 10       # n
        li   a0, 0        # sum
loop:
        add  a0, a0, t0
        addi t0, t0, 1
        blt  t0, t1, loop
        halt
    )");
    EXPECT_EQ(reg(10), 45u);
}

TEST_F(CpuTest, JalAndJalr)
{
    runAsm(R"(
        jal  ra, func
        li   a1, 7
        halt
func:
        li   a0, 3
        ret
    )");
    EXPECT_EQ(reg(10), 3u);
    EXPECT_EQ(reg(11), 7u);
}

TEST_F(CpuTest, AuipcIsPcRelative)
{
    runAsm(R"(
        auipc a0, 0
        halt
    )");
    EXPECT_EQ(reg(10), 0x80000000u);
}

// ------------------------------------------------------ traps and CSRs

TEST_F(CpuTest, EcallTrapsToHandler)
{
    runAsm(R"(
        la   t0, handler
        csrw mtvec, t0
        li   a0, 1
        ecall
        li   a1, 99      # executed after mret
        halt
handler:
        csrr a2, mcause
        csrr t1, mepc
        addi t1, t1, 4
        csrw mepc, t1
        mret
    )");
    EXPECT_EQ(reg(12), 11u);   // ECall from machine mode.
    EXPECT_EQ(reg(11), 99u);
}

TEST_F(CpuTest, IllegalInstructionTrap)
{
    Program p = assemble(R"(
        .org 0x80000000
        la   t0, handler
        csrw mtvec, t0
        .word 0xFC000000
        halt
handler:
        csrr a2, mcause
        csrr a3, mtval
        halt
    )");
    p.loadInto(mem);
    core->reset();
    core->run(1000);
    EXPECT_EQ(reg(12), kCauseIllegalInst);
    EXPECT_EQ(reg(13), 0xFC000000u);
}

TEST_F(CpuTest, MisalignedLoadTrap)
{
    runAsm(R"(
        la   t0, handler
        csrw mtvec, t0
        li   t1, 0x80001001
        lw   a0, 0(t1)
        halt
handler:
        csrr a2, mcause
        halt
    )");
    EXPECT_EQ(reg(12), kCauseLoadMisaligned);
}

TEST_F(CpuTest, LoadFaultOnUnmapped)
{
    runAsm(R"(
        la   t0, handler
        csrw mtvec, t0
        li   t1, 0x20000000
        lw   a0, 0(t1)
        halt
handler:
        csrr a2, mcause
        csrr a3, mtval
        halt
    )");
    EXPECT_EQ(reg(12), kCauseLoadFault);
    EXPECT_EQ(reg(13), 0x20000000u);
}

TEST_F(CpuTest, CsrReadWriteSetClear)
{
    runAsm(R"(
        li   t0, 0xF0
        csrw mscratch, t0
        csrr a0, mscratch
        li   t1, 0x0F
        csrs mscratch, t1
        csrr a1, mscratch
        li   t2, 0xF0
        csrc mscratch, t2
        csrr a2, mscratch
        halt
    )");
    EXPECT_EQ(reg(10), 0xF0u);
    EXPECT_EQ(reg(11), 0xFFu);
    EXPECT_EQ(reg(12), 0x0Fu);
}

TEST_F(CpuTest, EBreakStopsWithoutHandler)
{
    StopReason r = runAsm("        ebreak\n        halt\n");
    EXPECT_EQ(r, StopReason::EBreak);
}

TEST_F(CpuTest, HaltStops)
{
    EXPECT_EQ(runAsm("        halt\n"), StopReason::Halt);
}

TEST_F(CpuTest, MaxInstsStops)
{
    StopReason r = runAsm("loop:\n        j loop\n", 100);
    EXPECT_EQ(r, StopReason::MaxInsts);
    EXPECT_EQ(core->stats().instret, 100u);
}

// ----------------------------------------------------------- interrupts

TEST_F(CpuTest, ExternalInterruptDelivery)
{
    Program p = assemble(R"(
        .org 0x80000000
        la   t0, handler
        csrw mtvec, t0
        li   t0, 0x800       # MEIE
        csrw mie, t0
        li   t0, 0x8         # MIE
        csrw mstatus, t0
loop:
        beqz a0, loop
        halt
handler:
        li   a0, 1
        csrr a1, mcause
        mret
    )");
    p.loadInto(mem);
    core->reset();
    core->run(50);                       // Spin a little.
    EXPECT_EQ(reg(10), 0u);
    core->setIrqLine(kIrqExternal, true);
    core->run(100);
    EXPECT_EQ(reg(10), 1u);
    EXPECT_EQ(reg(11), kCauseInterrupt | kIrqExternal);
}

TEST_F(CpuTest, InterruptMaskedWhenMieClear)
{
    Program p = assemble(R"(
        .org 0x80000000
        li   t0, 0x800
        csrw mie, t0
        # mstatus.MIE left clear: machine mode masks interrupts.
loop:
        j loop
    )");
    p.loadInto(mem);
    core->reset();
    core->setIrqLine(kIrqExternal, true);
    core->run(200);
    EXPECT_EQ(core->stats().interrupts, 0u);
}

TEST_F(CpuTest, WfiWaitsAndWakes)
{
    Program p = assemble(R"(
        .org 0x80000000
        la   t0, handler
        csrw mtvec, t0
        li   t0, 0x800
        csrw mie, t0
        li   t0, 0x8
        csrw mstatus, t0
        wfi
        halt
handler:
        li   a0, 1
        csrw mie, zero    # Mask the (still-asserted) level IRQ.
        mret
    )");
    p.loadInto(mem);
    core->reset();
    StopReason r = core->run(1000);
    EXPECT_EQ(r, StopReason::Wfi);
    EXPECT_TRUE(core->waiting());
    core->setIrqLine(kIrqExternal, true);
    r = core->run(1000);
    EXPECT_EQ(r, StopReason::Halt);
    EXPECT_EQ(reg(10), 1u);
}

// ---------------------------------------------------------- block cache

TEST_F(CpuTest, BlockCacheHitsOnLoops)
{
    runAsm(R"(
        li   t0, 100
loop:
        addi t0, t0, -1
        bnez t0, loop
        halt
    )");
    EXPECT_GT(core->stats().blockHits, 90u);
}

TEST_F(CpuTest, BlockCacheDisabled)
{
    sa32::CoreConfig cfg;
    cfg.blockCache = false;
    Core c2(bus, cfg);
    Program p = assemble(R"(
        .org 0x80000000
        li   t0, 50
loop:
        addi t0, t0, -1
        bnez t0, loop
        halt
    )");
    p.loadInto(mem);
    c2.reset();
    c2.run(100000);
    EXPECT_EQ(c2.stats().blockHits, 0u);
    EXPECT_GT(c2.stats().blocksDecoded, 50u);
}

TEST_F(CpuTest, SelfModifyingCodeInvalidatesCache)
{
    // The guest overwrites an instruction it already executed; the
    // store must flush the decoded block so the new code runs.
    runAsm(R"(
        li   a0, 0
        j    body
body:
        li   a0, 1          # patched below to load 3 (1|2)
        j    check
check:
        li   t2, 3
        beq  a0, t2, done
        # Patch the 'ori a0, a0, 1' half of the li at 'body'.
        la   t0, body
        lw   t1, 4(t0)
        ori  t1, t1, 2      # imm 1 -> 3
        sw   t1, 4(t0)
        j    body
done:
        halt
    )", 10000);
    // The loop exits only if the store invalidated the cached block so
    // the patched instruction (loading 3) actually executed.
    EXPECT_EQ(reg(10), 3u);
    EXPECT_GE(core->stats().cacheFlushes, 1u);
}

TEST_F(CpuTest, FenceFlushesCache)
{
    runAsm(R"(
        fence
        halt
    )");
    EXPECT_GE(core->stats().cacheFlushes, 0u);   // No crash; counted.
}

// ------------------------------------------------------------ DBT tier

TEST_F(CpuTest, DbtChainsHotLoops)
{
    runAsm(R"(
        li   t0, 1000
loop:
        addi t0, t0, -1
        bnez t0, loop
        halt
    )");
    ASSERT_NE(core->dbt(), nullptr);
    const CoreStats &s = core->stats();
    EXPECT_GT(s.dbtBlocks, 0u);
    EXPECT_GT(s.dbtChainLinks, 0u);
    // The loop back-edge must run chained, not through the dispatcher.
    EXPECT_GT(s.dbtChainFollows, 900u);
}

TEST_F(CpuTest, DbtFlushRetiresTranslations)
{
    runAsm(R"(
        li   t0, 10
loop:
        addi t0, t0, -1
        bnez t0, loop
        fence
        halt
    )");
    ASSERT_NE(core->dbt(), nullptr);
    EXPECT_GT(core->stats().dbtRetires, 0u);
    // The post-fence translations (fence fall-through, halt) are live.
    EXPECT_GT(core->dbt()->liveBlocks(), 0u);
}

// ----------------------------------------------- lockstep differential
//
// The interpreter (dbt = false) is the architectural oracle for the
// threaded-code tier: both execute identical block shapes and check
// budget/interrupts at identical block boundaries, so *every* slice
// boundary must observe identical architectural state — registers,
// PC, privilege, CSRs, instret and RAM contents.

/** Two cores (DBT vs interpreter) on private copies of the same RAM,
 *  stepped slice-by-slice with identical external stimulus. */
class LockstepTest : public ::testing::Test
{
  protected:
    LockstepTest() : memA(kBase, 1 << 20), memB(kBase, 1 << 20)
    {
        busA.attachMemory(&memA);
        busB.attachMemory(&memB);
        CoreConfig ca;
        ca.dbt = true;
        CoreConfig cb;
        cb.dbt = false;
        dbt = std::make_unique<Core>(busA, ca);
        interp = std::make_unique<Core>(busB, cb);
    }

    void
    load(const std::string &body)
    {
        Program p = assemble("        .org 0x80000000\n" + body);
        p.loadInto(memA);
        p.loadInto(memB);
        dbt->reset();
        interp->reset();
        ASSERT_NE(dbt->dbt(), nullptr);
        ASSERT_EQ(interp->dbt(), nullptr);
    }

    /** Compares all architectural state the two tiers must agree on. */
    void
    expectLockstep(const char *where)
    {
        for (unsigned i = 0; i < kNumRegs; ++i)
            ASSERT_EQ(dbt->reg(i), interp->reg(i))
                << where << ": x" << i;
        ASSERT_EQ(dbt->pc(), interp->pc()) << where;
        ASSERT_EQ(dbt->priv(), interp->priv()) << where;
        ASSERT_EQ(dbt->waiting(), interp->waiting()) << where;
        static constexpr uint32_t csrs[] = {
            kCsrSatp, kCsrMStatus, kCsrMIe, kCsrMTvec, kCsrMScratch,
            kCsrMEpc, kCsrMCause, kCsrMTval, kCsrMIp, kCsrMCycle,
            kCsrMInstRet,
        };
        for (uint32_t csr : csrs)
            ASSERT_EQ(dbt->readCsr(csr), interp->readCsr(csr))
                << where << ": csr 0x" << std::hex << csr;
        ASSERT_EQ(dbt->stats().instret, interp->stats().instret) << where;
        ASSERT_EQ(dbt->stats().traps, interp->stats().traps) << where;
        ASSERT_EQ(dbt->stats().interrupts, interp->stats().interrupts)
            << where;
    }

    void
    expectRamEqual(const char *where)
    {
        ASSERT_EQ(std::memcmp(memA.readPtr(kBase), memB.readPtr(kBase),
                              memA.size()),
                  0)
            << where;
    }

    /**
     * Runs both tiers for @p slices slices of @p slice_insts, checking
     * lockstep at every boundary (the same cadence System::runCpu
     * uses, shrunk to stress block-boundary bookkeeping).  Returns
     * when both halt; fails if they disagree on when or how.
     */
    void
    runLockstep(unsigned slices, uint64_t slice_insts)
    {
        for (unsigned s = 0; s < slices; ++s) {
            StopReason ra = dbt->run(slice_insts);
            StopReason rb = interp->run(slice_insts);
            ASSERT_EQ(ra, rb) << "slice " << s;
            std::string where = "slice " + std::to_string(s);
            expectLockstep(where.c_str());
            if (ra == StopReason::Halt)
                break;
        }
        expectRamEqual("final RAM");
    }

    PhysMem memA, memB;
    Bus busA, busB;
    std::unique_ptr<Core> dbt, interp;
};

TEST_F(LockstepTest, ArithLoopsCallsAndCsrs)
{
    load(R"(
        la   t0, handler
        csrw mtvec, t0
        li   s0, 0            # accumulator
        li   s1, 0            # outer counter
outer:
        li   t0, 0
        li   t1, 37
inner:
        add  s0, s0, t0
        mul  t2, t0, t1
        xor  s0, s0, t2
        addi t0, t0, 1
        blt  t0, t1, inner
        jal  ra, leaf
        ecall                 # round-trip through the trap handler
        addi s1, s1, 1
        li   t3, 23
        blt  s1, t3, outer
        csrr s2, minstret
        halt
leaf:
        slli s0, s0, 1
        srai s0, s0, 1
        ret
handler:
        csrr t4, mepc
        addi t4, t4, 4
        csrw mepc, t4
        csrs mscratch, s1
        mret
    )");
    // Odd slice length so boundaries land mid-loop in varying places.
    runLockstep(4000, 37);
}

TEST_F(LockstepTest, MemoryTrapsAndFaults)
{
    load(R"(
        la   t0, handler
        csrw mtvec, t0
        li   s0, 0x80002000
        li   s1, 0
        li   s2, 0
loop:
        sw   s1, 0(s0)
        lw   t1, 0(s0)
        add  s2, s2, t1
        li   t2, 0x80001001
        lw   t3, 0(t2)        # misaligned: traps every iteration
        li   t2, 0x20000000
        sw   s1, 0(t2)        # unmapped: faults every iteration
        addi s1, s1, 1
        li   t4, 50
        blt  s1, t4, loop
        halt
handler:
        csrr t5, mepc
        addi t5, t5, 4
        csrw mepc, t5
        mret
    )");
    runLockstep(4000, 41);
}

TEST_F(LockstepTest, WfiAndInterruptDelivery)
{
    load(R"(
        la   t0, handler
        csrw mtvec, t0
        li   t0, 0x800        # MEIE
        csrw mie, t0
        li   t0, 0x8          # MIE
        csrw mstatus, t0
        li   s0, 0
loop:
        wfi
        li   t1, 4
        blt  s0, t1, loop
        halt
handler:
        addi s0, s0, 1
        csrw mie, zero        # Mask the level IRQ while it drops.
        li   t0, 0x800
        csrw mie, t0
        mret
    )");
    // Drive the external line identically into both cores, toggling at
    // slice boundaries so delivery lands at identical instants.
    for (unsigned s = 0; s < 200; ++s) {
        bool level = (s % 4) == 1;
        dbt->setIrqLine(kIrqExternal, level);
        interp->setIrqLine(kIrqExternal, level);
        StopReason ra = dbt->run(29);
        StopReason rb = interp->run(29);
        ASSERT_EQ(ra, rb) << "slice " << s;
        std::string where = "slice " + std::to_string(s);
        expectLockstep(where.c_str());
        if (ra == StopReason::Halt)
            break;
    }
    // All four wakes happened (a final interrupt may sneak in between
    // the loop-exit branch and the halt, so >= rather than ==).
    EXPECT_GE(dbt->reg(8), 4u);
    expectRamEqual("final RAM");
}

TEST_F(LockstepTest, SelfModifyingCode)
{
    // The guest rewrites an instruction inside an already-translated
    // (and currently hot) block: both tiers must retire the stale code
    // at the same store and execute the patched version afterwards.
    load(R"(
        li   s0, 0            # generation counter
        li   s1, 0            # sum of observed values
body:
        li   a0, 1            # patched: imm grows by 2 each pass
        add  s1, s1, a0
        la   t0, body
        lw   t1, 4(t0)        # 'ori a0, a0, imm' half of the li
        addi t1, t1, 2
        sw   t1, 4(t0)        # patch the block we are inside
        addi s0, s0, 1
        li   t2, 30
        blt  s0, t2, body
        halt
    )");
    runLockstep(4000, 13);
    EXPECT_GE(dbt->stats().cacheFlushes, 30u);
    EXPECT_GT(dbt->stats().dbtRetires, 0u);
}

TEST_F(LockstepTest, FenceAndSfenceFlushes)
{
    load(R"(
        li   s0, 0
loop:
        fence                 # retires every translation, mid-loop
        sfence                # bumps the MMU epoch: chains must break
        addi s0, s0, 1
        li   t0, 40
        blt  s0, t0, loop
        halt
    )");
    runLockstep(4000, 17);
    EXPECT_GT(dbt->stats().dbtChainBreaks + dbt->stats().dbtRetires, 0u);
}

} // namespace
} // namespace bifsim::sa32

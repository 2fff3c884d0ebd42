/**
 * @file
 * Threaded-code execution engine for the SA32 DBT tier.
 *
 * Each HANDLER() body is a computed-goto label and NEXT() jumps
 * straight to the next op's pre-resolved label (direct threading).  A
 * handler's semantics must match Core::execute() exactly — the
 * interpreter is the lockstep differential oracle (see dbt.h).
 *
 * The label table is built from the DBT_OPS list, so the compiler
 * enforces handler parity: an op with no HANDLER() body is "label used
 * but not defined", a second body is "duplicate label", and an orphan
 * body is an unused label, promoted to an error for this file below.
 *
 * Lockstep bookkeeping: the interpreter bumps instret *before*
 * executing each instruction, so a trapping instruction counts as
 * retired and a CSR read of mcycle/minstret sees its own increment.
 * The threaded code keeps instret out of the hot path instead and
 * commits the exact same totals at every block exit; CSR ops commit
 * before their read (they always end a block) so the observed counter
 * values are identical.
 */

#include "cpu/dbt.h"

#include <limits>

#include "common/bits.h"
#include "common/logging.h"
#include "cpu/core.h"
#include "mem/bus.h"

// A HANDLER() body with no DBT_OPS entry is dead code no label table
// can reach: fail the build rather than warn.
#pragma GCC diagnostic error "-Wunused-label"

namespace bifsim::sa32 {

namespace {

/**
 * Handler index space.  The leading entries mirror Op one-for-one so
 * lowering an instruction is a cast; Nop (pure-ALU writes to x0,
 * specialised away at translation time) and Term (the synthetic
 * fall-through terminator appended to blocks cut by the page boundary
 * or the length cap) extend it.
 */
#define DBT_OPS(X) \
    X(Add) X(Sub) X(And) X(Or) X(Xor) X(Sll) X(Srl) X(Sra) X(Slt) \
    X(Sltu) X(Mul) X(Mulh) X(Mulhu) X(Div) X(Divu) X(Rem) X(Remu) \
    X(AddI) X(AndI) X(OrI) X(XorI) X(SltI) X(SltuI) X(SllI) X(SrlI) \
    X(SraI) X(Lui) X(Auipc) \
    X(Lb) X(Lbu) X(Lh) X(Lhu) X(Lw) X(Sb) X(Sh) X(Sw) \
    X(Beq) X(Bne) X(Blt) X(Bge) X(Bltu) X(Bgeu) X(Jal) X(Jalr) \
    X(ECall) X(EBreak) X(MRet) X(Wfi) X(Fence) X(SFence) X(Halt) \
    X(CsrRw) X(CsrRs) X(CsrRc) X(Illegal) \
    X(Nop) X(Term)

enum HIdx : uint8_t
{
#define X(n) kH##n,
    DBT_OPS(X)
#undef X
};

static_assert(kHAdd == static_cast<uint8_t>(Op::Add) &&
              kHAuipc == static_cast<uint8_t>(Op::Auipc) &&
              kHJalr == static_cast<uint8_t>(Op::Jalr) &&
              kHIllegal == static_cast<uint8_t>(Op::Illegal),
              "handler indices must mirror the Op enum");

/** Ops that only write the register file: a write to x0 makes them
 *  architectural no-ops, lowered to the Nop handler. */
bool
isPureAlu(Op op)
{
    return static_cast<uint8_t>(op) <= static_cast<uint8_t>(Op::Auipc);
}

} // namespace

Dbt::Dbt(Core &core) : c_(core)
{
    uint64_t dummy = 0;
    TranslatedBlock *none = nullptr;
    execBlock(none, dummy, &labels_);
}

Dbt::~Dbt() = default;

void
Dbt::invalidateAll()
{
    flushGen_++;
    c_.stats_.dbtRetires += cache_.size();
    for (auto &kv : cache_)
        graveyard_.push_back(std::move(kv.second));
    cache_.clear();
    pending_ = PendingLink();
}

TranslatedBlock *
Dbt::lookupOrTranslate(Addr pa)
{
    auto it = cache_.find(pa);
    if (it != cache_.end()) {
        c_.stats_.blockHits++;
        return it->second.get();
    }
    return translate(pa);
}

TranslatedBlock *
Dbt::translate(Addr pa)
{
    std::unique_ptr<TranslatedBlock> tb;
    for (;;) {
        // Stamp the flush generation the translation starts from: a
        // flush landing mid-translate (invalidateAll from outside the
        // dispatch loop) kills this install and we rebuild from fresh
        // guest bytes.
        uint64_t gen = flushGen_;

        DecodedInst insts[kMaxBlockInsts];
        size_t n = decodeBlock(c_.bus_, pa, insts);

        tb = std::make_unique<TranslatedBlock>();
        tb->pa = pa;
        tb->instCount = static_cast<uint32_t>(n);
        tb->ops.reserve(n + 1);
        for (size_t i = 0; i < n; ++i) {
            const DecodedInst &d = insts[i];
            uint8_t idx = static_cast<uint8_t>(d.op);
            if (d.rd == 0 && isPureAlu(d.op))
                idx = kHNop;
            ThreadedOp t;
            t.fn = labels_[idx];
            t.rd = d.rd;
            t.rs1 = d.rs1;
            t.rs2 = d.rs2;
            t.imm = d.imm;
            t.pcOff = static_cast<uint32_t>(i * 4);
            t.raw = d.raw;
            tb->ops.push_back(t);
        }
        if (!endsBlock(insts[n - 1].op)) {
            // Block cut by the page boundary or length cap: append a
            // terminator that redirects to the next sequential VA.
            ThreadedOp t;
            t.fn = labels_[kHTerm];
            t.pcOff = static_cast<uint32_t>(n * 4);
            tb->ops.push_back(t);
        }

        if (gen == flushGen_)
            break;
    }

    c_.stats_.blocksDecoded++;
    c_.stats_.dbtBlocks++;
    c_.codePages_.insert(static_cast<uint32_t>(pa >> 12));
    TranslatedBlock *raw = tb.get();
    cache_.emplace(pa, std::move(tb));
    return raw;
}

StopReason
Dbt::run(uint64_t max_insts)
{
    Core &c = c_;
    uint64_t budget = max_insts;
    pending_ = PendingLink();
    TranslatedBlock *next = nullptr;

    while (budget > 0) {
        // Block-boundary checks, in the interpreter's exact order.
        uint32_t icause = 0;
        if (c.interruptPending(icause)) {
            c.waiting_ = false;
            c.trap(icause, 0, c.pc_);
            next = nullptr;   // pc_ redirected: a followed chain is stale.
        }
        if (c.waiting_) {
            if (c.wfiWakePending())
                c.waiting_ = false;
            else
                return StopReason::Wfi;
        }

        TranslatedBlock *tb = next;
        next = nullptr;
        if (!tb) {
            TranslateResult tr =
                c.mmu_.translate(c.pc_, AccessType::Fetch, c.priv_, c.satp_);
            if (!tr.ok) {
                pending_ = PendingLink();
                c.trap(tr.cause, static_cast<uint32_t>(c.pc_), c.pc_);
                continue;
            }
            tb = lookupOrTranslate(tr.pa);
            if (pending_.from) {
                // Bind the requesting block's edge to this resolution.
                // The VA check rejects links when a trap redirected pc_
                // between the request and now; the generation check
                // rejects links from blocks a flush retired.
                if (pending_.flushGen == flushGen_ && pending_.va == c.pc_) {
                    pending_.from->chain[pending_.slot] = tb;
                    pending_.from->chainVa[pending_.slot] = c.pc_;
                    pending_.from->chainEpoch[pending_.slot] = c.mmu_.epoch();
                    c.stats_.dbtChainLinks++;
                }
                pending_ = PendingLink();
            }
        }

        const uint64_t entryGen = flushGen_;
        // execBlock follows intact chains internally and leaves `tb`
        // pointing at the block it actually exited from, so the edge
        // bookkeeping below applies to the real exit site.
        Exit e = execBlock(tb, budget);

        switch (e) {
          case Exit::Halt:
            return StopReason::Halt;
          case Exit::EBreak:
            return StopReason::EBreak;
          case Exit::Wfi:
            return budget > 0 ? StopReason::Wfi : StopReason::MaxInsts;
          case Exit::Trap:
          case Exit::Indirect:
            break;   // Dynamic target: full lookup next iteration.
          case Exit::Taken:
          case Exit::Fall: {
            unsigned slot = e == Exit::Taken ? kChainTaken : kChainFall;
            if (entryGen == flushGen_) {
                TranslatedBlock *nxt = tb->chain[slot];
                if (nxt && tb->chainEpoch[slot] == c.mmu_.epoch() &&
                    tb->chainVa[slot] == c.pc_) {
                    // Chain follow: skip the fetch translation and the
                    // cache lookup; the loop-top budget and interrupt
                    // checks still run, keeping lockstep with the
                    // interpreter.
                    c.stats_.blockHits++;
                    c.stats_.dbtChainFollows++;
                    next = nxt;
                } else {
                    if (nxt) {
                        tb->chain[slot] = nullptr;
                        c.stats_.dbtChainBreaks++;
                    }
                    pending_ = PendingLink{tb, slot, c.pc_, entryGen};
                }
            }
            break;
          }
        }

        // Safe point: nothing references the just-run block's ops, and
        // a chained `next` is live-cache only (entryGen guard above).
        if (!graveyard_.empty())
            graveyard_.clear();
    }
    return StopReason::MaxInsts;
}

Dbt::Exit
Dbt::execBlock(TranslatedBlock *&tb, uint64_t &budget,
               const void *const **out_labels)
{
    static const void *const labels[] = {
#define X(n) &&L_##n,
        DBT_OPS(X)
#undef X
    };
    if (out_labels) {
        *out_labels = labels;
        return Exit::Fall;
    }

    Core &c = c_;
    uint32_t *const regs = c.regs_;
    const uint64_t gen = flushGen_;
    Addr va0 = c.pc_;
    const ThreadedOp *base = tb->ops.data();
    const ThreadedOp *op = base;

    // Hot-loop state lives in locals so chained block edges touch no
    // memory beyond the guards themselves; RETURN() writes everything
    // back (and CSR reads flush early so minstret stays exact).
    uint64_t bud = budget;
    uint64_t instretAcc = 0;
    uint64_t followAcc = 0;

// The guest PC of the current op (pc_ itself is not advanced per
// instruction; exits materialise it, exactly like the interpreter).
#define CUR_PC (va0 + op->pcOff)
#define RS1 (regs[op->rs1])
#define RS2 (regs[op->rs2])
#define WR(v) \
    do { \
        if (op->rd) \
            regs[op->rd] = (v); \
    } while (0)
// Pure-ALU ops never reach a handler with rd == x0 (translation lowers
// those to Nop), so their write needs no guard.
#define WRA(v) (regs[op->rd] = (v))

// Commit retired-instruction counts for this op and everything before
// it in the block.  Matches the interpreter's per-instruction
// pre-increment: a trapping op counts as retired, and the budget
// saturates at zero (whole-block overshoot is identical in both tiers).
#define COMMIT_AT() \
    do { \
        uint64_t n_ = static_cast<uint64_t>(op - base) + 1; \
        instretAcc += n_; \
        bud = n_ >= bud ? 0 : bud - n_; \
    } while (0)
#define FLUSH_STATS() \
    do { \
        c.stats_.instret += instretAcc; \
        c.stats_.blockHits += followAcc; \
        c.stats_.dbtChainFollows += followAcc; \
        instretAcc = 0; \
        followAcc = 0; \
    } while (0)
#define RETURN(kind) \
    do { \
        budget = bud; \
        FLUSH_STATS(); \
        return (kind); \
    } while (0)
#define EXIT_AT(kind) \
    do { \
        COMMIT_AT(); \
        RETURN(kind); \
    } while (0)

// Block-edge fast path: when the outgoing chain link is intact and no
// block-boundary event is due (budget exhausted, interrupt bit pending,
// translation flush, TLB epoch bump), enter the successor's threaded
// code directly instead of returning to the dispatcher.  The guards
// mirror Dbt::run()'s loop top exactly, so interrupt delivery and
// MaxInsts cuts land on the same guest boundaries as the interpreter;
// anything unusual falls back to the dispatcher's slow path.  @p npc_
// must equal the value just stored to pc_ (kept in a register so the
// VA compare does not wait on the store).
#define CHAIN_OR_RETURN(slot_, kind_, npc_) \
    do { \
        TranslatedBlock *nxt_ = tb->chain[slot_]; \
        if (nxt_ && bud > 0 && flushGen_ == gen && \
            tb->chainEpoch[slot_] == c.mmu_.epoch() && \
            tb->chainVa[slot_] == (npc_) && \
            (c.mip_.load(std::memory_order_acquire) & c.mie_) == 0) { \
            followAcc++; \
            tb = nxt_; \
            va0 = (npc_); \
            base = tb->ops.data(); \
            op = base; \
            CHAIN_NEXT(); \
        } \
        RETURN(kind_); \
    } while (0)
#define EDGE_AT(slot_, kind_, npc_) \
    do { \
        COMMIT_AT(); \
        CHAIN_OR_RETURN(slot_, kind_, npc_); \
    } while (0)

#define HANDLER(name) L_##name:
#define NEXT() \
    do { \
        ++op; \
        goto *op->fn; \
    } while (0)
#define CHAIN_NEXT() goto *op->fn
    goto *op->fn;

    HANDLER(Nop) { NEXT(); }

    HANDLER(Add) { WRA(RS1 + RS2); NEXT(); }
    HANDLER(Sub) { WRA(RS1 - RS2); NEXT(); }
    HANDLER(And) { WRA(RS1 & RS2); NEXT(); }
    HANDLER(Or)  { WRA(RS1 | RS2); NEXT(); }
    HANDLER(Xor) { WRA(RS1 ^ RS2); NEXT(); }
    HANDLER(Sll) { WRA(RS1 << (RS2 & 31)); NEXT(); }
    HANDLER(Srl) { WRA(RS1 >> (RS2 & 31)); NEXT(); }
    HANDLER(Sra)
    {
        WRA(static_cast<uint32_t>(static_cast<int32_t>(RS1) >> (RS2 & 31)));
        NEXT();
    }
    HANDLER(Slt)
    {
        WRA(static_cast<int32_t>(RS1) < static_cast<int32_t>(RS2));
        NEXT();
    }
    HANDLER(Sltu) { WRA(RS1 < RS2); NEXT(); }
    HANDLER(Mul) { WRA(RS1 * RS2); NEXT(); }
    HANDLER(Mulh)
    {
        int64_t p = static_cast<int64_t>(static_cast<int32_t>(RS1)) *
                    static_cast<int64_t>(static_cast<int32_t>(RS2));
        WRA(static_cast<uint32_t>(static_cast<uint64_t>(p) >> 32));
        NEXT();
    }
    HANDLER(Mulhu)
    {
        uint64_t p = static_cast<uint64_t>(RS1) * RS2;
        WRA(static_cast<uint32_t>(p >> 32));
        NEXT();
    }
    HANDLER(Div)
    {
        int32_t a = RS1, b = RS2;
        if (b == 0)
            WRA(0xffffffffu);
        else if (a == std::numeric_limits<int32_t>::min() && b == -1)
            WRA(static_cast<uint32_t>(a));
        else
            WRA(static_cast<uint32_t>(a / b));
        NEXT();
    }
    HANDLER(Divu) { WRA(RS2 ? RS1 / RS2 : 0xffffffffu); NEXT(); }
    HANDLER(Rem)
    {
        int32_t a = RS1, b = RS2;
        if (b == 0)
            WRA(static_cast<uint32_t>(a));
        else if (a == std::numeric_limits<int32_t>::min() && b == -1)
            WRA(0);
        else
            WRA(static_cast<uint32_t>(a % b));
        NEXT();
    }
    HANDLER(Remu) { WRA(RS2 ? RS1 % RS2 : RS1); NEXT(); }

    HANDLER(AddI) { WRA(RS1 + static_cast<uint32_t>(op->imm)); NEXT(); }
    HANDLER(AndI) { WRA(RS1 & static_cast<uint32_t>(op->imm)); NEXT(); }
    HANDLER(OrI)  { WRA(RS1 | static_cast<uint32_t>(op->imm)); NEXT(); }
    HANDLER(XorI) { WRA(RS1 ^ static_cast<uint32_t>(op->imm)); NEXT(); }
    HANDLER(SltI)
    {
        WRA(static_cast<int32_t>(RS1) < op->imm);
        NEXT();
    }
    HANDLER(SltuI) { WRA(RS1 < static_cast<uint32_t>(op->imm)); NEXT(); }
    HANDLER(SllI) { WRA(RS1 << op->imm); NEXT(); }
    HANDLER(SrlI) { WRA(RS1 >> op->imm); NEXT(); }
    HANDLER(SraI)
    {
        WRA(static_cast<uint32_t>(static_cast<int32_t>(RS1) >> op->imm));
        NEXT();
    }
    HANDLER(Lui) { WRA(static_cast<uint32_t>(op->imm) << 16); NEXT(); }
    HANDLER(Auipc)
    {
        WRA(static_cast<uint32_t>(CUR_PC) +
            (static_cast<uint32_t>(op->imm) << 16));
        NEXT();
    }

    HANDLER(Lb)
    {
        uint32_t v = 0;
        if (!c.memLoad(RS1 + static_cast<uint32_t>(op->imm), 1, true, v,
                       CUR_PC))
            EXIT_AT(Exit::Trap);
        WR(v);
        NEXT();
    }
    HANDLER(Lbu)
    {
        uint32_t v = 0;
        if (!c.memLoad(RS1 + static_cast<uint32_t>(op->imm), 1, false, v,
                       CUR_PC))
            EXIT_AT(Exit::Trap);
        WR(v);
        NEXT();
    }
    HANDLER(Lh)
    {
        uint32_t v = 0;
        if (!c.memLoad(RS1 + static_cast<uint32_t>(op->imm), 2, true, v,
                       CUR_PC))
            EXIT_AT(Exit::Trap);
        WR(v);
        NEXT();
    }
    HANDLER(Lhu)
    {
        uint32_t v = 0;
        if (!c.memLoad(RS1 + static_cast<uint32_t>(op->imm), 2, false, v,
                       CUR_PC))
            EXIT_AT(Exit::Trap);
        WR(v);
        NEXT();
    }
    HANDLER(Lw)
    {
        uint32_t v = 0;
        if (!c.memLoad(RS1 + static_cast<uint32_t>(op->imm), 4, false, v,
                       CUR_PC))
            EXIT_AT(Exit::Trap);
        WR(v);
        NEXT();
    }
    // A store may hit a translated page and retire this very block
    // (SMC); the graveyard keeps the ops array alive, so falling
    // through to the next op here is safe — and matches the
    // interpreter, which also finishes the already-decoded block.
    HANDLER(Sb)
    {
        if (!c.memStore(RS1 + static_cast<uint32_t>(op->imm), 1, RS2,
                        CUR_PC))
            EXIT_AT(Exit::Trap);
        NEXT();
    }
    HANDLER(Sh)
    {
        if (!c.memStore(RS1 + static_cast<uint32_t>(op->imm), 2, RS2,
                        CUR_PC))
            EXIT_AT(Exit::Trap);
        NEXT();
    }
    HANDLER(Sw)
    {
        if (!c.memStore(RS1 + static_cast<uint32_t>(op->imm), 4, RS2,
                        CUR_PC))
            EXIT_AT(Exit::Trap);
        NEXT();
    }

// Branches always end a block; both arms take the chained edge path.
#define BRANCH(cond) \
    do { \
        if (cond) { \
            Addr npc = CUR_PC + static_cast<int64_t>(op->imm) * 4; \
            c.pc_ = npc; \
            EDGE_AT(kChainTaken, Exit::Taken, npc); \
        } \
        Addr npc = CUR_PC + 4; \
        c.pc_ = npc; \
        EDGE_AT(kChainFall, Exit::Fall, npc); \
    } while (0)

    HANDLER(Beq) { BRANCH(RS1 == RS2); }
    HANDLER(Bne) { BRANCH(RS1 != RS2); }
    HANDLER(Blt)
    {
        BRANCH(static_cast<int32_t>(RS1) < static_cast<int32_t>(RS2));
    }
    HANDLER(Bge)
    {
        BRANCH(static_cast<int32_t>(RS1) >= static_cast<int32_t>(RS2));
    }
    HANDLER(Bltu) { BRANCH(RS1 < RS2); }
    HANDLER(Bgeu) { BRANCH(RS1 >= RS2); }
#undef BRANCH

    HANDLER(Jal)
    {
        WR(static_cast<uint32_t>(CUR_PC) + 4);
        Addr npc = CUR_PC + static_cast<int64_t>(op->imm) * 4;
        c.pc_ = npc;
        EDGE_AT(kChainTaken, Exit::Taken, npc);
    }
    HANDLER(Jalr)
    {
        uint32_t target = (RS1 + static_cast<uint32_t>(op->imm)) & ~1u;
        WR(static_cast<uint32_t>(CUR_PC) + 4);
        c.pc_ = target;
        EXIT_AT(Exit::Indirect);
    }

    HANDLER(ECall)
    {
        c.trap(c.priv_ == Priv::User ? kCauseECallU : kCauseECallM, 0,
               CUR_PC);
        EXIT_AT(Exit::Trap);
    }
    HANDLER(EBreak)
    {
        if (c.mtvec_ == 0) {
            c.pc_ = CUR_PC;
            EXIT_AT(Exit::EBreak);
        }
        c.trap(kCauseBreakpoint, static_cast<uint32_t>(CUR_PC), CUR_PC);
        EXIT_AT(Exit::Trap);
    }
    HANDLER(MRet)
    {
        uint32_t mpp = (c.mstatus_ & kMStatusMppMask) >> kMStatusMppShift;
        c.priv_ = mpp == 3 ? Priv::Machine : Priv::User;
        if (c.mstatus_ & kMStatusMpie)
            c.mstatus_ |= kMStatusMie;
        else
            c.mstatus_ &= ~kMStatusMie;
        c.mstatus_ |= kMStatusMpie;
        c.mstatus_ &= ~kMStatusMppMask;
        c.pc_ = c.mepc_;
        EXIT_AT(Exit::Indirect);
    }
    HANDLER(Wfi)
    {
        c.pc_ = CUR_PC + 4;
        if (c.wfiWakePending())
            EXIT_AT(Exit::Fall);   // Pending wake: falls straight through.
        c.waiting_ = true;
        EXIT_AT(Exit::Wfi);
    }
    HANDLER(Fence)
    {
        // Retires every translation including this one; the graveyard
        // keeps `op` alive until the dispatcher's safe point.
        c.flushCodeCache();
        c.pc_ = CUR_PC + 4;
        EXIT_AT(Exit::Fall);
    }
    HANDLER(SFence)
    {
        c.mmu_.flushTlb();   // Bumps the epoch: stale chains die lazily.
        c.pc_ = CUR_PC + 4;
        EXIT_AT(Exit::Fall);
    }
    HANDLER(Halt)
    {
        c.pc_ = CUR_PC + 4;
        EXIT_AT(Exit::Halt);
    }

// CSR ops always end a block.  Commit and flush instret before the
// read so mcycle/minstret observe the same pre-incremented count the
// interpreter produces.
#define CSR_PROLOGUE() \
    uint32_t csr = static_cast<uint32_t>(op->imm); \
    if (c.priv_ != Priv::Machine && csr != kCsrMCycle && \
        csr != kCsrMInstRet) { \
        c.trap(kCauseIllegalInst, op->raw, CUR_PC); \
        EXIT_AT(Exit::Trap); \
    } \
    COMMIT_AT(); \
    FLUSH_STATS(); \
    uint32_t old = c.readCsr(csr)

    HANDLER(CsrRw)
    {
        CSR_PROLOGUE();
        c.writeCsr(csr, RS1);
        WR(old);
        c.pc_ = CUR_PC + 4;
        RETURN(Exit::Fall);
    }
    HANDLER(CsrRs)
    {
        CSR_PROLOGUE();
        if (op->rs1 != 0)
            c.writeCsr(csr, old | RS1);
        WR(old);
        c.pc_ = CUR_PC + 4;
        RETURN(Exit::Fall);
    }
    HANDLER(CsrRc)
    {
        CSR_PROLOGUE();
        if (op->rs1 != 0)
            c.writeCsr(csr, old & ~RS1);
        WR(old);
        c.pc_ = CUR_PC + 4;
        RETURN(Exit::Fall);
    }
#undef CSR_PROLOGUE

    HANDLER(Illegal)
    {
        c.trap(kCauseIllegalInst, op->raw, CUR_PC);
        EXIT_AT(Exit::Trap);
    }

    HANDLER(Term)
    {
        // Synthetic fall-through: the terminator itself is not a guest
        // instruction, so commit only the instCount real ops before it.
        uint64_t n = tb->instCount;
        instretAcc += n;
        bud = n >= bud ? 0 : bud - n;
        Addr npc = va0 + op->pcOff;
        c.pc_ = npc;
        CHAIN_OR_RETURN(kChainFall, Exit::Fall, npc);
    }

    // Unreachable: every handler exits or jumps to the next op, and
    // every block ends in an exiting handler.
    return Exit::Trap;

#undef CUR_PC
#undef RS1
#undef RS2
#undef WR
#undef WRA
#undef COMMIT_AT
#undef FLUSH_STATS
#undef RETURN
#undef EXIT_AT
#undef CHAIN_OR_RETURN
#undef EDGE_AT
#undef HANDLER
#undef NEXT
#undef CHAIN_NEXT
}

} // namespace bifsim::sa32

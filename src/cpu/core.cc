#include "cpu/core.h"

#include <limits>

#include "common/bits.h"
#include "common/logging.h"
#include "cpu/dbt.h"
#include "instrument/stats.h"

namespace bifsim::sa32 {

Core::Core(Bus &bus, CoreConfig cfg) : bus_(bus), cfg_(cfg), mmu_(bus)
{
    if (usesDbt())
        dbt_ = std::make_unique<Dbt>(*this);
    reset();
}

Core::~Core() = default;

void
Core::reset()
{
    for (uint32_t &r : regs_)
        r = 0;
    pc_ = cfg_.resetPc;
    priv_ = Priv::Machine;
    waiting_ = false;
    mstatus_ = mie_ = mtvec_ = mscratch_ = 0;
    mip_.store(0);
    mepc_ = mcause_ = mtval_ = satp_ = 0;
    flushCodeCache();
    mmu_.flushTlb();
}

void
Core::saveState(snapshot::ChunkWriter &w) const
{
    for (uint32_t r : regs_)
        w.u32(r);
    w.u64(pc_);
    w.u8(static_cast<uint8_t>(priv_));
    w.u8(waiting_ ? 1 : 0);
    w.u32(mstatus_);
    w.u32(mie_);
    w.u32(mip_.load(std::memory_order_relaxed));
    w.u32(mtvec_);
    w.u32(mscratch_);
    w.u32(mepc_);
    w.u32(mcause_);
    w.u32(mtval_);
    w.u32(satp_);
    gpu::saveStats(w, stats_);
}

void
Core::restoreState(snapshot::ChunkReader &r)
{
    // Parse everything into locals first so a truncated chunk cannot
    // leave the core half-restored.
    uint32_t regs[kNumRegs];
    for (uint32_t &reg : regs)
        reg = r.u32();
    Addr pc = r.u64();
    uint8_t priv_raw = r.u8();
    if (priv_raw != static_cast<uint8_t>(Priv::User) &&
        priv_raw != static_cast<uint8_t>(Priv::Machine))
        r.fail(strfmt("invalid privilege level %u", priv_raw));
    bool waiting = r.u8() != 0;
    uint32_t mstatus = r.u32();
    uint32_t mie = r.u32();
    uint32_t mip = r.u32();
    uint32_t mtvec = r.u32();
    uint32_t mscratch = r.u32();
    uint32_t mepc = r.u32();
    uint32_t mcause = r.u32();
    uint32_t mtval = r.u32();
    uint32_t satp = r.u32();
    CoreStats stats;
    gpu::restoreStats(r, stats);
    r.expectEnd();

    for (unsigned i = 0; i < kNumRegs; ++i)
        regs_[i] = regs[i];
    regs_[0] = 0;
    pc_ = pc;
    priv_ = static_cast<Priv>(priv_raw);
    waiting_ = waiting;
    mstatus_ = mstatus;
    mie_ = mie;
    mip_.store(mip, std::memory_order_relaxed);
    mtvec_ = mtvec;
    mscratch_ = mscratch;
    mepc_ = mepc;
    mcause_ = mcause;
    mtval_ = mtval;
    satp_ = satp;
    flushCodeCache();
    mmu_.flushTlb();
    stats_ = stats;   // After the flush so its counter bump is discarded.
}

void
Core::flushCodeCache()
{
    if (!blocks_.empty() || (dbt_ && dbt_->hasTranslations()))
        stats_.cacheFlushes++;
    if (!blocks_.empty()) {
        // Defer destruction: a store inside a decoded block can trigger
        // this flush while runInterp() is still iterating that block's
        // insts.  The retired maps are drained at the next block
        // boundary.
        retired_.push_back(std::move(blocks_));
        blocks_.clear();
    }
    codePages_.clear();
    if (dbt_)
        dbt_->invalidateAll();
}

uint32_t
Core::readCsr(uint32_t num) const
{
    switch (num) {
      case kCsrSatp:     return satp_;
      case kCsrMStatus:  return mstatus_;
      case kCsrMIe:      return mie_;
      case kCsrMTvec:    return mtvec_;
      case kCsrMScratch: return mscratch_;
      case kCsrMEpc:     return mepc_;
      case kCsrMCause:   return mcause_;
      case kCsrMTval:    return mtval_;
      case kCsrMIp:      return mip_.load(std::memory_order_relaxed);
      case kCsrMCycle:   return static_cast<uint32_t>(stats_.instret);
      case kCsrMInstRet: return static_cast<uint32_t>(stats_.instret);
      case kCsrMHartId:  return cfg_.hartId;
      default:           return 0;
    }
}

void
Core::writeCsr(uint32_t num, uint32_t value)
{
    switch (num) {
      case kCsrSatp:
        satp_ = value;
        mmu_.flushTlb();
        break;
      case kCsrMStatus:  mstatus_ = value; break;
      case kCsrMIe:      mie_ = value; break;
      case kCsrMTvec:    mtvec_ = value & ~3u; break;
      case kCsrMScratch: mscratch_ = value; break;
      case kCsrMEpc:     mepc_ = value & ~1u; break;
      case kCsrMCause:   mcause_ = value; break;
      case kCsrMTval:    mtval_ = value; break;
      case kCsrMIp:
        // External and timer pending bits are level-driven by devices;
        // software writes to them are ignored.
        break;
      default:
        break;
    }
}

void
Core::setIrqLine(IrqNum irq, bool level)
{
    uint32_t mask = 1u << irq;
    if (level)
        mip_.fetch_or(mask, std::memory_order_release);
    else
        mip_.fetch_and(~mask, std::memory_order_release);
}

bool
Core::wfiWakePending() const
{
    return (mip_.load(std::memory_order_acquire) & mie_) != 0;
}

bool
Core::interruptPending(uint32_t &cause) const
{
    uint32_t pending = mip_.load(std::memory_order_acquire) & mie_;
    if (!pending)
        return false;
    bool enabled = priv_ == Priv::User || (mstatus_ & kMStatusMie);
    if (!enabled)
        return false;
    if (pending & (1u << kIrqExternal))
        cause = kCauseInterrupt | kIrqExternal;
    else if (pending & (1u << kIrqTimer))
        cause = kCauseInterrupt | kIrqTimer;
    else
        return false;
    return true;
}

void
Core::trap(uint32_t cause, uint32_t tval, Addr epc)
{
    if (cause & kCauseInterrupt)
        stats_.interrupts++;
    else
        stats_.traps++;
    mepc_ = static_cast<uint32_t>(epc);
    mcause_ = cause;
    mtval_ = tval;
    // Save and mask the global interrupt enable, remember privilege.
    uint32_t mie_bit = (mstatus_ & kMStatusMie) ? 1u : 0u;
    mstatus_ &= ~(kMStatusMie | kMStatusMpie | kMStatusMppMask);
    mstatus_ |= mie_bit << 7;
    mstatus_ |= static_cast<uint32_t>(priv_) << kMStatusMppShift;
    priv_ = Priv::Machine;
    pc_ = mtvec_;
    waiting_ = false;
}

bool
Core::memLoad(Addr va, unsigned size, bool sign_extend, uint32_t &out,
              Addr cur_pc)
{
    if (!isAligned(va, size)) {
        trap(kCauseLoadMisaligned, static_cast<uint32_t>(va), cur_pc);
        return false;
    }
    TranslateResult tr = mmu_.translate(va, AccessType::Load, priv_, satp_);
    if (!tr.ok) {
        trap(tr.cause, static_cast<uint32_t>(va), cur_pc);
        return false;
    }
    uint64_t raw = 0;
    if (bus_.read(tr.pa, size, raw) != BusResult::Ok) {
        trap(kCauseLoadFault, static_cast<uint32_t>(va), cur_pc);
        return false;
    }
    if (sign_extend)
        out = static_cast<uint32_t>(sext(raw, size * 8));
    else
        out = static_cast<uint32_t>(raw);
    return true;
}

bool
Core::memStore(Addr va, unsigned size, uint32_t value, Addr cur_pc)
{
    if (!isAligned(va, size)) {
        trap(kCauseStoreMisaligned, static_cast<uint32_t>(va), cur_pc);
        return false;
    }
    TranslateResult tr = mmu_.translate(va, AccessType::Store, priv_, satp_);
    if (!tr.ok) {
        trap(tr.cause, static_cast<uint32_t>(va), cur_pc);
        return false;
    }
    if (bus_.write(tr.pa, size, value) != BusResult::Ok) {
        trap(kCauseStoreFault, static_cast<uint32_t>(va), cur_pc);
        return false;
    }
    // Invalidate decoded code if the guest writes a page we decoded from.
    if (!codePages_.empty() &&
        codePages_.count(static_cast<uint32_t>(tr.pa >> 12))) {
        flushCodeCache();
    }
    return true;
}

const Core::Block *
Core::fetchBlock(Addr pa)
{
    if (cfg_.blockCache) {
        auto it = blocks_.find(pa);
        if (it != blocks_.end()) {
            stats_.blockHits++;
            return &it->second;
        }
    }

    Block blk;
    DecodedInst insts[kMaxBlockInsts];
    size_t n = decodeBlock(bus_, pa, insts);
    blk.insts.assign(insts, insts + n);

    stats_.blocksDecoded++;
    if (!cfg_.blockCache) {
        scratch_ = std::move(blk);
        return &scratch_;
    }
    codePages_.insert(static_cast<uint32_t>(pa >> 12));
    auto [it, ok] = blocks_.emplace(pa, std::move(blk));
    (void)ok;
    return &it->second;
}

Core::ExecResult
Core::execute(const DecodedInst &d, Addr cur_pc)
{
    auto rs1 = [&] { return regs_[d.rs1]; };
    auto rs2 = [&] { return regs_[d.rs2]; };
    auto wr = [&](uint32_t v) { if (d.rd) regs_[d.rd] = v; };
    auto branch = [&](bool taken) {
        if (taken) {
            pc_ = cur_pc + static_cast<int64_t>(d.imm) * 4;
            return ExecResult::Redirect;
        }
        return ExecResult::Next;
    };

    switch (d.op) {
      case Op::Add:  wr(rs1() + rs2()); return ExecResult::Next;
      case Op::Sub:  wr(rs1() - rs2()); return ExecResult::Next;
      case Op::And:  wr(rs1() & rs2()); return ExecResult::Next;
      case Op::Or:   wr(rs1() | rs2()); return ExecResult::Next;
      case Op::Xor:  wr(rs1() ^ rs2()); return ExecResult::Next;
      case Op::Sll:  wr(rs1() << (rs2() & 31)); return ExecResult::Next;
      case Op::Srl:  wr(rs1() >> (rs2() & 31)); return ExecResult::Next;
      case Op::Sra:
        wr(static_cast<uint32_t>(static_cast<int32_t>(rs1()) >>
                                 (rs2() & 31)));
        return ExecResult::Next;
      case Op::Slt:
        wr(static_cast<int32_t>(rs1()) < static_cast<int32_t>(rs2()));
        return ExecResult::Next;
      case Op::Sltu: wr(rs1() < rs2()); return ExecResult::Next;
      case Op::Mul:  wr(rs1() * rs2()); return ExecResult::Next;
      case Op::Mulh: {
        int64_t p = static_cast<int64_t>(static_cast<int32_t>(rs1())) *
                    static_cast<int64_t>(static_cast<int32_t>(rs2()));
        wr(static_cast<uint32_t>(static_cast<uint64_t>(p) >> 32));
        return ExecResult::Next;
      }
      case Op::Mulhu: {
        uint64_t p = static_cast<uint64_t>(rs1()) * rs2();
        wr(static_cast<uint32_t>(p >> 32));
        return ExecResult::Next;
      }
      case Op::Div: {
        int32_t a = rs1(), b = rs2();
        if (b == 0)
            wr(0xffffffffu);
        else if (a == std::numeric_limits<int32_t>::min() && b == -1)
            wr(static_cast<uint32_t>(a));
        else
            wr(static_cast<uint32_t>(a / b));
        return ExecResult::Next;
      }
      case Op::Divu: wr(rs2() ? rs1() / rs2() : 0xffffffffu);
        return ExecResult::Next;
      case Op::Rem: {
        int32_t a = rs1(), b = rs2();
        if (b == 0)
            wr(static_cast<uint32_t>(a));
        else if (a == std::numeric_limits<int32_t>::min() && b == -1)
            wr(0);
        else
            wr(static_cast<uint32_t>(a % b));
        return ExecResult::Next;
      }
      case Op::Remu: wr(rs2() ? rs1() % rs2() : rs1());
        return ExecResult::Next;

      case Op::AddI:  wr(rs1() + static_cast<uint32_t>(d.imm));
        return ExecResult::Next;
      case Op::AndI:  wr(rs1() & static_cast<uint32_t>(d.imm));
        return ExecResult::Next;
      case Op::OrI:   wr(rs1() | static_cast<uint32_t>(d.imm));
        return ExecResult::Next;
      case Op::XorI:  wr(rs1() ^ static_cast<uint32_t>(d.imm));
        return ExecResult::Next;
      case Op::SltI:
        wr(static_cast<int32_t>(rs1()) < d.imm);
        return ExecResult::Next;
      case Op::SltuI:
        wr(rs1() < static_cast<uint32_t>(d.imm));
        return ExecResult::Next;
      case Op::SllI:  wr(rs1() << d.imm); return ExecResult::Next;
      case Op::SrlI:  wr(rs1() >> d.imm); return ExecResult::Next;
      case Op::SraI:
        wr(static_cast<uint32_t>(static_cast<int32_t>(rs1()) >> d.imm));
        return ExecResult::Next;
      case Op::Lui:
        wr(static_cast<uint32_t>(d.imm) << 16);
        return ExecResult::Next;
      case Op::Auipc:
        wr(static_cast<uint32_t>(cur_pc) +
           (static_cast<uint32_t>(d.imm) << 16));
        return ExecResult::Next;

      case Op::Lb: case Op::Lbu: case Op::Lh: case Op::Lhu: case Op::Lw: {
        unsigned size = d.op == Op::Lw ? 4
                      : (d.op == Op::Lh || d.op == Op::Lhu) ? 2 : 1;
        bool sign = d.op == Op::Lb || d.op == Op::Lh;
        uint32_t v = 0;
        if (!memLoad(rs1() + static_cast<uint32_t>(d.imm), size, sign, v,
                     cur_pc)) {
            return ExecResult::Trap;
        }
        wr(v);
        return ExecResult::Next;
      }
      case Op::Sb: case Op::Sh: case Op::Sw: {
        unsigned size = d.op == Op::Sw ? 4 : d.op == Op::Sh ? 2 : 1;
        if (!memStore(rs1() + static_cast<uint32_t>(d.imm), size, rs2(),
                      cur_pc)) {
            return ExecResult::Trap;
        }
        return ExecResult::Next;
      }

      case Op::Beq:  return branch(rs1() == rs2());
      case Op::Bne:  return branch(rs1() != rs2());
      case Op::Blt:
        return branch(static_cast<int32_t>(rs1()) <
                      static_cast<int32_t>(rs2()));
      case Op::Bge:
        return branch(static_cast<int32_t>(rs1()) >=
                      static_cast<int32_t>(rs2()));
      case Op::Bltu: return branch(rs1() < rs2());
      case Op::Bgeu: return branch(rs1() >= rs2());

      case Op::Jal:
        wr(static_cast<uint32_t>(cur_pc) + 4);
        pc_ = cur_pc + static_cast<int64_t>(d.imm) * 4;
        return ExecResult::Redirect;
      case Op::Jalr: {
        uint32_t target = (rs1() + static_cast<uint32_t>(d.imm)) & ~1u;
        wr(static_cast<uint32_t>(cur_pc) + 4);
        pc_ = target;
        return ExecResult::Redirect;
      }

      case Op::ECall:
        trap(priv_ == Priv::User ? kCauseECallU : kCauseECallM, 0, cur_pc);
        return ExecResult::Trap;
      case Op::EBreak:
        if (mtvec_ == 0) {
            pc_ = cur_pc;
            return ExecResult::EBreak;
        }
        trap(kCauseBreakpoint, static_cast<uint32_t>(cur_pc), cur_pc);
        return ExecResult::Trap;
      case Op::MRet: {
        uint32_t mpp = (mstatus_ & kMStatusMppMask) >> kMStatusMppShift;
        priv_ = mpp == 3 ? Priv::Machine : Priv::User;
        if (mstatus_ & kMStatusMpie)
            mstatus_ |= kMStatusMie;
        else
            mstatus_ &= ~kMStatusMie;
        mstatus_ |= kMStatusMpie;
        mstatus_ &= ~kMStatusMppMask;
        pc_ = mepc_;
        return ExecResult::Redirect;
      }
      case Op::Wfi: {
        if (wfiWakePending())
            return ExecResult::Next;
        pc_ = cur_pc + 4;
        waiting_ = true;
        return ExecResult::Wfi;
      }
      case Op::Fence:
        flushCodeCache();
        return ExecResult::Next;
      case Op::SFence:
        mmu_.flushTlb();
        return ExecResult::Next;
      case Op::Halt:
        pc_ = cur_pc + 4;
        return ExecResult::Halt;

      case Op::CsrRw: case Op::CsrRs: case Op::CsrRc: {
        uint32_t csr = static_cast<uint32_t>(d.imm);
        if (priv_ != Priv::Machine && csr != kCsrMCycle &&
            csr != kCsrMInstRet) {
            trap(kCauseIllegalInst, d.raw, cur_pc);
            return ExecResult::Trap;
        }
        uint32_t old = readCsr(csr);
        if (d.op == Op::CsrRw) {
            writeCsr(csr, rs1());
        } else if (d.rs1 != 0) {
            uint32_t v = d.op == Op::CsrRs ? (old | rs1()) : (old & ~rs1());
            writeCsr(csr, v);
        }
        wr(old);
        return ExecResult::Next;
      }

      case Op::Illegal:
      default:
        trap(kCauseIllegalInst, d.raw, cur_pc);
        return ExecResult::Trap;
    }
}

StopReason
Core::run(uint64_t max_insts)
{
    if (dbt_)
        return dbt_->run(max_insts);
    return runInterp(max_insts);
}

StopReason
Core::runInterp(uint64_t max_insts)
{
    uint64_t budget = max_insts;
    while (budget > 0) {
        uint32_t icause = 0;
        if (interruptPending(icause)) {
            waiting_ = false;
            trap(icause, 0, pc_);
        }
        if (waiting_) {
            // Pending-but-masked interrupts end the stall without
            // trapping; execution resumes after the wfi.
            if (wfiWakePending())
                waiting_ = false;
            else
                return StopReason::Wfi;
        }

        TranslateResult tr =
            mmu_.translate(pc_, AccessType::Fetch, priv_, satp_);
        if (!tr.ok) {
            trap(tr.cause, static_cast<uint32_t>(pc_), pc_);
            continue;
        }

        const Block *blk = fetchBlock(tr.pa);
        Addr cur_pc = pc_;
        bool redirected = false;
        for (const DecodedInst &inst : blk->insts) {
            stats_.instret++;
            budget = budget > 0 ? budget - 1 : 0;
            ExecResult r = execute(inst, cur_pc);
            if (r == ExecResult::Next) {
                cur_pc += 4;
                continue;
            }
            redirected = true;
            if (r == ExecResult::Wfi)
                return budget > 0 ? StopReason::Wfi : StopReason::MaxInsts;
            if (r == ExecResult::Halt)
                return StopReason::Halt;
            if (r == ExecResult::EBreak)
                return StopReason::EBreak;
            break;   // Redirect or Trap: pc_ already updated.
        }
        if (!redirected)
            pc_ = cur_pc;   // Block fell through (page end / length cap).
        if (!retired_.empty())
            retired_.clear();   // blk is dead: safe point for flushed blocks.
    }
    return StopReason::MaxInsts;
}

} // namespace bifsim::sa32

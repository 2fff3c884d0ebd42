#include "gpu/shader_core.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "common/bits.h"
#include "common/logging.h"
#include "instrument/cfg.h"
#include "trace/trace.h"

namespace bifsim::gpu {

using bif::Op;

namespace {

/** Maps an instruction destination to its unified-register index: only
 *  GRF/temp destinations of value-producing ops commit; everything else
 *  lands in the write sink. */
uint8_t
mapDst(const bif::Instr &in)
{
    if (bif::category(in.op) == bif::Category::ControlFlow ||
        in.op == Op::StGlobal || in.op == Op::StGlobalU8 ||
        in.op == Op::StLocal) {
        return bif::kUnifiedSink;
    }
    if (bif::isGrf(in.dst) || bif::isTemp(in.dst))
        return in.dst;
    return bif::kUnifiedSink;
}

/** Maps a source operand to its unified-register index; anything that
 *  is not a register or special reads the always-zero slot. */
uint8_t
mapSrc(uint8_t op)
{
    return op <= bif::kSrZero ? op : static_cast<uint8_t>(bif::kSrZero);
}

} // namespace

DecodedShader
DecodedShader::build(bif::Module m)
{
    DecodedShader s;
    s.mod = std::move(m);
    s.info = analyzeClauses(s.mod);
    size_t nc = s.mod.clauses.size();
    s.isBarrier.resize(nc, 0);
    s.succ.resize(nc, kNoSuccessor);
    s.uopStart.reserve(nc + 1);

    for (size_t c = 0; c < nc; ++c) {
        s.uopStart.push_back(static_cast<uint32_t>(s.uops.size()));
        for (const bif::Tuple &t : s.mod.clauses[c].tuples) {
            for (const bif::Instr &in : t.slot) {
                if (in.op == Op::Nop)
                    continue;
                if (in.op == Op::Barrier)
                    s.isBarrier[c] = 1;
                else if (in.op == Op::Ret)
                    s.succ[c] = instrument::kCfgExit;
                else if (bif::category(in.op) == bif::Category::ControlFlow)
                    s.succ[c] = static_cast<uint32_t>(in.imm);

                MicroOp u;
                u.op = in.op;
                u.dst = mapDst(in);
                u.src0 = mapSrc(in.src0);
                u.src1 = mapSrc(in.src1);
                u.src2 = mapSrc(in.src2);
                u.imm = in.imm;
                // Pre-resolve table indices so the execute loop needs no
                // range checks.
                if (in.op == Op::LdRom) {
                    if (static_cast<size_t>(in.imm) >= s.mod.rom.size()) {
                        u.op = Op::MovImm;   // Out-of-range ROM reads 0.
                        u.imm = 0;
                    }
                } else if (in.op == Op::LdArg) {
                    u.imm = static_cast<int32_t>(
                        static_cast<uint32_t>(in.imm) % kMaxArgWords);
                }
                s.uops.push_back(u);
            }
        }
    }
    s.uopStart.push_back(static_cast<uint32_t>(s.uops.size()));
    for (uint8_t b : s.isBarrier)
        s.anyBarrier |= b != 0;
    return s;
}

void
JobDescriptor::writeTo(uint8_t *dst) const
{
    uint32_t words[12] = {
        jobType, next, grid[0], grid[1], grid[2], wg[0], wg[1], wg[2],
        binaryVa, argsVa, localSize, localBase,
    };
    std::memcpy(dst, words, sizeof(words));
}

JobDescriptor
JobDescriptor::readFrom(const uint8_t *src)
{
    uint32_t words[12];
    std::memcpy(words, src, sizeof(words));
    JobDescriptor d;
    d.jobType = words[0];
    d.next = words[1];
    d.grid[0] = words[2]; d.grid[1] = words[3]; d.grid[2] = words[4];
    d.wg[0] = words[5]; d.wg[1] = words[6]; d.wg[2] = words[7];
    d.binaryVa = words[8];
    d.argsVa = words[9];
    d.localSize = words[10];
    d.localBase = words[11];
    return d;
}

void
JobContext::raiseFault(uint32_t group, JobFaultKind kind, uint32_t va,
                       const std::string &detail)
{
    sim::LockGuard g(faultLock);
    // Lowest-group-wins, not first-to-arrive: with several workers the
    // arrival order of faults from different groups is a race, but the
    // lowest faulting group is a pure function of the guest inputs.
    // (Within one group, execution is sequential on one worker, so the
    // first latch for that group is also its sequentially-first fault.)
    if (fault.kind == JobFaultKind::None || group < faultGroup) {
        faultGroup = group;
        fault.kind = kind;
        fault.va = va;
        fault.detail = detail;
    }
}

namespace {

inline float
asF(uint32_t u)
{
    return std::bit_cast<float>(u);
}

inline uint32_t
asU(float f)
{
    return std::bit_cast<uint32_t>(f);
}

inline uint32_t
saturatingF2I(float f)
{
    if (std::isnan(f))
        return 0;
    if (f >= 2147483647.0f)
        return 0x7fffffffu;
    if (f <= -2147483648.0f)
        return 0x80000000u;
    return static_cast<uint32_t>(static_cast<int32_t>(f));
}

inline uint32_t
saturatingF2U(float f)
{
    if (std::isnan(f) || f <= 0.0f)
        return 0;
    if (f >= 4294967295.0f)
        return 0xffffffffu;
    return static_cast<uint32_t>(f);
}

/** Signed division as the ISA defines it: x / 0 is 0 and
 *  INT_MIN / -1 is INT_MIN. */
inline uint32_t
sdiv(uint32_t a, uint32_t b)
{
    int32_t sa = static_cast<int32_t>(a);
    int32_t sb = static_cast<int32_t>(b);
    if (sb == 0)
        return 0;
    if (sa == std::numeric_limits<int32_t>::min() && sb == -1)
        return a;
    return static_cast<uint32_t>(sa / sb);
}

/** Signed remainder: x % 0 and INT_MIN % -1 are 0. */
inline uint32_t
srem(uint32_t a, uint32_t b)
{
    int32_t sa = static_cast<int32_t>(a);
    int32_t sb = static_cast<int32_t>(b);
    if (sb == 0 || (sa == std::numeric_limits<int32_t>::min() && sb == -1))
        return 0;
    return static_cast<uint32_t>(sa % sb);
}

} // namespace

void
WorkgroupExecutor::raiseFault(JobFaultKind kind, uint32_t va,
                              const std::string &detail)
{
    groupFault_ = true;
    job_->raiseFault(curGroup_, kind, va, detail);
}

bool
WorkgroupExecutor::memAccess(uint32_t va, unsigned size, bool write,
                             uint32_t &val)
{
    if (va & (size - 1)) [[unlikely]] {
        raiseFault(JobFaultKind::BadAccess, va,
                         "misaligned global access");
        return false;
    }
    uint32_t vpn = va >> kGpuPageShift;
    const GpuTlb::Entry *e = tlb_.last;
    if (e && e->vpn == vpn && (!write || e->writable)) [[likely]] {
        tlb_.stats.lastPageHits++;
    } else {
        e = job_->mmu->lookup(va, write, tlb_);
        if (!e) [[unlikely]] {
            if (traceBuf_)
                traceBuf_->instant("mmu_fault", "fault", "va", va,
                                   "write", write ? 1 : 0);
            raiseFault(JobFaultKind::MmuFault, va,
                             write ? "store translation fault"
                                   : "load translation fault");
            return false;
        }
        // Only a miss can reach a page new to this job: beginJob
        // flushes the last-page entry and a successful lookup installs
        // it, so a hit is on a page already in the set.  (A failed walk
        // can refill the entry under `last`, but then the job faults
        // and reports no statistics.)
        if (job_->collect)
            coll_.pages.insert(vpn);
    }
    if (uint8_t *host = e->host) [[likely]] {
        // Guest work-items may race on global memory (bfs sets one mask
        // byte from many of them).  Relaxed atomics keep such a race
        // defined on the host; on x86-64 and AArch64 they are plain
        // loads and stores.  The access is aligned (checked above).
        host += va & (kGpuPageBytes - 1);
        uint32_t *word = reinterpret_cast<uint32_t *>(host);
        if (write) {
            if (size == 1)
                __atomic_store_n(host, static_cast<uint8_t>(val),
                                 __ATOMIC_RELAXED);
            else
                __atomic_store_n(word, val, __ATOMIC_RELAXED);
        } else {
            val = size == 1 ? __atomic_load_n(host, __ATOMIC_RELAXED)
                            : __atomic_load_n(word, __ATOMIC_RELAXED);
        }
        return true;
    }
    // Frame not fully RAM-backed: physical-address slow path with the
    // per-access bounds check.
    Addr pa = (static_cast<Addr>(e->ppn) << kGpuPageShift) |
              (va & (kGpuPageBytes - 1));
    if (!job_->mem->contains(pa, size)) {
        raiseFault(JobFaultKind::BadAccess, va,
                         "physical address outside RAM");
        return false;
    }
    if (write) {
        if (size == 1)
            job_->mem->write<uint8_t>(pa, static_cast<uint8_t>(val));
        else
            job_->mem->write<uint32_t>(pa, val);
    } else {
        val = size == 1 ? job_->mem->read<uint8_t>(pa)
                        : job_->mem->read<uint32_t>(pa);
    }
    return true;
}

uint32_t *
WorkgroupExecutor::atomicHostPtr(uint32_t va)
{
    if (va & 3u) {
        raiseFault(JobFaultKind::BadAccess, va, "misaligned atomic");
        return nullptr;
    }
    uint32_t vpn = va >> kGpuPageShift;
    const GpuTlb::Entry *e = tlb_.last;
    if (e && e->vpn == vpn && e->writable) {
        tlb_.stats.lastPageHits++;
    } else {
        e = job_->mmu->lookup(va, true, tlb_);
        if (!e) {
            raiseFault(JobFaultKind::MmuFault, va,
                       "atomic translation fault");
            return nullptr;
        }
        if (job_->collect)
            coll_.pages.insert(vpn);   // Misses only, as in memAccess.
    }
    if (e->host)
        return reinterpret_cast<uint32_t *>(
            e->host + (va & (kGpuPageBytes - 1)));
    Addr pa = (static_cast<Addr>(e->ppn) << kGpuPageShift) |
              (va & (kGpuPageBytes - 1));
    if (!job_->mem->contains(pa, 4)) {
        raiseFault(JobFaultKind::MmuFault, va, "atomic translation fault");
        return nullptr;
    }
    job_->mem->markWritten(pa, 4);
    return reinterpret_cast<uint32_t *>(job_->mem->hostPtr(pa));
}

bool
WorkgroupExecutor::localAccess(uint32_t offset, bool write, uint32_t &val)
{
    // Overflow-safe bound: `offset + 4 > size` wraps for offsets near
    // UINT32_MAX and would pass a hostile offset straight into the
    // buffer arithmetic below.
    if (!isAligned(offset, 4) || local_.size() < 4 ||
        offset > local_.size() - 4) {
        if (traceBuf_)
            traceBuf_->instant("bad_access", "fault", "offset", offset);
        raiseFault(JobFaultKind::BadAccess, offset,
                         "local access out of range");
        return false;
    }
    if (write)
        std::memcpy(local_.data() + offset, &val, 4);
    else
        std::memcpy(&val, local_.data() + offset, 4);
    return true;
}

void
WorkgroupExecutor::commitClause(Warp &w, uint32_t c, uint32_t mask,
                                const uint32_t *next_pc, uint32_t exits)
{
    // Commit lane PCs (paper §IV-C: PCs are tracked on clause
    // boundaries).  A clause has one static successor besides c + 1
    // (DecodedShader::succ), so the lanes that do not fall through are
    // all the CFG needs: the job merge turns the counts into edges.
    w.live &= ~exits;
    uint32_t taken = exits;
    for (uint32_t m = mask & ~exits; m; m &= m - 1) {
        unsigned l = std::countr_zero(m);
        w.pc[l] = next_pc[l];
        if (next_pc[l] != c + 1)
            taken |= 1u << l;
    }
    if (!job_->collect)
        return;
    unsigned lanes = std::popcount(mask);
    coll_.clauseExec[c] += lanes;
    if (unsigned t = std::popcount(taken)) {
        coll_.taken[c] += t;
        coll_.divergent += t < lanes;   // Some lanes fell through.
    }
}

namespace {

/** Writes @p r into @p dst on the lanes whose @p on word is all ones
 *  and keeps @p dst elsewhere (branch-free, so it vectorises). */
inline void
blend(uint32_t *dst, const uint32_t *r, const uint32_t *on)
{
    for (unsigned l = 0; l < bif::kWarpWidth; ++l)
        dst[l] = (r[l] & on[l]) | (dst[l] & ~on[l]);
}

/** r = (a <mode> b) for every lane, comparing as @p T. */
template <typename T>
inline void
compareLanes(uint32_t *r, int32_t imm, const uint32_t *a, const uint32_t *b)
{
    constexpr unsigned W = bif::kWarpWidth;
    T x[W], y[W];
    for (unsigned l = 0; l < W; ++l) {
        x[l] = std::bit_cast<T>(a[l]);
        y[l] = std::bit_cast<T>(b[l]);
    }
    // An unordered (NaN) float compare is false for every mode but Ne.
    switch (static_cast<bif::CmpMode>(imm & 7)) {
      case bif::CmpMode::Eq:
        for (unsigned l = 0; l < W; ++l) r[l] = x[l] == y[l];
        return;
      case bif::CmpMode::Ne:
        for (unsigned l = 0; l < W; ++l) r[l] = x[l] != y[l];
        return;
      case bif::CmpMode::Lt:
        for (unsigned l = 0; l < W; ++l) r[l] = x[l] < y[l];
        return;
      case bif::CmpMode::Le:
        for (unsigned l = 0; l < W; ++l) r[l] = x[l] <= y[l];
        return;
      case bif::CmpMode::Gt:
        for (unsigned l = 0; l < W; ++l) r[l] = x[l] > y[l];
        return;
      case bif::CmpMode::Ge:
        for (unsigned l = 0; l < W; ++l) r[l] = x[l] >= y[l];
        return;
    }
    for (unsigned l = 0; l < W; ++l)
        r[l] = 0;
}

} // namespace

// r[l] = EXPR on every lane, live or not; EXPR reads the lane's
// operands as A, B and C.  Only for ops without side effects or UB.
#define ALL_LANES(EXPR)                                                 \
    for (unsigned l = 0; l < bif::kWarpWidth; ++l) {                   \
        [[maybe_unused]] const uint32_t A = a[l], B = b[l], C = cc[l]; \
        r[l] = (EXPR);                                                  \
    }

// d[l] = EXPR on the active lanes only, in lane order.
#define ACTIVE_LANES(EXPR)                                              \
    for (uint32_t m_ = mask; m_; m_ &= m_ - 1) {                        \
        unsigned l = std::countr_zero(m_);                              \
        [[maybe_unused]] const uint32_t A = a[l], B = b[l];            \
        d[l] = (EXPR);                                                  \
    }

bool
WorkgroupExecutor::execClause(Warp &w, uint32_t c, uint32_t mask)
{
    constexpr unsigned W = bif::kWarpWidth;
    const DecodedShader &sh = *job_->shader;
    const MicroOp *u = sh.uops.data() + sh.uopStart[c];
    const MicroOp *uend = sh.uops.data() + sh.uopStart[c + 1];
    const uint32_t *rom = sh.mod.rom.data();
    const uint32_t *args = job_->args;

    uint32_t on[W];   // All ones on the active lanes.
    uint32_t next_pc[W];
    for (unsigned l = 0; l < W; ++l) {
        on[l] = 0u - ((mask >> l) & 1u);
        next_pc[l] = c + 1;
    }
    uint32_t exits = 0;

    for (; u != uend; ++u) {
        const uint32_t *a = w.reg[u->src0];
        const uint32_t *b = w.reg[u->src1];
        const uint32_t *cc = w.reg[u->src2];
        uint32_t *d = w.reg[u->dst];
        const uint32_t imm = static_cast<uint32_t>(u->imm);
        uint32_t r[W];
        switch (u->op) {
          // Pure ALU ops: every lane, then one masked blend below.
          case Op::FAdd: ALL_LANES(asU(asF(A) + asF(B))); break;
          case Op::FSub: ALL_LANES(asU(asF(A) - asF(B))); break;
          case Op::FMul: ALL_LANES(asU(asF(A) * asF(B))); break;
          case Op::FFma: ALL_LANES(asU(asF(A) * asF(B) + asF(C))); break;
          case Op::FMin: ALL_LANES(asU(std::fmin(asF(A), asF(B)))); break;
          case Op::FMax: ALL_LANES(asU(std::fmax(asF(A), asF(B)))); break;
          case Op::FAbs: ALL_LANES(asU(std::fabs(asF(A)))); break;
          case Op::FNeg: ALL_LANES(asU(-asF(A))); break;
          case Op::FRcp: ALL_LANES(asU(1.0f / asF(A))); break;
          case Op::IAdd: ALL_LANES(A + B); break;
          case Op::ISub: ALL_LANES(A - B); break;
          case Op::IMul: ALL_LANES(A * B); break;
          case Op::IAnd: ALL_LANES(A & B); break;
          case Op::IOr:  ALL_LANES(A | B); break;
          case Op::IXor: ALL_LANES(A ^ B); break;
          case Op::INot: ALL_LANES(~A); break;
          case Op::IShl: ALL_LANES(A << (B & 31)); break;
          case Op::IShr: ALL_LANES(A >> (B & 31)); break;
          case Op::IAsr:
            ALL_LANES(static_cast<uint32_t>(static_cast<int32_t>(A) >>
                                            (B & 31)));
            break;
          case Op::IMin:
            ALL_LANES(static_cast<int32_t>(A) < static_cast<int32_t>(B)
                          ? A : B);
            break;
          case Op::IMax:
            ALL_LANES(static_cast<int32_t>(A) > static_cast<int32_t>(B)
                          ? A : B);
            break;
          case Op::UMin: ALL_LANES(A < B ? A : B); break;
          case Op::UMax: ALL_LANES(A > B ? A : B); break;
          case Op::FCmp: compareLanes<float>(r, u->imm, a, b); break;
          case Op::ICmp: compareLanes<int32_t>(r, u->imm, a, b); break;
          case Op::UCmp: compareLanes<uint32_t>(r, u->imm, a, b); break;
          case Op::CSel: ALL_LANES(A != 0 ? B : C); break;
          case Op::Mov: ALL_LANES(A); break;
          case Op::MovImm: ALL_LANES(imm); break;
          case Op::LdRom: ALL_LANES(rom[imm]); break;    // Range-checked
          case Op::LdArg: ALL_LANES(args[imm]); break;   // at decode.
          case Op::F2I: ALL_LANES(saturatingF2I(asF(A))); break;
          case Op::F2U: ALL_LANES(saturatingF2U(asF(A))); break;
          case Op::I2F:
            ALL_LANES(asU(static_cast<float>(static_cast<int32_t>(A))));
            break;
          case Op::U2F: ALL_LANES(asU(static_cast<float>(A))); break;

          // libm calls and divisions: active lanes only.
          case Op::FFloor: ACTIVE_LANES(asU(std::floor(asF(A)))); continue;
          case Op::FRsqrt:
            ACTIVE_LANES(asU(1.0f / std::sqrt(asF(A))));
            continue;
          case Op::FSqrt: ACTIVE_LANES(asU(std::sqrt(asF(A)))); continue;
          case Op::FExp2: ACTIVE_LANES(asU(std::exp2(asF(A)))); continue;
          case Op::FLog2: ACTIVE_LANES(asU(std::log2(asF(A)))); continue;
          case Op::FSin: ACTIVE_LANES(asU(std::sin(asF(A)))); continue;
          case Op::FCos: ACTIVE_LANES(asU(std::cos(asF(A)))); continue;
          case Op::IDiv: ACTIVE_LANES(sdiv(A, B)); continue;
          case Op::IRem: ACTIVE_LANES(srem(A, B)); continue;
          case Op::UDiv: ACTIVE_LANES(B ? A / B : 0); continue;
          case Op::URem: ACTIVE_LANES(B ? A % B : 0); continue;

          // Memory: active lanes in order, stopping at the first fault.
          case Op::LdGlobal:
          case Op::LdGlobalU8: {
            unsigned size = u->op == Op::LdGlobal ? 4 : 1;
            for (uint32_t m = mask; m; m &= m - 1) {
                unsigned l = std::countr_zero(m);
                uint32_t v = 0;
                if (!memAccess(a[l] + imm, size, false, v)) [[unlikely]]
                    return false;
                d[l] = v;
            }
            continue;
          }
          case Op::StGlobal:
          case Op::StGlobalU8: {
            unsigned size = u->op == Op::StGlobal ? 4 : 1;
            for (uint32_t m = mask; m; m &= m - 1) {
                unsigned l = std::countr_zero(m);
                uint32_t v = b[l];
                if (!memAccess(a[l] + imm, size, true, v)) [[unlikely]]
                    return false;
            }
            continue;
          }
          case Op::LdLocal:
            for (uint32_t m = mask; m; m &= m - 1) {
                unsigned l = std::countr_zero(m);
                uint32_t v = 0;
                if (!localAccess(a[l] + imm, false, v)) [[unlikely]]
                    return false;
                d[l] = v;
            }
            continue;
          case Op::StLocal:
            for (uint32_t m = mask; m; m &= m - 1) {
                unsigned l = std::countr_zero(m);
                uint32_t v = b[l];
                if (!localAccess(a[l] + imm, true, v)) [[unlikely]]
                    return false;
            }
            continue;
          case Op::AtomAddG:
            for (uint32_t m = mask; m; m &= m - 1) {
                unsigned l = std::countr_zero(m);
                uint32_t *p = atomicHostPtr(a[l] + imm);
                if (!p) [[unlikely]]
                    return false;
                d[l] = __atomic_fetch_add(p, b[l], __ATOMIC_SEQ_CST);
            }
            continue;
          case Op::AtomAddL:
            for (uint32_t m = mask; m; m &= m - 1) {
                unsigned l = std::countr_zero(m);
                uint32_t off = a[l] + imm;
                uint32_t old = 0;
                if (!localAccess(off, false, old))
                    return false;
                uint32_t nv = old + b[l];
                if (!localAccess(off, true, nv))
                    return false;
                d[l] = old;
            }
            continue;

          // Control flow: per-lane successors, committed below.
          case Op::Branch:
            for (unsigned l = 0; l < W; ++l)
                next_pc[l] = imm;
            continue;
          case Op::BranchZ:
            for (unsigned l = 0; l < W; ++l)
                next_pc[l] = a[l] == 0 ? imm : next_pc[l];
            continue;
          case Op::BranchNZ:
            for (unsigned l = 0; l < W; ++l)
                next_pc[l] = a[l] != 0 ? imm : next_pc[l];
            continue;
          case Op::Ret:
            exits |= mask;
            continue;
          default:
            // Barrier is handled at warp level (barrier clauses are
            // alone); Nop slots are elided at decode.
            continue;
        }
        blend(d, r, on);
    }

    commitClause(w, c, mask, next_pc, exits);
    return true;
}

#undef ALL_LANES
#undef ACTIVE_LANES

WorkgroupExecutor::WarpStop
WorkgroupExecutor::runWarp(Warp &w)
{
    for (;;) {
        // Stop only for *this group's* fault.  Aborting on any other
        // group's fault would make this group's side effects (stores,
        // statistics) depend on cross-worker timing — the determinism
        // bug record/replay bring-up flushed out.
        if (groupFault_) [[unlikely]]
            return WarpStop::Fault;
        // Lazy TLB shootdown (epoch compare at clause boundaries).
        tlb_.syncEpoch(*job_->mmu);

        if (!w.live)
            return WarpStop::Done;
        uint32_t minpc = std::numeric_limits<uint32_t>::max();
        for (uint32_t m = w.live; m; m &= m - 1)
            minpc = std::min(minpc, w.pc[std::countr_zero(m)]);
        if (minpc >= job_->shader->mod.clauses.size()) {
            // Fell off the end of the shader: threads terminate.
            w.live = 0;
            return WarpStop::Done;
        }
        uint32_t mask = 0;
        for (uint32_t m = w.live; m; m &= m - 1) {
            unsigned l = std::countr_zero(m);
            if (w.pc[l] == minpc)
                mask |= 1u << l;
        }

        if (job_->shader->isBarrier[minpc]) {
            // All live threads must arrive together.
            if (mask != w.live) {
                raiseFault(JobFaultKind::DivergentBarrier, minpc,
                           "divergent barrier");
                return WarpStop::Fault;
            }
            for (uint32_t m = mask; m; m &= m - 1)
                w.pc[std::countr_zero(m)] = minpc + 1;
            if (job_->collect)
                coll_.clauseExec[minpc] += std::popcount(mask);
            w.atBarrier = true;
            return WarpStop::Barrier;
        }

        if (!execClause(w, minpc, mask))
            return WarpStop::Fault;
    }
}

void
WorkgroupExecutor::setTrace(trace::TraceBuffer *buf)
{
    traceBuf_ = buf;
    tlb_.traceBuf = buf;
}

void
WorkgroupExecutor::beginJob(JobContext *job, unsigned worker_index)
{
    job_ = job;
    index_ = worker_index;
    if (traceBuf_)
        jobStartTs_ = trace::nowNs();
    // Epoch-based shootdown: the device bumps the MMU epoch at job
    // boundaries (and on AS_COMMAND); stale worker TLBs flush here.
    tlb_.syncEpoch(*job->mmu);
    tlb_.stats = TlbStats{};
    sched_ = SchedStats{};
    coll_.reset(job->shader->mod.clauses.size());
    uint32_t local_bytes =
        std::max(job->desc.localSize, job->shader->mod.localBytes);
    local_.assign(local_bytes, 0);
}

void
WorkgroupExecutor::initWarp(Warp &w, uint32_t warp_idx,
                            uint32_t group_threads)
{
    using namespace bif;
    const JobDescriptor &d = job_->desc;
    uint32_t base_tid = warp_idx * kWarpWidth;
    unsigned lanes = std::min<uint32_t>(kWarpWidth, group_threads - base_tid);
    std::memset(w.reg, 0, sizeof(w.reg));
    std::memset(w.pc, 0, sizeof(w.pc));
    w.live = (1u << lanes) - 1;
    w.atBarrier = false;
    for (unsigned l = 0; l < lanes; ++l) {
        uint32_t tid = base_tid + l;
        // Specials live in the unified register file, preloaded once per
        // warp so the execute loop reads them like any register.
        w.reg[kSrLaneId][l] = tid % kWarpWidth;
        w.reg[kSrLocalIdX][l] = tid % d.wg[0];
        w.reg[kSrLocalIdY][l] = (tid / d.wg[0]) % d.wg[1];
        w.reg[kSrLocalIdZ][l] = tid / (d.wg[0] * d.wg[1]);
        w.reg[kSrGroupIdX][l] = groupId_[0];
        w.reg[kSrGroupIdY][l] = groupId_[1];
        w.reg[kSrGroupIdZ][l] = groupId_[2];
        w.reg[kSrLocalSizeX][l] = d.wg[0];
        w.reg[kSrLocalSizeY][l] = d.wg[1];
        w.reg[kSrLocalSizeZ][l] = d.wg[2];
        w.reg[kSrGridSizeX][l] = d.grid[0];
        w.reg[kSrGridSizeY][l] = d.grid[1];
        w.reg[kSrGridSizeZ][l] = d.grid[2];
        w.reg[kSrNumGroupsX][l] = job_->groups[0];
        w.reg[kSrNumGroupsY][l] = job_->groups[1];
        w.reg[kSrNumGroupsZ][l] = job_->groups[2];
    }
}

void
WorkgroupExecutor::runGroup(uint32_t linear_group)
{
    const JobDescriptor &d = job_->desc;
    curGroup_ = linear_group;
    groupFault_ = false;
    groupId_[0] = linear_group % job_->groups[0];
    groupId_[1] = (linear_group / job_->groups[0]) % job_->groups[1];
    groupId_[2] = linear_group / (job_->groups[0] * job_->groups[1]);

    if (!local_.empty())
        std::fill(local_.begin(), local_.end(), 0);

    uint32_t group_threads = d.wg[0] * d.wg[1] * d.wg[2];
    uint32_t num_warps =
        (group_threads + bif::kWarpWidth - 1) / bif::kWarpWidth;

    if (!job_->shader->anyBarrier) {
        Warp w;
        for (uint32_t wi = 0; wi < num_warps; ++wi) {
            initWarp(w, wi, group_threads);
            if (runWarp(w) == WarpStop::Fault)
                return;
        }
        return;
    }

    // Barrier path: all warps of the group live simultaneously.
    if (warps_.size() < num_warps)
        warps_.resize(num_warps);
    const std::span<Warp> warps(warps_.data(), num_warps);
    for (uint32_t wi = 0; wi < num_warps; ++wi)
        initWarp(warps[wi], wi, group_threads);

    for (;;) {
        bool all_done = true;
        bool any_barrier = false;
        for (Warp &w : warps) {
            if (!w.live)
                continue;
            all_done = false;
            if (w.atBarrier) {
                any_barrier = true;
                continue;
            }
            WarpStop s = runWarp(w);
            if (s == WarpStop::Fault)
                return;
            if (s == WarpStop::Barrier)
                any_barrier = true;
        }
        if (all_done)
            break;
        if (any_barrier) {
            // Every non-done warp has reached the barrier: release.
            for (Warp &w : warps)
                w.atBarrier = false;
        }
    }
}

void
WorkgroupExecutor::runSlice(const GroupSlice &s)
{
    sched_.slicesRun++;
    // No early-out on a latched fault: every group always runs, so RAM
    // contents, pagesAccessed and merged kernel statistics are the
    // same whether a fault in another group landed early or late.
    for (uint32_t g = s.begin; g < s.end; ++g) {
        if (traceBuf_) [[unlikely]] {
            uint64_t t0 = trace::nowNs();
            runGroup(g);
            traceBuf_->span("workgroup", "exec", t0, "group", g);
        } else {
            runGroup(g);
        }
        sched_.groupsRun++;
    }
}

void
WorkgroupExecutor::runUntilDone()
{
    SliceDeque *deques = job_->deques;
    const unsigned n = job_->numWorkers;
    GroupSlice s;
    for (;;) {
        // Drain our own queue first (newest slice: best locality).
        if (deques[index_].pop(s)) {
            runSlice(s);
            continue;
        }
        // Own queue empty: scan the other workers' queues for a steal
        // (the oldest slice: the one its owner would reach last).
        bool got = false;
        for (unsigned i = 1; i < n && !got; ++i) {
            unsigned victim = (index_ + i) % n;
            sched_.stealAttempts++;
            got = deques[victim].steal(s) == SliceDeque::Steal::Got;
        }
        // A scan that finds every queue empty proves no unclaimed work
        // remains: in-flight slices are finished by whoever claimed
        // them, and nobody pushes after job start.
        if (!got)
            break;
        sched_.steals++;
        if (traceBuf_) [[unlikely]]
            traceBuf_->instant("steal", "sched", "groups", s.end - s.begin);
        runSlice(s);
    }
    if (traceBuf_) [[unlikely]]
        traceBuf_->span("worker_exec", "exec", jobStartTs_, "groups",
                        sched_.groupsRun);
}

} // namespace bifsim::gpu

#include "gpu/shader_core.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/bits.h"
#include "common/logging.h"
#include "trace/trace.h"

namespace bifsim::gpu {

using bif::Op;

/** CFG node id used for thread exit (Ret). */
constexpr uint32_t kCfgExitNode = 0xffffffffu;

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
    s.hasCf.resize(nc, 0);
    s.uopStart.reserve(nc + 1);

    for (size_t c = 0; c < nc; ++c) {
        s.uopStart.push_back(static_cast<uint32_t>(s.uops.size()));
        for (const bif::Tuple &t : s.mod.clauses[c].tuples) {
            for (const bif::Instr &in : t.slot) {
                if (in.op == Op::Nop)
                    continue;
                if (in.op == Op::Barrier)
                    s.isBarrier[c] = 1;
                if (bif::category(in.op) == bif::Category::ControlFlow)
                    s.hasCf[c] = 1;

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
    faulted.store(true, std::memory_order_release);
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

inline bool
compare(bif::CmpMode m, int cmp)
{
    switch (m) {
      case bif::CmpMode::Eq: return cmp == 0;
      case bif::CmpMode::Ne: return cmp != 0;
      case bif::CmpMode::Lt: return cmp < 0;
      case bif::CmpMode::Le: return cmp <= 0;
      case bif::CmpMode::Gt: return cmp > 0;
      case bif::CmpMode::Ge: return cmp >= 0;
    }
    return false;
}

inline int
cmp3(float a, float b)
{
    // NaN compares unordered: all relations false except Ne.
    if (std::isnan(a) || std::isnan(b))
        return 2;   // Neither <0, ==0 nor >0-compatible: see compare use.
    return a < b ? -1 : a > b ? 1 : 0;
}

} // namespace

void
WorkgroupExecutor::notePage(uint32_t vpn)
{
    // Streams of accesses hit the same page; dedupe against the last
    // insert so the hash-set update leaves the per-access path.
    if (vpn != lastPageIns_) {
        coll_.pages.insert(vpn);
        lastPageIns_ = vpn;
    }
}

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
        tlb_.lastPageHits++;
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
    }
    if (job_->collect)
        notePage(vpn);
    if (uint8_t *host = e->host) [[likely]] {
        host += va & (kGpuPageBytes - 1);
        if (write) {
            if (size == 1)
                *host = static_cast<uint8_t>(val);
            else
                std::memcpy(host, &val, 4);
        } else {
            if (size == 1)
                val = *host;
            else
                std::memcpy(&val, host, 4);
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
        tlb_.lastPageHits++;
    } else {
        e = job_->mmu->lookup(va, true, tlb_);
        if (!e) {
            raiseFault(JobFaultKind::MmuFault, va,
                       "atomic translation fault");
            return nullptr;
        }
    }
    if (job_->collect)
        notePage(vpn);
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

bool
WorkgroupExecutor::commitClause(Warp &warp, uint32_t c, uint32_t mask,
                                bool has_cf, const uint32_t *next_pc,
                                const bool *exits)
{
    // Commit thread PCs and record divergence (paper §IV-C: PCs are
    // tracked on clause boundaries).
    unsigned active = 0;
    uint32_t first_next = 0;
    bool divergent = false;
    bool first = true;
    for (unsigned t = 0; t < warp.numThreads; ++t) {
        if (!(mask & (1u << t)))
            continue;
        active++;
        Thread &th = warp.threads[t];
        uint32_t nxt = exits[t] ? kCfgExitNode : next_pc[t];
        if (first) {
            first_next = nxt;
            first = false;
        } else if (nxt != first_next) {
            divergent = true;
        }
        if (exits[t])
            th.done = true;
        else
            th.pc = next_pc[t];
        if (job_->collect && has_cf)
            coll_.kernel.cfgEdges[cfgEdgeKey(c, nxt)]++;
    }
    if (job_->collect) {
        groupExec_[c] += active;
        if (divergent)
            coll_.kernel.divergentBranches++;
    }
    return true;
}

bool
WorkgroupExecutor::execClause(Warp &warp, uint32_t c, uint32_t mask)
{
    const DecodedShader &sh = *job_->shader;
    const MicroOp *u = sh.uops.data() + sh.uopStart[c];
    const MicroOp *uend = sh.uops.data() + sh.uopStart[c + 1];
    const uint32_t *rom = sh.mod.rom.data();
    const uint32_t *args = job_->args;

    uint32_t next_pc[bif::kWarpWidth];
    bool exits[bif::kWarpWidth] = {};
    for (unsigned t = 0; t < warp.numThreads; ++t)
        next_pc[t] = c + 1;

    for (; u != uend; ++u) {
        for (unsigned t = 0; t < warp.numThreads; ++t) {
            if (!(mask & (1u << t)))
                continue;
            Thread &th = warp.threads[t];
            uint32_t a = th.reg[u->src0];
            uint32_t b = th.reg[u->src1];
            uint32_t cc = th.reg[u->src2];
            uint32_t r = 0;
            switch (u->op) {
              case Op::FAdd: r = asU(asF(a) + asF(b)); break;
              case Op::FSub: r = asU(asF(a) - asF(b)); break;
              case Op::FMul: r = asU(asF(a) * asF(b)); break;
              case Op::FFma:
                r = asU(asF(a) * asF(b) + asF(cc));
                break;
              case Op::FMin: r = asU(std::fmin(asF(a), asF(b))); break;
              case Op::FMax: r = asU(std::fmax(asF(a), asF(b))); break;
              case Op::FAbs: r = asU(std::fabs(asF(a))); break;
              case Op::FNeg: r = asU(-asF(a)); break;
              case Op::FFloor: r = asU(std::floor(asF(a))); break;
              case Op::IAdd: r = a + b; break;
              case Op::ISub: r = a - b; break;
              case Op::IMul: r = a * b; break;
              case Op::IAnd: r = a & b; break;
              case Op::IOr:  r = a | b; break;
              case Op::IXor: r = a ^ b; break;
              case Op::INot: r = ~a; break;
              case Op::IShl: r = a << (b & 31); break;
              case Op::IShr: r = a >> (b & 31); break;
              case Op::IAsr:
                r = static_cast<uint32_t>(
                    static_cast<int32_t>(a) >> (b & 31));
                break;
              case Op::IMin:
                r = static_cast<int32_t>(a) < static_cast<int32_t>(b)
                        ? a : b;
                break;
              case Op::IMax:
                r = static_cast<int32_t>(a) > static_cast<int32_t>(b)
                        ? a : b;
                break;
              case Op::UMin: r = a < b ? a : b; break;
              case Op::UMax: r = a > b ? a : b; break;
              case Op::FCmp: {
                int q = cmp3(asF(a), asF(b));
                bif::CmpMode m = static_cast<bif::CmpMode>(u->imm & 7);
                bool res = q == 2 ? m == bif::CmpMode::Ne
                                  : compare(m, q);
                r = res ? 1 : 0;
                break;
              }
              case Op::ICmp: {
                int32_t sa = static_cast<int32_t>(a);
                int32_t sb = static_cast<int32_t>(b);
                int q = sa < sb ? -1 : sa > sb ? 1 : 0;
                r = compare(static_cast<bif::CmpMode>(u->imm & 7), q);
                break;
              }
              case Op::UCmp: {
                int q = a < b ? -1 : a > b ? 1 : 0;
                r = compare(static_cast<bif::CmpMode>(u->imm & 7), q);
                break;
              }
              case Op::CSel: r = a != 0 ? b : cc; break;
              case Op::Mov: r = a; break;
              case Op::MovImm: r = static_cast<uint32_t>(u->imm); break;
              case Op::F2I: r = saturatingF2I(asF(a)); break;
              case Op::F2U: r = saturatingF2U(asF(a)); break;
              case Op::I2F:
                r = asU(static_cast<float>(static_cast<int32_t>(a)));
                break;
              case Op::U2F: r = asU(static_cast<float>(a)); break;
              case Op::FRcp: r = asU(1.0f / asF(a)); break;
              case Op::FRsqrt:
                r = asU(1.0f / std::sqrt(asF(a)));
                break;
              case Op::FSqrt: r = asU(std::sqrt(asF(a))); break;
              case Op::FExp2: r = asU(std::exp2(asF(a))); break;
              case Op::FLog2: r = asU(std::log2(asF(a))); break;
              case Op::FSin: r = asU(std::sin(asF(a))); break;
              case Op::FCos: r = asU(std::cos(asF(a))); break;
              case Op::IDiv: {
                int32_t sa = static_cast<int32_t>(a);
                int32_t sb = static_cast<int32_t>(b);
                if (sb == 0)
                    r = 0;
                else if (sa == std::numeric_limits<int32_t>::min() &&
                         sb == -1)
                    r = a;
                else
                    r = static_cast<uint32_t>(sa / sb);
                break;
              }
              case Op::IRem: {
                int32_t sa = static_cast<int32_t>(a);
                int32_t sb = static_cast<int32_t>(b);
                if (sb == 0)
                    r = 0;
                else if (sa == std::numeric_limits<int32_t>::min() &&
                         sb == -1)
                    r = 0;
                else
                    r = static_cast<uint32_t>(sa % sb);
                break;
              }
              case Op::UDiv: r = b ? a / b : 0; break;
              case Op::URem: r = b ? a % b : 0; break;
              case Op::LdRom:
                r = rom[u->imm];   // Pre-range-checked at decode.
                break;
              case Op::LdArg:
                r = args[u->imm];  // Pre-wrapped at decode.
                break;
              case Op::LdGlobal:
                if (!memAccess(a + u->imm, 4, false, r)) [[unlikely]]
                    return false;
                break;
              case Op::LdGlobalU8:
                if (!memAccess(a + u->imm, 1, false, r)) [[unlikely]]
                    return false;
                break;
              case Op::StGlobal:
                if (!memAccess(a + u->imm, 4, true, b)) [[unlikely]]
                    return false;
                break;
              case Op::StGlobalU8:
                if (!memAccess(a + u->imm, 1, true, b)) [[unlikely]]
                    return false;
                break;
              case Op::LdLocal:
                if (!localAccess(a + u->imm, false, r)) [[unlikely]]
                    return false;
                break;
              case Op::StLocal:
                if (!localAccess(a + u->imm, true, b)) [[unlikely]]
                    return false;
                break;
              case Op::AtomAddG: {
                uint32_t *p = atomicHostPtr(a + u->imm);
                if (!p) [[unlikely]]
                    return false;
                r = __atomic_fetch_add(p, b, __ATOMIC_SEQ_CST);
                break;
              }
              case Op::AtomAddL: {
                uint32_t off = a + u->imm;
                uint32_t old = 0;
                if (!localAccess(off, false, old))
                    return false;
                uint32_t nv = old + b;
                if (!localAccess(off, true, nv))
                    return false;
                r = old;
                break;
              }
              case Op::Branch:
                next_pc[t] = static_cast<uint32_t>(u->imm);
                break;
              case Op::BranchZ:
                if (a == 0)
                    next_pc[t] = static_cast<uint32_t>(u->imm);
                break;
              case Op::BranchNZ:
                if (a != 0)
                    next_pc[t] = static_cast<uint32_t>(u->imm);
                break;
              case Op::Ret:
                exits[t] = true;
                break;
              case Op::Barrier:
                // Handled at warp level (barrier clauses are alone).
                break;
              default:
                break;
            }
            // Destinations are pre-resolved: non-writing ops target the
            // sink slot, so the commit is a branch-free indexed store.
            th.reg[u->dst] = r;
        }
    }

    return commitClause(warp, c, mask, sh.hasCf[c] != 0, next_pc, exits);
}

WorkgroupExecutor::WarpStop
WorkgroupExecutor::runWarp(Warp &warp)
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

        uint32_t minpc = kCfgExitNode;
        unsigned alive = 0;
        for (unsigned t = 0; t < warp.numThreads; ++t) {
            const Thread &th = warp.threads[t];
            if (th.done)
                continue;
            alive++;
            if (th.pc < minpc)
                minpc = th.pc;
        }
        if (alive == 0)
            return WarpStop::Done;
        if (minpc >= job_->shader->mod.clauses.size()) {
            // Fell off the end of the shader: threads terminate.
            for (unsigned t = 0; t < warp.numThreads; ++t)
                warp.threads[t].done = true;
            return WarpStop::Done;
        }

        if (job_->shader->isBarrier[minpc]) {
            // All live threads must arrive together.
            for (unsigned t = 0; t < warp.numThreads; ++t) {
                const Thread &th = warp.threads[t];
                if (!th.done && th.pc != minpc) {
                    raiseFault(JobFaultKind::DivergentBarrier,
                                     minpc, "divergent barrier");
                    return WarpStop::Fault;
                }
            }
            for (unsigned t = 0; t < warp.numThreads; ++t) {
                if (!warp.threads[t].done)
                    warp.threads[t].pc = minpc + 1;
            }
            if (job_->collect) {
                groupExec_[minpc] += alive;
            }
            warp.atBarrier = true;
            return WarpStop::Barrier;
        }

        uint32_t mask = 0;
        for (unsigned t = 0; t < warp.numThreads; ++t) {
            const Thread &th = warp.threads[t];
            if (!th.done && th.pc == minpc)
                mask |= 1u << t;
        }
        if (!execClause(warp, minpc, mask))
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
    if (traceBuf_) {
        jobStartTs_ = trace::nowNs();
        groupsRun_ = 0;
    }
    // Epoch-based shootdown: the device bumps the MMU epoch at job
    // boundaries (and on AS_COMMAND); stale worker TLBs flush here.
    tlb_.syncEpoch(*job->mmu);
    tlb_.lastPageHits = 0;
    tlb_.arrayHits = 0;
    tlb_.walks = 0;
    lastPageIns_ = 0xffffffffu;
    sched_ = SchedStats{};
    // Resolve the shader through the worker's private L1 so steady-state
    // jobs touch no shared cache line (not even a refcount).  The pin
    // keeps the image alive even if the L2 is invalidated mid-job.
    shaderRef_.reset();
    if (job->shaderCache) {
        uint64_t fills_before = shaderL1_.l2Fills;
        shaderRef_ = shaderL1_.get(*job->shaderCache, job->desc.binaryVa);
        if (shaderRef_) {
            if (shaderL1_.l2Fills != fills_before)
                sched_.shaderL2Fills++;
            else
                sched_.shaderL1Hits++;
        }
    }
    if (shaderRef_.get() != job->shader)
        shaderRef_ = job->shaderRef;   // Cache raced an invalidation;
                                       // the context's pin is canonical.
    size_t num_clauses = job->shader->mod.clauses.size();
    coll_.reset(num_clauses);
    groupExec_.assign(num_clauses, 0);
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
    w.numThreads =
        std::min<uint32_t>(kWarpWidth, group_threads - base_tid);
    w.atBarrier = false;
    for (unsigned t = 0; t < w.numThreads; ++t) {
        Thread &th = w.threads[t];
        std::memset(th.reg, 0, sizeof(th.reg));
        uint32_t tid = base_tid + t;
        // Specials live in the unified register file, preloaded once per
        // warp so the execute loop reads them like any register.
        th.reg[kSrLaneId] = tid % kWarpWidth;
        th.reg[kSrLocalIdX] = tid % d.wg[0];
        th.reg[kSrLocalIdY] = (tid / d.wg[0]) % d.wg[1];
        th.reg[kSrLocalIdZ] = tid / (d.wg[0] * d.wg[1]);
        th.reg[kSrGroupIdX] = groupId_[0];
        th.reg[kSrGroupIdY] = groupId_[1];
        th.reg[kSrGroupIdZ] = groupId_[2];
        th.reg[kSrLocalSizeX] = d.wg[0];
        th.reg[kSrLocalSizeY] = d.wg[1];
        th.reg[kSrLocalSizeZ] = d.wg[2];
        th.reg[kSrGridSizeX] = d.grid[0];
        th.reg[kSrGridSizeY] = d.grid[1];
        th.reg[kSrGridSizeZ] = d.grid[2];
        th.reg[kSrNumGroupsX] = job_->groups[0];
        th.reg[kSrNumGroupsY] = job_->groups[1];
        th.reg[kSrNumGroupsZ] = job_->groups[2];
        th.pc = 0;
        th.done = false;
    }
}

void
WorkgroupExecutor::foldGroupExec()
{
    // Lazy instrumentation fold (paper §IV-A): once per workgroup, not
    // per clause.
    for (size_t c = 0; c < groupExec_.size(); ++c) {
        if (groupExec_[c]) {
            coll_.clauseExec[c] += groupExec_[c];
            groupExec_[c] = 0;
        }
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

    coll_.kernel.workgroups++;
    coll_.kernel.warpsLaunched += num_warps;
    coll_.kernel.threadsLaunched += group_threads;

    if (!job_->shader->anyBarrier) {
        Warp w;
        for (uint32_t wi = 0; wi < num_warps; ++wi) {
            initWarp(w, wi, group_threads);
            if (runWarp(w) == WarpStop::Fault) {
                foldGroupExec();
                return;
            }
        }
        foldGroupExec();
        return;
    }

    // Barrier path: all warps of the group live simultaneously.
    std::vector<Warp> warps(num_warps);
    for (uint32_t wi = 0; wi < num_warps; ++wi)
        initWarp(warps[wi], wi, group_threads);

    for (;;) {
        bool all_done = true;
        bool any_barrier = false;
        for (Warp &w : warps) {
            bool done = true;
            for (unsigned t = 0; t < w.numThreads; ++t)
                done &= w.threads[t].done;
            if (done)
                continue;
            all_done = false;
            if (w.atBarrier) {
                any_barrier = true;
                continue;
            }
            WarpStop s = runWarp(w);
            if (s == WarpStop::Fault) {
                foldGroupExec();
                return;
            }
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
    foldGroupExec();
}

void
WorkgroupExecutor::runSlice(const GroupSlice &s)
{
    sched_.slicesRun++;
    // No early-out on job_->faulted: every group always runs, so RAM
    // contents, pagesAccessed and merged kernel statistics are the
    // same whether a fault in another group landed early or late.
    for (uint32_t g = s.begin; g < s.end; ++g) {
        if (traceBuf_) [[unlikely]] {
            uint64_t t0 = trace::nowNs();
            runGroup(g);
            groupsRun_++;
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
        // Drain our own deque first (LIFO pop: best locality).
        if (deques[index_].pop(s)) {
            runSlice(s);
            continue;
        }
        // Own deque empty: scan the other workers' deques for a steal
        // (FIFO from the top — the slices their owner will reach last).
        bool lost_race = false;
        bool got = false;
        for (unsigned i = 1; i < n && !got; ++i) {
            unsigned victim = (index_ + i) % n;
            sched_.stealAttempts++;
            switch (deques[victim].steal(s)) {
              case SliceDeque::Steal::Got:
                got = true;
                break;
              case SliceDeque::Steal::Lost:
                lost_race = true;
                break;
              case SliceDeque::Steal::Empty:
                break;
            }
        }
        if (got) {
            sched_.steals++;
            if (traceBuf_) [[unlikely]]
                traceBuf_->instant("steal", "sched", "groups",
                                   s.end - s.begin);
            runSlice(s);
            continue;
        }
        // A clean scan (every deque Empty, no lost races) proves no
        // unclaimed work remains: in-flight slices are finished by
        // whoever claimed them, and nobody pushes after job start.
        if (!lost_race)
            return;
    }
}

void
WorkgroupExecutor::finalize()
{
    if (traceBuf_ && job_)
        traceBuf_->span("worker_exec", "exec", jobStartTs_, "groups",
                        groupsRun_);
    if (!job_ || !job_->collect)
        return;
    const std::vector<ClauseStaticInfo> &info = job_->shader->info;
    KernelStats &k = coll_.kernel;
    for (size_t c = 0; c < coll_.clauseExec.size(); ++c) {
        uint64_t n = coll_.clauseExec[c];
        if (!n)
            continue;
        const ClauseStaticInfo &ci = info[c];
        k.arithInstrs += ci.arith * n;
        k.lsInstrs += ci.ls * n;
        k.cfInstrs += ci.cf * n;
        k.nopSlots += ci.nop * n;
        k.grfReads += ci.grfReads * n;
        k.grfWrites += ci.grfWrites * n;
        k.tempAccesses += (ci.tempReads + ci.tempWrites) * n;
        k.constReads += ci.constReads * n;
        k.romReads += ci.romReads * n;
        k.globalLdSt += (ci.globalLd + ci.globalSt) * n;
        k.localLdSt += (ci.localLd + ci.localSt) * n;
        k.clausesExecuted += n;
        k.clauseSizes.sample(ci.sizeTuples, n);
    }
}

} // namespace bifsim::gpu

#include "gpu/ref/ref_interp.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "common/logging.h"

namespace bifsim::gpu::ref {

namespace {

using bif::Op;

/** Largest workgroup launch() accepts (the Job Manager's limit). */
constexpr uint64_t kMaxGroupItems = 1024;

/** One work-item's architectural state. */
struct Item
{
    uint32_t grf[bif::kNumGrfRegs] = {};
    uint32_t temp[bif::kNumTempRegs] = {};
    uint32_t localId[3] = {0, 0, 0};
    uint32_t laneId = 0;
    uint32_t pc = 0;          ///< Clause index.
    uint64_t executed = 0;    ///< Non-Nop instructions run so far.
    bool done = false;
};

float
asF(uint32_t u)
{
    return std::bit_cast<float>(u);
}

uint32_t
asU(float f)
{
    return std::bit_cast<uint32_t>(f);
}

bool
cmpResult(bif::CmpMode m, bool unordered, int q)
{
    if (unordered)
        return m == bif::CmpMode::Ne;
    switch (m) {
      case bif::CmpMode::Eq: return q == 0;
      case bif::CmpMode::Ne: return q != 0;
      case bif::CmpMode::Lt: return q < 0;
      case bif::CmpMode::Le: return q <= 0;
      case bif::CmpMode::Gt: return q > 0;
      case bif::CmpMode::Ge: return q >= 0;
    }
    return false;
}

/** The non-Nop instructions of @p cl, by category. */
LaunchStats
clauseMix(const bif::Clause &cl)
{
    LaunchStats m;
    for (const bif::Tuple &tp : cl.tuples) {
        for (const bif::Instr &in : tp.slot) {
            switch (bif::category(in.op)) {
              case bif::Category::Arith: m.arith++; break;
              case bif::Category::LoadStore: m.loadStore++; break;
              case bif::Category::ControlFlow: m.controlFlow++; break;
              case bif::Category::Nop: continue;
            }
            m.instructions++;
        }
    }
    return m;
}

/**
 * The interpreter over one module and the context its work-items
 * share (sizes, group id, arguments, memories).  Work-item ids live in
 * each Item.
 */
template <Fetch F>
class Machine
{
  public:
    Machine(const bif::Module &mod, const RefContext &ctx, uint64_t budget,
            LaunchStats *stats, std::vector<std::string> *trace)
        : mod_(mod), ctx_(ctx), budget_(budget), stats_(stats),
          trace_(trace)
    {
        for (const bif::Clause &cl : mod.clauses) {
            if (stats)
                mix_.push_back(clauseMix(cl));
            if constexpr (F == Fetch::Redecode) {
                // Keep each slot's word as the binary encodes it;
                // runPhase() decodes it again on every execution.
                first_.push_back(words_.size());
                for (const bif::Tuple &tp : cl.tuples)
                    for (const bif::Instr &in : tp.slot)
                        words_.push_back(in.encode());
            }
        }
    }

    /**
     * Runs @p it up to and including its next barrier clause, or to
     * its end.  Returns false on a fault (message in error).  The
     * work-item aliases nothing else the interpreter touches; saying
     * so (__restrict) spares a reload of its registers after every
     * store to statistics or memory.
     */
    bool runPhase(Item &__restrict it);

    std::string error;

  private:
    // readOp() and mem() are defined here, in the class, so that they
    // inline into runPhase()'s loop.
    uint32_t
    readOp(const Item &it, uint8_t o) const
    {
        using namespace bif;
        if (isGrf(o))
            return it.grf[o];
        if (isTemp(o))
            return it.temp[o - kOperandTemp0];
        switch (o) {
          case kSrLaneId: return it.laneId;
          case kSrLocalIdX: return it.localId[0];
          case kSrLocalIdY: return it.localId[1];
          case kSrLocalIdZ: return it.localId[2];
          case kSrGroupIdX: return ctx_.groupId[0];
          case kSrGroupIdY: return ctx_.groupId[1];
          case kSrGroupIdZ: return ctx_.groupId[2];
          case kSrLocalSizeX: return ctx_.localSize[0];
          case kSrLocalSizeY: return ctx_.localSize[1];
          case kSrLocalSizeZ: return ctx_.localSize[2];
          case kSrGridSizeX: return ctx_.gridSize[0];
          case kSrGridSizeY: return ctx_.gridSize[1];
          case kSrGridSizeZ: return ctx_.gridSize[2];
          case kSrNumGroupsX: return ctx_.numGroups[0];
          case kSrNumGroupsY: return ctx_.numGroups[1];
          case kSrNumGroupsZ: return ctx_.numGroups[2];
          default: return 0;   // kSrZero and unused encodings.
        }
    }

    bool
    mem(std::vector<uint8_t> *m, uint32_t addr, unsigned size,
        bool write, uint32_t &val, const char *what)
    {
        if (!m || addr % size != 0 ||
            static_cast<uint64_t>(addr) + size > m->size()) {
            error = strfmt("%s access out of range at 0x%x", what, addr);
            return false;
        }
        if (write) {
            std::memcpy(m->data() + addr, &val, size);
        } else {
            val = 0;
            std::memcpy(&val, m->data() + addr, size);
        }
        return true;
    }

    const bif::Module &mod_;
    const RefContext &ctx_;
    const uint64_t budget_;
    LaunchStats *const stats_;      ///< Null (runThread): no counts.
    std::vector<std::string> *trace_;
    std::vector<LaunchStats> mix_;  ///< Per clause: clauseMix().
    std::vector<uint64_t> words_;   ///< Redecode: all slot words.
    std::vector<size_t> first_;     ///< Redecode: clause's first word.
};

/** The one switch over bif::Op. */
template <Fetch F>
bool
Machine<F>::runPhase(Item &__restrict it)
{
    std::vector<uint8_t> *const gm = ctx_.globalMem;
    std::vector<uint8_t> *const lm = ctx_.localMem;
    while (!it.done && it.pc < mod_.clauses.size()) {
        const bif::Clause &cl = mod_.clauses[it.pc];
        if (stats_) {
            const LaunchStats &mix = mix_[it.pc];
            stats_->instructions += mix.instructions;
            stats_->arith += mix.arith;
            stats_->loadStore += mix.loadStore;
            stats_->controlFlow += mix.controlFlow;
            if constexpr (F == Fetch::Redecode)
                stats_->slotDecodes += 2 * cl.tuples.size();
        }
        uint32_t next = it.pc + 1;
        bool barrier = false;
        for (size_t s = 0; s < cl.tuples.size() * 2; ++s) {
            bif::Instr in;
            if constexpr (F == Fetch::Redecode) {
                in = bif::Instr::decode(words_[first_[it.pc] + s]);
            } else {
                in = cl.tuples[s / 2].slot[s % 2];
            }
            if (in.op == Op::Nop)
                continue;
            if (++it.executed > budget_) {
                error = "instruction budget exceeded";
                return false;
            }
            if (trace_)
                trace_->push_back(bif::disassemble(in));

            uint32_t a = readOp(it, in.src0);
            uint32_t b = readOp(it, in.src1);
            uint32_t c = readOp(it, in.src2);
            uint32_t addr = a + static_cast<uint32_t>(in.imm);
            uint32_t r = 0;

            switch (in.op) {
              case Op::FAdd: r = asU(asF(a) + asF(b)); break;
              case Op::FSub: r = asU(asF(a) - asF(b)); break;
              case Op::FMul: r = asU(asF(a) * asF(b)); break;
              case Op::FFma: r = asU(asF(a) * asF(b) + asF(c)); break;
              case Op::FMin: r = asU(std::fmin(asF(a), asF(b))); break;
              case Op::FMax: r = asU(std::fmax(asF(a), asF(b))); break;
              case Op::FAbs: r = asU(std::fabs(asF(a))); break;
              case Op::FNeg: r = asU(-asF(a)); break;
              case Op::FFloor: r = asU(std::floor(asF(a))); break;
              case Op::IAdd: r = a + b; break;
              case Op::ISub: r = a - b; break;
              case Op::IMul: r = a * b; break;
              case Op::IAnd: r = a & b; break;
              case Op::IOr: r = a | b; break;
              case Op::IXor: r = a ^ b; break;
              case Op::INot: r = ~a; break;
              case Op::IShl: r = a << (b & 31); break;
              case Op::IShr: r = a >> (b & 31); break;
              case Op::IAsr:
                r = static_cast<uint32_t>(static_cast<int32_t>(a) >>
                                          (b & 31));
                break;
              case Op::IMin:
                r = static_cast<int32_t>(a) < static_cast<int32_t>(b) ? a
                                                                      : b;
                break;
              case Op::IMax:
                r = static_cast<int32_t>(a) > static_cast<int32_t>(b) ? a
                                                                      : b;
                break;
              case Op::UMin: r = std::min(a, b); break;
              case Op::UMax: r = std::max(a, b); break;
              case Op::FCmp: {
                float fa = asF(a), fb = asF(b);
                bool un = std::isnan(fa) || std::isnan(fb);
                int q = un ? 0 : fa < fb ? -1 : fa > fb ? 1 : 0;
                r = cmpResult(static_cast<bif::CmpMode>(in.imm & 7), un,
                              q);
                break;
              }
              case Op::ICmp: {
                int32_t sa = static_cast<int32_t>(a);
                int32_t sb = static_cast<int32_t>(b);
                r = cmpResult(static_cast<bif::CmpMode>(in.imm & 7), false,
                              sa < sb ? -1 : sa > sb ? 1 : 0);
                break;
              }
              case Op::UCmp:
                r = cmpResult(static_cast<bif::CmpMode>(in.imm & 7), false,
                              a < b ? -1 : a > b ? 1 : 0);
                break;
              case Op::CSel: r = a != 0 ? b : c; break;
              case Op::Mov: r = a; break;
              case Op::MovImm: r = static_cast<uint32_t>(in.imm); break;
              case Op::F2I: {
                float f = asF(a);
                if (std::isnan(f))
                    r = 0;
                else if (f >= 2147483647.0f)
                    r = 0x7fffffffu;
                else if (f <= -2147483648.0f)
                    r = 0x80000000u;
                else
                    r = static_cast<uint32_t>(static_cast<int32_t>(f));
                break;
              }
              case Op::F2U: {
                float f = asF(a);
                if (std::isnan(f) || f <= 0.0f)
                    r = 0;
                else if (f >= 4294967295.0f)
                    r = 0xffffffffu;
                else
                    r = static_cast<uint32_t>(f);
                break;
              }
              case Op::I2F:
                r = asU(static_cast<float>(static_cast<int32_t>(a)));
                break;
              case Op::U2F: r = asU(static_cast<float>(a)); break;
              case Op::FRcp: r = asU(1.0f / asF(a)); break;
              case Op::FRsqrt: r = asU(1.0f / std::sqrt(asF(a))); break;
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
                if (sb == 0 ||
                    (sa == std::numeric_limits<int32_t>::min() && sb == -1))
                    r = 0;
                else
                    r = static_cast<uint32_t>(sa % sb);
                break;
              }
              case Op::UDiv: r = b ? a / b : 0; break;
              case Op::URem: r = b ? a % b : 0; break;
              case Op::LdRom:
                r = static_cast<size_t>(in.imm) < mod_.rom.size()
                        ? mod_.rom[in.imm] : 0;
                break;
              case Op::LdArg:
                r = static_cast<size_t>(in.imm) < ctx_.args.size()
                        ? ctx_.args[in.imm] : 0;
                break;
              case Op::LdGlobal:
                if (!mem(gm, addr, 4, false, r, "global"))
                    return false;
                break;
              case Op::LdGlobalU8:
                if (!mem(gm, addr, 1, false, r, "global"))
                    return false;
                break;
              case Op::StGlobal:
                if (!mem(gm, addr, 4, true, b, "global"))
                    return false;
                continue;
              case Op::StGlobalU8: {
                uint32_t v = b & 0xff;
                if (!mem(gm, addr, 1, true, v, "global"))
                    return false;
                continue;
              }
              case Op::LdLocal:
                if (!mem(lm, addr, 4, false, r, "local"))
                    return false;
                break;
              case Op::StLocal:
                if (!mem(lm, addr, 4, true, b, "local"))
                    return false;
                continue;
              case Op::AtomAddG:
              case Op::AtomAddL: {
                std::vector<uint8_t> *m = in.op == Op::AtomAddG ? gm : lm;
                const char *what =
                    in.op == Op::AtomAddG ? "global" : "local";
                if (!mem(m, addr, 4, false, r, what))
                    return false;
                uint32_t sum = r + b;
                if (!mem(m, addr, 4, true, sum, what))
                    return false;
                break;
              }
              case Op::Branch:
                next = static_cast<uint32_t>(in.imm);
                continue;
              case Op::BranchZ:
                if (a == 0)
                    next = static_cast<uint32_t>(in.imm);
                continue;
              case Op::BranchNZ:
                if (a != 0)
                    next = static_cast<uint32_t>(in.imm);
                continue;
              case Op::Barrier:
                barrier = true;
                continue;
              case Op::Ret:
                it.done = true;
                continue;
              default:
                continue;
            }
            if (bif::isGrf(in.dst))
                it.grf[in.dst] = r;
            else if (bif::isTemp(in.dst))
                it.temp[in.dst - bif::kOperandTemp0] = r;
        }
        it.pc = next;
        if (barrier)
            return true;   // Phase boundary.
    }
    it.done = true;   // Ret, or fell off the end.
    return true;
}

} // namespace

RefResult
runThread(const bif::Module &mod, const RefContext &ctx, bool trace,
          uint64_t max_instrs)
{
    RefResult res;
    std::string verr = bif::validate(mod);
    if (!verr.empty()) {
        res.ok = false;
        res.error = "invalid module: " + verr;
        return res;
    }
    Machine<Fetch::Decoded> m(mod, ctx, max_instrs, nullptr,
                              trace ? &res.trace : nullptr);
    Item it;
    std::copy(ctx.localId, ctx.localId + 3, it.localId);
    it.laneId = ctx.laneId;
    // A lone work-item passes every barrier: each ends a phase only.
    while (res.ok && !it.done)
        res.ok = m.runPhase(it);
    res.error = m.error;
    res.executedInstrs = it.executed;
    std::memcpy(res.grf, it.grf, sizeof(res.grf));
    return res;
}

template <Fetch F>
bool
launch(const std::vector<uint8_t> &binary, const uint32_t grid[3],
       const uint32_t wg[3], const std::vector<uint32_t> &args,
       std::vector<uint8_t> &global, LaunchStats &stats,
       std::string &error)
{
    bif::Module mod;
    if (!bif::decode(binary.data(), binary.size(), mod, error)) {
        error = "bad shader binary: " + error;
        return false;
    }
    RefContext ctx;
    // The group size is bounded after every factor: even in 64 bits the
    // full product of three guest dimensions can wrap to 0.
    uint64_t group_items = 1;
    for (int d = 0; d < 3; ++d) {
        if (wg[d] == 0 || grid[d] == 0 || grid[d] % wg[d] != 0) {
            error = "bad dimensions";
            return false;
        }
        group_items *= wg[d];
        if (group_items > kMaxGroupItems) {
            error = strfmt("bad dimensions: over %llu work-items per group",
                           static_cast<unsigned long long>(kMaxGroupItems));
            return false;
        }
        ctx.localSize[d] = wg[d];
        ctx.gridSize[d] = grid[d];
        ctx.numGroups[d] = grid[d] / wg[d];
    }
    std::vector<uint8_t> local(mod.localBytes);
    ctx.args = args;
    ctx.globalMem = &global;
    ctx.localMem = &local;
    Machine<F> m(mod, ctx, kThreadBudget, &stats, nullptr);
    std::vector<Item> items;

    for (uint32_t gz = 0; gz < ctx.numGroups[2]; ++gz)
    for (uint32_t gy = 0; gy < ctx.numGroups[1]; ++gy)
    for (uint32_t gx = 0; gx < ctx.numGroups[0]; ++gx) {
        ctx.groupId[0] = gx;
        ctx.groupId[1] = gy;
        ctx.groupId[2] = gz;
        std::fill(local.begin(), local.end(), 0);
        items.assign(group_items, Item{});
        for (uint32_t t = 0; t < group_items; ++t) {
            items[t].localId[0] = t % wg[0];
            items[t].localId[1] = (t / wg[0]) % wg[1];
            items[t].localId[2] = t / (wg[0] * wg[1]);
            items[t].laneId = t % bif::kWarpWidth;
        }
        stats.workGroups++;
        stats.workItems += group_items;
        // Each phase runs every unfinished item up to its next barrier.
        for (bool running = true; running;) {
            running = false;
            for (uint32_t t = 0; t < group_items; ++t) {
                if (items[t].done)
                    continue;
                if (!m.runPhase(items[t])) {
                    error = strfmt("group (%u,%u,%u) work-item %u: %s",
                                   gx, gy, gz, t, m.error.c_str());
                    return false;
                }
                running |= !items[t].done;
            }
        }
    }
    return true;
}

template bool launch<Fetch::Decoded>(
    const std::vector<uint8_t> &, const uint32_t[3], const uint32_t[3],
    const std::vector<uint32_t> &, std::vector<uint8_t> &, LaunchStats &,
    std::string &);
template bool launch<Fetch::Redecode>(
    const std::vector<uint8_t> &, const uint32_t[3], const uint32_t[3],
    const std::vector<uint32_t> &, std::vector<uint8_t> &, LaunchStats &,
    std::string &);

} // namespace bifsim::gpu::ref

#include "kclc/schedule.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "common/logging.h"

namespace bifsim::kclc {

namespace {

using bif::Instr;
using bif::Op;
using bif::Tuple;

/** Converts an allocated LIR operand to a BIF operand byte. */
uint8_t
operandByte(const LOperand &o)
{
    switch (o.kind) {
      case LOperand::Kind::None:
        return bif::kOperandNone;
      case LOperand::Kind::VReg:
        if (o.idx >= bif::kNumGrfRegs)
            simError("kclc: unallocated vreg reached the scheduler");
        return static_cast<uint8_t>(o.idx);
      case LOperand::Kind::Special:
        return static_cast<uint8_t>(o.idx);
    }
    return bif::kOperandNone;
}

Instr
toInstr(const LInstr &in)
{
    Instr b;
    b.op = in.op;
    b.dst = in.dst == kNoVReg ? static_cast<uint8_t>(bif::kOperandNone)
                              : static_cast<uint8_t>(in.dst);
    b.src0 = operandByte(in.src[0]);
    b.src1 = operandByte(in.src[1]);
    b.src2 = operandByte(in.src[2]);
    b.imm = in.imm;
    return b;
}

/** Per-block GRF liveness on the allocated function. */
std::vector<std::set<uint8_t>>
grfLiveOut(const LFunc &f)
{
    size_t nb = f.blocks.size();
    std::vector<std::set<uint8_t>> use(nb), def(nb), in(nb), out(nb);
    for (size_t b = 0; b < nb; ++b) {
        for (const LInstr &i : f.blocks[b].instrs) {
            for (const LOperand &o : i.src) {
                if (o.kind == LOperand::Kind::VReg &&
                    !def[b].count(static_cast<uint8_t>(o.idx))) {
                    use[b].insert(static_cast<uint8_t>(o.idx));
                }
            }
            if (i.dst != kNoVReg)
                def[b].insert(static_cast<uint8_t>(i.dst));
        }
        const LBlock &blk = f.blocks[b];
        if (blk.term == TermKind::CondJump &&
            !def[b].count(static_cast<uint8_t>(blk.condVreg))) {
            use[b].insert(static_cast<uint8_t>(blk.condVreg));
        }
    }
    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t b = nb; b-- > 0;) {
            const LBlock &blk = f.blocks[b];
            std::set<uint8_t> o;
            auto succ = [&](uint32_t s) {
                if (s < nb)
                    o.insert(in[s].begin(), in[s].end());
            };
            if (blk.term == TermKind::Jump) {
                succ(blk.target0);
            } else if (blk.term == TermKind::CondJump) {
                succ(blk.target0);
                succ(blk.target1);
            }
            std::set<uint8_t> i2 = use[b];
            for (uint8_t v : o) {
                if (!def[b].count(v))
                    i2.insert(v);
            }
            if (o != out[b] || i2 != in[b]) {
                out[b] = std::move(o);
                in[b] = std::move(i2);
                changed = true;
            }
        }
    }
    return out;
}

/** The clause builder for one function. */
class Scheduler
{
  public:
    Scheduler(const LFunc &f, const ScheduleOptions &opts)
        : f_(f), opts_(opts)
    {
    }

    bif::Module
    run()
    {
        liveOut_ = grfLiveOut(f_);
        size_t nb = f_.blocks.size();
        blockFirst_.assign(nb + 1, 0);

        for (size_t b = 0; b < nb; ++b) {
            blockFirst_[b] = clauses_.size();
            curBlock_ = static_cast<uint32_t>(b);
            emitBlock(f_.blocks[b], b);
        }
        blockFirst_[nb] = clauses_.size();

        // Patch branch targets from block ids to clause indices.
        for (const Fixup &fx : fixups_) {
            Instr &in =
                clauses_[fx.clause].tuples[fx.tuple].slot[fx.slot];
            in.imm = static_cast<int32_t>(blockFirst_[fx.target]);
        }

        if (opts_.tempPromote)
            promoteTemps();

        bif::Module mod;
        mod.clauses.reserve(clauses_.size());
        for (BuiltClause &c : clauses_) {
            bif::Clause cl;
            cl.tuples = std::move(c.tuples);
            mod.clauses.push_back(std::move(cl));
        }
        mod.rom = f_.rom;
        mod.localBytes = f_.localBytes;
        mod.usesBarrier = f_.usesBarrier;
        uint32_t max_reg = 0;
        bool any_reg = false;
        for (const bif::Clause &cl : mod.clauses) {
            for (const Tuple &t : cl.tuples) {
                for (const Instr &in : t.slot) {
                    for (uint8_t r : {in.dst, in.src0, in.src1, in.src2}) {
                        if (bif::isGrf(r) &&
                            !(in.op == Op::Nop)) {
                            max_reg = std::max<uint32_t>(max_reg, r);
                            any_reg = true;
                        }
                    }
                }
            }
        }
        mod.regCount = any_reg ? max_reg + 1 : 0;
        return mod;
    }

  private:
    struct BuiltClause
    {
        std::vector<Tuple> tuples;
        uint32_t block = 0;   ///< Owning basic block.
    };

    struct Fixup
    {
        size_t clause;
        size_t tuple;
        int slot;
        uint32_t target;
    };

    const LFunc &f_;
    ScheduleOptions opts_;
    std::vector<std::set<uint8_t>> liveOut_;
    std::vector<BuiltClause> clauses_;
    std::vector<size_t> blockFirst_;
    std::vector<Fixup> fixups_;
    uint32_t curBlock_ = 0;

    std::vector<Tuple> cur_;

    void
    flush()
    {
        if (cur_.empty())
            return;
        BuiltClause c;
        c.tuples = std::move(cur_);
        c.block = curBlock_;
        cur_.clear();
        clauses_.push_back(std::move(c));
    }

    /** Appends @p in while respecting slot legality and clause length. */
    void
    place(const Instr &in)
    {
        bool s1_ok = opts_.pairSlots && bif::legalInSlot1(in.op);
        if (!cur_.empty()) {
            Tuple &last = cur_.back();
            if (last.slot[1].op == Op::Nop && s1_ok &&
                last.slot[0].op != Op::Nop) {
                last.slot[1] = in;
                return;
            }
        }
        if (cur_.size() == opts_.maxTuples)
            flush();
        Tuple t;
        if (bif::legalInSlot0(in.op))
            t.slot[0] = in;
        else
            t.slot[1] = in;
        cur_.push_back(t);
    }

    /** Places a control-flow instruction: final tuple, slot 1;
     *  ends the clause.  Returns its location for fixups. */
    Fixup
    placeCf(const Instr &in)
    {
        if (!cur_.empty() && cur_.back().slot[1].op == Op::Nop &&
            cur_.back().slot[0].op != Op::Nop) {
            cur_.back().slot[1] = in;
        } else {
            if (cur_.size() == opts_.maxTuples)
                flush();
            Tuple t;
            t.slot[1] = in;
            cur_.push_back(t);
        }
        Fixup fx;
        fx.clause = clauses_.size();
        fx.tuple = cur_.size() - 1;
        fx.slot = 1;
        fx.target = 0;
        flush();
        return fx;
    }

    void
    emitSequential(const std::vector<LInstr> &instrs)
    {
        for (const LInstr &li : instrs) {
            if (li.op == Op::Barrier) {
                flush();
                Tuple t;
                t.slot[1] = toInstr(li);
                cur_.push_back(t);
                flush();
                continue;
            }
            place(toInstr(li));
        }
    }

    /** Greedy dual-issue list scheduling within a block. */
    void
    emitDualIssue(const std::vector<LInstr> &instrs)
    {
        size_t n = instrs.size();
        std::vector<std::vector<size_t>> succs(n);
        std::vector<unsigned> preds(n, 0);

        // Dependence edges: RAW/WAR/WAW on registers, total order on
        // memory operations and barriers.
        std::map<uint8_t, size_t> last_writer;
        std::map<uint8_t, std::vector<size_t>> readers_since_write;
        size_t last_mem = SIZE_MAX;
        auto add_edge = [&](size_t from, size_t to) {
            if (from == to)
                return;
            succs[from].push_back(to);
            preds[to]++;
        };
        for (size_t i = 0; i < n; ++i) {
            const LInstr &li = instrs[i];
            for (const LOperand &o : li.src) {
                if (o.kind != LOperand::Kind::VReg)
                    continue;
                uint8_t r = static_cast<uint8_t>(o.idx);
                auto w = last_writer.find(r);
                if (w != last_writer.end())
                    add_edge(w->second, i);   // RAW
                readers_since_write[r].push_back(i);
            }
            if (li.dst != kNoVReg) {
                uint8_t r = static_cast<uint8_t>(li.dst);
                auto w = last_writer.find(r);
                if (w != last_writer.end())
                    add_edge(w->second, i);   // WAW
                for (size_t rd : readers_since_write[r])
                    add_edge(rd, i);          // WAR
                readers_since_write[r].clear();
                last_writer[r] = i;
            }
            if (bif::isMemoryOp(li.op) || li.op == Op::Barrier) {
                if (last_mem != SIZE_MAX)
                    add_edge(last_mem, i);
                last_mem = i;
            }
        }

        std::vector<bool> done(n, false);
        size_t remaining = n;
        while (remaining > 0) {
            // First ready instruction legal in slot 0.
            size_t pick0 = SIZE_MAX, pick1 = SIZE_MAX;
            for (size_t i = 0; i < n && pick0 == SIZE_MAX; ++i) {
                if (!done[i] && preds[i] == 0 &&
                    instrs[i].op != Op::Barrier &&
                    bif::legalInSlot0(instrs[i].op)) {
                    pick0 = i;
                }
            }
            // A companion for slot 1.  Within a tuple, slot 0's result
            // forwards to slot 1 (the FMA->ADD chaining of the Bifrost
            // pipeline), so direct dependents of pick0 are eligible:
            // treat pick0 as retired while searching.
            std::vector<unsigned> preds2(preds);
            if (pick0 != SIZE_MAX) {
                for (size_t s : succs[pick0])
                    preds2[s]--;
            }
            for (size_t i = 0; i < n && pick1 == SIZE_MAX; ++i) {
                if (done[i] || preds2[i] != 0)
                    continue;
                if (i == pick0 ||
                    instrs[i].op == Op::Barrier ||
                    !bif::legalInSlot1(instrs[i].op)) {
                    continue;
                }
                pick1 = i;
            }

            if (pick0 == SIZE_MAX && pick1 == SIZE_MAX) {
                // Only a barrier (or nothing) is ready.
                size_t bar = SIZE_MAX;
                for (size_t i = 0; i < n; ++i) {
                    if (!done[i] && preds[i] == 0) {
                        bar = i;
                        break;
                    }
                }
                if (bar == SIZE_MAX)
                    simError("kclc: scheduler deadlock");
                flush();
                Tuple t;
                t.slot[1] = toInstr(instrs[bar]);
                cur_.push_back(t);
                flush();
                done[bar] = true;
                remaining--;
                for (size_t s : succs[bar])
                    preds[s]--;
                continue;
            }

            if (cur_.size() == opts_.maxTuples)
                flush();
            Tuple t;
            auto retire = [&](size_t i) {
                done[i] = true;
                remaining--;
                for (size_t s : succs[i])
                    preds[s]--;
            };
            if (pick0 != SIZE_MAX) {
                t.slot[0] = toInstr(instrs[pick0]);
                retire(pick0);
            }
            if (pick1 != SIZE_MAX) {
                t.slot[1] = toInstr(instrs[pick1]);
                retire(pick1);
            }
            cur_.push_back(t);
        }
    }

    void
    emitBlock(const LBlock &blk, size_t index)
    {
        if (opts_.dualIssue)
            emitDualIssue(blk.instrs);
        else
            emitSequential(blk.instrs);

        size_t next = index + 1;
        switch (blk.term) {
          case TermKind::Return: {
            Instr ret;
            ret.op = Op::Ret;
            placeCf(ret);   // Returns a fixup slot, but Ret needs none.
            break;
          }
          case TermKind::Jump:
            if (blk.target0 == next) {
                flush();   // Fall through.
            } else {
                Instr br;
                br.op = Op::Branch;
                Fixup fx = placeCf(br);
                fx.target = blk.target0;
                fixups_.push_back(fx);
            }
            break;
          case TermKind::CondJump: {
            uint32_t t = blk.target0, e = blk.target1;
            uint8_t cond = static_cast<uint8_t>(blk.condVreg);
            if (t == next && e == next) {
                flush();
                break;
            }
            if (t == next) {
                // Invert: branch to else when cond == 0.
                Instr br;
                br.op = Op::BranchZ;
                br.src0 = cond;
                Fixup fx = placeCf(br);
                fx.target = e;
                fixups_.push_back(fx);
                break;
            }
            Instr br;
            br.op = Op::BranchNZ;
            br.src0 = cond;
            Fixup fx = placeCf(br);
            fx.target = t;
            fixups_.push_back(fx);
            if (e != next) {
                Instr br2;
                br2.op = Op::Branch;
                Fixup fx2 = placeCf(br2);
                fx2.target = e;
                fixups_.push_back(fx2);
            }
            break;
          }
        }
    }

    // ------------------------------------------------ temp promotion

    struct SlotRef
    {
        size_t clause;
        size_t tuple;
        int slot;
    };

    /** Rewrites clause-local GRF values to temporary registers
     *  (paper Fig. 4b: temp registers reduce GRF accesses). */
    void
    promoteTemps()
    {
        for (size_t c = 0; c < clauses_.size(); ++c) {
            BuiltClause &cl = clauses_[c];
            // Flat instruction view of this clause.
            std::vector<Instr *> flat;
            for (Tuple &t : cl.tuples) {
                flat.push_back(&t.slot[0]);
                flat.push_back(&t.slot[1]);
            }
            unsigned next_temp = 0;
            for (size_t i = 0; i < flat.size(); ++i) {
                Instr &def = *flat[i];
                if (def.op == Op::Nop || !bif::isGrf(def.dst))
                    continue;
                if (next_temp >= bif::kNumTempRegs)
                    break;
                uint8_t g = def.dst;

                // Collect uses until redefinition within the clause.
                std::vector<std::pair<size_t, int>> uses;
                bool redefined = false;
                for (size_t j = i + 1; j < flat.size(); ++j) {
                    Instr &in = *flat[j];
                    if (in.op == Op::Nop)
                        continue;
                    for (int s = 0; s < 3; ++s) {
                        uint8_t *src = s == 0 ? &in.src0
                                     : s == 1 ? &in.src1 : &in.src2;
                        if (*src == g)
                            uses.push_back({j, s});
                    }
                    if (in.dst == g) {
                        redefined = true;
                        break;
                    }
                }
                if (!redefined &&
                    !deadAfterClause(c, g)) {
                    continue;
                }

                uint8_t temp = static_cast<uint8_t>(
                    bif::kOperandTemp0 + next_temp++);
                def.dst = temp;
                for (auto [j, s] : uses) {
                    Instr &in = *flat[j];
                    if (s == 0)
                        in.src0 = temp;
                    else if (s == 1)
                        in.src1 = temp;
                    else
                        in.src2 = temp;
                }
            }
        }
    }

    /** True if GRF @p g is not consumed after clause @p c. */
    bool
    deadAfterClause(size_t c, uint8_t g)
    {
        uint32_t block = clauses_[c].block;
        for (size_t k = c + 1;
             k < clauses_.size() && clauses_[k].block == block; ++k) {
            for (const Tuple &t : clauses_[k].tuples) {
                for (const Instr &in : t.slot) {
                    if (in.op == Op::Nop)
                        continue;
                    if (in.src0 == g || in.src1 == g || in.src2 == g)
                        return false;   // Read downstream.
                    if (in.dst == g)
                        return true;    // Redefined first.
                }
            }
        }
        return liveOut_[block].count(g) == 0;
    }
};

} // namespace

bif::Module
schedule(const LFunc &f, const ScheduleOptions &opts)
{
    Scheduler s(f, opts);
    return s.run();
}

} // namespace bifsim::kclc

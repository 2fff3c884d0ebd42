#include "analysis/analysis.h"

#include <algorithm>
#include <deque>

#include "common/logging.h"

namespace bifsim::analysis {

using bif::Instr;
using bif::Op;

const char *
checkName(Check c)
{
    switch (c) {
      case Check::GrfBounds:       return "grf-bounds";
      case Check::UninitRead:      return "uninit-read";
      case Check::MaybeUninitRead: return "maybe-uninit-read";
      case Check::TempScope:       return "temp-scope";
      case Check::DeadWrite:       return "dead-write";
      case Check::RomBounds:       return "rom-bounds";
      case Check::ArgBounds:       return "arg-bounds";
      case Check::BadBranch:       return "bad-branch";
      case Check::Unreachable:     return "unreachable";
    }
    return "?";
}

const char *
severityName(Severity s)
{
    switch (s) {
      case Severity::Note:    return "note";
      case Severity::Warning: return "warning";
      case Severity::Error:   return "error";
    }
    return "?";
}

bool
isUnsafe(Check c)
{
    switch (c) {
      case Check::GrfBounds: case Check::TempScope:
      case Check::RomBounds: case Check::ArgBounds:
      case Check::BadBranch:
        return true;
      default:
        return false;
    }
}

std::string
renderDiag(const Diag &d)
{
    std::string s = strfmt("%s: clause %u tuple %u slot %u: ",
                           severityName(d.sev), d.clause, d.tuple,
                           d.slot);
    s += d.message;
    s += strfmt("  [%s]", checkName(d.check));
    if (!d.excerpt.empty())
        s += "\n    " + d.excerpt;
    return s;
}

namespace {

bool
isBranch(Op op)
{
    return op == Op::Branch || op == Op::BranchZ || op == Op::BranchNZ;
}

/** Visits each non-Nop instruction of @p cl in execution order
 *  (tuples in sequence, slot 0 before slot 1). */
template <typename Fn>
void
forEachInstr(const bif::Clause &cl, Fn &&fn)
{
    for (size_t t = 0; t < cl.tuples.size(); ++t) {
        for (int s = 0; s < 2; ++s) {
            const Instr &in = cl.tuples[t].slot[s];
            if (in.op != Op::Nop)
                fn(in, static_cast<uint32_t>(t), static_cast<uint8_t>(s));
        }
    }
}

} // namespace

ClauseCfg
ClauseCfg::build(const bif::Module &mod)
{
    ClauseCfg cfg;
    size_t nc = mod.clauses.size();
    cfg.nodes.resize(nc);

    for (size_t c = 0; c < nc; ++c) {
        Node &n = cfg.nodes[c];
        bool fallthrough = true;
        forEachInstr(mod.clauses[c], [&](const Instr &in, uint32_t,
                                         uint8_t) {
            if (in.op == Op::Ret) {
                n.succs.push_back(kExit);
                fallthrough = false;
            } else if (isBranch(in.op)) {
                if (in.imm >= 0 && static_cast<size_t>(in.imm) < nc)
                    n.succs.push_back(static_cast<uint32_t>(in.imm));
                // Unconditional branches replace the fall-through;
                // conditional ones keep it.
                if (in.op == Op::Branch)
                    fallthrough = false;
            }
        });
        if (fallthrough) {
            n.succs.push_back(c + 1 < nc ? static_cast<uint32_t>(c + 1)
                                         : kExit);
        }
        std::sort(n.succs.begin(), n.succs.end());
        n.succs.erase(std::unique(n.succs.begin(), n.succs.end()),
                      n.succs.end());
    }
    for (size_t c = 0; c < nc; ++c) {
        for (uint32_t s : cfg.nodes[c].succs) {
            if (s != kExit)
                cfg.nodes[s].preds.push_back(static_cast<uint32_t>(c));
        }
    }

    if (nc > 0) {
        std::deque<uint32_t> work{0};
        cfg.nodes[0].reachable = true;
        while (!work.empty()) {
            uint32_t c = work.front();
            work.pop_front();
            for (uint32_t s : cfg.nodes[c].succs) {
                if (s != kExit && !cfg.nodes[s].reachable) {
                    cfg.nodes[s].reachable = true;
                    work.push_back(s);
                }
            }
        }
    }
    return cfg;
}

instrument::Cfg
ClauseCfg::toInstrumentCfg() const
{
    instrument::Cfg out;
    for (size_t c = 0; c < nodes.size(); ++c) {
        const Node &n = nodes[c];
        instrument::CfgNode node;
        node.clause = static_cast<uint32_t>(c);
        node.outThreads = 0;
        node.divergent = n.succs.size() > 1;
        out.nodes.push_back(node);
        for (uint32_t s : n.succs) {
            instrument::CfgEdge e;
            e.from = static_cast<uint32_t>(c);
            e.to = s == kExit ? instrument::kCfgExit : s;
            e.threads = 0;
            e.fraction = n.succs.empty()
                             ? 0.0
                             : 1.0 / static_cast<double>(n.succs.size());
            out.edges.push_back(e);
        }
    }
    return out;
}

namespace {

/** Register-set representation: one bit per GRF register. */
using RegSet = uint64_t;

constexpr RegSet kAllRegs = ~static_cast<RegSet>(0);

inline RegSet
bit(uint8_t r)
{
    return static_cast<RegSet>(1) << r;
}

/** Shared pass state. */
struct Analyzer
{
    const bif::Module &mod;
    const Options &opts;
    const ClauseCfg &cfg;
    std::vector<Diag> diags;

    Analyzer(const bif::Module &m, const Options &o, const ClauseCfg &g)
        : mod(m), opts(o), cfg(g)
    {
    }

    void
    emit(Check check, Severity sev, uint32_t clause, uint32_t tuple,
         uint8_t slot, const Instr &in, uint8_t reg, std::string msg)
    {
        Diag d;
        d.check = check;
        d.sev = sev;
        d.clause = clause;
        d.tuple = tuple;
        d.slot = slot;
        d.reg = reg;
        d.message = std::move(msg);
        d.excerpt = bif::disassemble(in);
        diags.push_back(std::move(d));
    }

    /**
     * Forward transfer of one clause over the may-/must-assigned GRF
     * sets.  With @p report set, converged entry states are in hand and
     * read-before-write plus GRF-bounds findings are emitted.
     */
    void
    assignTransfer(uint32_t c, RegSet &may, RegSet &must, bool report)
    {
        forEachInstr(mod.clauses[c], [&](const Instr &in, uint32_t t,
                                         uint8_t s) {
            unsigned use = bif::srcUseMask(in.op);
            const uint8_t srcs[3] = {in.src0, in.src1, in.src2};
            // One diagnostic per (instruction, register): a duplicated
            // source operand (e.g. iadd r9, r7, r7) is a single fault.
            RegSet reported = 0;
            for (int k = 0; k < 3 && report; ++k) {
                if (!(use & (1u << k)) || !bif::isGrf(srcs[k]))
                    continue;
                uint8_t r = srcs[k];
                if (reported & bit(r))
                    continue;
                reported |= bit(r);
                if (r >= mod.regCount) {
                    emit(Check::GrfBounds, Severity::Error, c, t, s, in,
                         r,
                         strfmt("r%u read but module regCount is %u", r,
                                mod.regCount));
                } else if (!(may & bit(r))) {
                    emit(Check::UninitRead, Severity::Error, c, t, s, in,
                         r,
                         strfmt("r%u read but never written on any path "
                                "from entry", r));
                } else if (!(must & bit(r))) {
                    emit(Check::MaybeUninitRead, Severity::Warning, c, t,
                         s, in, r,
                         strfmt("r%u may be read before initialisation "
                                "(unwritten on some path from entry)",
                                r));
                }
            }
            if (bif::writesDest(in.op) && bif::isGrf(in.dst)) {
                if (report && in.dst >= mod.regCount) {
                    emit(Check::GrfBounds, Severity::Error, c, t, s, in,
                         in.dst,
                         strfmt("r%u written but module regCount is %u",
                                in.dst, mod.regCount));
                }
                may |= bit(in.dst);
                must |= bit(in.dst);
            }
        });
    }

    /** GRF definite-assignment: forward fixpoint, then a reporting
     *  sweep over reachable clauses. */
    void
    definiteAssignment()
    {
        size_t nc = mod.clauses.size();
        std::vector<RegSet> mayIn(nc, 0), mustIn(nc, kAllRegs);
        if (nc > 0)
            mustIn[0] = 0;   // Entry: nothing assigned yet.

        bool changed = true;
        while (changed) {
            changed = false;
            for (size_t c = 0; c < nc; ++c) {
                if (!cfg.nodes[c].reachable)
                    continue;
                RegSet may = mayIn[c], must = mustIn[c];
                assignTransfer(static_cast<uint32_t>(c), may, must,
                               false);
                for (uint32_t s : cfg.nodes[c].succs) {
                    if (s == ClauseCfg::kExit)
                        continue;
                    RegSet nmay = mayIn[s] | may;
                    // Entry keeps its boundary state: execution can
                    // always arrive at clause 0 with nothing assigned.
                    RegSet nmust = s == 0 ? 0 : mustIn[s] & must;
                    if (nmay != mayIn[s] || nmust != mustIn[s]) {
                        mayIn[s] = nmay;
                        mustIn[s] = nmust;
                        changed = true;
                    }
                }
            }
        }

        for (size_t c = 0; c < nc; ++c) {
            if (!cfg.nodes[c].reachable)
                continue;
            RegSet may = mayIn[c], must = mustIn[c];
            assignTransfer(static_cast<uint32_t>(c), may, must, true);
        }
    }

    /** Temp-register scope: def-before-use within each clause. */
    void
    tempScope()
    {
        for (size_t c = 0; c < mod.clauses.size(); ++c) {
            uint8_t written = 0;   // Bit per t0..t7.
            forEachInstr(mod.clauses[c], [&](const Instr &in, uint32_t t,
                                             uint8_t s) {
                unsigned use = bif::srcUseMask(in.op);
                const uint8_t srcs[3] = {in.src0, in.src1, in.src2};
                for (int k = 0; k < 3; ++k) {
                    if (!(use & (1u << k)) || !bif::isTemp(srcs[k]))
                        continue;
                    uint8_t tr = srcs[k] - bif::kOperandTemp0;
                    if (!(written & (1u << tr))) {
                        emit(Check::TempScope, Severity::Error,
                             static_cast<uint32_t>(c), t, s, in, tr,
                             strfmt("t%u read before any write in this "
                                    "clause (temps do not survive "
                                    "clause boundaries)", tr));
                    }
                }
                if (bif::writesDest(in.op) && bif::isTemp(in.dst))
                    written |= 1u << (in.dst - bif::kOperandTemp0);
            });
        }
    }

    /** Backward transfer of one clause over the live GRF set; reports
     *  dead writes when @p report is set. */
    void
    liveTransfer(uint32_t c, RegSet &live, bool report)
    {
        const bif::Clause &cl = mod.clauses[c];
        for (size_t t = cl.tuples.size(); t-- > 0;) {
            for (int s = 2; s-- > 0;) {
                const Instr &in = cl.tuples[t].slot[s];
                if (in.op == Op::Nop)
                    continue;
                if (bif::writesDest(in.op) && bif::isGrf(in.dst)) {
                    if (report && !(live & bit(in.dst)) &&
                        cfg.nodes[c].reachable) {
                        emit(Check::DeadWrite, Severity::Warning, c,
                             static_cast<uint32_t>(t),
                             static_cast<uint8_t>(s), in, in.dst,
                             strfmt("r%u written but the value is never "
                                    "read on any path to exit",
                                    in.dst));
                    }
                    live &= ~bit(in.dst);
                }
                unsigned use = bif::srcUseMask(in.op);
                const uint8_t srcs[3] = {in.src0, in.src1, in.src2};
                for (int k = 0; k < 3; ++k) {
                    if ((use & (1u << k)) && bif::isGrf(srcs[k]))
                        live |= bit(srcs[k]);
                }
            }
        }
    }

    /** Dead-write detection: backward liveness fixpoint plus a
     *  reporting sweep.  Nothing is live at thread exit. */
    void
    deadWrites()
    {
        size_t nc = mod.clauses.size();
        std::vector<RegSet> liveIn(nc, 0);
        bool changed = true;
        while (changed) {
            changed = false;
            for (size_t c = nc; c-- > 0;) {
                RegSet live = 0;
                for (uint32_t s : cfg.nodes[c].succs) {
                    if (s != ClauseCfg::kExit)
                        live |= liveIn[s];
                }
                liveTransfer(static_cast<uint32_t>(c), live, false);
                if (live != liveIn[c]) {
                    liveIn[c] = live;
                    changed = true;
                }
            }
        }
        for (size_t c = 0; c < nc; ++c) {
            RegSet live = 0;
            for (uint32_t s : cfg.nodes[c].succs) {
                if (s != ClauseCfg::kExit)
                    live |= liveIn[s];
            }
            liveTransfer(static_cast<uint32_t>(c), live, true);
        }
    }

    /** Static bounds: ROM and argument-table indices, branch targets. */
    void
    staticBounds()
    {
        size_t nc = mod.clauses.size();
        for (size_t c = 0; c < nc; ++c) {
            forEachInstr(mod.clauses[c], [&](const Instr &in, uint32_t t,
                                             uint8_t s) {
                if (in.op == Op::LdRom &&
                    (in.imm < 0 ||
                     static_cast<size_t>(in.imm) >= mod.rom.size())) {
                    emit(Check::RomBounds, Severity::Error,
                         static_cast<uint32_t>(c), t, s, in, 0xff,
                         strfmt("ROM index %d out of range (rom has %zu "
                                "words)", in.imm, mod.rom.size()));
                }
                if (in.op == Op::LdArg &&
                    (in.imm < 0 ||
                     static_cast<uint32_t>(in.imm) >= bif::kMaxArgWords)) {
                    emit(Check::ArgBounds, Severity::Error,
                         static_cast<uint32_t>(c), t, s, in, 0xff,
                         strfmt("argument index %d out of range "
                                "(table has %u words)", in.imm,
                                bif::kMaxArgWords));
                }
                if (isBranch(in.op) &&
                    (in.imm < 0 || static_cast<size_t>(in.imm) >= nc)) {
                    emit(Check::BadBranch, Severity::Error,
                         static_cast<uint32_t>(c), t, s, in, 0xff,
                         strfmt("branch target %d outside the module "
                                "(%zu clauses)", in.imm, nc));
                }
            });
        }
    }

    /** Unreachable-clause notes. */
    void
    unreachable()
    {
        for (size_t c = 0; c < cfg.nodes.size(); ++c) {
            if (cfg.nodes[c].reachable)
                continue;
            Diag d;
            d.check = Check::Unreachable;
            d.sev = Severity::Note;
            d.clause = static_cast<uint32_t>(c);
            d.message = strfmt("clause %zu unreachable from entry", c);
            diags.push_back(std::move(d));
        }
    }
};

} // namespace

size_t
Result::count(Severity s) const
{
    size_t n = 0;
    for (const Diag &d : diags)
        n += d.sev == s ? 1 : 0;
    return n;
}

bool
Result::hasErrors() const
{
    return count(Severity::Error) > 0;
}

bool
Result::hasUnsafe() const
{
    return firstRejected(*this) != nullptr;
}

std::string
Result::render() const
{
    std::string s;
    for (const Diag &d : diags)
        s += renderDiag(d) + "\n";
    return s;
}

const Diag *
firstRejected(const Result &r)
{
    for (const Diag &d : r.diags) {
        if (isUnsafe(d.check))
            return &d;
    }
    return nullptr;
}

Result
analyze(const bif::Module &mod, const Options &opts)
{
    Result res;
    res.cfg = ClauseCfg::build(mod);

    Analyzer a(mod, opts, res.cfg);
    a.staticBounds();
    a.tempScope();
    a.definiteAssignment();
    if (opts.deadWrites)
        a.deadWrites();
    a.unreachable();

    std::sort(a.diags.begin(), a.diags.end(),
              [](const Diag &x, const Diag &y) {
                  if (x.clause != y.clause)
                      return x.clause < y.clause;
                  if (x.tuple != y.tuple)
                      return x.tuple < y.tuple;
                  if (x.slot != y.slot)
                      return x.slot < y.slot;
                  return static_cast<uint8_t>(x.check) <
                         static_cast<uint8_t>(y.check);
              });
    res.diags = std::move(a.diags);
    return res;
}

} // namespace bifsim::analysis

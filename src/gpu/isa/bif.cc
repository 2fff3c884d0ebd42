#include "gpu/isa/bif.h"

#include <cstring>

#include "common/bits.h"
#include "common/logging.h"

namespace bifsim::bif {

Category
category(Op op)
{
    switch (op) {
      case Op::Nop:
        return Category::Nop;
      case Op::LdGlobal: case Op::LdGlobalU8: case Op::StGlobal:
      case Op::StGlobalU8: case Op::LdLocal: case Op::StLocal:
      case Op::AtomAddG: case Op::AtomAddL:
        return Category::LoadStore;
      case Op::Branch: case Op::BranchZ: case Op::BranchNZ:
      case Op::Barrier: case Op::Ret:
        return Category::ControlFlow;
      default:
        return Category::Arith;
    }
}

bool
legalInSlot0(Op op)
{
    Category c = category(op);
    return c == Category::Arith || c == Category::LoadStore ||
           c == Category::Nop;
}

bool
legalInSlot1(Op op)
{
    Category c = category(op);
    return c == Category::Arith || c == Category::ControlFlow ||
           c == Category::Nop;
}

bool
isMemoryOp(Op op)
{
    return category(op) == Category::LoadStore;
}

unsigned
srcUseMask(Op op)
{
    switch (op) {
      // No sources: constants, control transfers, synchronisation.
      case Op::Nop: case Op::MovImm: case Op::LdRom: case Op::LdArg:
      case Op::Branch: case Op::Barrier: case Op::Ret:
        return 0;
      // Unary: src0 only.
      case Op::FAbs: case Op::FNeg: case Op::FFloor: case Op::INot:
      case Op::Mov: case Op::F2I: case Op::F2U: case Op::I2F:
      case Op::U2F: case Op::FRcp: case Op::FRsqrt: case Op::FSqrt:
      case Op::FExp2: case Op::FLog2: case Op::FSin: case Op::FCos:
      case Op::LdGlobal: case Op::LdGlobalU8: case Op::LdLocal:
      case Op::BranchZ: case Op::BranchNZ:
        return 0b001;
      // Three sources.
      case Op::FFma: case Op::CSel:
        return 0b111;
      // Everything else is binary over src0/src1 (stores read the
      // address from src0 and the value from src1).
      default:
        return 0b011;
    }
}

bool
writesDest(Op op)
{
    switch (op) {
      case Op::Nop: case Op::StGlobal: case Op::StGlobalU8:
      case Op::StLocal: case Op::Branch: case Op::BranchZ:
      case Op::BranchNZ: case Op::Barrier: case Op::Ret:
        return false;
      default:
        return true;
    }
}

const char *
opName(Op op)
{
    static const char *names[] = {
        "nop",
        "fadd", "fsub", "fmul", "ffma", "fmin", "fmax", "fabs", "fneg",
        "ffloor",
        "iadd", "isub", "imul", "iand", "ior", "ixor", "inot", "ishl",
        "ishr", "iasr", "imin", "imax", "umin", "umax",
        "fcmp", "icmp", "ucmp",
        "csel", "mov", "movimm",
        "f2i", "f2u", "i2f", "u2f",
        "frcp", "frsqrt", "fsqrt", "fexp2", "flog2", "fsin", "fcos",
        "idiv", "irem", "udiv", "urem",
        "ldrom", "ldarg",
        "ldg", "ldg.u8", "stg", "stg.u8", "ldl", "stl",
        "atomadd.g", "atomadd.l",
        "br", "brz", "brnz", "barrier", "ret",
    };
    auto idx = static_cast<size_t>(op);
    return idx < std::size(names) ? names[idx] : "<bad>";
}

uint64_t
Instr::encode() const
{
    uint64_t w = 0;
    w = insertBits(w, 7, 0, static_cast<uint64_t>(op));
    w = insertBits(w, 15, 8, dst);
    w = insertBits(w, 23, 16, src0);
    w = insertBits(w, 31, 24, src1);
    w = insertBits(w, 39, 32, src2);
    w = insertBits(w, 63, 40, static_cast<uint32_t>(imm) & 0xffffff);
    return w;
}

Instr
Instr::decode(uint64_t w)
{
    Instr i;
    uint64_t opv = bits(w, 7, 0);
    i.op = opv < static_cast<uint64_t>(Op::NumOps_)
               ? static_cast<Op>(opv) : Op::Nop;
    i.dst = static_cast<uint8_t>(bits(w, 15, 8));
    i.src0 = static_cast<uint8_t>(bits(w, 23, 16));
    i.src1 = static_cast<uint8_t>(bits(w, 31, 24));
    i.src2 = static_cast<uint8_t>(bits(w, 39, 32));
    i.imm = static_cast<int32_t>(sext(bits(w, 63, 40), 24));
    return i;
}

namespace {

bool
isControlFlow(Op op)
{
    return category(op) == Category::ControlFlow;
}

/** Checks structural rules; returns "" when OK. */
std::string
validateClause(const Clause &cl, size_t clause_idx, size_t num_clauses,
               uint32_t reg_count)
{
    if (cl.tuples.empty() || cl.tuples.size() > kMaxTuplesPerClause) {
        return strfmt("clause %zu: %zu tuples (must be 1..%u)",
                      clause_idx, cl.tuples.size(), kMaxTuplesPerClause);
    }
    bool temp_written[kNumTempRegs] = {};
    for (size_t t = 0; t < cl.tuples.size(); ++t) {
        for (int s = 0; s < 2; ++s) {
            const Instr &in = cl.tuples[t].slot[s];
            if (in.op == Op::Nop)
                continue;
            if (s == 0 && !legalInSlot0(in.op)) {
                return strfmt("clause %zu tuple %zu: %s illegal in slot 0",
                              clause_idx, t, opName(in.op));
            }
            if (s == 1 && !legalInSlot1(in.op)) {
                return strfmt("clause %zu tuple %zu: %s illegal in slot 1",
                              clause_idx, t, opName(in.op));
            }
            bool is_cf = isControlFlow(in.op);
            if (is_cf && t != cl.tuples.size() - 1) {
                return strfmt(
                    "clause %zu: control flow not in final tuple",
                    clause_idx);
            }
            if (in.op == Op::Barrier &&
                (cl.tuples.size() != 1 ||
                 cl.tuples[0].slot[0].op != Op::Nop)) {
                return strfmt("clause %zu: barrier must be alone",
                              clause_idx);
            }
            if (in.op == Op::Branch || in.op == Op::BranchZ ||
                in.op == Op::BranchNZ) {
                if (in.imm < 0 ||
                    static_cast<size_t>(in.imm) >= num_clauses) {
                    return strfmt(
                        "clause %zu: branch target %d out of range",
                        clause_idx, in.imm);
                }
            }
            // Temp-register scoping: reads must follow a write in this
            // clause; this is what confines temp values to a clause.
            // GRF references must stay below the module's declared
            // register count (semantically-used operands only — dead
            // encoding space carries arbitrary bytes).
            unsigned use = srcUseMask(in.op);
            const uint8_t srcs[3] = {in.src0, in.src1, in.src2};
            for (int k = 0; k < 3; ++k) {
                if (!(use & (1u << k)))
                    continue;
                uint8_t src = srcs[k];
                if (isTemp(src) && !temp_written[src - kOperandTemp0]) {
                    return strfmt(
                        "clause %zu tuple %zu: t%u read before write",
                        clause_idx, t, src - kOperandTemp0);
                }
                if (isGrf(src) && src >= reg_count) {
                    return strfmt(
                        "clause %zu tuple %zu: r%u read but regCount is "
                        "%u", clause_idx, t, src, reg_count);
                }
            }
            if (writesDest(in.op)) {
                if (isGrf(in.dst) && in.dst >= reg_count) {
                    return strfmt(
                        "clause %zu tuple %zu: r%u written but regCount "
                        "is %u", clause_idx, t, in.dst, reg_count);
                }
                if (isTemp(in.dst))
                    temp_written[in.dst - kOperandTemp0] = true;
            }
        }
    }
    return "";
}

} // namespace

std::string
validate(const Module &mod)
{
    if (mod.clauses.empty())
        return "module has no clauses";
    for (size_t c = 0; c < mod.clauses.size(); ++c) {
        std::string e = validateClause(mod.clauses[c], c,
                                       mod.clauses.size(), mod.regCount);
        if (!e.empty())
            return e;
    }
    return "";
}

std::vector<uint8_t>
encode(const Module &mod)
{
    std::string err = validate(mod);
    if (!err.empty())
        simError("BIF encode: %s", err.c_str());

    std::vector<uint8_t> out;
    auto put32 = [&](uint32_t v) {
        out.push_back(v & 0xff);
        out.push_back((v >> 8) & 0xff);
        out.push_back((v >> 16) & 0xff);
        out.push_back((v >> 24) & 0xff);
    };
    auto put64 = [&](uint64_t v) {
        put32(static_cast<uint32_t>(v));
        put32(static_cast<uint32_t>(v >> 32));
    };

    size_t clause_bytes = 0;
    for (const Clause &cl : mod.clauses)
        clause_bytes += 4 + cl.tuples.size() * 16;
    uint32_t clause_off = 32;
    uint32_t rom_off =
        static_cast<uint32_t>(clause_off + clause_bytes);

    put32(kBinaryMagic);
    put32(static_cast<uint32_t>(mod.clauses.size()));
    put32(clause_off);
    put32(rom_off);
    put32(static_cast<uint32_t>(mod.rom.size()));
    put32(mod.regCount);
    put32(mod.localBytes);
    put32(mod.usesBarrier ? static_cast<uint32_t>(kFlagUsesBarrier) : 0u);

    for (const Clause &cl : mod.clauses) {
        bool has_branch = false;
        for (const Tuple &t : cl.tuples) {
            for (const Instr &in : t.slot)
                has_branch |= isControlFlow(in.op);
        }
        uint32_t hdr = static_cast<uint32_t>(cl.tuples.size() - 1) & 7;
        if (has_branch)
            hdr |= 1u << 3;
        put32(hdr);
        for (const Tuple &t : cl.tuples) {
            put64(t.slot[0].encode());
            put64(t.slot[1].encode());
        }
    }
    for (uint32_t w : mod.rom)
        put32(w);
    return out;
}

bool
decode(const uint8_t *data, size_t size, Module &out, std::string &error)
{
    auto fail = [&](std::string msg) {
        error = std::move(msg);
        return false;
    };
    auto get32 = [&](size_t off) {
        uint32_t v;
        std::memcpy(&v, data + off, 4);
        return v;
    };
    auto get64 = [&](size_t off) {
        uint64_t v;
        std::memcpy(&v, data + off, 8);
        return v;
    };

    if (size < 32)
        return fail("binary too small for header");
    if (get32(0) != kBinaryMagic)
        return fail("bad magic");
    uint32_t num_clauses = get32(4);
    uint32_t clause_off = get32(8);
    uint32_t rom_off = get32(12);
    uint32_t rom_words = get32(16);

    out = Module{};
    out.regCount = get32(20);
    out.localBytes = get32(24);
    out.usesBarrier = (get32(28) & kFlagUsesBarrier) != 0;

    if (num_clauses == 0 || num_clauses > 1u << 20)
        return fail("implausible clause count");
    size_t off = clause_off;
    for (uint32_t c = 0; c < num_clauses; ++c) {
        if (off + 4 > size)
            return fail("truncated clause header");
        uint32_t hdr = get32(off);
        off += 4;
        unsigned tuples = (hdr & 7) + 1;
        Clause cl;
        bool has_cf = false;
        for (unsigned t = 0; t < tuples; ++t) {
            if (off + 16 > size)
                return fail("truncated clause body");
            Tuple tu;
            tu.slot[0] = Instr::decode(get64(off));
            tu.slot[1] = Instr::decode(get64(off + 8));
            off += 16;
            has_cf |= isControlFlow(tu.slot[0].op) ||
                      isControlFlow(tu.slot[1].op);
            cl.tuples.push_back(tu);
        }
        // The has_branch header bit must agree with the clause body: a
        // mismatched bit means the image was not produced by encode()
        // (or was corrupted), and trusting either side would let the
        // clause take a control transfer the header hides (or vice
        // versa).
        if (((hdr >> 3) & 1) != (has_cf ? 1u : 0u)) {
            return fail(strfmt("clause %u: has_branch header bit %u "
                               "disagrees with clause body", c,
                               (hdr >> 3) & 1));
        }
        out.clauses.push_back(std::move(cl));
    }
    if (rom_off + static_cast<size_t>(rom_words) * 4 > size)
        return fail("truncated ROM");
    for (uint32_t i = 0; i < rom_words; ++i)
        out.rom.push_back(get32(rom_off + i * 4));

    std::string verr = validate(out);
    if (!verr.empty())
        return fail("invalid module: " + verr);
    return true;
}

std::string
disassemble(const Instr &in)
{
    auto operand = [](uint8_t o) -> std::string {
        if (o == kOperandNone)
            return "-";
        if (isGrf(o))
            return strfmt("r%u", o);
        if (isTemp(o))
            return strfmt("t%u", o - kOperandTemp0);
        static const char *specials[] = {
            "lane_id", "lid.x", "lid.y", "lid.z", "gid.x", "gid.y",
            "gid.z", "lsz.x", "lsz.y", "lsz.z", "gsz.x", "gsz.y",
            "gsz.z", "ngrp.x", "ngrp.y", "ngrp.z", "zero",
        };
        if (o >= kSrLaneId && o <= kSrZero)
            return specials[o - kSrLaneId];
        return strfmt("?%u", o);
    };
    std::string s = opName(in.op);
    if (in.op == Op::Nop)
        return s;
    s += " " + operand(in.dst);
    for (uint8_t src : {in.src0, in.src1, in.src2}) {
        if (src != kOperandNone)
            s += ", " + operand(src);
    }
    switch (in.op) {
      case Op::MovImm: case Op::LdRom: case Op::LdArg:
      case Op::Branch: case Op::BranchZ: case Op::BranchNZ:
      case Op::LdGlobal: case Op::LdGlobalU8: case Op::StGlobal:
      case Op::StGlobalU8: case Op::LdLocal: case Op::StLocal:
      case Op::AtomAddG: case Op::AtomAddL:
        s += strfmt(", %d", in.imm);
        break;
      case Op::FCmp: case Op::ICmp: case Op::UCmp: {
        static const char *modes[] = {"eq", "ne", "lt", "le", "gt", "ge"};
        unsigned m = static_cast<unsigned>(in.imm) & 7;
        s += strfmt(".%s", m < 6 ? modes[m] : "??");
        break;
      }
      default:
        break;
    }
    return s;
}

std::string
disassemble(const Module &mod)
{
    std::string s;
    for (size_t c = 0; c < mod.clauses.size(); ++c) {
        s += strfmt("clause %zu:\n", c);
        for (const Tuple &t : mod.clauses[c].tuples) {
            s += "    { " + disassemble(t.slot[0]) + " ; " +
                 disassemble(t.slot[1]) + " }\n";
        }
    }
    if (!mod.rom.empty()) {
        s += "rom:";
        for (uint32_t w : mod.rom)
            s += strfmt(" 0x%08x", w);
        s += "\n";
    }
    return s;
}

} // namespace bifsim::bif

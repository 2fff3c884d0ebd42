#ifndef BIFSIM_KCLC_IR_H
#define BIFSIM_KCLC_IR_H

/**
 * @file
 * kclc's linear IR: BIF instructions over virtual registers, organised
 * into basic blocks with explicit terminators.  The scheduler later
 * packs these into clauses and the allocator maps virtual registers to
 * the 64-entry GRF (with clause-temporary promotion at higher
 * optimisation levels).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/isa/bif.h"

namespace bifsim::kclc {

/** Sentinel: no destination register. */
constexpr uint32_t kNoVReg = 0xffffffffu;

/** An instruction operand before register allocation. */
struct LOperand
{
    enum class Kind : uint8_t { None, VReg, Special };

    Kind kind = Kind::None;
    uint32_t idx = 0;   ///< VReg id, or bif special-operand code.

    static LOperand
    vreg(uint32_t id)
    {
        return {Kind::VReg, id};
    }

    static LOperand
    special(uint32_t code)
    {
        return {Kind::Special, code};
    }

    static LOperand none() { return {}; }

    bool operator==(const LOperand &) const = default;
};

/** One IR instruction (BIF op over virtual registers). */
struct LInstr
{
    bif::Op op = bif::Op::Nop;
    uint32_t dst = kNoVReg;
    LOperand src[3];
    int32_t imm = 0;
};

/** Basic-block terminators. */
enum class TermKind : uint8_t
{
    Jump,       ///< Unconditional to target0.
    CondJump,   ///< condVreg != 0 -> target0 else target1.
    Return,     ///< Thread exit.
};

/** A basic block. */
struct LBlock
{
    std::vector<LInstr> instrs;
    TermKind term = TermKind::Return;
    uint32_t condVreg = kNoVReg;
    uint32_t target0 = 0;
    uint32_t target1 = 0;
};

/** Metadata for one kernel argument slot. */
struct ArgInfo
{
    std::string name;
    bool isBuffer = false;   ///< Buffer (pointer) vs scalar value.
};

/** A lowered kernel function. */
struct LFunc
{
    std::string name;
    std::vector<LBlock> blocks;
    uint32_t numVRegs = 0;
    std::vector<uint32_t> rom;
    uint32_t localBytes = 0;
    bool usesBarrier = false;
    std::vector<ArgInfo> args;

    /** Allocates a fresh virtual register id. */
    uint32_t newVReg() { return numVRegs++; }

    /** Interns a 32-bit constant into the ROM, returning its index. */
    uint32_t
    internRom(uint32_t word)
    {
        for (uint32_t i = 0; i < rom.size(); ++i) {
            if (rom[i] == word)
                return i;
        }
        rom.push_back(word);
        return static_cast<uint32_t>(rom.size() - 1);
    }
};

} // namespace bifsim::kclc

#endif // BIFSIM_KCLC_IR_H

#ifndef BIFSIM_GPU_ISA_BIF_H
#define BIFSIM_GPU_ISA_BIF_H

/**
 * @file
 * The BIF shader instruction set — this project's open stand-in for the
 * Arm Bifrost (Mali-G71) native GPU ISA.
 *
 * Structure mirrors the Bifrost execution model the paper describes:
 *
 *  - Instructions are bundled into **clauses** of up to 8 tuples.
 *  - Each tuple has two issue slots: slot 0 feeds the FMA pipe (and the
 *    load/store unit), slot 1 feeds the ADD/SF pipe (and control flow).
 *    An unused slot is an *empty slot* (Fig. 11's NOP category).
 *  - **Temporary registers** t0..t7 are live only within a clause and
 *    relieve pressure on the 64-entry global register file (Fig. 4b).
 *  - Control flow happens only on clause boundaries; threads are grouped
 *    into quads ("warps") of 4 executing in lockstep, with divergence
 *    tracked per clause boundary (§IV-C).
 *
 * Binary layout (little-endian, in guest memory):
 *
 *   header: 8 x u32
 *     [0] magic 'BIF1'   [1] num_clauses  [2] clause_offset (bytes)
 *     [3] rom_offset     [4] rom_words    [5] reg_count
 *     [6] local_bytes    [7] flags (bit0: uses barrier)
 *   clause stream: per clause a u32 header
 *     bits[2:0] tuple_count-1, bit[3] has_branch
 *     followed by tuple_count x 2 u64 slot words
 *   rom: rom_words x u32 embedded constants
 *
 * Slot word (u64):
 *   [7:0] opcode  [15:8] dst  [23:16] src0  [31:24] src1  [39:32] src2
 *   [63:40] imm24 (signed; also cmp mode, const index, branch target)
 */

#include <cstdint>
#include <string>
#include <vector>

namespace bifsim::bif {

/** Architectural limits of the modelled GPU. */
constexpr unsigned kWarpWidth = 4;        ///< Threads per quad/warp.
constexpr unsigned kNumGrfRegs = 64;      ///< Global register file size.
constexpr unsigned kNumTempRegs = 8;      ///< Clause-temporary registers.
constexpr unsigned kMaxTuplesPerClause = 8;
constexpr uint32_t kMaxArgWords = 64;     ///< Argument-table words per job.
constexpr uint32_t kBinaryMagic = 0x31464942u;   // "BIF1"

/** Shader binary flags. */
enum BinaryFlags : uint32_t
{
    kFlagUsesBarrier = 1u << 0,
};

/** Shader opcodes. */
enum class Op : uint8_t
{
    Nop = 0,
    // Arithmetic (FMA pipe).
    FAdd, FSub, FMul, FFma, FMin, FMax, FAbs, FNeg, FFloor,
    IAdd, ISub, IMul, IAnd, IOr, IXor, INot, IShl, IShr, IAsr,
    IMin, IMax, UMin, UMax,
    FCmp, ICmp, UCmp,
    CSel, Mov, MovImm,
    // Conversions and special functions (ADD/SF pipe class but legal in
    // either slot).
    F2I, F2U, I2F, U2F,
    FRcp, FRsqrt, FSqrt, FExp2, FLog2, FSin, FCos,
    IDiv, IRem, UDiv, URem,
    // Constant access (uniform ports).
    LdRom,     ///< dst = rom[imm24]           (ROM read)
    LdArg,     ///< dst = argument word imm24  (constant read)
    // Memory (load/store unit; slot 0 only).
    LdGlobal,   ///< dst = *(u32*)(src0 + imm24)
    LdGlobalU8, ///< dst = zext(*(u8*)(src0 + imm24))
    StGlobal,   ///< *(u32*)(src0 + imm24) = src1
    StGlobalU8, ///< *(u8*)(src0 + imm24) = src1 & 0xff
    LdLocal,    ///< dst = local[src0 + imm24]
    StLocal,    ///< local[src0 + imm24] = src1
    AtomAddG,   ///< dst = atomic_fetch_add((i32*)(src0+imm24), src1)
    AtomAddL,   ///< same on local memory
    // Control flow (clause-terminating; slot 1 only).
    Branch,     ///< goto clause imm24
    BranchZ,    ///< if (src0 == 0) goto clause imm24
    BranchNZ,   ///< if (src0 != 0) goto clause imm24
    Barrier,    ///< workgroup barrier (alone in its clause)
    Ret,        ///< thread terminates
    NumOps_,
};

/** Comparison modes carried in imm24 for FCmp/ICmp/UCmp. */
enum class CmpMode : uint8_t { Eq = 0, Ne, Lt, Le, Gt, Ge };

/** Operand encodings. */
enum Operand : uint8_t
{
    kOperandGrf0 = 0,       ///< 0..63  : GRF r0..r63
    kOperandTemp0 = 64,     ///< 64..71 : temp t0..t7
    kSrLaneId = 72,
    kSrLocalIdX = 73, kSrLocalIdY = 74, kSrLocalIdZ = 75,
    kSrGroupIdX = 76, kSrGroupIdY = 77, kSrGroupIdZ = 78,
    kSrLocalSizeX = 79, kSrLocalSizeY = 80, kSrLocalSizeZ = 81,
    kSrGridSizeX = 82, kSrGridSizeY = 83, kSrGridSizeZ = 84,
    kSrNumGroupsX = 85, kSrNumGroupsY = 86, kSrNumGroupsZ = 87,
    kSrZero = 88,
    kOperandNone = 255,
};

/**
 * Unified register-file layout used by the interpreter fast path: the
 * operand encodings above double as indices into one flat per-thread
 * array (0..63 GRF, 64..71 temps, 72..88 specials preloaded at warp
 * init), plus a write-discard sink so every micro-op can commit its
 * result with an unconditional indexed store.  kSrZero serves as the
 * always-zero source for absent operands.
 */
constexpr unsigned kUnifiedSink = kSrZero + 1;         // 89
constexpr unsigned kNumUnifiedRegs = kUnifiedSink + 1; // 90

/** Returns true for operands naming a GRF register. */
constexpr bool isGrf(uint8_t op) { return op < kNumGrfRegs; }

/** Returns true for operands naming a clause-temporary register. */
constexpr bool
isTemp(uint8_t op)
{
    return op >= kOperandTemp0 && op < kOperandTemp0 + kNumTempRegs;
}

/** Returns true for special read-only operands. */
constexpr bool
isSpecial(uint8_t op)
{
    return op >= kSrLaneId && op <= kSrZero;
}

/** Instruction category for the Fig. 11 mix. */
enum class Category : uint8_t { Arith, LoadStore, ControlFlow, Nop };

/** Returns the category of @p op. */
Category category(Op op);

/** Returns true if @p op may occupy tuple slot 0 (FMA / LS pipe). */
bool legalInSlot0(Op op);

/** Returns true if @p op may occupy tuple slot 1 (ADD / CF pipe). */
bool legalInSlot1(Op op);

/** Returns true if @p op reads a memory address from src0. */
bool isMemoryOp(Op op);

/**
 * Which source operands @p op semantically reads, as a bitmask
 * (bit0 = src0, bit1 = src1, bit2 = src2).  Operand fields outside the
 * mask are dead encoding space: the interpreters never read them, so
 * validation and static analysis ignore their contents.
 */
unsigned srcUseMask(Op op);

/** Returns true if @p op commits a result to its dst operand. */
bool writesDest(Op op);

/** Returns the canonical mnemonic. */
const char *opName(Op op);

/** One instruction slot. */
struct Instr
{
    Op op = Op::Nop;
    uint8_t dst = kOperandNone;
    uint8_t src0 = kOperandNone;
    uint8_t src1 = kOperandNone;
    uint8_t src2 = kOperandNone;
    int32_t imm = 0;

    /** Packs this instruction into a 64-bit slot word. */
    uint64_t encode() const;

    /** Unpacks a 64-bit slot word. */
    static Instr decode(uint64_t word);

    bool operator==(const Instr &) const = default;
};

/** One tuple: two issue slots. */
struct Tuple
{
    Instr slot[2];

    bool operator==(const Tuple &) const = default;
};

/** One clause: up to kMaxTuplesPerClause tuples. */
struct Clause
{
    std::vector<Tuple> tuples;

    bool operator==(const Clause &) const = default;
};

/** An un-encoded shader module (the compiler's output form). */
struct Module
{
    std::vector<Clause> clauses;
    std::vector<uint32_t> rom;      ///< Embedded 32-bit constants.
    uint32_t regCount = 0;          ///< GRF registers used.
    uint32_t localBytes = 0;        ///< Static local memory per group.
    bool usesBarrier = false;

    bool operator==(const Module &) const = default;
};

/**
 * Serialises a module to the binary format above.
 * @throws SimError if the module violates a structural rule (clause
 *         size, slot legality, branch placement, temp-register scope).
 */
std::vector<uint8_t> encode(const Module &mod);

/**
 * Parses a shader binary.  Returns false (and sets @p error) on a
 * malformed image; structural validation matches encode().
 */
bool decode(const uint8_t *data, size_t size, Module &out,
            std::string &error);

/**
 * Validates structural rules on a module.  Returns an empty string when
 * valid, else a description of the first violation.  Rules:
 *  - 1..8 tuples per clause;
 *  - slot legality (LS ops in slot 0, CF ops in slot 1);
 *  - CF ops only in the final tuple of a clause, with Barrier alone;
 *  - branch targets within the module;
 *  - temps read only after being written in the same clause;
 *  - semantically-used GRF operands below the module's regCount.
 */
std::string validate(const Module &mod);

/** Renders one instruction as text. */
std::string disassemble(const Instr &inst);

/** Renders the whole module as text (clause per block). */
std::string disassemble(const Module &mod);

} // namespace bifsim::bif

#endif // BIFSIM_GPU_ISA_BIF_H

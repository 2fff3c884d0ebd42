#ifndef BIFSIM_ANALYSIS_ANALYSIS_H
#define BIFSIM_ANALYSIS_ANALYSIS_H

/**
 * @file
 * Clause-granular static analysis over decoded BIF shader modules.
 *
 * The paper's defining property is that the *unmodified* GPU binary
 * runs inside the simulator, which means a malformed or hostile shader
 * image must be rejected with an architectural fault rather than
 * undefined simulator behaviour.  This framework provides that gate
 * twice over:
 *
 *  - as a **verifier** the Job Manager runs at shader decode time
 *    (GpuDevice::getShader), rejecting unsafe-class findings by failing
 *    the job with a ShaderVerify fault + kIrqJobFault instead of
 *    executing a bad image; and
 *  - as a **lint** gate on kclc's own output (post schedule/regalloc,
 *    at every optimisation level) plus the standalone `biflint` tool,
 *    catching miscompiles such as temp-register scope violations, dead
 *    stores and uninitialised reads.
 *
 * Structure: a clause-level control-flow graph (successors from
 * fall-through plus Branch/BranchZ/BranchNZ targets) feeds iterative
 * dataflow passes —
 *
 *  - GRF definite assignment: may-/must-assigned register sets per
 *    clause (forward, union/intersection over predecessors).  A read
 *    with no reaching definition on *any* path is an error
 *    (uninit-read); a read unassigned on *some* path is a warning
 *    (maybe-uninit-read).  Semantically-used operands referencing a
 *    GRF index at or above the module's regCount are errors.
 *  - Temp-register scope: t0..t7 must be written before read within
 *    each clause, even after the scheduler reorders tuples.
 *  - Dead-write detection: GRF liveness (backward); a write whose
 *    value no path ever reads is a warning.
 *  - Static bounds: LdRom indices against rom.size(), LdArg indices
 *    against the runtime argument table (bif::kMaxArgWords), branch
 *    targets against the clause count.
 *
 * Every finding carries a severity, a clause/tuple/slot location and a
 * disassembled excerpt, renders as text, and is emitted into the trace
 * subsystem as instants by the GPU-side verifier.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "gpu/isa/bif.h"
#include "instrument/cfg.h"

namespace bifsim::analysis {

/** Diagnostic severity. */
enum class Severity : uint8_t { Note = 0, Warning, Error };

/** Diagnostic class. */
enum class Check : uint8_t
{
    GrfBounds = 0,    ///< GRF operand index >= module regCount.
    UninitRead,       ///< GRF read with no reaching write on any path.
    MaybeUninitRead,  ///< GRF read unassigned on some path.
    TempScope,        ///< Temp read before write within its clause.
    DeadWrite,        ///< GRF write never read on any path to exit.
    RomBounds,        ///< LdRom index outside the embedded ROM.
    ArgBounds,        ///< LdArg index outside the argument table.
    BadBranch,        ///< Branch target outside the module.
    Unreachable,      ///< Clause unreachable from the entry clause.
};

/** Canonical kebab-case name of a check ("uninit-read", ...). */
const char *checkName(Check c);

/** Severity name ("note" / "warning" / "error"). */
const char *severityName(Severity s);

/**
 * True for checks whose violation makes *executing* the image
 * architecturally undefined (the classes the decode-time verifier
 * rejects).  Pure lint classes — uninitialised reads (architecturally
 * read as zero), dead writes, unreachable clauses — are excluded.
 */
bool isUnsafe(Check c);

/** One finding, anchored to an instruction slot. */
struct Diag
{
    Check check = Check::UninitRead;
    Severity sev = Severity::Error;
    uint32_t clause = 0;
    uint32_t tuple = 0;
    uint8_t slot = 0;
    uint8_t reg = 0xff;       ///< GRF/temp index involved (0xff: n/a).
    std::string message;      ///< Human-readable description.
    std::string excerpt;      ///< Disassembly of the anchor instruction.
};

/** Renders one diagnostic as a two-line text block. */
std::string renderDiag(const Diag &d);

/**
 * The clause-granular control-flow graph.  Node i is clause i;
 * successors are clause indices or kExit for thread termination (Ret,
 * or falling off the end of the module).
 */
struct ClauseCfg
{
    static constexpr uint32_t kExit = 0xffffffffu;

    struct Node
    {
        std::vector<uint32_t> succs;   ///< Ordered, deduplicated.
        std::vector<uint32_t> preds;   ///< Clause indices only.
        bool reachable = false;        ///< BFS from clause 0.
    };

    std::vector<Node> nodes;

    /** Builds the graph (out-of-range branch targets get no edge; the
     *  analyzer reports them separately). */
    static ClauseCfg build(const bif::Module &mod);

    /** Converts to the instrumentation CFG type (thread counts zero,
     *  static multi-successor nodes flagged divergent) so the existing
     *  Fig. 6 DOT renderer applies to static graphs. */
    instrument::Cfg toInstrumentCfg() const;
};

/** Analysis knobs. */
struct Options
{
    /** Run the backward liveness / dead-write pass. */
    bool deadWrites = true;
};

/** The full analysis result. */
struct Result
{
    std::vector<Diag> diags;   ///< Sorted by location.
    ClauseCfg cfg;

    /** Number of diagnostics at exactly @p s. */
    size_t count(Severity s) const;

    /** Any error-severity diagnostic? */
    bool hasErrors() const;

    /** Any diagnostic of an unsafe class (see isUnsafe)? */
    bool hasUnsafe() const;

    /** All diagnostics rendered as text ("" when clean). */
    std::string render() const;
};

/**
 * The decode-time verifier's one policy: the first unsafe-class
 * finding (OOB ROM/arg indices, GRF bounds, temp scope, bad branches),
 * or nullptr when the image may execute.  Lint-class findings still
 * execute, as real hardware would.
 */
const Diag *firstRejected(const Result &r);

/** Runs every pass over @p mod. */
Result analyze(const bif::Module &mod, const Options &opts = Options());

} // namespace bifsim::analysis

#endif // BIFSIM_ANALYSIS_ANALYSIS_H

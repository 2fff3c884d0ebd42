#ifndef BIFSIM_GPU_SHADER_CORE_H
#define BIFSIM_GPU_SHADER_CORE_H

/**
 * @file
 * Shader-core execution (paper §III-B2/3).
 *
 * The interpretive execution model is split into two phases: shader
 * binaries are decoded exactly once into a DecodedShader (with all
 * static instrumentation precomputed), then a dispatcher iterates over
 * the job dimensions creating warps of four threads ("quads") that
 * execute clauses in lockstep.  Thread-groups (OpenCL workgroups) are
 * distributed as contiguous slices into per-worker Chase-Lev deques at
 * job start; idle workers steal slices from victims (work_queue.h) —
 * the "virtual cores" optimisation: more host threads than guest
 * shader cores, with simulator-private local memory per host thread
 * and no shared-counter traffic on the claim path.
 *
 * Execute fast path: at decode time each clause's tuples are lowered
 * into a dense pre-resolved micro-op array (opcode, unified-register
 * operand indices, immediate), so the per-warp execute loop iterates a
 * flat array instead of re-walking tuple/slot structures and re-testing
 * operand kinds.  Because every shader is decoded exactly once
 * (§III-B2), the lowering cost amortises to zero.  The independent
 * scalar interpreter in gpu/ref/ is the differential-testing oracle
 * for this executor (paper §V-A2).
 */

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_annotations.h"

#include "gpu/gmmu.h"
#include "gpu/isa/bif.h"
#include "gpu/shader_cache.h"
#include "gpu/work_queue.h"
#include "instrument/stats.h"
#include "mem/phys_mem.h"

namespace bifsim::gpu {

/**
 * One pre-resolved instruction of the flattened dispatch stream.
 *
 * Operands are unified register-file indices (see bif.h): absent
 * sources read the always-zero kSrZero slot and non-writing or invalid
 * destinations target the kUnifiedSink slot, so the execute loop needs
 * no per-instruction operand-kind or writeback tests.
 */
struct MicroOp
{
    bif::Op op = bif::Op::Nop;
    uint8_t dst = bif::kUnifiedSink;
    uint8_t src0 = bif::kSrZero;
    uint8_t src1 = bif::kSrZero;
    uint8_t src2 = bif::kSrZero;
    int32_t imm = 0;
};

/** A decoded shader with precomputed static instrumentation. */
struct DecodedShader
{
    bif::Module mod;
    std::vector<ClauseStaticInfo> info;
    std::vector<uint8_t> isBarrier;   ///< Per clause: barrier clause?

    // Flattened micro-op dispatch stream (paper §III-B2: built exactly
    // once per shader at decode time).
    std::vector<MicroOp> uops;        ///< All clauses, Nop slots elided.
    std::vector<uint32_t> uopStart;   ///< Per clause, size clauses+1.
    std::vector<uint8_t> hasCf;       ///< Per clause: any control flow?
    bool anyBarrier = false;          ///< Any barrier clause at all?

    /** Builds the derived tables from @p m. */
    static DecodedShader build(bif::Module m);
};

/** The in-memory job descriptor format (12 little-endian u32 words). */
struct JobDescriptor
{
    static constexpr uint32_t kSizeBytes = 48;
    static constexpr uint32_t kTypeNull = 0;
    static constexpr uint32_t kTypeCompute = 1;

    uint32_t jobType = kTypeCompute;
    uint32_t next = 0;          ///< GPU VA of next job in chain (0=end).
    uint32_t grid[3] = {1, 1, 1};  ///< Global size in work-items.
    uint32_t wg[3] = {1, 1, 1};    ///< Workgroup size.
    uint32_t binaryVa = 0;      ///< GPU VA of the shader binary.
    uint32_t argsVa = 0;        ///< GPU VA of the argument table.
    uint32_t localSize = 0;     ///< Local memory bytes per group.
    uint32_t localBase = 0;     ///< GPU VA of driver-allocated local
                                ///< arena (informational; see below).

    /** Serialises to the guest format. */
    void writeTo(uint8_t *dst) const;

    /** Parses from the guest format. */
    static JobDescriptor readFrom(const uint8_t *src);
};

/** Why a job failed. */
enum class JobFaultKind : uint8_t
{
    None = 0,
    BadDescriptor,     ///< Descriptor unreadable or bad job type.
    BadDimensions,     ///< Grid not a multiple of workgroup size, etc.
    BadBinary,         ///< Shader binary unreadable or malformed.
    MmuFault,          ///< Translation fault on a data access.
    BadAccess,         ///< Misaligned or out-of-range (local) access.
    DivergentBarrier,  ///< Barrier reached with divergent threads.
    ShaderVerify,      ///< Decode-time static verifier rejected the
                       ///< image (see GpuConfig::verify).
};

/** Fault details (reflected into AS_FAULTSTATUS/AS_FAULTADDRESS). */
struct JobFault
{
    JobFaultKind kind = JobFaultKind::None;
    uint32_t va = 0;
    std::string detail;
};

/** Maximum argument-table words preloaded per job. */
constexpr uint32_t kMaxArgWords = 64;

/**
 * Everything shared by the workers executing one job.  Immutable while
 * the job runs except for the fault latch; published to the parked
 * workers through the pool mutex (see DESIGN.md §5f).
 */
struct JobContext
{
    const DecodedShader *shader = nullptr;   ///< Authoritative image.
    std::shared_ptr<DecodedShader> shaderRef;   ///< Pins @c shader for
                                                ///< the job's duration.
    JobDescriptor desc;
    GpuMmu *mmu = nullptr;
    PhysMem *mem = nullptr;
    const ShaderCacheL2 *shaderCache = nullptr;  ///< Worker L1 backing.
    SliceDeque *deques = nullptr;       ///< Per-worker slice deques
                                        ///< (numWorkers of them).
    unsigned numWorkers = 1;
    uint32_t args[kMaxArgWords] = {};
    uint32_t groups[3] = {1, 1, 1};
    uint32_t totalGroups = 1;
    bool collect = true;                ///< Instrumentation enabled.

    std::atomic<bool> faulted{false};

    /** Fault latch lock.  Never held together with the GPU device lock
     *  (runJob copies the fault out under faultLock, releases it, then
     *  reports under lock_). */
    sim::Mutex faultLock;
    JobFault fault GUARDED_BY(faultLock);
    uint32_t faultGroup GUARDED_BY(faultLock) = 0xffffffffu;
                                         ///< Lowest faulting group.

    /**
     * Records a fault raised by workgroup @p group (thread-safe; any
     * worker).  The lowest-numbered faulting workgroup wins, not the
     * first to arrive: every group always executes (a fault stops only
     * its own group), so the reported fault — and every guest-visible
     * side effect of the job — is independent of worker count and
     * steal timing.
     */
    void raiseFault(uint32_t group, JobFaultKind kind, uint32_t va,
                    const std::string &detail);
};

/**
 * Executes workgroups on behalf of one host worker thread.
 *
 * Owns the worker's TLB, the simulator-private local-memory buffer (the
 * paper's §III-B3 mechanism for running more thread-groups in parallel
 * than the guest has shader cores), the worker's shader-cache L1 and
 * the instrumentation collectors.
 *
 * Threading: every method runs on the owning worker thread only.  The
 * accessors (collector(), tlb(), sched()) are read by the dispatching
 * thread *after* the job-completion barrier, never concurrently with
 * execution.
 */
class WorkgroupExecutor
{
  public:
    WorkgroupExecutor() = default;

    /** Prepares for a new job: syncs the TLB epoch, resets the
     *  collectors and resolves the shader through the worker's L1.
     *  @param worker_index  This worker's slot in JobContext::deques. */
    void beginJob(JobContext *job, unsigned worker_index);

    /** Runs slices from the worker's own deque, then steals from the
     *  other workers' deques until a full scan finds them all empty. */
    void runUntilDone();

    /** Folds per-clause execution counts into the kernel totals
     *  (called once per worker at job completion, paper §IV-A). */
    void finalize();

    /** The worker's merged statistics (valid after finalize()). */
    const WorkerCollector &collector() const { return coll_; }

    /** The worker's TLB (counters folded into the job result). */
    const GpuTlb &tlb() const { return tlb_; }

    /** The worker's scheduler counters for the current job. */
    const SchedStats &sched() const { return sched_; }

    /** Attaches the owning worker thread's trace buffer (null = off).
     *  Called once from the worker thread before any job runs. */
    void setTrace(trace::TraceBuffer *buf);

  private:
    /** Per-thread state within a warp: one unified register file (GRF,
     *  clause temporaries, warp-init-preloaded specials, write sink)
     *  plus the clause-granular PC. */
    struct Thread
    {
        uint32_t reg[bif::kNumUnifiedRegs];
        uint32_t pc;           ///< Clause index.
        bool done;
    };

    /** A warp of kWarpWidth threads executing in lockstep. */
    struct Warp
    {
        Thread threads[bif::kWarpWidth];
        unsigned numThreads = 0;   ///< Live threads (tail warps < width).
        bool atBarrier = false;
    };

    enum class WarpStop { Done, Barrier, Fault };

    JobContext *job_ = nullptr;
    GpuTlb tlb_;
    std::vector<uint8_t> local_;
    WorkerCollector coll_;
    SchedStats sched_;
    unsigned index_ = 0;           ///< Slot in JobContext::deques.
    ShaderCacheL1 shaderL1_;       ///< Worker-private decode cache.
    std::shared_ptr<DecodedShader> shaderRef_;  ///< Job-duration pin.
    uint32_t groupId_[3] = {0, 0, 0};
    uint32_t curGroup_ = 0;        ///< Linear index of running group.
    bool groupFault_ = false;      ///< Current group raised a fault.

    trace::TraceBuffer *traceBuf_ = nullptr;   ///< Null = tracing off.
    uint64_t jobStartTs_ = 0;      ///< beginJob timestamp (trace only).
    uint64_t groupsRun_ = 0;       ///< Groups claimed this job (trace).

    // Lazy instrumentation (§IV-A): clause execution counts accumulate
    // into this scratch array while a workgroup runs and fold into the
    // collector once per group, off the per-clause path.
    std::vector<uint64_t> groupExec_;
    uint32_t lastPageIns_ = 0xffffffffu;  ///< Last page-set insert.

    void runSlice(const GroupSlice &s);
    void runGroup(uint32_t linear_group);
    WarpStop runWarp(Warp &warp);
    void initWarp(Warp &w, uint32_t warp_idx, uint32_t group_threads);
    void foldGroupExec();

    /** Executes clause @p c for the @p mask threads of @p warp over the
     *  flattened micro-op stream.  Returns false on fault. */
    bool execClause(Warp &warp, uint32_t c, uint32_t mask);

    /** Commits per-thread next-PCs and divergence bookkeeping at the
     *  end of a clause. */
    bool commitClause(Warp &warp, uint32_t c, uint32_t mask, bool has_cf,
                      const uint32_t *next_pc, const bool *exits);

    /** Raises @p kind against the current workgroup: latches it into
     *  the job (lowest group wins) and stops this group's warps. */
    void raiseFault(JobFaultKind kind, uint32_t va,
                    const std::string &detail);

    bool memAccess(uint32_t va, unsigned size, bool write, uint32_t &val);
    bool localAccess(uint32_t offset, bool write, uint32_t &val);
    uint32_t *atomicHostPtr(uint32_t va);
    void notePage(uint32_t vpn);
};

} // namespace bifsim::gpu

#endif // BIFSIM_GPU_SHADER_CORE_H

#ifndef BIFSIM_GPU_GPU_H
#define BIFSIM_GPU_GPU_H

/**
 * @file
 * The GPU device model: memory-mapped registers, the Job Manager (which
 * runs in its own host simulation thread, paper §III-B4), the shader
 * decode cache, and the worker pool implementing the virtual-core
 * optimisation (§III-B3).
 *
 * The CPU interacts with the GPU exactly as the paper describes
 * (§III-B1): the driver writes job descriptors and page tables into
 * shared memory, pokes control registers, and receives completion
 * through interrupt lines.
 *
 * Register map (byte offsets from the device base):
 *
 *   0x000 GPU_ID          (ro)  0x4731'0000 | shader-core count
 *   0x004 GPU_IRQ_RAWSTAT (ro)  bit0 JOB_DONE, bit1 JOB_FAULT,
 *                               bit2 MMU_FAULT
 *   0x008 GPU_IRQ_CLEAR   (wo)  write-1-to-clear
 *   0x00C GPU_IRQ_MASK    (rw)
 *   0x010 GPU_IRQ_STATUS  (ro)  RAWSTAT & MASK
 *   0x014 GPU_CMD         (wo)  1 = flush shader decode cache
 *   0x020 JS_SUBMIT       (wo)  GPU VA of first descriptor in a chain
 *   0x024 JS_STATUS       (ro)  0 idle / 1 running / 2 done / 3 fault
 *   0x028 JS_JOBCOUNT     (ro)  completed jobs (cumulative)
 *   0x030 AS_TRANSTAB     (rw)  physical addr of GPU page-table root
 *   0x034 AS_COMMAND      (wo)  1 = broadcast TLB flush to workers
 *   0x038 AS_FAULTSTATUS  (ro)  JobFaultKind of last fault
 *   0x03C AS_FAULTADDRESS (ro)  faulting GPU VA
 *   0x040 SC_COUNT        (ro)  guest shader cores
 *   0x044 SC_THREADS      (ro)  runtime-effective host worker count
 *                               (simulator detail; reflects auto
 *                               detection, not the configured value)
 *
 * Threading (full model in DESIGN.md §5f, static contract §5i): MMIO
 * handlers run on the CPU/caller thread under lock_; the Job Manager
 * chain loop runs on its own thread (or inline on the submitting
 * thread under GpuConfig::syncSubmit); that thread runs executor 0
 * of every job itself, and the hostThreads - 1 pool workers, parked
 * on poolLock_ between jobs, run the others.  Executors claim slices
 * of the grid from per-worker queues, each under its own leaf lock
 * (work_queue.h).  lock_ and poolLock_ are never held together (the
 * job dispatch in runJob takes poolLock_ strictly after the chain walk
 * released lock_); no lock is held while executing guest shader code.
 */

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"

#include "gpu/gmmu.h"
#include "gpu/shader_core.h"
#include "gpu/work_queue.h"
#include "instrument/stats.h"
#include "mem/device.h"
#include "mem/phys_mem.h"
#include "metrics/metrics.h"
#include "trace/trace.h"

namespace bifsim::replay {
class Recorder;
}

namespace bifsim::gpu {

/** GPU model configuration. */
struct GpuConfig
{
    unsigned numCores = 8;     ///< Guest-visible shader cores (Mali-G71
                               ///< MP8 as on the HiKey960).

    /**
     * Host worker threads ("virtual cores").  0 = auto-detect: the
     * host's hardware concurrency (min 1).  The thread that dispatches
     * a job is one of them, so the device starts hostThreads - 1 pool
     * threads.  The resolved value is visible in GpuDevice::config()
     * and the SC_THREADS register.
     */
    unsigned hostThreads = 8;

    /**
     * Debug knob: deal every workgroup slice to worker 0's queue so
     * all other workers must steal.  Exists to make the stealing path
     * deterministically reachable from stress tests; never enable for
     * performance runs.
     */
    bool skewSlices = false;

    bool instrument = true;    ///< Collect execution statistics.
    bool trace = false;        ///< Job-lifecycle tracing (src/trace/);
                               ///< off costs one branch per event site.

    /**
     * Deterministic co-simulation: a JS_SUBMIT write runs the whole
     * chain inline on the submitting (CPU) thread, and the device
     * starts no Job Manager thread.  The completion IRQ is then
     * pending before the guest driver reaches its wait loop, so the
     * interleaving of CPU instructions and GPU completions — and with
     * it every guest-visible artefact (mailbox IRQ counters, trap save
     * areas, idle timer ticks) — is a pure function of the guest
     * state.
     * Required for bit-identical snapshot/resume in FullSystem mode.
     */
    bool syncSubmit = false;
};

/** Merged results for the most recent job. */
struct JobResult
{
    KernelStats kernel;
    TlbStats tlb;              ///< Translation fast-path counters.
    uint64_t pagesAccessed = 0;
    bool faulted = false;
    JobFault fault;
};

/** Serialises a JobResult (stats + fault details) into @p w. */
void saveJobResult(snapshot::ChunkWriter &w, const JobResult &r);

/** Restores a JobResult from @p r (parse-then-commit). */
void restoreJobResult(snapshot::ChunkReader &r, JobResult &out);

/** GPU register offsets. */
enum GpuReg : Addr
{
    kRegGpuId = 0x000,
    kRegIrqRawStat = 0x004,
    kRegIrqClear = 0x008,
    kRegIrqMask = 0x00c,
    kRegIrqStatus = 0x010,
    kRegGpuCmd = 0x014,
    kRegJsSubmit = 0x020,
    kRegJsStatus = 0x024,
    kRegJsJobCount = 0x028,
    kRegAsTranstab = 0x030,
    kRegAsCommand = 0x034,
    kRegAsFaultStatus = 0x038,
    kRegAsFaultAddress = 0x03c,
    kRegScCount = 0x040,
    kRegScThreads = 0x044,
};

/** GPU_IRQ bits. */
enum GpuIrqBits : uint32_t
{
    kIrqJobDone = 1u << 0,
    kIrqJobFault = 1u << 1,
    kIrqMmuFault = 1u << 2,
};

/** JS_STATUS values. */
enum JsStatus : uint32_t
{
    kJsIdle = 0,
    kJsRunning = 1,
    kJsDone = 2,
    kJsFault = 3,
};

/**
 * The simulated Mali-like GPU.
 *
 * Construction spawns the Job Manager thread (async submit only) and
 * the worker pool; both are joined at destruction.  All MMIO accesses
 * are counted into the system statistics (Table III's control-register
 * traffic).
 */
class GpuDevice : public Device
{
  public:
    using IrqFn = std::function<void(bool level)>;

    /**
     * @param mem  Guest physical memory (shared with the CPU).
     * @param cfg  Model configuration.
     * @param irq  Interrupt output (wired to the platform INTC).
     */
    GpuDevice(PhysMem &mem, GpuConfig cfg, IrqFn irq);
    ~GpuDevice() override;

    GpuDevice(const GpuDevice &) = delete;
    GpuDevice &operator=(const GpuDevice &) = delete;

    /** Threading: any thread (normally the simulated CPU's); serialised
     *  internally by the device lock. */
    uint32_t mmioRead(Addr offset) override EXCLUDES(lock_);

    /** Threading: any thread.  Under GpuConfig::syncSubmit a JS_SUBMIT
     *  write runs the whole chain inline before returning; otherwise it
     *  only enqueues for the Job Manager thread. */
    void mmioWrite(Addr offset, uint32_t value) override
        EXCLUDES(lock_, poolLock_);

    std::string name() const override { return "gpu"; }

    /** Blocks the calling host thread until all submitted chains have
     *  completed (host-side convenience for the direct runtime mode).
     *  Threading: any thread except the Job Manager itself. */
    void waitIdle() EXCLUDES(lock_);

    /** True if no chain is queued or running (snapshot quiescence).
     *  Threading: any thread; instantaneous unless externally fenced. */
    bool idle() const EXCLUDES(lock_);

    /** Returns the device to its power-on state (must be idle).
     *  Threading: any single thread, with no concurrent MMIO. */
    void reset() override EXCLUDES(lock_);

    /**
     * Serialises JM registers, AS/TRANSTAB configuration, job-slot
     * state and statistics into @p w.  The GPU must be quiescent
     * (idle()); throws snapshot::SnapshotError otherwise — job-slot
     * state mid-chain is not capturable.
     * Threading: any single thread, no concurrent MMIO/submits.
     */
    void saveState(snapshot::ChunkWriter &w) const EXCLUDES(lock_);

    /**
     * Restores from @p r.  Clears the shader decode cache and installs
     * the saved translation root through GpuMmu::setRoot(), whose epoch
     * bump invalidates every worker's host-pointer TLB, so no stale
     * translation or decoded shader can be served after a restore.
     * Threading: any single thread, no concurrent MMIO/submits.
     */
    void restoreState(snapshot::ChunkReader &r) EXCLUDES(lock_);

    /** Results of the most recently completed job.
     *  Threading: any thread (returns a copy taken under the lock). */
    JobResult lastJob() const EXCLUDES(lock_);

    /** Kernel statistics accumulated over all jobs.
     *  Threading: any thread. */
    KernelStats totalKernelStats() const EXCLUDES(lock_);

    /** System-level statistics (Table III).  Threading: any thread. */
    SystemStats systemStats() const EXCLUDES(lock_);

    /** Shader decode-cache statistics.  Threading: any thread. */
    ShaderCacheStats shaderCacheStats() const EXCLUDES(lock_);

    /** Work-stealing scheduler statistics accumulated over all jobs
     *  (host-side diagnostic; not snapshotted).
     *  Threading: any thread. */
    SchedStats schedulerStats() const EXCLUDES(lock_);

    /** Clears all statistics (not the decode cache).
     *  Threading: any thread. */
    void resetStats() EXCLUDES(lock_);

    /** The GPU MMU (used by host-side direct setup paths and tests).
     *  Threading: the returned reference is itself thread-safe per the
     *  GpuMmu contract (gmmu.h). */
    GpuMmu &mmu() { return mmu_; }

    /** The model configuration, with auto-detected fields resolved
     *  (hostThreads is never 0 here).  Threading: any thread;
     *  immutable after construction. */
    const GpuConfig &config() const { return cfg_; }

    /** The job-lifecycle tracer (no-op unless GpuConfig::trace).
     *  Threading: per the trace::Tracer contract (trace.h). */
    trace::Tracer &tracer() { return tracer_; }

    /** Raw guest-visible register state for replay fingerprints.
     *  Unlike mmioRead() this does not count into SystemStats — a
     *  recorder probe must not perturb the guest-visible
     *  control-register counters.
     *  Threading: any thread (copied under the device lock). */
    struct RegState
    {
        uint32_t irqRaw;
        uint32_t jsStatus;
        uint32_t jobCount;
        uint32_t faultStatus;
        uint32_t faultAddress;
    };
    RegState regState() const EXCLUDES(lock_);

    /**
     * Attaches (or, with nullptr, detaches) a CPU<->GPU boundary
     * recorder (src/replay/).  Attaching requires GpuConfig::syncSubmit
     * — the chain then runs inline on the submitting thread, so every
     * hook fires in causal order on one thread — and an idle device;
     * throws SimError otherwise.
     * Threading: simulation thread only, no concurrent MMIO.
     */
    void setRecorder(replay::Recorder *rec) EXCLUDES(lock_);

  private:
    PhysMem &mem_;
    GpuConfig cfg_;
    IrqFn irq_;
    GpuMmu mmu_;
    trace::Tracer tracer_;
    trace::TraceBuffer *devBuf_ = nullptr;   ///< MMIO/IRQ events; the
                                             ///< pointer is immutable
                                             ///< after construction,
                                             ///< all event writes
                                             ///< happen under lock_.
    trace::TraceBuffer *jmBuf_ = nullptr;    ///< Chain-execution thread
                                             ///< (also executor 0).
    replay::Recorder *recorder_ GUARDED_BY(lock_) = nullptr;
                                             ///< Boundary capture hooks
                                             ///< (null = not recording).

    /** Device lock: MMIO register file, IRQ lines, submit queue, and
     *  the guest-visible statistics.  Never held together with
     *  poolLock_ and never while guest shader code executes. */
    mutable sim::Mutex lock_;
    sim::CondVar cv_;                   ///< JM wakeup / waitIdle.
    std::deque<uint32_t> submitQueue_ GUARDED_BY(lock_);
    std::atomic<bool> shutdown_{false};
    bool chainActive_ GUARDED_BY(lock_) = false;

    uint32_t irqRaw_ GUARDED_BY(lock_) = 0;
    uint32_t irqMask_ GUARDED_BY(lock_) = 0;
    uint32_t jsStatus_ GUARDED_BY(lock_) = kJsIdle;
    uint32_t jobCount_ GUARDED_BY(lock_) = 0;
    uint32_t faultStatus_ GUARDED_BY(lock_) = 0;
    uint32_t faultAddress_ GUARDED_BY(lock_) = 0;
    bool irqLevel_ GUARDED_BY(lock_) = false;

    SystemStats sys_ GUARDED_BY(lock_);
    /** Metrics baseline for sys_ and cacheStats_ (§5k): both also grow
     *  outside runJob (MMIO, IRQs, chain decodes), so each
     *  job-completion batch carries their growth since the last
     *  publish. */
    metrics::CounterBaseline sysBase_ GUARDED_BY(lock_);
    KernelStats total_ GUARDED_BY(lock_);
    JobResult lastJob_ GUARDED_BY(lock_);
    SchedStats sched_ GUARDED_BY(lock_);   ///< Accumulated over jobs.

    /** Decode cache (paper §III-B2): binary VA -> decoded image.  Every
     *  flush clears it and bumps shaderGen_, and a miss caches its
     *  decode only if shaderGen_ did not move meanwhile (getShader).
     *  A running job pins its image through JobContext::shaderRef, so
     *  clearing is legal at any time. */
    std::unordered_map<uint32_t, std::shared_ptr<DecodedShader>>
        shaders_ GUARDED_BY(lock_);
    uint64_t shaderGen_ GUARDED_BY(lock_) = 0;
    ShaderCacheStats cacheStats_ GUARDED_BY(lock_);   ///< Guest-visible.
    GpuTlb jmTlb_;                 ///< Chain-walk TLB (readVaRange).

    // Worker pool.  Executor 0 belongs to the dispatching thread (the
    // chain-execution thread, runJob's caller) from the deal to the
    // barrier; workers_[i] runs executor i + 1 and parks on
    // wakeCv_[i].  A job that needs workers is published by setting
    // activeJob_ and woken_ and bumping jobSeq_ under poolLock_; the
    // workers of executors 1..woken_ are then woken, and completion is
    // the workersDone_ == woken_ barrier on poolDoneCv_.  The slice queues are (re)filled only
    // while the pool is parked.
    sim::Mutex poolLock_;
    std::unique_ptr<sim::CondVar[]> wakeCv_;   ///< One per pool thread.
    sim::CondVar poolDoneCv_;
    JobContext *activeJob_ GUARDED_BY(poolLock_) = nullptr;
    uint64_t jobSeq_ GUARDED_BY(poolLock_) = 0;
    unsigned woken_ GUARDED_BY(poolLock_) = 0;   ///< Workers in jobSeq_.
    unsigned workersDone_ GUARDED_BY(poolLock_) = 0;
    std::vector<WorkgroupExecutor> executors_;   ///< One per host
                                                 ///< worker; cache-line
                                                 ///< aligned.
    std::unique_ptr<SliceDeque[]> deques_;   ///< One per executor; each
                                             ///< under its own leaf lock.
    PageSet jobPages_;             ///< Union of the executors' page sets.
                                   ///< Chain-execution thread only
                                   ///< (runJob).
    std::vector<std::thread> workers_;   ///< hostThreads - 1 threads.
    std::thread jmThread_;   ///< Async submit only (not syncSubmit).

    void jmMain() EXCLUDES(lock_, poolLock_);
    /** Pool thread loop for executor @p idx (1 <= idx < hostThreads). */
    void workerMain(unsigned idx) EXCLUDES(lock_, poolLock_);

    /** Executes one chain of jobs starting at @p desc_va. */
    void runChain(uint32_t desc_va) EXCLUDES(lock_, poolLock_);

    /** Executes one job; returns false on fault (chain stops). */
    bool runJob(const JobDescriptor &desc) EXCLUDES(lock_, poolLock_);

    /** Deals the grid into per-worker slice queues (pool parked). */
    void distributeSlices(uint32_t total_groups);

    /** Reads @p len bytes at GPU VA @p va through the MMU. */
    bool readVaRange(uint32_t va, size_t len, std::vector<uint8_t> &out);

    /** Decodes (or fetches from cache) and statically verifies the
     *  shader at @p binary_va.  On failure returns nullptr with @p kind
     *  set to the fault class to report. */
    std::shared_ptr<DecodedShader> getShader(uint32_t binary_va,
                                             std::string &error,
                                             JobFaultKind &kind);

    /** Latches @p bits into IRQ_RAWSTAT and refreshes the output line.
     *  Note the irq_ callback fires synchronously under lock_; the INTC
     *  sink must therefore never call back into GPU MMIO (it doesn't —
     *  it only latches its own pending bits; DESIGN.md §5f). */
    void raiseIrqLocked(uint32_t bits) REQUIRES(lock_);
    /** Drops every decoded shader (GPU_CMD flush, root switch, reset,
     *  restore). */
    void flushShadersLocked() REQUIRES(lock_);
    void updateIrqOutput() REQUIRES(lock_);

    /** Appends sys_'s and cacheStats_'s growth since the last metrics
     *  publish to @p batch (§5k). */
    void appendSysDeltasLocked(std::vector<NamedCounter> &batch)
        REQUIRES(lock_);

    /** Replaces sys_ and cacheStats_ on a reset or restore.  Growth
     *  not yet published is published first (work done before a reset
     *  still counts); the new values become the baseline (restored
     *  counts are not work done). */
    void setSysStatsLocked(const SystemStats &s,
                           const ShaderCacheStats &cache) REQUIRES(lock_);
};

} // namespace bifsim::gpu

#endif // BIFSIM_GPU_GPU_H

#ifndef BIFSIM_RUNTIME_SESSION_H
#define BIFSIM_RUNTIME_SESSION_H

/**
 * @file
 * The OpenCL-like host runtime.
 *
 * A Session plays the role of the vendor CL stack on top of the
 * simulated platform: it allocates device buffers in guest memory,
 * JIT-compiles KCL kernels with kclc at enqueue time, builds job
 * descriptors and argument tables, installs GPU page-table mappings,
 * and drives the Job Manager.
 *
 * Two modes reproduce the paper's architectural distinction:
 *
 *  - Mode::Direct      the host pokes the MMIO registers itself
 *                      (fast; the GPU-only use case of Fig. 7/8).
 *  - Mode::FullSystem  every submission goes through the *guest*
 *                      driver: the simulated CPU installs the page
 *                      tables, writes the registers, sleeps in WFI and
 *                      services the completion interrupt (Fig. 9,
 *                      Table III).
 *
 * Threading: a Session is a single-threaded object — exactly one host
 * thread (the "simulation thread" of DESIGN.md §5f) constructs it and
 * makes all calls on it; no method is safe to call concurrently with
 * any other.  Parallelism lives *below* this API: enqueue() hands the
 * job to the GPU's worker pool (GpuConfig::hostThreads workers,
 * work-stealing scheduler) and blocks until completion, so callers
 * never observe partial results.  The per-method "Threading:" lines
 * below only flag the few additional constraints (quiescence for
 * snapshot/trace export).  Because exactly one thread may touch a
 * Session, it carries no sim::Mutex and no GUARDED_BY annotations
 * (DESIGN.md §5i single-owner exemption).
 */

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "gpu/shader_core.h"
#include "guestos/guest_os.h"
#include "kclc/compiler.h"
#include "replay/replay.h"
#include "runtime/system.h"
#include "snapshot/snapshot.h"

namespace bifsim::rt {

/** How kernel submissions reach the GPU. */
enum class Mode { Direct, FullSystem };

/** A device buffer in guest memory, mapped into the GPU VA space. */
struct Buffer
{
    uint32_t gpuVa = 0;
    Addr pa = 0;
    size_t bytes = 0;
};

/** A kernel launch argument. */
struct Arg
{
    enum class Kind : uint8_t { Buf, I32, U32, F32 };

    Kind kind = Kind::I32;
    uint32_t value = 0;

    static Arg buf(const Buffer &b);
    static Arg i32(int32_t v);
    static Arg u32(uint32_t v);
    static Arg f32(float v);
};

/** Launch dimensions. */
struct NDRange
{
    uint32_t x = 1, y = 1, z = 1;
};

/** A kernel loaded into guest memory, ready to launch. */
struct KernelHandle
{
    kclc::CompiledKernel info;
    uint32_t binaryVa = 0;
    Addr binaryPa = 0;
};

/**
 * One simulated platform plus the CL-like stack driving it.
 */
class Session
{
  public:
    explicit Session(SystemConfig cfg = SystemConfig(),
                     Mode mode = Mode::Direct);

    /**
     * Warm boot: builds a Session from a snapshot image previously
     * written by saveSnapshot().  RAM geometry and shader-core count
     * come from the image; the remaining knobs (fast path, tracing,
     * host threads...) come from @p base.  Loaded kernels and buffers
     * are rebuilt from the image, so the session can enqueue
     * immediately without recompiling or re-booting the guest OS.
     * @throws snapshot::SnapshotError on any malformed image.
     */
    static std::unique_ptr<Session>
    fromSnapshot(const snapshot::Image &image,
                 SystemConfig base = SystemConfig());

    /** Warm boot from the image file at @p path. */
    static std::unique_ptr<Session>
    fromSnapshot(const std::string &path,
                 SystemConfig base = SystemConfig());

    /**
     * Re-restores this *live* session in place from @p image: the
     * machine and the runtime registries return to the image state,
     * but the System — and with it the GPU worker pool, its threads
     * and the tracer — is reused rather than rebuilt.  This is the
     * fleet recycle path (DESIGN.md §5j): with a CoW RAM backing
     * sealed from the same image, the RAM restore is a remap and the
     * whole call costs O(dirtied state), not O(machine).
     * Image geometry must match this machine (same RAM size and
     * shader-core count); a mismatched or malformed image throws
     * snapshot::SnapshotError and leaves the machine reset, never
     * half-restored.
     * Threading: simulation thread only; no recording may be active.
     */
    void resetFromSnapshot(const snapshot::Image &image);

    /**
     * Saves the whole session — machine state plus the runtime's
     * allocator, mapping, kernel and buffer registries — into @p w.
     * Waits for GPU quiescence first (between enqueues any point is
     * quiescent; mid-enqueue saving is not supported).
     * Threading: simulation thread only; blocks until the GPU worker
     * pool is parked before serialising.
     */
    void saveSnapshot(snapshot::Writer &w);

    /** Saves a snapshot image to @p path. */
    void saveSnapshot(const std::string &path);

    /** Kernels loaded so far, in load order (survive snapshots). */
    const std::vector<KernelHandle> &kernels() const { return kernels_; }

    /** Buffers allocated so far, in alloc order (survive snapshots). */
    const std::vector<Buffer> &buffers() const { return buffers_; }

    /** The underlying platform. */
    System &system() { return sys_; }

    /** The submission mode. */
    Mode mode() const { return mode_; }

    /** The job-lifecycle tracer (GpuConfig::trace gates recording).
     *  Export after the last enqueue returns for a consistent snapshot:
     *  s.tracer().exportChromeJsonFile("trace.json").
     *  Threading: the reference may be taken from any thread, but see
     *  trace.h for which Tracer operations require quiescence. */
    trace::Tracer &tracer() { return sys_.gpu().tracer(); }

    /**
     * Starts recording the CPU<->GPU boundary into a BRPL log
     * (DESIGN.md §5h): subsequent enqueues — direct or through the
     * guest driver — are captured with their RAM inputs, MMIO writes,
     * IRQs and result fingerprints, replayable later with no
     * Session/CPU attached (replay::replay()).  Requires
     * GpuConfig::syncSubmit; one recording at a time.  Works on
     * freshly built and snapshot-restored sessions alike (the first
     * delta snapshots all non-zero RAM).
     * Threading: simulation thread only.
     */
    replay::Recorder &startRecording();

    /** Stops recording and returns the sealed log bytes.
     *  Threading: simulation thread only. */
    std::vector<uint8_t> stopRecording();

    /** Stops recording and writes the log to @p path. */
    void stopRecordingToFile(const std::string &path);

    /** True while a recording is attached. */
    bool recording() const { return recorder_ != nullptr; }

    /** Allocates a device buffer (page-aligned, zero-initialised). */
    Buffer alloc(size_t bytes);

    /** Copies host data into a buffer. */
    void write(const Buffer &b, const void *src, size_t len,
               size_t offset = 0);

    /** Copies buffer contents out to host memory. */
    void read(const Buffer &b, void *dst, size_t len, size_t offset = 0);

    /** JIT-compiles @p kernel_name from @p source and loads it. */
    KernelHandle compile(const std::string &source,
                         const std::string &kernel_name,
                         const kclc::CompilerOptions &opts =
                             kclc::CompilerOptions());

    /** Loads an already-compiled kernel into guest memory. */
    KernelHandle load(const kclc::CompiledKernel &kernel);

    /**
     * Launches a kernel and waits for completion.  The job executes on
     * the GPU worker pool (and, in FullSystem mode, drives the guest
     * CPU through the driver); this call is the synchronisation point —
     * by return, all workers have hit the job barrier and the merged
     * result is stable.
     * Threading: simulation thread only.
     * @return the job result (check .faulted).
     */
    gpu::JobResult enqueue(const KernelHandle &kernel, NDRange global,
                           NDRange local, const std::vector<Arg> &args);

    /** Guest instructions spent in the driver across all launches
     *  (FullSystem mode; 0 in Direct mode). */
    uint64_t driverInstructions() const { return driverInstrs_; }

    /** Number of GPU page-table mappings installed so far. */
    uint64_t mappedPages() const { return mappedPages_; }

    /** Runs a user-mode guest program via the mini OS (cmd 3).
     *  @return true if the guest exited via the exit syscall. */
    bool runUserProgram(Addr entry_va, uint32_t satp,
                        uint64_t max_insts = 50'000'000);

  private:
    struct MapEntry
    {
        uint32_t va;
        uint32_t pa;
        uint32_t npages;
        uint32_t flags;
    };

    Mode mode_;
    System sys_;
    guestos::Layout layout_;

    Addr heap_;             ///< Guest-physical bump allocator.
    uint32_t gpuVaNext_;    ///< GPU virtual address bump allocator.

    Addr ptRoot_ = 0;       ///< GPU page-table root (physical).
    Addr ptArena_ = 0;      ///< L0 table arena (physical).
    Addr ptArenaEnd_ = 0;

    std::vector<MapEntry> pendingMaps_;   ///< FullSystem: not yet
                                          ///< installed by the driver.

    Addr descPa_ = 0;       ///< Reused job-descriptor page.
    uint32_t descVa_ = 0;
    Addr argsPa_ = 0;       ///< Reused argument table.
    uint32_t argsVa_ = 0;

    Buffer localArena_;     ///< Driver-allocated local-memory arena.
    uint32_t localArenaSize_ = 0;

    gpu::JobResult lastResult_;
    uint64_t driverInstrs_ = 0;
    uint64_t mappedPages_ = 0;
    bool osBooted_ = false;
    trace::TraceBuffer *trcBuf_ = nullptr;   ///< "cpu-driver" buffer
                                             ///< (null = tracing off).
    std::unique_ptr<replay::Recorder> recorder_;   ///< Active boundary
                                                   ///< recording.

    std::vector<KernelHandle> kernels_;   ///< Load-order registry.
    std::vector<Buffer> buffers_;         ///< Alloc-order registry.

    /** Warm-boot constructor backing fromSnapshot(). */
    Session(const snapshot::Image &image, SystemConfig cfg);

    /** Applies the SESS chunk + machine chunks of @p image. */
    void restoreFrom(const snapshot::Image &image);

    Addr allocPhys(size_t bytes, size_t align = 4096);
    uint32_t mapRange(Addr pa, size_t bytes, bool writable);
    void installMapHost(const MapEntry &e);
    void bootOs();
    void mailboxCommand(uint32_t cmd, uint32_t desc_va);
    gpu::JobResult submitDirect(uint32_t desc_va);
    gpu::JobResult submitFullSystem(uint32_t desc_va);
};

} // namespace bifsim::rt

#endif // BIFSIM_RUNTIME_SESSION_H

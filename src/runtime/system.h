#ifndef BIFSIM_RUNTIME_SYSTEM_H
#define BIFSIM_RUNTIME_SYSTEM_H

/**
 * @file
 * The simulated platform: CPU + GPU + devices on one bus with shared
 * memory (paper Fig. 5).  Memory map (Juno-like, single cluster):
 *
 *   0x1000_0000  UART
 *   0x1001_0000  Timer
 *   0x1002_0000  Interrupt controller
 *   0x4000_0000  GPU (job manager / MMU registers)
 *   0x8000_0000  RAM (shared CPU/GPU DRAM)
 *
 * The GPU interrupt is level-routed through INTC line 1 to the CPU's
 * external interrupt; the timer drives the CPU timer interrupt
 * directly.  Guest time advances one timer tick per retired
 * instruction.
 */

#include <cstdint>
#include <memory>

#include "common/thread_annotations.h"

#include "cpu/core.h"
#include "gpu/gpu.h"
#include "mem/bus.h"
#include "mem/phys_mem.h"
#include "metrics/metrics.h"
#include "snapshot/snapshot.h"
#include "soc/devices.h"

namespace bifsim::rt {

/** Platform configuration. */
struct SystemConfig
{
    size_t ramBytes = 256u << 20;   ///< Guest DRAM size.
    gpu::GpuConfig gpu;             ///< GPU model configuration.
    bool cpuBlockCache = true;      ///< CPU decode cache (off = re-decode
                                    ///< baseline; also disables DBT).
    bool cpuDbt = true;             ///< Threaded-code DBT tier (off =
                                    ///< interpreter oracle).

    /**
     * Shared warm-boot RAM backing (DESIGN.md §5j).  When set, guest
     * RAM is a copy-on-write view of this sealed image file: clean
     * pages are shared with every other System built over the same
     * RamImage, and restoreSnapshot() restores RAM by remapping
     * instead of copying whenever the image being restored carries
     * the exact MEM chunk the backing was sealed from (proved by
     * CRC, so an unrelated snapshot still restores correctly through
     * the ordinary sparse path).
     */
    std::shared_ptr<const RamImage> ramImage;
};

/**
 * Owns and wires every component of the simulated platform.
 */
class System
{
  public:
    static constexpr Addr kUartBase = 0x10000000;
    static constexpr Addr kTimerBase = 0x10010000;
    static constexpr Addr kIntcBase = 0x10020000;
    static constexpr Addr kGpuBase = 0x40000000;
    static constexpr Addr kRamBase = 0x80000000;
    static constexpr unsigned kGpuIntcLine = 1;

    explicit System(SystemConfig cfg = SystemConfig());
    ~System() = default;

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    PhysMem &mem() { return mem_; }
    Bus &bus() { return bus_; }
    sa32::Core &cpu() { return *cpu_; }
    gpu::GpuDevice &gpu() { return *gpu_; }
    soc::Uart &uart() { return *uart_; }
    soc::Intc &intc() { return *intc_; }
    soc::Timer &timer() { return *timer_; }

    const SystemConfig &config() const { return cfg_; }

    /**
     * Runs the CPU for up to @p max_insts instructions, advancing guest
     * time.  A WFI with no pending interrupt blocks the calling thread
     * (briefly) waiting for device interrupts — this is how the
     * simulated CPU sleeps while the GPU works.
     */
    sa32::StopReason runCpu(uint64_t max_insts);

    /**
     * Runs until the guest executes HALT, or @p max_insts expires.
     * @return true if HALT was reached.
     */
    bool runUntilHalt(uint64_t max_insts);

    /**
     * Cold-boots the platform: zeroes RAM and resets the CPU and every
     * device (GPU waits for quiescence first), dropping all pending
     * interrupt lines, captured UART output and cached translations.
     */
    void reset();

    /**
     * Serialises the whole machine — CPU, RAM, UART, timer, INTC, GPU —
     * into @p w.  The GPU must be quiescent (gpu().waitIdle() first);
     * throws snapshot::SnapshotError otherwise.
     */
    void saveSnapshot(snapshot::Writer &w) const;

    /**
     * Restores the whole machine from a validated @p image.
     *
     * Configuration compatibility (RAM geometry, shader-core count) and
     * chunk presence are checked before any state is touched; if any
     * component restore fails after that, the machine is reset() so a
     * System is never left half-restored.
     */
    void restoreSnapshot(const snapshot::Image &image);

    /**
     * Flushes this System's CPU counter deltas into the process-wide
     * metrics registry (§5k) regardless of the sampling threshold.
     * runCpu() publishes on its own every ~64k retired instructions;
     * call this before reading the registry when exact agreement with
     * the work run matters (tests, end-of-run reports).  reset() and
     * restoreSnapshot() re-baseline, so the registry counts only
     * instructions executed in this process, never restored ones.
     */
    void publishMetrics();

  private:
    /** Makes the current CPU counters the metrics baseline. */
    void rebaseCpuMetrics();

    SystemConfig cfg_;
    PhysMem mem_;
    Bus bus_;
    std::unique_ptr<soc::Uart> uart_;
    std::unique_ptr<soc::Timer> timer_;
    std::unique_ptr<soc::Intc> intc_;
    std::unique_ptr<sa32::Core> cpu_;
    std::unique_ptr<gpu::GpuDevice> gpu_;

    /** Marks a device wakeup and notifies a sleeping runCpu().  Called
     *  from device IRQ callbacks (timer on the CPU thread, INTC from
     *  the GPU Job Manager thread).  The notify happens with wakeLock_
     *  held and pairs with the wakePending_ predicate in runCpu(), so
     *  a wakeup that lands between the CPU observing WFI and parking
     *  on wakeCv_ is latched, not lost. */
    void wake() EXCLUDES(wakeLock_);

    sim::Mutex wakeLock_;
    sim::CondVar wakeCv_;
    bool wakePending_ GUARDED_BY(wakeLock_) = false;

    /** CPU metrics baseline and the instructions run since the last
     *  publish.  Touched only on the thread driving runCpu() (a System
     *  is single-driver, §5f), so they need no lock. */
    metrics::CounterBaseline cpuBase_;
    uint64_t cpuUnpublished_ = 0;
};

} // namespace bifsim::rt

#endif // BIFSIM_RUNTIME_SYSTEM_H

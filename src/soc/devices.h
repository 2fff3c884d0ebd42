#ifndef BIFSIM_SOC_DEVICES_H
#define BIFSIM_SOC_DEVICES_H

/**
 * @file
 * Essential platform devices: interrupt controller, timer and UART.
 * Together with the GPU these are the devices the paper lists as
 * required for full-system operation (§III).
 */

#include <cstdint>
#include <functional>
#include <string>

#include "common/thread_annotations.h"

#include "mem/device.h"
#include "snapshot/snapshot.h"

namespace bifsim::soc {

/**
 * A simple 32-line level-triggered interrupt controller.
 *
 * Register map (byte offsets):
 *   0x00 PENDING (ro)  raw device line levels
 *   0x04 ENABLE  (rw)  per-line enable mask
 *   0x08 CLAIM   (ro)  lowest pending+enabled line number + 1, or 0
 *
 * The controller output (any pending & enabled line) is forwarded to
 * the CPU's external interrupt pin through a callback.
 */
class Intc : public Device
{
  public:
    using OutputFn = std::function<void(bool level)>;

    /** @param output  Invoked whenever the aggregate output changes. */
    explicit Intc(OutputFn output) : output_(std::move(output)) {}

    /** Drives device line @p line to @p level.  Thread-safe (any
     *  device thread; the GPU raises its line from the JM thread). */
    void setLine(unsigned line, bool level) EXCLUDES(lock_);

    /** Current raw pending mask (for tests). */
    uint32_t pending() const EXCLUDES(lock_);

    uint32_t mmioRead(Addr offset) override EXCLUDES(lock_);
    void mmioWrite(Addr offset, uint32_t value) override EXCLUDES(lock_);
    void reset() override EXCLUDES(lock_);
    std::string name() const override { return "intc"; }

    /** Serialises pending/enable state into @p w. */
    void saveState(snapshot::ChunkWriter &w) const EXCLUDES(lock_);

    /** Restores from @p r and re-drives the output callback. */
    void restoreState(snapshot::ChunkReader &r) EXCLUDES(lock_);

    static constexpr Addr kRegPending = 0x00;
    static constexpr Addr kRegEnable = 0x04;
    static constexpr Addr kRegClaim = 0x08;

  private:
    mutable sim::Mutex lock_;
    OutputFn output_;                         ///< Immutable after ctor;
                                              ///< fired under lock_.
    uint32_t pending_ GUARDED_BY(lock_) = 0;
    uint32_t enable_ GUARDED_BY(lock_) = 0;
    bool out_level_ GUARDED_BY(lock_) = false;

    void updateOutput() REQUIRES(lock_);
};

/**
 * A machine timer.
 *
 * Register map:
 *   0x00 MTIME_LO (ro)   0x04 MTIME_HI (ro)
 *   0x08 MTIMECMP_LO (rw) 0x0C MTIMECMP_HI (rw)
 *
 * Time is advanced explicitly by the platform (1 tick = 1 retired guest
 * instruction).  Raises the CPU timer interrupt while mtime >= mtimecmp.
 *
 * Threading: single-threaded by contract — tick() and MMIO both run on
 * the CPU/simulation thread only, so the Timer carries no lock (§5i).
 *
 * 64-bit reads are tear-free: reading a LO register latches the
 * matching HI word, and the next HI read returns the latched value, so
 * a guest reading LO then HI across a tick() never observes a
 * mismatched pair.  A HI read with no prior LO read returns the live
 * value.
 */
class Timer : public Device
{
  public:
    using IrqFn = std::function<void(bool level)>;

    explicit Timer(IrqFn irq) : irq_(std::move(irq)) {}

    /** Advances mtime by @p ticks and re-evaluates the IRQ level. */
    void tick(uint64_t ticks);

    /** Current mtime value. */
    uint64_t now() const { return mtime_; }

    uint32_t mmioRead(Addr offset) override;
    void mmioWrite(Addr offset, uint32_t value) override;
    void reset() override;
    std::string name() const override { return "timer"; }

    /** Serialises time/compare state (including latches) into @p w. */
    void saveState(snapshot::ChunkWriter &w) const;

    /** Restores from @p r and re-evaluates the IRQ level. */
    void restoreState(snapshot::ChunkReader &r);

    static constexpr Addr kRegTimeLo = 0x00;
    static constexpr Addr kRegTimeHi = 0x04;
    static constexpr Addr kRegCmpLo = 0x08;
    static constexpr Addr kRegCmpHi = 0x0c;

  private:
    IrqFn irq_;
    uint64_t mtime_ = 0;
    uint64_t mtimecmp_ = ~uint64_t{0};
    uint32_t timeHiLatch_ = 0;    ///< HI word captured by a LO read.
    bool timeHiValid_ = false;
    uint32_t cmpHiLatch_ = 0;
    bool cmpHiValid_ = false;

    void update();
};

/**
 * A write-only console UART.  Guest writes to THR append to a host-side
 * string so tests and examples can observe guest output.
 *
 * Register map:
 *   0x00 THR (wo)  transmit byte
 *   0x04 LSR (ro)  line status; bit0 = TX ready (always 1)
 */
class Uart : public Device
{
  public:
    Uart() = default;

    /** Everything the guest has printed so far. */
    std::string output() const EXCLUDES(lock_);

    /** Clears the captured output. */
    void clearOutput() EXCLUDES(lock_);

    uint32_t mmioRead(Addr offset) override EXCLUDES(lock_);
    void mmioWrite(Addr offset, uint32_t value) override EXCLUDES(lock_);
    void reset() override EXCLUDES(lock_);
    std::string name() const override { return "uart"; }

    /** Serialises the captured output into @p w. */
    void saveState(snapshot::ChunkWriter &w) const EXCLUDES(lock_);

    /** Restores the captured output from @p r. */
    void restoreState(snapshot::ChunkReader &r) EXCLUDES(lock_);

    static constexpr Addr kRegThr = 0x00;
    static constexpr Addr kRegLsr = 0x04;

  private:
    mutable sim::Mutex lock_;
    std::string output_ GUARDED_BY(lock_);
};

} // namespace bifsim::soc

#endif // BIFSIM_SOC_DEVICES_H

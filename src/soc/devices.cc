#include "soc/devices.h"

namespace bifsim::soc {

// ---------------------------------------------------------------- Intc

void
Intc::setLine(unsigned line, bool level)
{
    sim::LockGuard g(lock_);
    uint32_t mask = 1u << (line & 31);
    if (level)
        pending_ |= mask;
    else
        pending_ &= ~mask;
    updateOutput();
}

uint32_t
Intc::pending() const
{
    sim::LockGuard g(lock_);
    return pending_;
}

void
Intc::updateOutput()
{
    bool level = (pending_ & enable_) != 0;
    if (level != out_level_) {
        out_level_ = level;
        if (output_)
            output_(level);
    }
}

uint32_t
Intc::mmioRead(Addr offset)
{
    sim::LockGuard g(lock_);
    switch (offset) {
      case kRegPending:
        return pending_;
      case kRegEnable:
        return enable_;
      case kRegClaim: {
        uint32_t active = pending_ & enable_;
        for (unsigned i = 0; i < 32; ++i) {
            if (active & (1u << i))
                return i + 1;
        }
        return 0;
      }
      default:
        return 0;
    }
}

void
Intc::mmioWrite(Addr offset, uint32_t value)
{
    sim::LockGuard g(lock_);
    if (offset == kRegEnable) {
        enable_ = value;
        updateOutput();
    }
}

void
Intc::reset()
{
    sim::LockGuard g(lock_);
    pending_ = 0;
    enable_ = 0;
    updateOutput();
}

void
Intc::saveState(snapshot::ChunkWriter &w) const
{
    sim::LockGuard g(lock_);
    w.u32(pending_);
    w.u32(enable_);
}

void
Intc::restoreState(snapshot::ChunkReader &r)
{
    uint32_t pending = r.u32();
    uint32_t enable = r.u32();
    sim::LockGuard g(lock_);
    pending_ = pending;
    enable_ = enable;
    updateOutput();
}

// --------------------------------------------------------------- Timer

void
Timer::tick(uint64_t ticks)
{
    mtime_ += ticks;
    update();
}

void
Timer::update()
{
    if (irq_)
        irq_(mtime_ >= mtimecmp_);
}

uint32_t
Timer::mmioRead(Addr offset)
{
    switch (offset) {
      case kRegTimeLo:
        // Latch the high word so a subsequent HI read pairs with this
        // LO read even if time advances in between (no torn 64-bit
        // reads).
        timeHiLatch_ = static_cast<uint32_t>(mtime_ >> 32);
        timeHiValid_ = true;
        return static_cast<uint32_t>(mtime_);
      case kRegTimeHi:
        if (timeHiValid_) {
            timeHiValid_ = false;
            return timeHiLatch_;
        }
        return static_cast<uint32_t>(mtime_ >> 32);
      case kRegCmpLo:
        cmpHiLatch_ = static_cast<uint32_t>(mtimecmp_ >> 32);
        cmpHiValid_ = true;
        return static_cast<uint32_t>(mtimecmp_);
      case kRegCmpHi:
        if (cmpHiValid_) {
            cmpHiValid_ = false;
            return cmpHiLatch_;
        }
        return static_cast<uint32_t>(mtimecmp_ >> 32);
      default:
        return 0;
    }
}

void
Timer::mmioWrite(Addr offset, uint32_t value)
{
    switch (offset) {
      case kRegCmpLo:
        mtimecmp_ = (mtimecmp_ & 0xffffffff00000000ull) | value;
        break;
      case kRegCmpHi:
        mtimecmp_ = (mtimecmp_ & 0xffffffffull) |
                    (static_cast<uint64_t>(value) << 32);
        break;
      default:
        break;
    }
    update();
}

void
Timer::reset()
{
    mtime_ = 0;
    mtimecmp_ = ~uint64_t{0};
    timeHiValid_ = false;
    cmpHiValid_ = false;
    update();
}

void
Timer::saveState(snapshot::ChunkWriter &w) const
{
    w.u64(mtime_);
    w.u64(mtimecmp_);
    w.u8(timeHiValid_ ? 1 : 0);
    w.u32(timeHiLatch_);
    w.u8(cmpHiValid_ ? 1 : 0);
    w.u32(cmpHiLatch_);
}

void
Timer::restoreState(snapshot::ChunkReader &r)
{
    uint64_t mtime = r.u64();
    uint64_t mtimecmp = r.u64();
    bool time_valid = r.u8() != 0;
    uint32_t time_latch = r.u32();
    bool cmp_valid = r.u8() != 0;
    uint32_t cmp_latch = r.u32();
    mtime_ = mtime;
    mtimecmp_ = mtimecmp;
    timeHiValid_ = time_valid;
    timeHiLatch_ = time_latch;
    cmpHiValid_ = cmp_valid;
    cmpHiLatch_ = cmp_latch;
    update();
}

// ---------------------------------------------------------------- Uart

std::string
Uart::output() const
{
    sim::LockGuard g(lock_);
    return output_;
}

void
Uart::clearOutput()
{
    sim::LockGuard g(lock_);
    output_.clear();
}

uint32_t
Uart::mmioRead(Addr offset)
{
    if (offset == kRegLsr)
        return 1;   // TX always ready.
    return 0;
}

void
Uart::mmioWrite(Addr offset, uint32_t value)
{
    if (offset != kRegThr)
        return;
    sim::LockGuard g(lock_);
    output_ += static_cast<char>(value & 0xff);
}

void
Uart::reset()
{
    clearOutput();
}

void
Uart::saveState(snapshot::ChunkWriter &w) const
{
    sim::LockGuard g(lock_);
    w.str(output_);
}

void
Uart::restoreState(snapshot::ChunkReader &r)
{
    std::string out = r.str();
    sim::LockGuard g(lock_);
    output_ = std::move(out);
}

} // namespace bifsim::soc

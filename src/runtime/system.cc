#include "runtime/system.h"

#include <algorithm>
#include <chrono>

#include "instrument/stats.h"
#include "metrics/metrics.h"

namespace bifsim::rt {

namespace {

/** CPU metrics publish granularity (retired instructions).  Large
 *  enough that the fleet's runCpu(50) polling loop publishes ~never
 *  from the threshold path, small enough that the HUD sees MIPS move
 *  several times a second at simulated speeds. */
constexpr uint64_t kCpuPublishBatch = 65536;

} // namespace

System::System(SystemConfig cfg)
    : cfg_(cfg), mem_(kRamBase, cfg.ramBytes, cfg.ramImage)
{
    bus_.attachMemory(&mem_);

    uart_ = std::make_unique<soc::Uart>();

    static_assert(sa32::kResetPc == kRamBase,
                  "the CPU resets to the base of RAM");
    sa32::CoreConfig cpu_cfg;
    cpu_cfg.blockCache = cfg.cpuBlockCache;
    cpu_cfg.dbt = cfg.cpuDbt;
    cpu_ = std::make_unique<sa32::Core>(bus_, cpu_cfg);

    timer_ = std::make_unique<soc::Timer>([this](bool level) {
        cpu_->setIrqLine(sa32::kIrqTimer, level);
        if (level)
            wake();
    });

    intc_ = std::make_unique<soc::Intc>([this](bool level) {
        cpu_->setIrqLine(sa32::kIrqExternal, level);
        if (level)
            wake();
    });

    gpu_ = std::make_unique<gpu::GpuDevice>(
        mem_, cfg.gpu,
        [this](bool level) { intc_->setLine(kGpuIntcLine, level); });

    bus_.attachDevice(kUartBase, 0x1000, uart_.get());
    bus_.attachDevice(kTimerBase, 0x1000, timer_.get());
    bus_.attachDevice(kIntcBase, 0x1000, intc_.get());
    bus_.attachDevice(kGpuBase, 0x10000, gpu_.get());
}

void
System::wake()
{
    sim::LockGuard g(wakeLock_);
    wakePending_ = true;
    wakeCv_.notify_all();
}

sa32::StopReason
System::runCpu(uint64_t max_insts)
{
    // Execution is sliced so the timer advances while the guest runs;
    // a single monolithic cpu_->run() would only deliver timer
    // interrupts after the entire budget was consumed.
    constexpr uint64_t kTimerSlice = 1'000;

    uint64_t executed = 0;
    uint64_t last = cpu_->stats().instret;
    unsigned idle_spins = 0;
    // Sampled metrics publish: every exit counts its instructions, and
    // a batch goes to the registry once kCpuPublishBatch accumulate.
    auto finish = [&](sa32::StopReason r) {
        cpuUnpublished_ += executed;
        if (cpuUnpublished_ >= kCpuPublishBatch)
            publishMetrics();
        return r;
    };
    while (executed < max_insts) {
        uint64_t batch = std::min(max_insts - executed, kTimerSlice);
        sa32::StopReason r = cpu_->run(batch);
        uint64_t now = cpu_->stats().instret;
        timer_->tick(now - last);
        executed += now - last;
        if (now != last)
            idle_spins = 0;
        last = now;

        if (r == sa32::StopReason::MaxInsts)
            continue;   // Slice exhausted; overall budget decides.
        if (r != sa32::StopReason::Wfi)
            return finish(r);

        // The guest is waiting for an interrupt.  Sleep until a device
        // wakes us (GPU IRQ through the INTC) or a short timeout lets
        // guest time advance for the timer.  Bail out eventually so a
        // guest with nothing pending cannot hang the host.
        if (++idle_spins > 50000)
            return finish(sa32::StopReason::Wfi);
        {
            // Predicate-checked sleep: a wake() that fired between the
            // WFI stop above and this park is latched in wakePending_
            // and skips the wait entirely — the IRQ-to-resume latency
            // is then bounded by the lock handoff, not the 200 us
            // timeout.  The old shape (bare notify_all from the device
            // callbacks, no predicate here) is the lost-wakeup fixture
            // in tests/test_annotations/: with wakePending_ declared
            // GUARDED_BY(wakeLock_), the unlocked latch update no
            // longer compiles under clang -Werror=thread-safety.
            sim::UniqueLock l(wakeLock_);
            if (!wakePending_)
                wakeCv_.wait_for(l, std::chrono::microseconds(200));
            wakePending_ = false;
        }
        timer_->tick(1000);   // Guest time passes while asleep.
    }
    return finish(sa32::StopReason::MaxInsts);
}

void
System::publishMetrics()
{
    cpuUnpublished_ = 0;
    std::vector<gpu::NamedCounter> now, deltas;
    gpu::appendCounters(now, cpu_->stats());
    cpuBase_.appendDeltas(deltas, now);
    if (!deltas.empty())
        metrics::registry().publish(deltas);
}

void
System::rebaseCpuMetrics()
{
    std::vector<gpu::NamedCounter> now;
    gpu::appendCounters(now, cpu_->stats());
    cpuBase_.rebase(now);
}

void
System::reset()
{
    // GPU first: waits for quiescence and drops its INTC line; then the
    // interrupt fabric, so no device callback re-raises a line into a
    // freshly reset CPU.
    gpu_->reset();
    intc_->reset();
    timer_->reset();
    uart_->reset();
    mem_.clear();
    publishMetrics();   // Work done before the reset still counts.
    cpu_->reset();
    rebaseCpuMetrics();
}

void
System::saveSnapshot(snapshot::Writer &w) const
{
    if (!gpu_->idle())
        snapshot::snapshotError(
            "GPU is not quiescent; call gpu().waitIdle() before saving");
    snapshot::ChunkWriter &conf = w.chunk(snapshot::kTagConfig);
    conf.u64(mem_.size());
    conf.u32(cfg_.gpu.numCores);
    conf.u32(0);   // reserved
    cpu_->saveState(w.chunk(snapshot::kTagCpu));
    mem_.saveState(w.chunk(snapshot::kTagMem));
    uart_->saveState(w.chunk(snapshot::kTagUart));
    timer_->saveState(w.chunk(snapshot::kTagTimer));
    intc_->saveState(w.chunk(snapshot::kTagIntc));
    gpu_->saveState(w.chunk(snapshot::kTagGpu));
}

void
System::restoreSnapshot(const snapshot::Image &image)
{
    namespace snap = snapshot;
    if (!gpu_->idle())
        snap::snapshotError("cannot restore while the GPU is busy");

    // Validate everything that can be validated without mutating state:
    // configuration compatibility and the presence of every chunk.
    {
        snap::ChunkReader conf = image.chunk(snap::kTagConfig);
        uint64_t ram = conf.u64();
        uint32_t cores = conf.u32();
        conf.u32();   // reserved
        conf.expectEnd();
        if (ram != mem_.size())
            snap::snapshotError("image RAM size %llu does not match "
                                "system RAM size %zu",
                                static_cast<unsigned long long>(ram),
                                mem_.size());
        if (cores != cfg_.gpu.numCores)
            snap::snapshotError("image has %u shader cores, system has "
                                "%u",
                                cores, cfg_.gpu.numCores);
    }
    for (uint32_t tag : {snap::kTagCpu, snap::kTagMem, snap::kTagUart,
                         snap::kTagTimer, snap::kTagIntc,
                         snap::kTagGpu}) {
        if (!image.has(tag))
            snap::snapshotError("missing chunk %s",
                                snap::tagName(tag).c_str());
    }

    // Commit phase.  Each component parses its chunk fully before
    // touching live state; if one still fails, reset to the power-on
    // state so the machine is never left half-restored.
    try {
        reset();
        {
            snap::ChunkReader r = image.chunk(snap::kTagCpu);
            cpu_->restoreState(r);
            rebaseCpuMetrics();   // Restored counts are not work done.
        }
        {
            // Fleet fast path (DESIGN.md §5j): when RAM is a CoW view
            // of a sealed image file built from this very MEM chunk
            // (same payload CRC + length), restoring RAM is a remap —
            // no parse, no copy.  Any other image falls through to the
            // ordinary validated sparse restore.
            const RamImage *ram = mem_.image();
            bool remapped =
                ram &&
                ram->memCrc() == image.chunkCrc(snap::kTagMem) &&
                ram->memLen() == image.chunkLength(snap::kTagMem) &&
                mem_.resetToImage();
            if (!remapped) {
                snap::ChunkReader r = image.chunk(snap::kTagMem);
                mem_.restoreState(r);
            }
        }
        {
            snap::ChunkReader r = image.chunk(snap::kTagUart);
            uart_->restoreState(r);
            r.expectEnd();
        }
        {
            snap::ChunkReader r = image.chunk(snap::kTagTimer);
            timer_->restoreState(r);
            r.expectEnd();
        }
        {
            snap::ChunkReader r = image.chunk(snap::kTagIntc);
            intc_->restoreState(r);
            r.expectEnd();
        }
        {
            snap::ChunkReader r = image.chunk(snap::kTagGpu);
            gpu_->restoreState(r);
        }
    } catch (...) {
        reset();
        throw;
    }
}

bool
System::runUntilHalt(uint64_t max_insts)
{
    uint64_t executed = 0;
    while (executed < max_insts) {
        uint64_t before = cpu_->stats().instret;
        sa32::StopReason r = runCpu(max_insts - executed);
        executed += cpu_->stats().instret - before;
        if (r == sa32::StopReason::Halt)
            return true;
        if (r != sa32::StopReason::Wfi)
            return false;
        if (cpu_->waiting())
            return false;   // Idle forever: nothing will wake the guest.
    }
    return false;
}

} // namespace bifsim::rt

#include "gpu/gmmu.h"

#include "common/bits.h"
#include "trace/trace.h"

namespace bifsim::gpu {

const GpuTlb::Entry *
GpuMmu::lookup(uint32_t va, bool write, GpuTlb &tlb)
{
    uint32_t vpn = va >> kGpuPageShift;
    GpuTlb::Entry &e = tlb.entries[vpn % GpuTlb::kEntries];
    if (e.vpn == vpn) [[likely]] {
        if (write && !e.writable) [[unlikely]]
            return nullptr;
        tlb.stats.arrayHits++;
        tlb.last = &e;
        return &e;
    }
    return walkFill(va, write, tlb);
}

const GpuTlb::Entry *
GpuMmu::walkFill(uint32_t va, bool write, GpuTlb &tlb)
{
    Addr root = root_.load(std::memory_order_acquire);
    if (root == 0)
        return nullptr;
    tlb.stats.walks++;   // Thread-local: the TLB belongs to the caller.
    if (tlb.traceBuf) [[unlikely]]
        tlb.traceBuf->instant("mmu_walk", "mmu", "va", va);

    uint32_t vpn1 = bits(va, 31, 22);
    uint32_t vpn0 = bits(va, 21, 12);

    Addr l1_addr = root + vpn1 * 4;
    if (!mem_.contains(l1_addr, 4))
        return nullptr;
    uint32_t pte1 = mem_.read<uint32_t>(l1_addr);
    if (!(pte1 & kGpuPteValid))
        return nullptr;

    Addr l0 = static_cast<Addr>((pte1 >> 10) & 0xfffffu) << kGpuPageShift;
    Addr l0_addr = l0 + vpn0 * 4;
    if (!mem_.contains(l0_addr, 4))
        return nullptr;
    uint32_t pte0 = mem_.read<uint32_t>(l0_addr);
    if (!(pte0 & kGpuPteValid))
        return nullptr;

    uint32_t vpn = va >> kGpuPageShift;
    GpuTlb::Entry &e = tlb.entries[vpn % GpuTlb::kEntries];
    e.vpn = vpn;
    e.ppn = (pte0 >> 10) & 0xfffffu;
    e.writable = (pte0 & kGpuPteWrite) != 0;
    // Cache the host pointer only when the whole frame is RAM-backed;
    // otherwise accesses through this entry take the physical-address
    // slow path with its per-access bounds check.
    Addr frame = static_cast<Addr>(e.ppn) << kGpuPageShift;
    e.host = mem_.contains(frame, kGpuPageBytes) ? mem_.hostPtr(frame)
                                                 : nullptr;
    // Stores through a cached writable host pointer bypass PhysMem, so
    // the page counts as written from the fill on (PhysMem written-page
    // tracking; the per-job epoch bump forces the re-walk that re-marks
    // it in every later job).
    if (e.host && e.writable)
        mem_.markWritten(frame, kGpuPageBytes);

    if (write && !e.writable)
        return nullptr;
    tlb.last = &e;
    return &e;
}

} // namespace bifsim::gpu

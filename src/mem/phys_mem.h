#ifndef BIFSIM_MEM_PHYS_MEM_H
#define BIFSIM_MEM_PHYS_MEM_H

/**
 * @file
 * Guest physical DRAM, shared between the simulated CPU and GPU
 * exactly as on the modelled SoC (unified memory).
 */

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "mem/device.h"
#include "snapshot/snapshot.h"

namespace bifsim {

namespace gpu {
class GpuMmu;
class WorkgroupExecutor;
} // namespace gpu

/**
 * A sealed, read-only RAM image backing many PhysMem instances at once
 * (DESIGN.md §5j).
 *
 * Built once from the MEM chunk of a validated snapshot image: the
 * sparse run table is expanded into an anonymous memfd, which is then
 * sealed (F_SEAL_WRITE | F_SEAL_SHRINK | F_SEAL_GROW) so no path —
 * not even this process — can mutate the bytes afterwards.  Every
 * fleet session maps the file MAP_PRIVATE: clean pages are shared
 * through the page cache across all sessions, and only pages a
 * session actually dirties fault in a private copy.  `memCrc`/`memLen`
 * identify the exact MEM chunk the image was sealed from, so a
 * restore can prove the fast path applies before skipping the chunk.
 *
 * Threading: immutable after sealFromSnapshot returns; share freely.
 */
class RamImage
{
  public:
    ~RamImage();

    RamImage(const RamImage &) = delete;
    RamImage &operator=(const RamImage &) = delete;

    /**
     * Expands @p image's MEM chunk into a sealed memfd.  Returns
     * nullptr when the platform cannot provide sealed shared memory
     * (non-Linux hosts) — callers fall back to the ordinary sparse
     * restore path.  Throws snapshot::SnapshotError on a malformed
     * MEM chunk.
     */
    static std::shared_ptr<RamImage>
    sealFromSnapshot(const snapshot::Image &image);

    Addr base() const { return base_; }
    size_t size() const { return size_; }
    int fd() const { return fd_; }

    /** CRC-32 of the MEM chunk payload this image was sealed from. */
    uint32_t memCrc() const { return memCrc_; }

    /** Length of that MEM chunk payload. */
    size_t memLen() const { return memLen_; }

    /** A stretch of image pages that may be non-zero. */
    struct PageRun
    {
        uint32_t start;
        uint32_t count;
    };

    /** The MEM chunk's run table, ascending: every page outside these
     *  runs is zero in the image. */
    const std::vector<PageRun> &pageRuns() const { return pageRuns_; }

  private:
    RamImage(Addr base, size_t size, int fd, uint32_t mem_crc,
             size_t mem_len, std::vector<PageRun> page_runs)
        : base_(base), size_(size), fd_(fd), memCrc_(mem_crc),
          memLen_(mem_len), pageRuns_(std::move(page_runs))
    {
    }

    Addr base_;
    size_t size_;
    int fd_ = -1;
    uint32_t memCrc_;
    size_t memLen_;
    std::vector<PageRun> pageRuns_;
};

/**
 * A contiguous block of guest physical memory.
 *
 * Backed by host memory; both the CPU model and the GPU model read and
 * write through this object, giving the fully shared CPU/GPU memory
 * system of the Bifrost platform.
 *
 * On Linux the backing store is an anonymous mmap: untouched guest
 * pages are never materialised, and clear() drops the mapped pages
 * with madvise(MADV_DONTNEED) instead of writing zeroes, so
 * constructing, cold-booting and snapshot-restoring a machine cost
 * O(pages actually used), not O(configured RAM).
 *
 * Fleet mode (DESIGN.md §5j): constructed over a RamImage, the backing
 * becomes a MAP_PRIVATE mapping of the sealed image file.  All
 * sessions spawned from one warm-boot image then share every clean
 * RAM page, and resetToImage() recycles a dirty session back to the
 * image content by remapping — O(dirtied pages), no copy of RAM.
 *
 * Written-page tracking (DESIGN.md §5h) is the one primitive for "what
 * changed in RAM": one byte per page, stored with a relaxed atomic
 * byte store (no branch, no read-modify-write), always on.  It is
 * marked at the write choke points:
 *  - write<T>, writeBlock and fill (CPU interpreter and DBT stores via
 *    Bus::write, runtime copies, the assembler, the guest driver,
 *    restoreState, replay delta apply);
 *  - GpuMmu::walkFill for every writable entry it caches a host
 *    pointer for (shader stores and atomics through the GPU TLB);
 *  - the shader core's physical-address atomic slow path.
 * hostPtr() is private, so nothing else can take a writable pointer:
 * the compiler enforces it (friends: GpuMmu and WorkgroupExecutor).
 * The GPU device's per-job MMU epoch bump makes every job re-walk, and
 * so re-mark, the writable pages it stores to.  The tracking bytes
 * live in the same lazily materialised mapping as RAM, right after it,
 * so construction stays O(1) and clear() drops them with the RAM.
 */
class PhysMem
{
  public:
    /** Creates @p size bytes of RAM based at physical address @p base.
     *  When @p image is non-null and matches the geometry, the RAM is
     *  a copy-on-write view of the sealed image content; otherwise an
     *  anonymous zero-filled mapping (image content then arrives via
     *  restoreState). */
    PhysMem(Addr base, size_t size,
            std::shared_ptr<const RamImage> image = nullptr);
    ~PhysMem();

    PhysMem(const PhysMem &) = delete;
    PhysMem &operator=(const PhysMem &) = delete;

    /** Base physical address. */
    Addr base() const { return base_; }

    /** Size in bytes. */
    size_t size() const { return size_; }

    /** Returns true if [addr, addr+len) lies entirely inside this RAM. */
    bool
    contains(Addr addr, size_t len) const
    {
        return addr >= base_ && len <= size_ &&
               addr - base_ <= size_ - len;
    }

    /** Read-only host pointer to guest physical address @p addr. */
    const uint8_t *
    readPtr(Addr addr) const
    {
        return data_ + (addr - base_);
    }

    /** Loads a little-endian scalar of type T at @p addr. */
    template <typename T>
    T
    read(Addr addr) const
    {
        T v;
        std::memcpy(&v, readPtr(addr), sizeof(T));
        return v;
    }

    /** Stores a little-endian scalar of type T at @p addr. */
    template <typename T>
    void
    write(Addr addr, T value)
    {
        size_t off = addr - base_;
        markPage(off / kPageBytes);
        markPage((off + sizeof(T) - 1) / kPageBytes);
        std::memcpy(data_ + off, &value, sizeof(T));
    }

    /** Copies a block out of guest memory. */
    void
    readBlock(Addr addr, void *dst, size_t len) const
    {
        std::memcpy(dst, readPtr(addr), len);
    }

    /** Copies a block into guest memory. */
    void
    writeBlock(Addr addr, const void *src, size_t len)
    {
        markWritten(addr, len);
        std::memcpy(hostPtr(addr), src, len);
    }

    /** Fills a block of guest memory with @p byte. */
    void
    fill(Addr addr, uint8_t byte, size_t len)
    {
        markWritten(addr, len);
        std::memset(hostPtr(addr), byte, len);
    }

    /** Zeroes all of RAM (cold boot / restore baseline) and forgets
     *  every written mark.  In CoW mode the file backing is replaced by
     *  a fresh anonymous mapping; a later resetToImage() re-attaches
     *  the image. */
    void clear();

    /** True when this RAM is a copy-on-write view of a RamImage. */
    bool hasImage() const { return image_ != nullptr; }

    /** The backing image, or nullptr. */
    const RamImage *image() const { return image_.get(); }

    /**
     * Resets RAM content to the backing image: private (dirtied) pages
     * are dropped and the CoW mapping is re-established, so the cost
     * tracks the session's dirtied working set.  Written marks are
     * forgotten; the image's non-zero pages count as written since
     * then.  Falls back to clear() when there is no backing image
     * (callers must then restore RAM by other means).  @return true
     * when image content was restored.
     */
    bool resetToImage();

    /** Snapshot and tracking page granule. */
    static constexpr size_t kPageBytes = 4096;

    /** Number of tracked pages. */
    size_t pageCount() const { return pagesFor(size_); }

    /** Marks every page overlapping [addr, addr+len) as written (must
     *  be in range).  Threading: any thread. */
    void
    markWritten(Addr addr, size_t len)
    {
        size_t off = addr - base_;
        size_t end = pagesFor(off + len);
        for (size_t p = off / kPageBytes; p < end; ++p)
            markPage(p);
    }

    /**
     * Returns, ascending, the pages written since the previous call
     * (or since clear()/resetToImage() for the first one), and makes
     * them "taken".  Taken pages still count in writtenSinceClear().
     * Threading: the caller must hold RAM quiescent (no concurrent
     * writer).
     */
    std::vector<uint32_t> takeWritten();

    /** Returns, ascending, every page that may be non-zero: written
     *  since clear(), or a non-zero page of the CoW image.  All other
     *  pages are zero.  Threading: RAM quiescent. */
    std::vector<uint32_t> writtenSinceClear() const;

    /** CRC-32 of all of RAM.  Reads only the pages in
     *  writtenSinceClear(); the known-zero pages between them enter the
     *  CRC through snapshot::crc32Zeros.  Threading: RAM quiescent. */
    uint32_t crc() const;

    /** Count of clear()/resetToImage() calls.  They change pages
     *  without marking them, so a consumer holding per-page state from
     *  before one must fall back to writtenSinceClear(). */
    uint64_t resets() const { return resets_; }

    /** Bytes mapped for @p ram bytes of RAM: whole pages of RAM, then
     *  one tracking byte per page rounded up to whole pages.  A
     *  RamImage file is sized to match so one mapping covers both. */
    static size_t
    mappedBytes(size_t ram)
    {
        return (pagesFor(ram) + pagesFor(pagesFor(ram))) * kPageBytes;
    }

    /**
     * Serialises RAM into @p w using a sparse run-length encoding:
     * all-zero pages are elided and consecutive non-zero pages coalesce
     * into runs, so a mostly-empty guest image stays small.  Only pages
     * in writtenSinceClear() are inspected; the rest are known zero.
     */
    void saveState(snapshot::ChunkWriter &w) const;

    /**
     * Restores RAM from @p r.  Validates the complete run table
     * (geometry match, ordering, bounds) before writing any byte, then
     * zero-fills and applies the runs.
     */
    void restoreState(snapshot::ChunkReader &r);

  private:
    // The two GPU paths that mark the pages they hand out.
    friend class gpu::GpuMmu;
    friend class gpu::WorkgroupExecutor;

    /** Raw writable host pointer to guest physical address @p addr
     *  (must be in range).  Stores through it are invisible to the
     *  written-page tracking: the caller must markWritten() what it
     *  may write. */
    uint8_t *hostPtr(Addr addr) { return data_ + (addr - base_); }

    /** Tracking byte states. */
    enum : uint8_t
    {
        kClean = 0,     ///< Not written since clear().
        kWritten = 1,   ///< Written since the last takeWritten().
        kTaken = 2,     ///< Written since clear(), already taken.
    };

    static constexpr size_t
    pagesFor(size_t bytes)
    {
        return (bytes + kPageBytes - 1) / kPageBytes;
    }

    /** Test before set: the tracking bytes are shared by every
     *  writer, and re-marking a page that is already kWritten (every
     *  GPU worker's TLB refill after the per-job epoch bump) must not
     *  store to a line other threads are reading. */
    void
    markPage(size_t page)
    {
        std::atomic_ref<uint8_t> state(written_[page]);
        if (state.load(std::memory_order_relaxed) != kWritten)
            state.store(kWritten, std::memory_order_relaxed);
    }

    uint8_t
    pageState(size_t page) const
    {
        return std::atomic_ref<uint8_t>(written_[page])
            .load(std::memory_order_relaxed);
    }

    Addr base_;
    size_t size_;
    uint8_t *data_ = nullptr;
    uint8_t *written_ = nullptr;   ///< Tracking bytes, inside data_'s
                                   ///< mapping after the RAM pages.
    uint64_t resets_ = 0;
    bool mmapped_ = false;
    bool cowMapped_ = false;   ///< Current mapping is MAP_PRIVATE
                               ///< over image_'s fd.
    std::shared_ptr<const RamImage> image_;
};

} // namespace bifsim

#endif // BIFSIM_MEM_PHYS_MEM_H

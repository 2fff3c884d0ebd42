#include "mem/phys_mem.h"

#include <algorithm>
#include <cstdlib>
#include <new>
#include <span>

#if defined(__linux__)
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace bifsim {

namespace {

/** Reference zero page: memcmp against it beats any hand loop. */
alignas(64) const uint8_t kZeroPage[PhysMem::kPageBytes] = {};

bool
pageIsZero(const uint8_t *p, size_t len)
{
    if (len == PhysMem::kPageBytes)
        return std::memcmp(p, kZeroPage, PhysMem::kPageBytes) == 0;
    return std::memcmp(p, kZeroPage, std::min(len, sizeof kZeroPage)) ==
           0;
}

/** One validated run of non-zero pages from a MEM chunk. */
struct ParsedRun
{
    size_t off;
    size_t len;
    const uint8_t *payload;
};

/**
 * Parses and fully validates a MEM chunk (geometry header + run
 * table) against the expected RAM shape without touching any
 * destination byte — the shared parse half of parse-then-commit,
 * used by both restoreState and RamImage::sealFromSnapshot.
 */
std::vector<ParsedRun>
parseMemChunk(snapshot::ChunkReader &r, Addr expect_base,
              size_t expect_size)
{
    uint64_t base = r.u64();
    uint64_t size = r.u64();
    uint32_t page = r.u32();
    if (base != expect_base || size != expect_size)
        r.fail(strfmt("RAM geometry mismatch: image has base 0x%llx "
                      "size %llu, system has base 0x%llx size %zu",
                      static_cast<unsigned long long>(base),
                      static_cast<unsigned long long>(size),
                      static_cast<unsigned long long>(expect_base),
                      expect_size));
    if (page != PhysMem::kPageBytes)
        r.fail(strfmt("unsupported page size %u", page));

    const size_t n_pages =
        (expect_size + PhysMem::kPageBytes - 1) / PhysMem::kPageBytes;
    uint32_t n_runs = r.u32();
    // Every run carries an 8-byte header, so a count the payload could
    // not possibly back is hostile; reject before allocating anything.
    if (static_cast<uint64_t>(n_runs) * 8 > r.remaining())
        r.fail(strfmt("run count %u exceeds chunk size", n_runs));

    std::vector<ParsedRun> runs;
    runs.reserve(n_runs);
    uint64_t next_page = 0;
    for (uint32_t i = 0; i < n_runs; ++i) {
        uint32_t start = r.u32();
        uint32_t count = r.u32();
        if (count == 0)
            r.fail(strfmt("run %u is empty", i));
        if (start < next_page)
            r.fail(strfmt("run %u (page %u) overlaps or is unordered",
                          i, start));
        uint64_t end_page = static_cast<uint64_t>(start) + count;
        if (end_page > n_pages)
            r.fail(strfmt("run %u spans pages [%u, %llu) past RAM end "
                          "(%zu pages)",
                          i, start,
                          static_cast<unsigned long long>(end_page),
                          n_pages));
        size_t off = static_cast<size_t>(start) * PhysMem::kPageBytes;
        size_t end =
            std::min(static_cast<size_t>(end_page) * PhysMem::kPageBytes,
                     expect_size);
        runs.push_back(ParsedRun{off, end - off, r.raw(end - off)});
        next_page = end_page;
    }
    r.expectEnd();
    return runs;
}

} // namespace

// ------------------------------------------------------------ RamImage

RamImage::~RamImage()
{
#if defined(__linux__)
    if (fd_ >= 0)
        ::close(fd_);
#endif
}

std::shared_ptr<RamImage>
RamImage::sealFromSnapshot(const snapshot::Image &image)
{
#if defined(__linux__)
    namespace snap = snapshot;
    snap::ChunkReader hdr = image.chunk(snap::kTagMem);
    uint64_t base = hdr.u64();
    uint64_t size = hdr.u64();
    if (size == 0 || size > (1ull << 40))
        hdr.fail(strfmt("implausible RAM size %llu",
                        static_cast<unsigned long long>(size)));

    // Validate the complete run table before creating anything.
    snap::ChunkReader r = image.chunk(snap::kTagMem);
    std::vector<ParsedRun> runs =
        parseMemChunk(r, static_cast<Addr>(base),
                      static_cast<size_t>(size));

    int fd = static_cast<int>(
        ::memfd_create("bifsim-warm-ram", MFD_CLOEXEC | MFD_ALLOW_SEALING));
    if (fd < 0)
        return nullptr;
    // The file also covers the tracking bytes PhysMem keeps after RAM
    // (a hole: zero, never materialised), so one mapping holds both.
    if (::ftruncate(fd, static_cast<off_t>(PhysMem::mappedBytes(
                            static_cast<size_t>(size)))) != 0) {
        ::close(fd);
        return nullptr;
    }
    void *p = ::mmap(nullptr, static_cast<size_t>(size),
                     PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    if (p == MAP_FAILED) {
        ::close(fd);
        return nullptr;
    }
    uint8_t *data = static_cast<uint8_t *>(p);
    for (const ParsedRun &run : runs)
        std::memcpy(data + run.off, run.payload, run.len);
    ::munmap(p, static_cast<size_t>(size));

    // Seal: the content is now immutable for the file's lifetime, so
    // every MAP_PRIVATE view is a faithful copy of the snapshot RAM.
    ::fcntl(fd, F_ADD_SEALS,
            F_SEAL_WRITE | F_SEAL_SHRINK | F_SEAL_GROW);

    std::vector<PageRun> page_runs;
    page_runs.reserve(runs.size());
    for (const ParsedRun &run : runs)
        page_runs.push_back(PageRun{
            static_cast<uint32_t>(run.off / PhysMem::kPageBytes),
            static_cast<uint32_t>((run.len + PhysMem::kPageBytes - 1) /
                                  PhysMem::kPageBytes)});

    snap::ChunkReader crc_r = image.chunk(snap::kTagMem);
    size_t mem_len = crc_r.remaining();
    return std::shared_ptr<RamImage>(
        new RamImage(static_cast<Addr>(base), static_cast<size_t>(size),
                     fd, image.chunkCrc(snap::kTagMem), mem_len,
                     std::move(page_runs)));
#else
    (void)image;
    return nullptr;
#endif
}

// ------------------------------------------------------------- PhysMem

PhysMem::PhysMem(Addr base, size_t size,
                 std::shared_ptr<const RamImage> image)
    : base_(base), size_(size)
{
    // One mapping holds RAM and its tracking bytes, so tracking costs
    // no extra set-up work and is materialised only as pages are
    // written.
    const size_t alloc = std::max<size_t>(mappedBytes(size_), 1);
#if defined(__linux__)
    if (image && image->base() == base_ && image->size() == size_ &&
        size_ != 0) {
        void *p = ::mmap(nullptr, alloc, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE, image->fd(), 0);
        if (p != MAP_FAILED) {
            data_ = static_cast<uint8_t *>(p);
            mmapped_ = true;
            cowMapped_ = true;
            image_ = std::move(image);
        }
    }
    if (!data_) {
        void *p = ::mmap(nullptr, alloc, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p != MAP_FAILED) {
            data_ = static_cast<uint8_t *>(p);
            mmapped_ = true;
        }
    }
#else
    (void)image;
#endif
    if (!data_) {
        data_ = static_cast<uint8_t *>(std::calloc(alloc, 1));
        if (!data_)
            throw std::bad_alloc();
    }
    written_ = data_ + pageCount() * kPageBytes;
}

PhysMem::~PhysMem()
{
#if defined(__linux__)
    if (mmapped_) {
        ::munmap(data_, std::max<size_t>(mappedBytes(size_), 1));
        return;
    }
#endif
    std::free(data_);
}

void
PhysMem::clear()
{
    // The tracking bytes share the mapping, so every path below drops
    // the written marks together with the RAM content.
    resets_++;
    const size_t len = mappedBytes(size_);
#if defined(__linux__)
    if (cowMapped_) {
        // MADV_DONTNEED on a private file mapping would repopulate
        // from the *file*, not with zeroes; replace the view with a
        // fresh anonymous mapping instead.  resetToImage() re-attaches
        // the image later if wanted.
        void *p = ::mmap(data_, len, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS | MAP_FIXED, -1, 0);
        if (p != MAP_FAILED) {
            cowMapped_ = false;
            return;
        }
        // MAP_FIXED failed (shouldn't happen); fall through to memset.
    }
    // Drop the materialised pages instead of writing zeroes: untouched
    // pages stay unmapped and re-fault as zero on next access, so the
    // cost tracks the guest's working set, not the RAM size.
    if (!cowMapped_ && mmapped_ && size_ &&
        ::madvise(data_, len, MADV_DONTNEED) == 0)
        return;
#endif
    std::memset(data_, 0, len);
}

bool
PhysMem::resetToImage()
{
#if defined(__linux__)
    if (image_ && mmapped_ && size_) {
        // Remapping the sealed file over the same range drops every
        // private (dirtied) page and re-establishes the shared view:
        // O(dirtied pages) page-table work, no RAM copy.  The file's
        // tracking tail is a hole, so the marks reset to clean too.
        void *p = ::mmap(data_, mappedBytes(size_), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_FIXED, image_->fd(), 0);
        if (p != MAP_FAILED) {
            resets_++;
            cowMapped_ = true;
            return true;
        }
    }
#endif
    clear();
    return false;
}

std::vector<uint32_t>
PhysMem::takeWritten()
{
    std::vector<uint32_t> pages;
    const size_t n = pageCount();
    for (size_t p = 0; p < n; ++p) {
        if (pageState(p) != kWritten)
            continue;
        std::atomic_ref<uint8_t>(written_[p])
            .store(kTaken, std::memory_order_relaxed);
        pages.push_back(static_cast<uint32_t>(p));
    }
    return pages;
}

std::vector<uint32_t>
PhysMem::writtenSinceClear() const
{
    // While the CoW view is attached, the image's non-zero pages count
    // as written: they were never marked, but they are not zero.
    std::span<const RamImage::PageRun> runs;
    if (cowMapped_)
        runs = image_->pageRuns();
    auto run = runs.begin();

    std::vector<uint32_t> pages;
    const size_t n = pageCount();
    for (size_t p = 0; p < n; ++p) {
        while (run != runs.end() && run->start + run->count <= p)
            ++run;
        bool in_image = run != runs.end() && run->start <= p;
        if (in_image || pageState(p) != kClean)
            pages.push_back(static_cast<uint32_t>(p));
    }
    return pages;
}

uint32_t
PhysMem::crc() const
{
    uint32_t crc = 0;
    size_t done = 0;   // RAM bytes already in the CRC.
    for (uint32_t p : writtenSinceClear()) {
        size_t off = static_cast<size_t>(p) * kPageBytes;
        size_t len = std::min(kPageBytes, size_ - off);
        crc = snapshot::crc32Zeros(crc, off - done);
        crc = snapshot::crc32(crc, data_ + off, len);
        done = off + len;
    }
    return snapshot::crc32Zeros(crc, size_ - done);
}

void
PhysMem::saveState(snapshot::ChunkWriter &w) const
{
    w.u64(base_);
    w.u64(size_);
    w.u32(static_cast<uint32_t>(kPageBytes));

    // First pass: build the run table (start page + page count of each
    // maximal stretch of non-zero pages).  Pages never written since
    // clear() are zero without looking at them.
    struct Run
    {
        uint32_t start;
        uint32_t count;
    };
    std::vector<Run> runs;
    for (uint32_t p : writtenSinceClear()) {
        size_t off = static_cast<size_t>(p) * kPageBytes;
        size_t len = std::min(kPageBytes, size_ - off);
        if (pageIsZero(data_ + off, len))
            continue;
        if (!runs.empty() &&
            runs.back().start + runs.back().count == p) {
            ++runs.back().count;
        } else {
            runs.push_back(Run{p, 1});
        }
    }

    w.u32(static_cast<uint32_t>(runs.size()));
    for (const Run &r : runs) {
        size_t off = static_cast<size_t>(r.start) * kPageBytes;
        size_t end = std::min(off + static_cast<size_t>(r.count) *
                                        kPageBytes,
                              size_);
        w.u32(r.start);
        w.u32(r.count);
        w.bytes(data_ + off, end - off);
    }
}

void
PhysMem::restoreState(snapshot::ChunkReader &r)
{
    // Parse-then-commit: validate every run header and claim its
    // payload bytes (bounds-checked by raw()) before touching RAM.
    std::vector<ParsedRun> runs = parseMemChunk(r, base_, size_);

    clear();
    for (const ParsedRun &run : runs)
        writeBlock(base_ + run.off, run.payload, run.len);
}

} // namespace bifsim

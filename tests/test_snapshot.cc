/**
 * @file
 * Snapshot subsystem tests (DESIGN.md §5e): image format validation,
 * per-component round-trips, whole-system restore semantics, and the
 * headline property — restore-then-run is bit-identical to
 * run-through, for sgemm and a divergent-CFG workload, in Direct and
 * FullSystem modes, on both interpreter paths — and that the metrics
 * registry counts only the CPU work run across reset and restore.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <vector>

#include "cpu/asm/assembler.h"
#include "cpu/dbt.h"
#include "fleet/proto.h"
#include "gpu/shader_core.h"
#include "instrument/stats.h"
#include "mem/phys_mem.h"
#include "metrics/metrics.h"
#include "replay/replay.h"
#include "runtime/session.h"
#include "snapshot/snapshot.h"
#include "soc/devices.h"

namespace bifsim {
namespace {

using snapshot::ChunkReader;
using snapshot::ChunkWriter;
using snapshot::Image;
using snapshot::SnapshotError;
using snapshot::Writer;
using snapshot::makeTag;

constexpr uint32_t kTagA = makeTag("AAAA");
constexpr uint32_t kTagB = makeTag("BBBB");

// ---------------------------------------------------------------------
// Image format layer
// ---------------------------------------------------------------------

std::vector<uint8_t>
smallImageBytes()
{
    Writer w;
    ChunkWriter &a = w.chunk(kTagA);
    a.u8(0x12);
    a.u16(0x3456);
    a.u32(0xdeadbeef);
    a.u64(0x0123456789abcdefull);
    a.str("hello");
    ChunkWriter &b = w.chunk(kTagB);
    const uint8_t raw[4] = {1, 2, 3, 4};
    b.bytes(raw, sizeof(raw));
    return w.finish();
}

TEST(SnapshotFormat, RoundTrip)
{
    Image img = Image::fromBytes(smallImageBytes());
    EXPECT_EQ(img.version(), snapshot::kVersion);
    ASSERT_TRUE(img.has(kTagA));
    ASSERT_TRUE(img.has(kTagB));
    EXPECT_FALSE(img.has(makeTag("ZZZZ")));

    ChunkReader a = img.chunk(kTagA);
    EXPECT_EQ(a.u8(), 0x12u);
    EXPECT_EQ(a.u16(), 0x3456u);
    EXPECT_EQ(a.u32(), 0xdeadbeefu);
    EXPECT_EQ(a.u64(), 0x0123456789abcdefull);
    EXPECT_EQ(a.str(), "hello");
    EXPECT_NO_THROW(a.expectEnd());

    ChunkReader b = img.chunk(kTagB);
    uint8_t raw[4];
    b.bytes(raw, sizeof(raw));
    EXPECT_EQ(raw[3], 4);
    EXPECT_NO_THROW(b.expectEnd());
}

TEST(SnapshotFormat, RejectsTruncatedHeader)
{
    std::vector<uint8_t> bytes = smallImageBytes();
    bytes.resize(10);
    EXPECT_THROW(Image::fromBytes(std::move(bytes)), SnapshotError);
}

TEST(SnapshotFormat, RejectsBadMagic)
{
    std::vector<uint8_t> bytes = smallImageBytes();
    bytes[0] ^= 0xff;
    EXPECT_THROW(Image::fromBytes(std::move(bytes)), SnapshotError);
}

TEST(SnapshotFormat, RejectsVersionSkew)
{
    std::vector<uint8_t> bytes = smallImageBytes();
    bytes[4] = static_cast<uint8_t>(snapshot::kVersion + 1);
    // ^ version field, little-endian (kVersion < 255 keeps this 1 byte)
    EXPECT_THROW(Image::fromBytes(std::move(bytes)), SnapshotError);
}

TEST(SnapshotFormat, RejectsCorruptPayload)
{
    std::vector<uint8_t> bytes = smallImageBytes();
    bytes[16 + 12] ^= 0x01;   // First payload byte of the first chunk.
    EXPECT_THROW(Image::fromBytes(std::move(bytes)), SnapshotError);
}

TEST(SnapshotFormat, RejectsEveryTruncation)
{
    const std::vector<uint8_t> full = smallImageBytes();
    for (size_t n = 0; n < full.size(); ++n) {
        std::vector<uint8_t> cut(full.begin(), full.begin() + n);
        EXPECT_THROW(Image::fromBytes(std::move(cut)), SnapshotError)
            << "truncation to " << n << " bytes was accepted";
    }
}

TEST(SnapshotFormat, RejectsTrailingBytes)
{
    std::vector<uint8_t> bytes = smallImageBytes();
    bytes.push_back(0);
    EXPECT_THROW(Image::fromBytes(std::move(bytes)), SnapshotError);
}

TEST(SnapshotFormat, LoaderRejectsDuplicateTag)
{
    // The writer frames whatever it is given; unique tags are the
    // image loader's rule.
    Writer w;
    w.chunk(kTagA).u8(1);
    w.chunk(kTagA).u8(2);
    try {
        Image::fromBytes(w.finish());
        FAIL() << "an image with a repeated tag was accepted";
    } catch (const SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("duplicate chunk AAAA"),
                  std::string::npos)
            << e.what();
    }
}

TEST(SnapshotFormat, MissingChunkThrows)
{
    Image img = Image::fromBytes(smallImageBytes());
    EXPECT_THROW(img.chunk(makeTag("ZZZZ")), SnapshotError);
}

TEST(SnapshotFormat, ReaderIsBoundsChecked)
{
    Image img = Image::fromBytes(smallImageBytes());
    ChunkReader b = img.chunk(kTagB);   // 4-byte payload.
    EXPECT_THROW(b.u64(), SnapshotError);
    EXPECT_EQ(b.u16(), 0x0201u);
    EXPECT_THROW(b.expectEnd(), SnapshotError);
    // A hostile length prefix cannot read past the chunk.
    ChunkReader a = img.chunk(kTagA);
    EXPECT_THROW(a.raw(1u << 20), SnapshotError);
}

TEST(SnapshotFormat, ZeroLengthBytesIntoEmptyVector)
{
    // An empty vector's data() may be null, and memcpy with a null
    // pointer is undefined even for zero bytes: the reader must not
    // make the call.
    Image img = Image::fromBytes(smallImageBytes());
    ChunkReader b = img.chunk(kTagB);
    std::vector<uint8_t> empty;
    b.bytes(empty.data(), 0);
    EXPECT_EQ(b.u16(), 0x0201u);   // Nothing consumed.
}

// ---------------------------------------------------------------------
// Shared container decoder (BSNP images, BRPL logs, fleet frames)
// ---------------------------------------------------------------------

constexpr uint32_t kTestMagic = makeTag("TEST");
constexpr uint32_t kTestVersion = 7;

/** A 3-record container; the middle record is empty. */
std::vector<uint8_t>
threeRecordContainer()
{
    Writer w(kTestMagic, kTestVersion);
    w.chunk(makeTag("ONE ")).u32(0x04030201);
    w.chunk(makeTag("TWO "));
    w.chunk(makeTag("THRE")).str("abc");
    return w.finish();
}

/** Decodes @p bytes and returns the error message ("" if accepted). */
std::string
decodeError(const std::vector<uint8_t> &bytes)
{
    try {
        snapshot::decodeContainer(bytes, kTestMagic, kTestVersion);
    } catch (const SnapshotError &e) {
        return e.what();
    }
    return "";
}

TEST(SnapshotContainer, DecodesRecordsInOrder)
{
    const std::vector<uint8_t> bytes = threeRecordContainer();
    std::vector<snapshot::Record> recs =
        snapshot::decodeContainer(bytes, kTestMagic, kTestVersion);
    ASSERT_EQ(recs.size(), 3u);
    EXPECT_EQ(recs[0].tag, makeTag("ONE "));
    EXPECT_EQ(recs[0].offset, 28u);
    EXPECT_EQ(recs[0].length, 4u);
    EXPECT_EQ(recs[1].tag, makeTag("TWO "));
    EXPECT_EQ(recs[1].length, 0u);
    EXPECT_EQ(recs[2].tag, makeTag("THRE"));
    EXPECT_EQ(recs[2].length, 7u);
    EXPECT_EQ(recs[2].offset + recs[2].length, bytes.size());
    EXPECT_EQ(recs[2].crc, snapshot::crc32(bytes.data() + recs[2].offset,
                                           recs[2].length));

    // A zero-length payload read into an empty vector: data() may be
    // null, so the reader must not hand it to memcpy.
    ChunkReader two(recs[1].tag, bytes.data() + recs[1].offset, 0);
    std::vector<uint8_t> empty;
    two.bytes(empty.data(), empty.size());
    two.expectEnd();
}

TEST(SnapshotContainer, HostileInputsFailLocated)
{
    const std::vector<uint8_t> good = threeRecordContainer();
    ASSERT_EQ(decodeError(good), "");
    // Record headers start at 16, 32 and 44; payloads are 28..31 and
    // 56..62.  Tags and the reserved header word carry no CRC: a flip
    // there decodes, and the caller's tag rules catch it (see below).
    const size_t kRecordHeaders[] = {16, 32, 44};

    struct Case
    {
        std::string what;
        std::vector<uint8_t> bytes;
    };
    std::vector<Case> cases;
    for (size_t n = 0; n < good.size(); ++n)
        cases.push_back({"truncated to " + std::to_string(n),
                         std::vector<uint8_t>(good.begin(),
                                              good.begin() + n)});
    auto flipped = [&](size_t pos, int bit) {
        std::vector<uint8_t> b = good;
        b[pos] ^= static_cast<uint8_t>(1u << bit);
        return Case{"bit " + std::to_string(bit) + " of byte " +
                        std::to_string(pos),
                    b};
    };
    std::vector<size_t> guarded;   // Bytes a flip must never slip by.
    for (size_t pos = 0; pos < 12; ++pos)
        guarded.push_back(pos);    // magic, version, count
    for (size_t h : kRecordHeaders) {
        for (size_t pos = h + 4; pos < h + 12; ++pos)
            guarded.push_back(pos);   // length, crc
    }
    for (size_t pos = 28; pos < 32; ++pos)
        guarded.push_back(pos);
    for (size_t pos = 56; pos < good.size(); ++pos)
        guarded.push_back(pos);
    for (size_t pos : guarded) {
        for (int bit = 0; bit < 8; ++bit)
            cases.push_back(flipped(pos, bit));
    }
    std::vector<uint8_t> count = good;
    count[8] = count[9] = count[10] = count[11] = 0xff;
    cases.push_back({"record count 2^32-1", count});
    std::vector<uint8_t> trailing = good;
    trailing.push_back(0);
    cases.push_back({"trailing byte", trailing});

    for (const Case &c : cases) {
        std::string err = decodeError(c.bytes);
        EXPECT_NE(err.find("snapshot: "), std::string::npos)
            << c.what << " was accepted";
        EXPECT_NE(err.find("offset"), std::string::npos)
            << c.what << ": unlocated error \"" << err << "\"";
    }

    // An unprotected tag byte decodes to a different tag; every format
    // rejects tags it does not know (missing chunk, unknown event
    // kind, unknown frame kind).
    const uint32_t kTags[] = {makeTag("ONE "), makeTag("TWO "),
                              makeTag("THRE")};
    for (size_t i = 0; i < 3; ++i) {
        std::vector<uint8_t> b = good;
        b[kRecordHeaders[i]] ^= 0x20;
        std::vector<snapshot::Record> recs =
            snapshot::decodeContainer(b, kTestMagic, kTestVersion);
        EXPECT_NE(recs[i].tag, kTags[i]);
    }
}

// Reference bytes of the three formats.  A mismatch is a format
// change: bump the version rather than editing these.
const std::vector<uint8_t> kGoldenImage = {
    0x42, 0x53, 0x4e, 0x50, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x41, 0x41, 0x41, 0x41, 0x18, 0x00, 0x00, 0x00,
    0x9b, 0xb7, 0xa8, 0x7c, 0x12, 0x56, 0x34, 0xef, 0xbe, 0xad, 0xde, 0xef,
    0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01, 0x05, 0x00, 0x00, 0x00, 0x68,
    0x65, 0x6c, 0x6c, 0x6f, 0x42, 0x42, 0x42, 0x42, 0x04, 0x00, 0x00, 0x00,
    0xcd, 0xfb, 0x3c, 0xb6, 0x01, 0x02, 0x03, 0x04,
};
const std::vector<uint8_t> kGoldenLog = {
    0x42, 0x52, 0x50, 0x4c, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x00, 0x00, 0x52, 0x43, 0x46, 0x47, 0x1e, 0x00, 0x00, 0x00,
    0x80, 0x96, 0xd8, 0x07, 0x00, 0x00, 0x00, 0x80, 0x00, 0x00, 0x00, 0x00,
    0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0x01, 0x01, 0x01, 0x00, 0x00, 0x00, 0x52, 0x4d,
    0x49, 0x4f, 0x08, 0x00, 0x00, 0x00, 0xa0, 0xd4, 0xa2, 0xa0, 0x24, 0x00,
    0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x52, 0x49, 0x52, 0x51, 0x08, 0x00,
    0x00, 0x00, 0x92, 0xb8, 0x34, 0x11, 0x01, 0x00, 0x00, 0x00, 0x01, 0x00,
    0x00, 0x00,
};
const std::vector<uint8_t> kGoldenFrame = {
    0x46, 0x4c, 0x54, 0x4a, 0x03, 0x00, 0x00, 0x00, 0x1d, 0x80, 0xbc, 0x55,
    0x01, 0x02, 0x03,
};

TEST(SnapshotContainer, EntryPointsKeepTheirExceptionTypes)
{
    std::vector<uint8_t> image = smallImageBytes();
    image.pop_back();
    EXPECT_THROW(Image::fromBytes(image), SnapshotError);

    std::vector<uint8_t> log = kGoldenLog;
    log.pop_back();
    EXPECT_THROW(replay::Log::fromBytes(log), replay::ReplayError);

    // A frame with a corrupt payload, read back from a regular file.
    std::vector<uint8_t> wire = fleet::encodeFrame(fleet::kMsgJob,
                                                   {1, 2, 3});
    wire.back() ^= 0x01;
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(wire.data(), 1, wire.size(), f), wire.size());
    std::fflush(f);
    std::rewind(f);
    fleet::Frame frame;
    EXPECT_THROW(fleet::readFrame(fileno(f), frame), SnapshotError);
    std::fclose(f);
}

TEST(SnapshotContainer, GoldenBytes)
{
    EXPECT_EQ(smallImageBytes(), kGoldenImage);

    // RCFG (1 MiB RAM at 0x80000000, 8 cores, 2 threads, verify 1),
    // one MMIO write, one IRQ raise.
    Writer w(replay::kMagic, replay::kVersion);
    ChunkWriter &cfg = w.chunk(replay::kEvConfig);
    cfg.u64(0x80000000ull);
    cfg.u64(1u << 20);
    cfg.u32(8);
    cfg.u32(2);
    for (uint8_t b : {1, 1, 1, 0, 0, 0})
        cfg.u8(b);
    ChunkWriter &mmio = w.chunk(replay::kEvMmio);
    mmio.u32(0x24);
    mmio.u32(1);
    ChunkWriter &irq = w.chunk(replay::kEvIrq);
    irq.u32(1);
    irq.u32(1);
    EXPECT_EQ(w.finish(), kGoldenLog);
    EXPECT_EQ(replay::Log::fromBytes(kGoldenLog).eventCount(), 3u);

    EXPECT_EQ(fleet::encodeFrame(fleet::kMsgJob, {1, 2, 3}), kGoldenFrame);
}

TEST(SnapshotFormat, Crc32KnownVector)
{
    // The classic IEEE 802.3 check value.
    EXPECT_EQ(snapshot::crc32("123456789", 9), 0xcbf43926u);
}

/** Bit-at-a-time CRC-32: the definition, kept here as the reference
 *  the library's slice-by-8 implementation must match. */
uint32_t
bitwiseCrc32(const uint8_t *p, size_t len)
{
    uint32_t crc = 0xffffffffu;
    for (size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc & 1) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
    return crc ^ 0xffffffffu;
}

TEST(SnapshotFormat, Crc32MatchesBitwiseReference)
{
    // Random lengths around and across the 8-byte stride (plus the
    // occasional multi-page buffer) at every start misalignment.
    std::mt19937_64 rng(0xc0ffee);
    std::vector<uint8_t> buf(3 * 4096 + 16);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng());
    for (int iter = 0; iter < 10000; ++iter) {
        size_t len = iter % 100 == 0 ? rng() % (3 * 4096) : rng() % 200;
        size_t off = rng() % 16;
        buf[off + len / 2] = static_cast<uint8_t>(rng());
        ASSERT_EQ(snapshot::crc32(buf.data() + off, len),
                  bitwiseCrc32(buf.data() + off, len))
            << "len " << len << " offset " << off;
    }
}

TEST(SnapshotFormat, Crc32ChainsAndExtendsOverZeros)
{
    std::mt19937_64 rng(0x5eed);
    std::vector<uint8_t> buf(2 * 4096 + 7);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng());
    for (int iter = 0; iter < 200; ++iter) {
        size_t split = rng() % buf.size();
        uint32_t head = snapshot::crc32(buf.data(), split);
        EXPECT_EQ(snapshot::crc32(head, buf.data() + split,
                                  buf.size() - split),
                  snapshot::crc32(buf.data(), buf.size()));

        // Zero the tail: the chained CRC over real zeros and the
        // zero-extension of the head's CRC agree.
        std::vector<uint8_t> zeros(buf.begin(), buf.end());
        std::fill(zeros.begin() + split, zeros.end(), 0);
        EXPECT_EQ(snapshot::crc32Zeros(head, zeros.size() - split),
                  snapshot::crc32(zeros.data(), zeros.size()))
            << "split " << split;
    }
    EXPECT_EQ(snapshot::crc32Zeros(0x12345678u, 0), 0x12345678u);
    // Lengths past 2^29 bytes wrap around the 32-entry power table.
    for (uint64_t n : {1ull << 29, (1ull << 33) + 5, ~0ull >> 4}) {
        EXPECT_EQ(snapshot::crc32Zeros(
                      snapshot::crc32Zeros(0xcbf43926u, n / 2), n - n / 2),
                  snapshot::crc32Zeros(0xcbf43926u, n))
            << n;
    }
}

// ---------------------------------------------------------------------
// Component round-trips
// ---------------------------------------------------------------------

TEST(PhysMemSnapshot, SparseRoundTripElidesZeroPages)
{
    PhysMem a(0x80000000u, 1u << 20);
    a.write<uint32_t>(0x80000000u, 0x11111111u);
    a.write<uint32_t>(0x80042000u + 123, 0x22222222u);
    a.fill(0x800ff000u, 0xab, 4096);

    ChunkWriter w;
    a.saveState(w);
    // Three dirty pages out of 256: the zero pages must be elided.
    EXPECT_LT(w.size(), 4 * 4096u);

    PhysMem b(0x80000000u, 1u << 20);
    b.fill(0x80080000u, 0xff, 8192);   // Dirty state to be overwritten.
    ChunkReader r(snapshot::kTagMem, w.data().data(), w.size());
    b.restoreState(r);
    EXPECT_EQ(0, std::memcmp(a.readPtr(a.base()), b.readPtr(b.base()),
                             a.size()));
}

/** The MEM chunk as a full scan of every page encodes it: the
 *  reference PhysMem::saveState, which inspects only written pages,
 *  must reproduce byte for byte. */
std::vector<uint8_t>
fullScanMemChunk(const PhysMem &m)
{
    constexpr size_t kPage = PhysMem::kPageBytes;
    static const std::vector<uint8_t> zero(kPage, 0);
    ChunkWriter w;
    w.u64(m.base());
    w.u64(m.size());
    w.u32(static_cast<uint32_t>(kPage));
    std::vector<std::pair<uint32_t, uint32_t>> runs;
    for (uint32_t p = 0; p < m.pageCount(); ++p) {
        size_t off = static_cast<size_t>(p) * kPage;
        size_t len = std::min(kPage, m.size() - off);
        if (std::memcmp(m.readPtr(m.base() + off), zero.data(), len) == 0)
            continue;
        if (!runs.empty() && runs.back().first + runs.back().second == p)
            runs.back().second++;
        else
            runs.push_back({p, 1});
    }
    w.u32(static_cast<uint32_t>(runs.size()));
    for (auto [start, count] : runs) {
        size_t off = static_cast<size_t>(start) * kPage;
        size_t end = std::min(off + count * kPage, m.size());
        w.u32(start);
        w.u32(count);
        w.bytes(m.readPtr(m.base() + off), end - off);
    }
    return w.data();
}

std::vector<uint8_t>
savedMemChunk(const PhysMem &m)
{
    ChunkWriter w;
    m.saveState(w);
    return w.data();
}

TEST(PhysMemSnapshot, TrackedSaveMatchesFullScan)
{
    PhysMem a(0x80000000u, 1u << 20);
    EXPECT_EQ(savedMemChunk(a), fullScanMemChunk(a));
    a.write<uint32_t>(0x80000000u + 40, 0x11111111u);
    a.write<uint64_t>(0x80003000u - 4, 0x2222222233333333ull);
    a.write<uint32_t>(0x80010000u, 0);   // Written, but still zero.
    std::vector<uint8_t> block(3 * 4096, 0x77);
    a.writeBlock(0x80020000u + 100, block.data(), block.size());
    a.fill(0x800ff000u, 0xab, 4096);
    EXPECT_EQ(savedMemChunk(a), fullScanMemChunk(a));

    // Pages zeroed again after being written are elided again.
    a.fill(0x80020000u, 0, 4 * 4096);
    EXPECT_EQ(savedMemChunk(a), fullScanMemChunk(a));

    // clear() forgets everything; restoreState marks what it writes.
    ChunkWriter w;
    a.saveState(w);
    PhysMem b(0x80000000u, 1u << 20);
    b.fill(0x80050000u, 0x42, 8192);
    b.clear();
    EXPECT_EQ(savedMemChunk(b), fullScanMemChunk(b));
    ChunkReader r(snapshot::kTagMem, w.data().data(), w.size());
    b.restoreState(r);
    EXPECT_EQ(savedMemChunk(b), w.data());
    EXPECT_EQ(savedMemChunk(b), fullScanMemChunk(b));
}

TEST(PhysMemSnapshot, TrackedSaveMatchesFullScanOnCowImage)
{
    PhysMem a(0x80000000u, 1u << 20);
    a.fill(0x80001000u, 0x11, 3 * 4096);
    a.write<uint32_t>(0x800a0000u, 0x5a5a5a5au);
    Writer iw;
    a.saveState(iw.chunk(snapshot::kTagMem));
    Image img = Image::fromBytes(iw.finish());
    std::shared_ptr<RamImage> ram = RamImage::sealFromSnapshot(img);
    if (!ram)
        GTEST_SKIP() << "no sealed shared memory on this host";

    // The image's non-zero pages were never marked in the CoW view.
    PhysMem c(ram->base(), ram->size(), ram);
    EXPECT_EQ(savedMemChunk(c), fullScanMemChunk(c));
    c.write<uint32_t>(0x80070000u, 9);
    c.fill(0x80002000u, 0, 4096);   // Zero an image page.
    EXPECT_EQ(savedMemChunk(c), fullScanMemChunk(c));
    c.clear();
    EXPECT_EQ(savedMemChunk(c), fullScanMemChunk(c));
    ASSERT_TRUE(c.resetToImage());
    EXPECT_EQ(savedMemChunk(c), fullScanMemChunk(c));
    EXPECT_EQ(savedMemChunk(c), savedMemChunk(a));
}

TEST(PhysMemSnapshot, TrackedSaveMatchesFullScanAfterGpuStores)
{
    // Shader stores land through host pointers the GPU TLB cached; the
    // tracked save must still see every page they touched.
    rt::SystemConfig cfg;
    cfg.ramBytes = 8u << 20;
    cfg.gpu.hostThreads = 4;
    rt::Session s(cfg, rt::Mode::Direct);
    rt::KernelHandle k = s.compile(R"(
kernel void fill(global int* out, int n) {
    int i = get_global_id(0);
    if (i < n) {
        out[i] = i + 1;
    }
}
)", "fill");
    rt::Buffer out = s.alloc(5 * 4096);
    gpu::JobResult r = s.enqueue(k, rt::NDRange{5 * 1024, 1, 1},
                                 rt::NDRange{64, 1, 1},
                                 {rt::Arg::buf(out),
                                  rt::Arg::i32(5 * 1024)});
    ASSERT_FALSE(r.faulted);
    const PhysMem &m = s.system().mem();
    EXPECT_EQ(savedMemChunk(m), fullScanMemChunk(m));
}

TEST(PhysMemSnapshot, GeometryMismatchRejected)
{
    PhysMem a(0x80000000u, 1u << 20);
    ChunkWriter w;
    a.saveState(w);

    PhysMem wrong_size(0x80000000u, 2u << 20);
    ChunkReader r1(snapshot::kTagMem, w.data().data(), w.size());
    EXPECT_THROW(wrong_size.restoreState(r1), SnapshotError);

    PhysMem wrong_base(0x40000000u, 1u << 20);
    ChunkReader r2(snapshot::kTagMem, w.data().data(), w.size());
    EXPECT_THROW(wrong_base.restoreState(r2), SnapshotError);
}

TEST(DeviceSnapshot, TimerRoundTripKeepsLatch)
{
    soc::Timer t(nullptr);
    t.mmioWrite(soc::Timer::kRegCmpLo, 500);
    t.mmioWrite(soc::Timer::kRegCmpHi, 1);
    t.tick(0xffffffffull);
    (void)t.mmioRead(soc::Timer::kRegTimeLo);   // Arms the HI latch.
    t.tick(1);

    ChunkWriter w;
    t.saveState(w);
    soc::Timer u(nullptr);
    ChunkReader r(snapshot::kTagTimer, w.data().data(), w.size());
    u.restoreState(r);

    EXPECT_EQ(u.now(), 0x100000000ull);
    // The in-flight latched HI read completes identically post-restore.
    EXPECT_EQ(u.mmioRead(soc::Timer::kRegTimeHi), 0u);
    EXPECT_EQ(u.mmioRead(soc::Timer::kRegTimeHi), 1u);
}

TEST(DeviceSnapshot, IntcRestoreDrivesOutputLevel)
{
    soc::Intc src(nullptr);
    src.mmioWrite(soc::Intc::kRegEnable, 0x5);
    src.setLine(0, true);
    ChunkWriter w;
    src.saveState(w);

    bool level = false;
    soc::Intc dst([&](bool l) { level = l; });
    ChunkReader r(snapshot::kTagIntc, w.data().data(), w.size());
    dst.restoreState(r);
    EXPECT_TRUE(level);   // Pending+enabled line re-drives the output.
    EXPECT_EQ(dst.mmioRead(soc::Intc::kRegPending), 0x1u);
    EXPECT_EQ(dst.mmioRead(soc::Intc::kRegEnable), 0x5u);
}

TEST(KernelStatsSnapshot, RoundTripIncludingHistogramAndCfg)
{
    gpu::KernelStats s;
    s.arithInstrs = 123;
    s.divergentBranches = 7;
    s.clauseSizes.sample(3, 40);
    s.clauseSizes.sample(8, 2);
    s.cfgEdges[gpu::cfgEdgeKey(0, 1)] = 64;
    s.cfgEdges[gpu::cfgEdgeKey(1, 5)] = 16;

    ChunkWriter w;
    gpu::saveStats(w, s);
    gpu::KernelStats t;
    ChunkReader r(kTagA, w.data().data(), w.size());
    gpu::restoreStats(r, t);
    EXPECT_NO_THROW(r.expectEnd());

    ChunkWriter w2;
    gpu::saveStats(w2, t);
    EXPECT_EQ(w.data(), w2.data());
    EXPECT_EQ(t.cfgEdges.at(gpu::cfgEdgeKey(1, 5)), 16u);
    EXPECT_EQ(t.clauseSizes.count(3), 40u);
}

TEST(KernelStatsSnapshot, RejectsHostileCounts)
{
    // A bucket count far larger than the payload could ever back must
    // fail before any allocation.
    ChunkWriter w;
    gpu::KernelStats s;
    gpu::saveStats(w, s);
    std::vector<uint8_t> bytes = w.data();
    // Bucket count sits after the 16 u64 scalars.
    uint32_t huge = 0x40000000u;
    std::memcpy(&bytes[16 * 8], &huge, 4);
    gpu::KernelStats t;
    ChunkReader r(kTagA, bytes.data(), bytes.size());
    EXPECT_THROW(gpu::restoreStats(r, t), SnapshotError);
}

// ---------------------------------------------------------------------
// Whole-system restore semantics
// ---------------------------------------------------------------------

rt::SystemConfig
smallCfg(bool sync_submit = false)
{
    rt::SystemConfig cfg;
    cfg.ramBytes = 32u << 20;
    cfg.gpu.syncSubmit = sync_submit;
    return cfg;
}

uint32_t
ramCrc(rt::System &sys)
{
    PhysMem &m = sys.mem();
    return snapshot::crc32(m.readPtr(m.base()), m.size());
}

TEST(SystemSnapshot, RestoreOverDirtySystemLeavesNoResidue)
{
    rt::SystemConfig cfg = smallCfg();
    rt::System src(cfg);
    src.mem().fill(rt::System::kRamBase + 0x1000, 0x5a, 256);
    src.uart().mmioWrite(soc::Uart::kRegThr, 'S');
    src.timer().tick(42);
    Writer w;
    src.saveSnapshot(w);
    Image img = Image::fromBytes(w.finish());

    rt::System dst(cfg);
    dst.mem().fill(rt::System::kRamBase + 0x700000, 0xcc, 4096);
    dst.uart().mmioWrite(soc::Uart::kRegThr, 'X');
    dst.intc().mmioWrite(soc::Intc::kRegEnable, 0xff);
    dst.intc().setLine(3, true);
    dst.timer().tick(99999);

    dst.restoreSnapshot(img);
    EXPECT_EQ(ramCrc(dst), ramCrc(src));
    EXPECT_EQ(dst.uart().output(), "S");
    EXPECT_EQ(dst.timer().now(), 42u);
    EXPECT_EQ(dst.intc().mmioRead(soc::Intc::kRegPending), 0u);
    EXPECT_EQ(dst.intc().mmioRead(soc::Intc::kRegEnable), 0u);
}

TEST(SystemSnapshot, ConfigMismatchRejectedBeforeAnyMutation)
{
    rt::System src(smallCfg());
    Writer w;
    src.saveSnapshot(w);
    Image img = Image::fromBytes(w.finish());

    rt::SystemConfig big = smallCfg();
    big.ramBytes = 64u << 20;
    rt::System dst(big);
    dst.uart().mmioWrite(soc::Uart::kRegThr, 'k');
    EXPECT_THROW(dst.restoreSnapshot(img), SnapshotError);
    // Rejected up front: the target keeps its pre-restore state.
    EXPECT_EQ(dst.uart().output(), "k");
}

/** Re-serialises one validated chunk of @p img as raw bytes. */
std::vector<uint8_t>
chunkBytes(const Image &img, uint32_t tag)
{
    ChunkReader r = img.chunk(tag);
    size_t n = r.remaining();
    const uint8_t *p = r.raw(n);
    return std::vector<uint8_t>(p, p + n);
}

TEST(SystemSnapshot, FailedRestoreResetsInsteadOfHalfApplying)
{
    rt::SystemConfig cfg = smallCfg();
    rt::System src(cfg);
    src.mem().fill(rt::System::kRamBase + 0x2000, 0x77, 512);
    src.uart().mmioWrite(soc::Uart::kRegThr, 'S');
    Writer w;
    src.saveSnapshot(w);
    Image good = Image::fromBytes(w.finish());

    // Rebuild the image with a semantically invalid GPU chunk
    // (JS_STATUS = running): the structure and CRCs are valid, so the
    // failure happens mid-restore, *after* RAM and UART were applied.
    Writer doctored;
    for (uint32_t tag :
         {snapshot::kTagConfig, snapshot::kTagCpu, snapshot::kTagMem,
          snapshot::kTagUart, snapshot::kTagTimer, snapshot::kTagIntc}) {
        std::vector<uint8_t> payload = chunkBytes(good, tag);
        doctored.chunk(tag).bytes(payload.data(), payload.size());
    }
    ChunkWriter &g = doctored.chunk(snapshot::kTagGpu);
    for (int i = 0; i < 6; ++i)
        g.u32(i == 2 ? static_cast<uint32_t>(gpu::kJsRunning) : 0u);
    Image bad = Image::fromBytes(doctored.finish());

    rt::System dst(cfg);
    dst.uart().mmioWrite(soc::Uart::kRegThr, 'X');
    EXPECT_THROW(dst.restoreSnapshot(bad), SnapshotError);
    // Never half-restored: the machine is back at power-on state.
    EXPECT_EQ(dst.uart().output(), "");
    rt::System pristine(cfg);
    EXPECT_EQ(ramCrc(dst), ramCrc(pristine));
    // And it still works: a good restore succeeds afterwards.
    dst.restoreSnapshot(good);
    EXPECT_EQ(dst.uart().output(), "S");
}

TEST(GpuSnapshot, RefusesToSaveWhileChainActive)
{
    rt::Session s(smallCfg(), rt::Mode::Direct);
    rt::System &sys = s.system();

    // One real enqueue installs the translation root and IRQ plumbing.
    const char *src = R"(
kernel void nop1(global int* out) {
    out[get_global_id(0)] = 1;
}
)";
    rt::Buffer out = s.alloc(64 * 4);
    rt::KernelHandle k = s.compile(src, "nop1");
    gpu::JobResult r0 = s.enqueue(k, rt::NDRange{64, 1, 1},
                                  rt::NDRange{64, 1, 1},
                                  {rt::Arg::buf(out)});
    ASSERT_FALSE(r0.faulted);

    // A long chain of null jobs keeps the Job Manager busy while the
    // host attempts a snapshot.
    constexpr uint32_t kDescs = 8192;
    rt::Buffer chain = s.alloc(kDescs * gpu::JobDescriptor::kSizeBytes);
    std::vector<uint8_t> raw(kDescs * gpu::JobDescriptor::kSizeBytes);
    for (uint32_t i = 0; i < kDescs; ++i) {
        gpu::JobDescriptor d;
        d.jobType = gpu::JobDescriptor::kTypeNull;
        d.next = (i + 1 < kDescs)
                     ? chain.gpuVa +
                           (i + 1) * gpu::JobDescriptor::kSizeBytes
                     : 0;
        d.writeTo(&raw[i * gpu::JobDescriptor::kSizeBytes]);
    }
    s.write(chain, raw.data(), raw.size());

    sys.gpu().mmioWrite(gpu::kRegJsSubmit, chain.gpuVa);
    if (!sys.gpu().idle()) {
        Writer w;
        EXPECT_THROW(sys.saveSnapshot(w), SnapshotError);
    }
    sys.gpu().waitIdle();
    Writer w2;
    EXPECT_NO_THROW(sys.saveSnapshot(w2));
}

// ---------------------------------------------------------------------
// Deterministic resume: run-through vs restore-then-run
// ---------------------------------------------------------------------

const char *kSgemmSrc = R"(
kernel void sgemm(global const float* A, global const float* B,
                  global float* C, int n) {
    int col = get_global_id(0);
    int row = get_global_id(1);
    float acc = 0.0f;
    for (int k = 0; k < n; k += 1) {
        acc += A[row * n + k] * B[k * n + col];
    }
    C[row * n + col] = acc;
}
)";

const char *kDivergentSrc = R"(
kernel void divergent(global const int* in, global int* out, int n) {
    int i = get_global_id(0);
    int v = in[i];
    int acc = 0;
    if ((v & 1) == 1) {
        int m = v & 7;
        for (int k = 0; k < m; k += 1) {
            acc += v * k;
        }
    } else {
        acc = v * 3 - 7;
    }
    if (i < n) {
        out[i] = acc;
    }
}
)";

/** Everything guest-visible (plus deterministic host-side statistics)
 *  that must match between run-through and restore-then-run. */
struct Fingerprint
{
    uint32_t ramCrc = 0;
    std::vector<uint32_t> regs;   ///< x0..x31 then the CSR file.
    uint64_t pc = 0;
    uint64_t instret = 0;
    uint64_t timerNow = 0;
    uint32_t intcPending = 0;
    std::string uart;
    std::vector<uint8_t> kernelTotals;   ///< Serialised KernelStats.
    uint64_t driverInstrs = 0;
    uint64_t jobCount = 0;
};

Fingerprint
fingerprint(rt::Session &s)
{
    Fingerprint f;
    rt::System &sys = s.system();
    f.ramCrc = ramCrc(sys);
    sa32::Core &cpu = sys.cpu();
    for (unsigned i = 0; i < sa32::kNumRegs; ++i)
        f.regs.push_back(cpu.reg(i));
    for (uint32_t csr :
         {sa32::kCsrSatp, sa32::kCsrMStatus, sa32::kCsrMIe,
          sa32::kCsrMTvec, sa32::kCsrMScratch, sa32::kCsrMEpc,
          sa32::kCsrMCause, sa32::kCsrMTval, sa32::kCsrMIp})
        f.regs.push_back(cpu.readCsr(csr));
    f.pc = cpu.pc();
    f.instret = cpu.stats().instret;
    f.timerNow = sys.timer().now();
    f.intcPending = sys.intc().mmioRead(soc::Intc::kRegPending);
    f.uart = sys.uart().output();
    ChunkWriter kw;
    gpu::saveStats(kw, sys.gpu().totalKernelStats());
    f.kernelTotals = kw.data();
    f.driverInstrs = s.driverInstructions();
    f.jobCount = sys.gpu().mmioRead(gpu::kRegJsJobCount);
    return f;
}

void
expectEqual(const Fingerprint &a, const Fingerprint &b)
{
    EXPECT_EQ(a.ramCrc, b.ramCrc) << "RAM digest diverged";
    EXPECT_EQ(a.regs, b.regs) << "CPU registers/CSRs diverged";
    EXPECT_EQ(a.pc, b.pc);
    EXPECT_EQ(a.instret, b.instret) << "retired-instruction count";
    EXPECT_EQ(a.timerNow, b.timerNow);
    EXPECT_EQ(a.intcPending, b.intcPending);
    EXPECT_EQ(a.uart, b.uart) << "UART output diverged";
    EXPECT_EQ(a.kernelTotals, b.kernelTotals)
        << "kernel statistics diverged";
    EXPECT_EQ(a.driverInstrs, b.driverInstrs);
    EXPECT_EQ(a.jobCount, b.jobCount);
}

/** One deterministic-resume scenario: set up a workload, run one
 *  enqueue, snapshot, run a second enqueue; then restore the snapshot
 *  into a fresh session and run the same second enqueue there.
 *  @param host_threads  GPU worker-pool size (0 keeps the default).
 *  @param skew_slices   Force the work-stealing path (see GpuConfig).
 *  @return the run-through fingerprint, so callers can additionally
 *  compare fingerprints *across* worker-pool configurations. */
Fingerprint
runDeterminismScenario(rt::Mode mode, const char *src, const char *name,
                       unsigned host_threads = 0, bool skew_slices = false,
                       bool cpu_dbt = true)
{
    // syncSubmit pins the CPU/GPU interleaving in FullSystem mode;
    // Direct mode is already quiescent around every enqueue.
    rt::SystemConfig cfg = smallCfg(mode == rt::Mode::FullSystem);
    if (host_threads != 0)
        cfg.gpu.hostThreads = host_threads;
    cfg.gpu.skewSlices = skew_slices;
    cfg.cpuDbt = cpu_dbt;

    constexpr int kN = 16;
    constexpr size_t kBytes = kN * kN * 4;
    const bool is_sgemm = std::strcmp(name, "sgemm") == 0;

    rt::Session s(cfg, mode);
    rt::Buffer b0 = s.alloc(kBytes);
    rt::Buffer b1 = s.alloc(kBytes);
    rt::Buffer b2 = s.alloc(kBytes);
    if (is_sgemm) {
        std::vector<float> init(kN * kN);
        for (int i = 0; i < kN * kN; ++i)
            init[i] = static_cast<float>((i % 23) - 11) * 0.5f;
        s.write(b0, init.data(), kBytes);
        s.write(b1, init.data(), kBytes);
    } else {
        std::vector<int32_t> init(kN * kN);
        for (int i = 0; i < kN * kN; ++i)
            init[i] = static_cast<int32_t>(i * 2654435761u);
        s.write(b0, init.data(), kBytes);
    }
    rt::KernelHandle k = s.compile(src, name);

    auto launch = [&](rt::Session &sess, const rt::KernelHandle &kh,
                      const std::vector<rt::Buffer> &bufs) {
        std::vector<rt::Arg> args;
        rt::NDRange global{kN, 1, 1}, local{8, 1, 1};
        if (is_sgemm) {
            args = {rt::Arg::buf(bufs[0]), rt::Arg::buf(bufs[1]),
                    rt::Arg::buf(bufs[2]), rt::Arg::i32(kN)};
            global = rt::NDRange{kN, kN, 1};
            local = rt::NDRange{8, 8, 1};
        } else {
            args = {rt::Arg::buf(bufs[0]), rt::Arg::buf(bufs[1]),
                    rt::Arg::i32(kN * kN)};
            global = rt::NDRange{kN * kN, 1, 1};
            local = rt::NDRange{32, 1, 1};
        }
        gpu::JobResult r = sess.enqueue(kh, global, local, args);
        EXPECT_FALSE(r.faulted) << r.fault.detail;
    };

    launch(s, k, {b0, b1, b2});

    Writer w;
    s.saveSnapshot(w);
    Image img = Image::fromBytes(w.finish());

    // Path A: keep running in the original session.
    launch(s, k, {b0, b1, b2});
    Fingerprint through = fingerprint(s);

    // Path B: warm-boot a fresh session from the image and run the
    // identical second enqueue.
    auto s2 = rt::Session::fromSnapshot(img, cfg);
    EXPECT_EQ(s2->mode(), mode);
    EXPECT_EQ(s2->kernels().size(), 1u);
    EXPECT_EQ(s2->buffers().size(), 3u);
    launch(*s2, s2->kernels()[0], s2->buffers());
    Fingerprint restored = fingerprint(*s2);

    expectEqual(through, restored);
    return through;
}

TEST(SnapshotDeterminism, DirectSgemm)
{
    runDeterminismScenario(rt::Mode::Direct, kSgemmSrc, "sgemm");
}

TEST(SnapshotDeterminism, DirectDivergent)
{
    runDeterminismScenario(rt::Mode::Direct, kDivergentSrc, "divergent");
}

TEST(SnapshotDeterminism, FullSystemSgemm)
{
    runDeterminismScenario(rt::Mode::FullSystem, kSgemmSrc, "sgemm");
}

TEST(SnapshotDeterminism, FullSystemDivergent)
{
    runDeterminismScenario(rt::Mode::FullSystem, kDivergentSrc,
                           "divergent");
}

TEST(SnapshotDeterminism, FullSystemSgemmMultiWorker)
{
    // The headline save/continue == restore/continue property must
    // survive genuinely parallel workgroup execution, including the
    // work-stealing path: with the slices skewed onto worker 0, the
    // other seven workers only make progress by stealing, yet every
    // guest-visible artefact must stay a pure function of guest state.
    runDeterminismScenario(rt::Mode::FullSystem, kSgemmSrc, "sgemm",
                           /*host_threads=*/8, /*skew_slices=*/true);
}

TEST(SnapshotDeterminism, FullSystemSgemmInterpreterCpuTier)
{
    // Same headline property with the CPU's DBT tier off (interpreter
    // oracle): restore/continue must still equal save/continue.
    runDeterminismScenario(rt::Mode::FullSystem, kSgemmSrc, "sgemm", 0,
                           /*skew_slices=*/false, /*cpu_dbt=*/false);
}

TEST(SnapshotDeterminism, FullSystemCpuTierInvariant)
{
    // Whole-system lockstep: the threaded-code DBT tier and the
    // interpreter must produce bit-identical fingerprints (RAM digest,
    // CPU state, retired instructions, timer, UART, kernel statistics)
    // for the same guest-driver workload.
    Fingerprint dbt =
        runDeterminismScenario(rt::Mode::FullSystem, kSgemmSrc, "sgemm");
    Fingerprint interp = runDeterminismScenario(
        rt::Mode::FullSystem, kSgemmSrc, "sgemm", 0,
        /*skew_slices=*/false, /*cpu_dbt=*/false);
    expectEqual(dbt, interp);
}

TEST(SystemSnapshot, RestoreDiscardsDbtTranslations)
{
    rt::SystemConfig cfg = smallCfg();
    rt::System sys(cfg);
    sa32::Program p = sa32::assemble(R"(
        .org 0x80000000
        li   t0, 1000
loop:
        addi t0, t0, -1
        bnez t0, loop
        wfi
    )");
    p.loadInto(sys.mem());
    sys.cpu().reset();
    sys.cpu().run(500);   // Parks mid-loop with the loop translated.
    sa32::Dbt *dbt = sys.cpu().dbt();
    ASSERT_NE(dbt, nullptr);
    EXPECT_GT(dbt->liveBlocks(), 0u);

    Writer w;
    sys.saveSnapshot(w);
    Image img = Image::fromBytes(w.finish());
    sys.restoreSnapshot(img);

    // No translation survives a restore (the image carries no code
    // cache; everything is rebuilt from the restored RAM).
    EXPECT_EQ(dbt->liveBlocks(), 0u);
    EXPECT_EQ(sys.cpu().run(5000), sa32::StopReason::Wfi);
    EXPECT_EQ(sys.cpu().reg(5), 0u);   // Loop completed post-restore.
}

TEST(SnapshotDeterminism, FullSystemSgemmWorkerCountInvariant)
{
    // syncSubmit determinism is also *worker-count* determinism: the
    // fingerprint (RAM digest, CPU state, retired instructions, kernel
    // statistics) must be bit-identical for 1-, 2- and 8-worker pools,
    // because every per-worker contribution merges as a sum or a set
    // union at the job-end barrier.
    Fingerprint one =
        runDeterminismScenario(rt::Mode::FullSystem, kSgemmSrc, "sgemm", 1);
    Fingerprint two =
        runDeterminismScenario(rt::Mode::FullSystem, kSgemmSrc, "sgemm", 2);
    Fingerprint eight = runDeterminismScenario(
        rt::Mode::FullSystem, kSgemmSrc, "sgemm", 8,
        /*skew_slices=*/true);
    expectEqual(one, two);
    expectEqual(one, eight);
}

TEST(SnapshotDeterminism, RestoredSgemmComputesCorrectResult)
{
    rt::SystemConfig cfg = smallCfg();
    constexpr int kN = 8;
    rt::Session s(cfg, rt::Mode::Direct);
    std::vector<float> a(kN * kN), b(kN * kN), out(kN * kN);
    for (int i = 0; i < kN * kN; ++i) {
        a[i] = static_cast<float>(i % 5);
        b[i] = static_cast<float>((i % 7) - 3);
    }
    rt::Buffer da = s.alloc(a.size() * 4);
    rt::Buffer db = s.alloc(b.size() * 4);
    rt::Buffer dc = s.alloc(out.size() * 4);
    (void)dc;   // Reached through the registry post-restore.
    s.write(da, a.data(), a.size() * 4);
    s.write(db, b.data(), b.size() * 4);
    s.compile(kSgemmSrc, "sgemm");

    Writer w;
    s.saveSnapshot(w);
    auto s2 = rt::Session::fromSnapshot(Image::fromBytes(w.finish()),
                                        cfg);

    // The warm-booted session enqueues without recompiling.
    gpu::JobResult r = s2->enqueue(
        s2->kernels()[0], rt::NDRange{kN, kN, 1}, rt::NDRange{4, 4, 1},
        {rt::Arg::buf(s2->buffers()[0]), rt::Arg::buf(s2->buffers()[1]),
         rt::Arg::buf(s2->buffers()[2]), rt::Arg::i32(kN)});
    ASSERT_FALSE(r.faulted) << r.fault.detail;
    s2->read(s2->buffers()[2], out.data(), out.size() * 4);
    for (int row = 0; row < kN; ++row) {
        for (int col = 0; col < kN; ++col) {
            float want = 0.0f;
            for (int k = 0; k < kN; ++k)
                want += a[row * kN + k] * b[k * kN + col];
            ASSERT_EQ(out[row * kN + col], want)
                << "C[" << row << "," << col << "]";
        }
    }
}

TEST(SessionSnapshot, FileRoundTripAtomicWrite)
{
    rt::SystemConfig cfg = smallCfg();
    rt::Session s(cfg, rt::Mode::Direct);
    rt::Buffer b = s.alloc(4096);
    uint32_t v = 0xfeedface;
    s.write(b, &v, 4);

    std::string path = ::testing::TempDir() + "bifsim_snap_test.bsnp";
    s.saveSnapshot(path);
    auto s2 = rt::Session::fromSnapshot(path, cfg);
    uint32_t got = 0;
    s2->read(s2->buffers()[0], &got, 4);
    EXPECT_EQ(got, 0xfeedfaceu);
    std::remove(path.c_str());
    EXPECT_THROW(rt::Session::fromSnapshot(path, cfg), SnapshotError);
}

// ---------------------------------------------------------------------
// Metrics across reset and restore: the registry counts the work done
// in this process, never counts a restored image carries
// ---------------------------------------------------------------------

/** The process-wide registry's total for the counter in @p slot. */
uint64_t
registryTotal(uint16_t slot)
{
    return metrics::registry().totals()[slot];
}

constexpr uint16_t kInstret = gpu::counterSlot("cpu.instret");

/** Image of a booted FullSystem session: its CPU chunk carries the
 *  instructions the guest OS boot retired. */
Image
bootedImage()
{
    rt::Session s(smallCfg(true), rt::Mode::FullSystem);
    Writer w;
    s.saveSnapshot(w);
    return Image::fromBytes(w.finish());
}

TEST(SnapshotMetrics, WarmBootPublishesNoRestoredInstret)
{
    Image img = bootedImage();
    uint64_t before = registryTotal(kInstret);
    auto s = rt::Session::fromSnapshot(img, smallCfg(true));
    ASSERT_GT(s->system().cpu().stats().instret, 0u);
    s->system().publishMetrics();
    EXPECT_EQ(0u, registryTotal(kInstret) - before);
}

TEST(SnapshotMetrics, RecyclesPublishExactlyTheInstructionsRun)
{
    Image img = bootedImage();
    auto s = rt::Session::fromSnapshot(img, smallCfg(true));
    rt::System &sys = s->system();
    uint64_t before = registryTotal(kInstret);
    uint64_t executed = 0;
    for (int round = 0; round < 5; ++round) {
        uint64_t i0 = sys.cpu().stats().instret;
        sys.runCpu(20000);
        executed += sys.cpu().stats().instret - i0;
        sys.publishMetrics();
        s->resetFromSnapshot(img);
    }
    sys.publishMetrics();
    EXPECT_EQ(100000u, executed);   // The driver busy-polls: no WFI.
    EXPECT_EQ(executed, registryTotal(kInstret) - before);
}

TEST(SnapshotMetrics, WorkBeforeResetIsCounted)
{
    auto s = rt::Session::fromSnapshot(bootedImage(), smallCfg(true));
    rt::System &sys = s->system();
    uint64_t before = registryTotal(kInstret);
    uint64_t i0 = sys.cpu().stats().instret;
    sys.runCpu(20000);   // Below the sampled-publish threshold.
    uint64_t executed = sys.cpu().stats().instret - i0;
    sys.reset();
    sys.publishMetrics();
    EXPECT_GT(executed, 0u);
    EXPECT_EQ(executed, registryTotal(kInstret) - before);
}

TEST(SnapshotMetrics, ShaderCacheCountsAreTheJobsRunHere)
{
    // The decode cache's counters ride the GPU's sys baseline: a warm
    // boot publishes none of the image's, and each job publishes its
    // own decode or hit.
    constexpr uint16_t kDecodes = gpu::counterSlot("shader.decodes");
    constexpr uint16_t kHits = gpu::counterSlot("shader.cache_hits");
    Image img = bootedImage();
    uint64_t d0 = registryTotal(kDecodes);
    uint64_t h0 = registryTotal(kHits);
    auto s = rt::Session::fromSnapshot(img, smallCfg(true));
    gpu::ShaderCacheStats c0 = s->system().gpu().shaderCacheStats();

    rt::Buffer out = s->alloc(64 * 4);
    rt::KernelHandle k = s->compile(R"(
kernel void ones(global int* out) {
    out[get_global_id(0)] = 1;
}
)",
                                    "ones");
    for (int i = 0; i < 3; ++i)
        ASSERT_FALSE(s->enqueue(k, rt::NDRange{64, 1, 1},
                                rt::NDRange{64, 1, 1}, {rt::Arg::buf(out)})
                         .faulted);
    gpu::ShaderCacheStats c1 = s->system().gpu().shaderCacheStats();
    EXPECT_EQ(3u, (c1.decodes - c0.decodes) + (c1.hits - c0.hits));
    EXPECT_EQ(c1.decodes - c0.decodes, registryTotal(kDecodes) - d0);
    EXPECT_EQ(c1.hits - c0.hits, registryTotal(kHits) - h0);
}

} // namespace
} // namespace bifsim

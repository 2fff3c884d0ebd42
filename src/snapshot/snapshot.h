#ifndef BIFSIM_SNAPSHOT_SNAPSHOT_H
#define BIFSIM_SNAPSHOT_SNAPSHOT_H

/**
 * @file
 * Whole-system snapshot image format (DESIGN.md §5e).
 *
 * An image is a little-endian, versioned, chunked container:
 *
 *   file header   : magic 'BSNP' | u32 version | u32 chunkCount | u32 rsvd
 *   chunk         : u32 tag | u32 length | u32 crc32(payload) | payload
 *
 * Each stateful component serialises itself into one chunk through a
 * ChunkWriter and re-parses it through a ChunkReader.  The loader is
 * adversarially robust: Image::fromBytes() validates the complete
 * structure (magic, version, chunk bounds, CRCs, duplicate tags) before
 * exposing any payload, and every ChunkReader read is bounds-checked,
 * so a truncated or bit-flipped image always fails with a located
 * SnapshotError and never crashes or half-applies.
 *
 * Restore follows parse-then-commit: components decode a chunk fully
 * into locals before touching live state, and rt::System resets the
 * machine on any mid-restore failure so a System is never left
 * half-restored.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/logging.h"

namespace bifsim::snapshot {

/** Thrown for any malformed, truncated, corrupt or incompatible image.
 *  The message locates the failure (chunk tag + byte offset). */
class SnapshotError : public SimError
{
  public:
    using SimError::SimError;
};

/** Throws SnapshotError with a printf-style formatted message. */
[[noreturn]] void snapshotError(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over @p len bytes. */
uint32_t crc32(const void *data, size_t len);

/** Builds a chunk tag from a 4-character name, e.g. makeTag("CPU "). */
constexpr uint32_t
makeTag(const char (&name)[5])
{
    return static_cast<uint32_t>(static_cast<uint8_t>(name[0])) |
           (static_cast<uint32_t>(static_cast<uint8_t>(name[1])) << 8) |
           (static_cast<uint32_t>(static_cast<uint8_t>(name[2])) << 16) |
           (static_cast<uint32_t>(static_cast<uint8_t>(name[3])) << 24);
}

/** Renders a tag back to its 4-character name for error messages. */
std::string tagName(uint32_t tag);

/** Image format constants. */
constexpr uint32_t kMagic = makeTag("BSNP");
constexpr uint32_t kVersion = 2;   ///< v2: CPU chunk gained DBT counters.

/** Well-known chunk tags. */
constexpr uint32_t kTagConfig = makeTag("CONF");
constexpr uint32_t kTagCpu = makeTag("CPU ");
constexpr uint32_t kTagMem = makeTag("MEM ");
constexpr uint32_t kTagUart = makeTag("UART");
constexpr uint32_t kTagTimer = makeTag("TIMR");
constexpr uint32_t kTagIntc = makeTag("INTC");
constexpr uint32_t kTagGpu = makeTag("GPU ");
constexpr uint32_t kTagSession = makeTag("SESS");

/** Serialises one chunk payload (little-endian, append-only). */
class ChunkWriter
{
  public:
    void u8(uint8_t v) { buf_.push_back(v); }
    void u16(uint16_t v);
    void u32(uint32_t v);
    void u64(uint64_t v);

    /** Appends raw bytes. */
    void bytes(const void *data, size_t len);

    /** Makes room for @p len more bytes (large payloads of known size
     *  then fill without regrowing). */
    void reserve(size_t len) { buf_.reserve(buf_.size() + len); }

    /** Appends a u32 length followed by the string bytes. */
    void str(const std::string &s);

    /** Bytes written so far. */
    size_t size() const { return buf_.size(); }

    const std::vector<uint8_t> &data() const { return buf_; }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked cursor over one chunk payload.  Every read that would
 * run past the end throws a SnapshotError naming the chunk and offset.
 */
class ChunkReader
{
  public:
    ChunkReader(uint32_t tag, const uint8_t *data, size_t len)
        : tag_(tag), data_(data), len_(len)
    {
    }

    uint8_t u8();
    uint16_t u16();
    uint32_t u32();
    uint64_t u64();

    /** Copies @p len raw bytes out. */
    void bytes(void *dst, size_t len);

    /** Returns a pointer to @p len raw bytes and advances. */
    const uint8_t *raw(size_t len);

    /** Reads a u32-length-prefixed string (capped at the chunk size). */
    std::string str();

    /** Bytes left in the chunk. */
    size_t remaining() const { return len_ - pos_; }

    /** Current byte offset inside the chunk. */
    size_t offset() const { return pos_; }

    /** Throws unless the whole payload has been consumed. */
    void expectEnd() const;

    /** Throws a located SnapshotError at the current cursor. */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    uint32_t tag_;
    const uint8_t *data_;
    size_t len_;
    size_t pos_ = 0;

    void need(size_t n);
};

/** Writes a complete snapshot image chunk by chunk. */
class Writer
{
  public:
    /**
     * Opens a new chunk.  The returned ChunkWriter stays valid until
     * the next chunk() / finish() call; its contents are sealed (length
     * + CRC computed) at that point.  Duplicate tags are rejected.
     */
    ChunkWriter &chunk(uint32_t tag);

    /** Seals the image and returns the serialised bytes. */
    std::vector<uint8_t> finish();

    /** Seals the image and writes it to @p path (atomic: tmp+rename). */
    void writeFile(const std::string &path);

  private:
    struct PendingChunk
    {
        uint32_t tag;
        ChunkWriter payload;
    };

    std::vector<PendingChunk> chunks_;
};

/**
 * A fully validated snapshot image.  Construction (load / fromBytes)
 * performs complete structural validation — magic, version, per-chunk
 * bounds, CRC32 of every payload, duplicate-tag detection — before any
 * chunk becomes visible, so consumers never observe a corrupt payload.
 */
class Image
{
  public:
    /** Parses and validates @p bytes.  Throws SnapshotError. */
    static Image fromBytes(std::vector<uint8_t> bytes);

    /** Reads and validates the image at @p path.  Throws SnapshotError. */
    static Image load(const std::string &path);

    /** Format version of the image. */
    uint32_t version() const { return version_; }

    /** True if the image carries chunk @p tag. */
    bool has(uint32_t tag) const { return chunks_.count(tag) != 0; }

    /** Returns a reader over chunk @p tag; throws if absent. */
    ChunkReader chunk(uint32_t tag) const;

    /** CRC-32 of chunk @p tag's payload, retained from the validation
     *  pass (no re-hash); throws if absent.  Identifies a chunk's
     *  exact content — e.g. the fleet restore fast path proves a
     *  System's CoW RAM backing matches the image's MEM chunk by CRC
     *  before skipping the chunk (DESIGN.md §5j). */
    uint32_t chunkCrc(uint32_t tag) const;

    /** Payload length of chunk @p tag in bytes; throws if absent. */
    size_t chunkLength(uint32_t tag) const;

    /** Total image size in bytes. */
    size_t sizeBytes() const { return bytes_.size(); }

  private:
    Image() = default;

    struct Extent
    {
        size_t offset;
        size_t length;
        uint32_t crc;
    };

    std::vector<uint8_t> bytes_;
    std::map<uint32_t, Extent> chunks_;
    uint32_t version_ = 0;
};

} // namespace bifsim::snapshot

#endif // BIFSIM_SNAPSHOT_SNAPSHOT_H

#ifndef BIFSIM_SNAPSHOT_SNAPSHOT_H
#define BIFSIM_SNAPSHOT_SNAPSHOT_H

/**
 * @file
 * The TLV container format and the snapshot image built on it
 * (DESIGN.md §5e).  Snapshot images (`BSNP`), replay logs (`BRPL`) and
 * fleet frames (`FLT*`) share one little-endian layout, framed only
 * here:
 *
 *   container header : u32 magic | u32 version | u32 chunkCount | u32 rsvd
 *   chunk (record)   : u32 tag | u32 length | u32 crc32(payload) | payload
 *
 * A file is a header plus its records; a fleet frame is one bare
 * record.  decodeContainer() validates the whole structure before it
 * returns any record, and every ChunkReader read is bounds-checked, so
 * a truncated or bit-flipped input always fails with a located
 * SnapshotError and never crashes or half-applies.  Each format then
 * applies its own rules to the record list.
 *
 * Each stateful component serialises itself into one image chunk
 * through a ChunkWriter and re-parses it through a ChunkReader.
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

/** CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over @p len bytes,
 *  continuing from the CRC @p crc of the bytes before them (zlib's
 *  chaining: start from 0). */
uint32_t crc32(uint32_t crc, const void *data, size_t len);

/** CRC-32 over @p len bytes. */
inline uint32_t
crc32(const void *data, size_t len)
{
    return crc32(0, data, len);
}

/** The CRC of the bytes behind @p crc followed by @p len zero bytes,
 *  in O(log len) without touching them. */
uint32_t crc32Zeros(uint32_t crc, uint64_t len);

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

/** Record header size: tag | length | crc32(payload). */
constexpr size_t kRecordHeaderBytes = 12;

/** One record; its payload sits at [offset, offset + length) of the
 *  container or stream it came from. */
struct Record
{
    uint32_t tag;
    size_t offset;
    size_t length;
    uint32_t crc;
};

/** Appends one record, header then @p len payload bytes, to @p out. */
void appendRecord(std::vector<uint8_t> &out, uint32_t tag,
                  const void *payload, size_t len);

/** Decodes the record header at @p p, found at byte @p pos of its
 *  stream. */
Record decodeRecordHeader(const uint8_t *p, size_t pos);

/** Throws a located SnapshotError unless the r.length bytes at
 *  @p payload match r.crc. */
void checkRecordCrc(const Record &r, const uint8_t *payload);

/**
 * Validates a whole container: header (@p magic, @p version), the
 * record-count bound, each record's bounds and CRC, and trailing
 * bytes.  Only then returns the records in file order; tags are not
 * interpreted.  @throws SnapshotError locating the first fault.
 */
std::vector<Record> decodeContainer(const std::vector<uint8_t> &bytes,
                                    uint32_t magic, uint32_t version);

/** Reads all of @p path; works on pipes and FIFOs, which have no size
 *  up front.  @throws SnapshotError (directories, read errors). */
std::vector<uint8_t> readFile(const std::string &path);

/** Writes @p bytes to @p path atomically (tmp + rename).
 *  @throws SnapshotError. */
void writeFileAtomic(const std::string &path,
                     const std::vector<uint8_t> &bytes);

/** Builds a container record by record. */
class Writer
{
  public:
    explicit Writer(uint32_t magic = kMagic, uint32_t version = kVersion)
        : magic_(magic), version_(version)
    {
    }

    /**
     * Opens a new record.  The returned ChunkWriter stays valid until
     * the next chunk() / finish() call; its contents are sealed (length
     * + CRC computed) at that point.  Tags are not checked: formats
     * that need unique tags enforce that in their loader.
     */
    ChunkWriter &chunk(uint32_t tag);

    /** Seals the container into exactly-sized bytes and empties the
     *  writer. */
    std::vector<uint8_t> finish();

  private:
    struct PendingChunk
    {
        uint32_t tag;
        ChunkWriter payload;
    };

    uint32_t magic_;
    uint32_t version_;
    std::vector<PendingChunk> chunks_;
};

/**
 * A fully validated snapshot image.  Construction (load / fromBytes)
 * decodes the container and rejects duplicate chunk tags before any
 * chunk becomes visible, so consumers never observe a corrupt payload.
 */
class Image
{
  public:
    /** Parses and validates @p bytes.  Throws SnapshotError. */
    static Image fromBytes(std::vector<uint8_t> bytes);

    /** Reads and validates the image at @p path.  Throws SnapshotError. */
    static Image load(const std::string &path);

    /** Format version of the image (the only one that loads). */
    uint32_t version() const { return kVersion; }

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

    /** The record for @p tag; throws if absent. */
    const Record &find(uint32_t tag) const;

    std::vector<uint8_t> bytes_;
    std::map<uint32_t, Record> chunks_;
};

} // namespace bifsim::snapshot

#endif // BIFSIM_SNAPSHOT_SNAPSHOT_H

#include "snapshot/snapshot.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace bifsim::snapshot {

void
snapshotError(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    throw SnapshotError("snapshot: " + msg);
}

namespace {

/** Slice-by-8 tables: t[0] is the classic byte-wise table; t[k][b] is
 *  the CRC of byte b followed by k zero bytes, so eight table lookups
 *  advance the CRC by eight input bytes at once.  Built at compile
 *  time. */
struct CrcTables
{
    uint32_t t[8][256];
};

constexpr CrcTables
makeCrcTables()
{
    CrcTables tab{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        tab.t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
        for (int k = 1; k < 8; ++k) {
            uint32_t prev = tab.t[k - 1][i];
            tab.t[k][i] = tab.t[0][prev & 0xff] ^ (prev >> 8);
        }
    }
    return tab;
}

constexpr CrcTables kCrc = makeCrcTables();

/** Product of @p a and @p b modulo the CRC polynomial, both in the
 *  CRC's reflected bit order (bit 31 is x^0). */
constexpr uint32_t
mulModP(uint32_t a, uint32_t b)
{
    uint32_t p = 0;
    for (uint32_t m = 1u << 31; m; m >>= 1) {
        if (a & m)
            p ^= b;
        b = (b & 1) ? (b >> 1) ^ 0xedb88320u : b >> 1;
    }
    return p;
}

/** t[k] = x^(2^k) mod P, so x^n mod P is a product over n's set bits.
 *  The order of x modulo P divides 2^32 - 1, so x^(2^k) repeats with
 *  period 32 in k.  Built at compile time. */
struct X2nTable
{
    uint32_t t[32];
};

constexpr X2nTable
makeX2nTable()
{
    X2nTable tab{};
    uint32_t p = 1u << 30;   // x^1
    for (int k = 0; k < 32; ++k) {
        tab.t[k] = p;
        p = mulModP(p, p);
    }
    return tab;
}

constexpr X2nTable kX2n = makeX2nTable();

/** Container header size: magic | version | count | reserved. */
constexpr size_t kContainerHeaderBytes = 16;

/** Little-endian 32-bit load (the CRC consumes bytes in address
 *  order, whatever the host byte order). */
inline uint32_t
le32(const uint8_t *p)
{
    return static_cast<uint32_t>(p[0]) |
           (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
}

/** Little-endian @p N-byte load and store. */
template <int N>
uint64_t
getLe(const uint8_t *p)
{
    uint64_t v = 0;
    for (int i = 0; i < N; ++i)
        v |= static_cast<uint64_t>(p[i]) << (8 * i);
    return v;
}

template <int N>
void
putLe(std::vector<uint8_t> &out, uint64_t v)
{
    for (int i = 0; i < N; ++i)
        out.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

} // namespace

uint32_t
crc32(uint32_t crc, const void *data, size_t len)
{
    const auto &t = kCrc.t;
    crc ^= 0xffffffffu;
    const uint8_t *p = static_cast<const uint8_t *>(data);
    for (; len >= 8; p += 8, len -= 8) {
        uint32_t lo = le32(p) ^ crc;
        uint32_t hi = le32(p + 4);
        crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
              t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
              t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
              t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
    }
    for (; len > 0; ++p, --len)
        crc = t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
    return crc ^ 0xffffffffu;
}

uint32_t
crc32Zeros(uint32_t crc, uint64_t len)
{
    // Appending a zero byte multiplies the CRC register by x^8 mod P,
    // so len zero bytes multiply it by x^(8 * len): one table entry per
    // set bit of 8 * len.
    uint32_t reg = crc ^ 0xffffffffu;
    for (unsigned k = 3; len; len >>= 1, ++k) {
        if (len & 1)
            reg = mulModP(kX2n.t[k & 31], reg);
    }
    return reg ^ 0xffffffffu;
}

std::string
tagName(uint32_t tag)
{
    std::string s;
    for (int i = 0; i < 4; ++i) {
        char c = static_cast<char>((tag >> (8 * i)) & 0xff);
        s += (c >= 0x20 && c < 0x7f) ? c : '?';
    }
    return s;
}

// --------------------------------------------------------- ChunkWriter

void
ChunkWriter::u16(uint16_t v)
{
    putLe<2>(buf_, v);
}

void
ChunkWriter::u32(uint32_t v)
{
    putLe<4>(buf_, v);
}

void
ChunkWriter::u64(uint64_t v)
{
    putLe<8>(buf_, v);
}

void
ChunkWriter::bytes(const void *data, size_t len)
{
    const uint8_t *p = static_cast<const uint8_t *>(data);
    buf_.insert(buf_.end(), p, p + len);
}

void
ChunkWriter::str(const std::string &s)
{
    u32(static_cast<uint32_t>(s.size()));
    bytes(s.data(), s.size());
}

// --------------------------------------------------------- ChunkReader

void
ChunkReader::need(size_t n)
{
    if (n > len_ - pos_)
        fail(strfmt("need %zu more bytes, %zu left", n, len_ - pos_));
}

uint8_t
ChunkReader::u8()
{
    need(1);
    return data_[pos_++];
}

uint16_t
ChunkReader::u16()
{
    return static_cast<uint16_t>(getLe<2>(raw(2)));
}

uint32_t
ChunkReader::u32()
{
    return static_cast<uint32_t>(getLe<4>(raw(4)));
}

uint64_t
ChunkReader::u64()
{
    return getLe<8>(raw(8));
}

void
ChunkReader::bytes(void *dst, size_t len)
{
    need(len);
    if (len == 0)
        return;   // dst may be an empty vector's null data().
    std::memcpy(dst, data_ + pos_, len);
    pos_ += len;
}

const uint8_t *
ChunkReader::raw(size_t len)
{
    need(len);
    const uint8_t *p = data_ + pos_;
    pos_ += len;
    return p;
}

std::string
ChunkReader::str()
{
    uint32_t n = u32();
    if (n > remaining())
        fail(strfmt("string length %u exceeds %zu remaining bytes",
                    n, remaining()));
    std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
    pos_ += n;
    return s;
}

void
ChunkReader::expectEnd() const
{
    if (pos_ != len_)
        fail(strfmt("%zu trailing bytes", len_ - pos_));
}

void
ChunkReader::fail(const std::string &what) const
{
    throw SnapshotError(strfmt("snapshot: chunk %s at offset %zu: %s",
                               tagName(tag_).c_str(), pos_, what.c_str()));
}

// ---------------------------------------------------------- Containers

void
appendRecord(std::vector<uint8_t> &out, uint32_t tag, const void *payload,
             size_t len)
{
    putLe<4>(out, tag);
    putLe<4>(out, static_cast<uint32_t>(len));
    putLe<4>(out, crc32(payload, len));
    const uint8_t *p = static_cast<const uint8_t *>(payload);
    out.insert(out.end(), p, p + len);
}

Record
decodeRecordHeader(const uint8_t *p, size_t pos)
{
    return Record{le32(p), pos + kRecordHeaderBytes, le32(p + 4),
                  le32(p + 8)};
}

void
checkRecordCrc(const Record &r, const uint8_t *payload)
{
    uint32_t got = crc32(payload, r.length);
    if (got != r.crc)
        snapshotError("record %s CRC mismatch at offset %zu "
                      "(stored 0x%08x, computed 0x%08x)",
                      tagName(r.tag).c_str(), r.offset, r.crc, got);
}

std::vector<Record>
decodeContainer(const std::vector<uint8_t> &bytes, uint32_t magic,
                uint32_t version)
{
    const uint8_t *d = bytes.data();
    size_t size = bytes.size();
    std::string name = tagName(magic);
    if (size < kContainerHeaderBytes)
        snapshotError("%s header truncated at offset %zu, need %zu bytes",
                      name.c_str(), size, kContainerHeaderBytes);
    if (le32(d) != magic)
        snapshotError("bad magic 0x%08x at offset 0, want '%s'", le32(d),
                      name.c_str());
    if (le32(d + 4) != version)
        snapshotError("unsupported %s version %u at offset 4 "
                      "(supported: %u)", name.c_str(), le32(d + 4), version);
    uint32_t count = le32(d + 8);
    // Every record needs at least its header: a cheap bound before the
    // walk, so a hostile count cannot make us loop or allocate long.
    if (static_cast<uint64_t>(count) * kRecordHeaderBytes >
        size - kContainerHeaderBytes)
        snapshotError("%s record count %u at offset 8 impossible in %zu "
                      "bytes", name.c_str(), count, size);

    std::vector<Record> records;
    records.reserve(count);
    size_t pos = kContainerHeaderBytes;
    for (uint32_t i = 0; i < count; ++i) {
        if (size - pos < kRecordHeaderBytes)
            snapshotError("%s record %u header truncated at offset %zu",
                          name.c_str(), i, pos);
        Record r = decodeRecordHeader(d + pos, pos);
        pos = r.offset;
        if (r.length > size - pos)
            snapshotError("%s record %u (%s) length %zu overruns the "
                          "container (offset %zu, %zu bytes left)",
                          name.c_str(), i, tagName(r.tag).c_str(),
                          r.length, pos, size - pos);
        checkRecordCrc(r, d + pos);
        records.push_back(r);
        pos += r.length;
    }
    if (pos != size)
        snapshotError("%s has %zu trailing bytes at offset %zu",
                      name.c_str(), size - pos, pos);
    return records;
}

std::vector<uint8_t>
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        snapshotError("cannot open %s: %s", path.c_str(),
                      std::strerror(errno));
    std::vector<uint8_t> bytes;
    uint8_t buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    bool failed = std::ferror(f) != 0;
    int err = errno;
    std::fclose(f);
    if (failed)
        snapshotError("read error on %s: %s", path.c_str(),
                      std::strerror(err));
    return bytes;
}

void
writeFileAtomic(const std::string &path, const std::vector<uint8_t> &bytes)
{
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        snapshotError("cannot open %s for writing", tmp.c_str());
    size_t n = bytes.empty() ? 0 : std::fwrite(bytes.data(), 1,
                                               bytes.size(), f);
    bool ok = n == bytes.size() && std::fclose(f) == 0;
    if (!ok) {
        std::remove(tmp.c_str());
        snapshotError("short write to %s", tmp.c_str());
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        snapshotError("cannot rename %s to %s", tmp.c_str(), path.c_str());
    }
}

// -------------------------------------------------------------- Writer

ChunkWriter &
Writer::chunk(uint32_t tag)
{
    chunks_.push_back(PendingChunk{tag, ChunkWriter()});
    return chunks_.back().payload;
}

std::vector<uint8_t>
Writer::finish()
{
    size_t total = kContainerHeaderBytes;
    for (const PendingChunk &c : chunks_)
        total += kRecordHeaderBytes + c.payload.size();
    std::vector<uint8_t> out;
    out.reserve(total);
    putLe<4>(out, magic_);
    putLe<4>(out, version_);
    putLe<4>(out, static_cast<uint32_t>(chunks_.size()));
    putLe<4>(out, 0);   // reserved
    for (const PendingChunk &c : chunks_) {
        const std::vector<uint8_t> &p = c.payload.data();
        appendRecord(out, c.tag, p.data(), p.size());
    }
    chunks_.clear();
    return out;
}

// --------------------------------------------------------------- Image

Image
Image::fromBytes(std::vector<uint8_t> bytes)
{
    Image img;
    img.bytes_ = std::move(bytes);
    for (const Record &r : decodeContainer(img.bytes_, kMagic, kVersion)) {
        if (!img.chunks_.emplace(r.tag, r).second)
            snapshotError("duplicate chunk %s at offset %zu",
                          tagName(r.tag).c_str(), r.offset);
    }
    return img;
}

Image
Image::load(const std::string &path)
{
    return fromBytes(readFile(path));
}

const Record &
Image::find(uint32_t tag) const
{
    auto it = chunks_.find(tag);
    if (it == chunks_.end())
        snapshotError("missing chunk %s", tagName(tag).c_str());
    return it->second;
}

ChunkReader
Image::chunk(uint32_t tag) const
{
    const Record &r = find(tag);
    return ChunkReader(tag, bytes_.data() + r.offset, r.length);
}

uint32_t
Image::chunkCrc(uint32_t tag) const
{
    return find(tag).crc;
}

size_t
Image::chunkLength(uint32_t tag) const
{
    return find(tag).length;
}

} // namespace bifsim::snapshot

#include "snapshot/snapshot.h"

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

} // namespace

uint32_t
crc32(const void *data, size_t len)
{
    const auto &t = kCrc.t;
    uint32_t crc = 0xffffffffu;
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
    buf_.push_back(static_cast<uint8_t>(v));
    buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void
ChunkWriter::u32(uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void
ChunkWriter::u64(uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
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
    need(2);
    uint16_t v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
}

uint32_t
ChunkReader::u32()
{
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
}

uint64_t
ChunkReader::u64()
{
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
}

void
ChunkReader::bytes(void *dst, size_t len)
{
    need(len);
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

// -------------------------------------------------------------- Writer

ChunkWriter &
Writer::chunk(uint32_t tag)
{
    for (const PendingChunk &c : chunks_) {
        if (c.tag == tag)
            snapshotError("duplicate chunk %s", tagName(tag).c_str());
    }
    chunks_.push_back(PendingChunk{tag, ChunkWriter()});
    return chunks_.back().payload;
}

std::vector<uint8_t>
Writer::finish()
{
    ChunkWriter out;
    out.u32(kMagic);
    out.u32(kVersion);
    out.u32(static_cast<uint32_t>(chunks_.size()));
    out.u32(0);   // reserved
    for (const PendingChunk &c : chunks_) {
        const std::vector<uint8_t> &p = c.payload.data();
        out.u32(c.tag);
        out.u32(static_cast<uint32_t>(p.size()));
        out.u32(crc32(p.data(), p.size()));
        out.bytes(p.data(), p.size());
    }
    return out.data();
}

void
Writer::writeFile(const std::string &path)
{
    std::vector<uint8_t> bytes = finish();
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

// --------------------------------------------------------------- Image

Image
Image::fromBytes(std::vector<uint8_t> bytes)
{
    Image img;
    img.bytes_ = std::move(bytes);
    const uint8_t *d = img.bytes_.data();
    size_t size = img.bytes_.size();

    ChunkReader hdr(makeTag("HDR "), d, size);
    if (size < 16)
        snapshotError("header truncated: %zu bytes, need 16", size);
    uint32_t magic = hdr.u32();
    if (magic != kMagic)
        snapshotError("bad magic 0x%08x, want 'BSNP'", magic);
    img.version_ = hdr.u32();
    if (img.version_ != kVersion)
        snapshotError("unsupported version %u (supported: %u)",
                      img.version_, kVersion);
    uint32_t count = hdr.u32();
    hdr.u32();   // reserved
    // Each chunk needs at least a 12-byte header: cheap sanity bound
    // before the walk so a hostile count cannot make us loop long.
    if (static_cast<uint64_t>(count) * 12 > size - 16)
        snapshotError("chunk count %u impossible in %zu bytes", count, size);

    size_t pos = 16;
    for (uint32_t i = 0; i < count; ++i) {
        if (size - pos < 12)
            snapshotError("chunk %u header truncated at offset %zu", i, pos);
        ChunkReader ch(makeTag("HDR "), d + pos, 12);
        uint32_t tag = ch.u32();
        uint32_t len = ch.u32();
        uint32_t want_crc = ch.u32();
        pos += 12;
        if (len > size - pos)
            snapshotError("chunk %s length %u overruns image "
                          "(offset %zu, %zu bytes left)",
                          tagName(tag).c_str(), len, pos, size - pos);
        uint32_t got_crc = crc32(d + pos, len);
        if (got_crc != want_crc)
            snapshotError("chunk %s CRC mismatch at offset %zu "
                          "(stored 0x%08x, computed 0x%08x)",
                          tagName(tag).c_str(), pos, want_crc, got_crc);
        if (!img.chunks_.emplace(tag, Extent{pos, len, got_crc}).second)
            snapshotError("duplicate chunk %s at offset %zu",
                          tagName(tag).c_str(), pos);
        pos += len;
    }
    if (pos != size)
        snapshotError("%zu trailing bytes after last chunk", size - pos);
    return img;
}

Image
Image::load(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        snapshotError("cannot open %s", path.c_str());
    std::vector<uint8_t> bytes;
    uint8_t buf[65536];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    bool err = std::ferror(f) != 0;
    std::fclose(f);
    if (err)
        snapshotError("read error on %s", path.c_str());
    return fromBytes(std::move(bytes));
}

ChunkReader
Image::chunk(uint32_t tag) const
{
    auto it = chunks_.find(tag);
    if (it == chunks_.end())
        snapshotError("missing chunk %s", tagName(tag).c_str());
    return ChunkReader(tag, bytes_.data() + it->second.offset,
                       it->second.length);
}

uint32_t
Image::chunkCrc(uint32_t tag) const
{
    auto it = chunks_.find(tag);
    if (it == chunks_.end())
        snapshotError("missing chunk %s", tagName(tag).c_str());
    return it->second.crc;
}

size_t
Image::chunkLength(uint32_t tag) const
{
    auto it = chunks_.find(tag);
    if (it == chunks_.end())
        snapshotError("missing chunk %s", tagName(tag).c_str());
    return it->second.length;
}

} // namespace bifsim::snapshot

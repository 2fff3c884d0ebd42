#include "fleet/proto.h"

#include <cerrno>
#include <cstring>

#ifdef __linux__
#include <sys/socket.h>
#include <unistd.h>
#endif

namespace bifsim::fleet {

namespace snap = snapshot;

// ---------------------------------------------------------- JobRequest

void
JobRequest::serialize(snap::ChunkWriter &w) const
{
    w.str(tenant);
    w.u32(kernel);
    w.u32(gx);
    w.u32(gy);
    w.u32(gz);
    w.u32(lx);
    w.u32(ly);
    w.u32(lz);
    w.u8(wantRamCrc ? 1 : 0);
    w.u32(static_cast<uint32_t>(args.size()));
    for (const ArgSpec &a : args) {
        w.u8(static_cast<uint8_t>(a.kind));
        w.u32(a.value);
    }
    w.u32(static_cast<uint32_t>(writes.size()));
    for (const WriteSpec &s : writes) {
        w.u32(s.buf);
        w.u64(s.offset);
        w.u64(s.bytes.size());
        w.bytes(s.bytes.data(), s.bytes.size());
    }
    w.u32(static_cast<uint32_t>(reads.size()));
    for (const ReadSpec &s : reads) {
        w.u32(s.buf);
        w.u64(s.offset);
        w.u64(s.length);
    }
}

JobRequest
JobRequest::parse(snap::ChunkReader &r)
{
    JobRequest j;
    j.tenant = r.str();
    if (j.tenant.empty() || j.tenant.size() > kMaxTenantName)
        r.fail("tenant name empty or over " +
               std::to_string(kMaxTenantName) + " bytes");
    j.kernel = r.u32();
    j.gx = r.u32();
    j.gy = r.u32();
    j.gz = r.u32();
    j.lx = r.u32();
    j.ly = r.u32();
    j.lz = r.u32();
    j.wantRamCrc = r.u8() != 0;

    uint32_t nargs = r.u32();
    if (nargs > kMaxArgs)
        r.fail("arg count " + std::to_string(nargs) + " exceeds cap");
    j.args.reserve(nargs);
    for (uint32_t i = 0; i < nargs; ++i) {
        uint8_t kind = r.u8();
        if (kind > static_cast<uint8_t>(ArgSpec::Kind::F32))
            r.fail("bad arg kind " + std::to_string(kind));
        j.args.push_back(
            ArgSpec{static_cast<ArgSpec::Kind>(kind), r.u32()});
    }

    uint32_t nwrites = r.u32();
    if (nwrites > kMaxWrites)
        r.fail("write count " + std::to_string(nwrites) + " exceeds cap");
    j.writes.reserve(nwrites);
    for (uint32_t i = 0; i < nwrites; ++i) {
        WriteSpec s;
        s.buf = r.u32();
        s.offset = r.u64();
        uint64_t len = r.u64();
        if (len > r.remaining())
            r.fail("write payload length " + std::to_string(len) +
                   " exceeds remaining bytes");
        s.bytes.resize(static_cast<size_t>(len));
        r.bytes(s.bytes.data(), s.bytes.size());
        j.writes.push_back(std::move(s));
    }

    uint32_t nreads = r.u32();
    if (nreads > kMaxReads)
        r.fail("read count " + std::to_string(nreads) + " exceeds cap");
    j.reads.reserve(nreads);
    for (uint32_t i = 0; i < nreads; ++i) {
        ReadSpec s;
        s.buf = r.u32();
        s.offset = r.u64();
        s.length = r.u64();
        j.reads.push_back(s);
    }
    r.expectEnd();
    return j;
}

// --------------------------------------------------------- JobResultMsg

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
    case JobStatus::Ok: return "ok";
    case JobStatus::Fault: return "fault";
    case JobStatus::Rejected: return "rejected";
    case JobStatus::BadRequest: return "bad-request";
    }
    return "?";
}

void
JobResultMsg::serialize(snap::ChunkWriter &w) const
{
    w.u8(static_cast<uint8_t>(status));
    w.str(detail);
    w.u64(queueNs);
    w.u64(execNs);
    w.u32(sessionId);
    w.u32(ramCrc);
    w.u64(kernelInstrs);
    w.u64(threadsLaunched);
    w.u64(readback.size());
    w.bytes(readback.data(), readback.size());
}

JobResultMsg
JobResultMsg::parse(snap::ChunkReader &r)
{
    JobResultMsg m;
    uint8_t status = r.u8();
    if (status > static_cast<uint8_t>(JobStatus::BadRequest))
        r.fail("bad status " + std::to_string(status));
    m.status = static_cast<JobStatus>(status);
    m.detail = r.str();
    m.queueNs = r.u64();
    m.execNs = r.u64();
    m.sessionId = r.u32();
    m.ramCrc = r.u32();
    m.kernelInstrs = r.u64();
    m.threadsLaunched = r.u64();
    uint64_t len = r.u64();
    if (len > r.remaining())
        r.fail("readback length " + std::to_string(len) +
               " exceeds remaining bytes");
    m.readback.resize(static_cast<size_t>(len));
    r.bytes(m.readback.data(), m.readback.size());
    r.expectEnd();
    return m;
}

// ------------------------------------------------------------- Welcome

void
Welcome::serialize(snap::ChunkWriter &w) const
{
    w.u32(version);
    w.u32(static_cast<uint32_t>(kernels.size()));
    for (const std::string &k : kernels)
        w.str(k);
    w.u32(static_cast<uint32_t>(bufferBytes.size()));
    for (uint64_t b : bufferBytes)
        w.u64(b);
}

Welcome
Welcome::parse(snap::ChunkReader &r)
{
    Welcome wl;
    wl.version = r.u32();
    uint32_t nk = r.u32();
    if (nk > r.remaining())
        r.fail("kernel count " + std::to_string(nk) + " impossible");
    wl.kernels.reserve(nk);
    for (uint32_t i = 0; i < nk; ++i)
        wl.kernels.push_back(r.str());
    uint32_t nb = r.u32();
    if (static_cast<uint64_t>(nb) * 8 > r.remaining())
        r.fail("buffer count " + std::to_string(nb) + " impossible");
    wl.bufferBytes.reserve(nb);
    for (uint32_t i = 0; i < nb; ++i)
        wl.bufferBytes.push_back(r.u64());
    r.expectEnd();
    return wl;
}

// ---------------------------------------------------------- StatsReply

void
StatsReply::serialize(snap::ChunkWriter &w) const
{
    w.u32(static_cast<uint32_t>(counters.size()));
    for (const auto &[name, value] : counters) {
        w.str(name);
        w.u64(value);
    }
    w.u64(uptimeNs);
    w.u32(static_cast<uint32_t>(tenants.size()));
    for (const TenantRow &t : tenants) {
        w.str(t.name);
        w.u64(t.submitted);
        w.u64(t.completed);
        w.u64(t.faulted);
        w.u64(t.queueNs);
        w.u64(t.execNs);
    }
}

StatsReply
StatsReply::parse(snap::ChunkReader &r)
{
    StatsReply s;
    uint32_t n = r.u32();
    if (n > r.remaining())
        r.fail("counter count " + std::to_string(n) + " impossible");
    s.counters.reserve(n);
    for (uint32_t i = 0; i < n; ++i) {
        std::string name = r.str();
        uint64_t value = r.u64();
        s.counters.emplace_back(std::move(name), value);
    }
    s.uptimeNs = r.u64();
    uint32_t nt = r.u32();
    // Each row is at least a length-prefixed name + five u64s.
    if (static_cast<uint64_t>(nt) * (4 + 5 * 8) > r.remaining())
        r.fail("tenant count " + std::to_string(nt) + " impossible");
    s.tenants.reserve(nt);
    for (uint32_t i = 0; i < nt; ++i) {
        TenantRow t;
        t.name = r.str();
        if (t.name.size() > kMaxTenantName)
            r.fail("tenant name exceeds cap");
        t.submitted = r.u64();
        t.completed = r.u64();
        t.faulted = r.u64();
        t.queueNs = r.u64();
        t.execNs = r.u64();
        s.tenants.push_back(std::move(t));
    }
    r.expectEnd();
    return s;
}

// ------------------------------------------------------------ frame IO

std::vector<uint8_t>
encodeFrame(uint32_t kind, const std::vector<uint8_t> &payload)
{
    if (payload.size() > kMaxFrameBytes)
        snap::snapshotError("fleet frame %s payload %zu exceeds cap",
                            snap::tagName(kind).c_str(), payload.size());
    std::vector<uint8_t> out;
    out.reserve(snap::kRecordHeaderBytes + payload.size());
    snap::appendRecord(out, kind, payload.data(), payload.size());
    return out;
}

#ifdef __linux__

namespace {

/** Reads exactly @p len bytes.  @return 0 on EOF before any byte,
 *  1 on success; throws on error or mid-buffer EOF. */
int
readFull(int fd, uint8_t *dst, size_t len)
{
    size_t got = 0;
    while (got < len) {
        ssize_t n = ::read(fd, dst + got, len - got);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            snap::snapshotError("fleet socket read: %s",
                                std::strerror(errno));
        }
        if (n == 0) {
            if (got == 0)
                return 0;
            snap::snapshotError("fleet socket EOF mid-frame "
                                "(%zu of %zu bytes)", got, len);
        }
        got += static_cast<size_t>(n);
    }
    return 1;
}

} // namespace

bool
readFrame(int fd, Frame &out)
{
    uint8_t hdr[snap::kRecordHeaderBytes];
    if (readFull(fd, hdr, sizeof(hdr)) == 0)
        return false;
    snap::Record h = snap::decodeRecordHeader(hdr, 0);
    if (h.length > kMaxFrameBytes)
        snap::snapshotError("fleet frame %s length %zu exceeds cap",
                            snap::tagName(h.tag).c_str(), h.length);
    std::vector<uint8_t> payload(h.length);
    if (h.length && readFull(fd, payload.data(), h.length) == 0)
        snap::snapshotError("fleet frame %s truncated",
                            snap::tagName(h.tag).c_str());
    snap::checkRecordCrc(h, payload.data());
    out.kind = h.tag;
    out.payload = std::move(payload);
    return true;
}

void
writeFrame(int fd, uint32_t kind, const std::vector<uint8_t> &payload)
{
    std::vector<uint8_t> bytes = encodeFrame(kind, payload);
    size_t put = 0;
    while (put < bytes.size()) {
        // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not
        // kill the daemon with SIGPIPE.  Non-socket fds (tests piping
        // frames through regular files) fall back to write().
        ssize_t n = ::send(fd, bytes.data() + put, bytes.size() - put,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == ENOTSOCK)
            n = ::write(fd, bytes.data() + put, bytes.size() - put);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            snap::snapshotError("fleet socket write: %s",
                                std::strerror(errno));
        }
        put += static_cast<size_t>(n);
    }
}

#else // !__linux__

bool
readFrame(int, Frame &)
{
    snap::snapshotError("fleet sockets require Linux");
}

void
writeFrame(int, uint32_t, const std::vector<uint8_t> &)
{
    snap::snapshotError("fleet sockets require Linux");
}

#endif

} // namespace bifsim::fleet

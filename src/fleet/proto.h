#ifndef BIFSIM_FLEET_PROTO_H
#define BIFSIM_FLEET_PROTO_H

/**
 * @file
 * Fleet wire protocol (DESIGN.md §5j).
 *
 * The `simd` daemon and its clients speak frames over a SOCK_STREAM
 * Unix socket.  A frame is one bare record of the shared TLV format
 * (snapshot.h, DESIGN.md §5e), framed and CRC-checked by the snapshot
 * module; the wire adds one rule of its own, the kMaxFrameBytes cap.
 *
 * Frame kinds are 4CCs minted with snapshot::makeTag, so simlint's
 * tlv-tag check guarantees they never collide with each other or with
 * the BSNP/BRPL chunk tags:
 *
 *   FLTW  daemon -> client   welcome: proto version + image inventory
 *   FLTJ  client -> daemon   job submission
 *   FLTR  daemon -> client   job result
 *   FLTQ  client -> daemon   server stats query (empty payload)
 *   FLTS  daemon -> client   server stats reply
 *   FLTX  client -> daemon   drain-and-shutdown request
 *
 * Every payload decoder is adversarially robust exactly like the
 * snapshot readers: reads are bounds-checked, element counts are
 * sanity-capped against the payload size, decode happens fully into
 * locals before anything is acted on, and any violation throws a
 * located SnapshotError — a malformed client can be told "BadRequest"
 * but can never crash the daemon or leave a half-parsed job queued.
 *
 * Threading: the free functions here are stateless and reentrant; the
 * fd passed to readFrame/writeFrame must not be shared between
 * concurrent callers (the fleet server gives each connection one
 * reader and serialises writes per connection).
 */

#include <cstdint>
#include <string>
#include <vector>

#include "snapshot/snapshot.h"

namespace bifsim::fleet {

/** Protocol revision carried in the welcome frame.  v2 extended the
 *  FLTS stats reply with server uptime and per-tenant accounting
 *  rows; a v1 reply (bare counter list) is rejected as truncated. */
constexpr uint32_t kProtoVersion = 2;

/** Hard ceiling on one frame's payload; larger lengths are rejected
 *  before any allocation, so a hostile header cannot balloon memory. */
constexpr uint32_t kMaxFrameBytes = 16u << 20;

/** @name Frame kinds.
 *  @{ */
constexpr uint32_t kMsgWelcome = snapshot::makeTag("FLTW");
constexpr uint32_t kMsgJob = snapshot::makeTag("FLTJ");
constexpr uint32_t kMsgResult = snapshot::makeTag("FLTR");
constexpr uint32_t kMsgStatsQuery = snapshot::makeTag("FLTQ");
constexpr uint32_t kMsgStatsReply = snapshot::makeTag("FLTS");
constexpr uint32_t kMsgShutdown = snapshot::makeTag("FLTX");
/** @} */

/** Caps on per-job element counts (validated at parse time). */
constexpr uint32_t kMaxArgs = 64;
constexpr uint32_t kMaxWrites = 64;
constexpr uint32_t kMaxReads = 64;
constexpr uint32_t kMaxTenantName = 256;

/** One kernel launch argument, referencing warm-image state by index. */
struct ArgSpec
{
    enum class Kind : uint8_t { BufIndex = 0, I32 = 1, U32 = 2, F32 = 3 };

    Kind kind = Kind::I32;
    uint32_t value = 0;   ///< BufIndex: index into the image's buffer
                          ///< registry; otherwise the immediate bits.
};

/** Host data copied into an image buffer before launch. */
struct WriteSpec
{
    uint32_t buf = 0;       ///< Buffer registry index.
    uint64_t offset = 0;
    std::vector<uint8_t> bytes;
};

/** A buffer range copied back to the client after launch. */
struct ReadSpec
{
    uint32_t buf = 0;
    uint64_t offset = 0;
    uint64_t length = 0;
};

/** A complete job submission (FLTJ payload). */
struct JobRequest
{
    std::string tenant;       ///< Fairness/accounting key.
    uint32_t kernel = 0;      ///< Index into the image's kernel registry.
    uint32_t gx = 1, gy = 1, gz = 1;   ///< Global NDRange.
    uint32_t lx = 1, ly = 1, lz = 1;   ///< Workgroup NDRange.
    std::vector<ArgSpec> args;
    std::vector<WriteSpec> writes;
    std::vector<ReadSpec> reads;
    bool wantRamCrc = false;  ///< Ask for a post-job guest-RAM CRC32
                              ///< (determinism evidence; costs a full
                              ///< RAM scan).

    void serialize(snapshot::ChunkWriter &w) const;

    /** Decodes and fully validates one FLTJ payload (counts capped,
     *  expectEnd enforced).  @throws snapshot::SnapshotError. */
    static JobRequest parse(snapshot::ChunkReader &r);
};

/** How a submitted job ended. */
enum class JobStatus : uint8_t
{
    Ok = 0,          ///< Ran to completion, readbacks attached.
    Fault = 1,       ///< GPU-side fault (detail holds the fault text).
    Rejected = 2,    ///< Admission control: queue caps hit, try later.
    BadRequest = 3,  ///< Malformed or out-of-range request.
};

/** Renders a JobStatus for logs. */
const char *jobStatusName(JobStatus s);

/** A job outcome (FLTR payload). */
struct JobResultMsg
{
    JobStatus status = JobStatus::BadRequest;
    std::string detail;         ///< Fault/rejection/parse-error text.
    uint64_t queueNs = 0;       ///< Admission-to-dispatch latency.
    uint64_t execNs = 0;        ///< Dispatch-to-completion latency.
    uint32_t sessionId = 0;     ///< Pool session that ran the job.
    uint32_t ramCrc = 0;        ///< Guest-RAM CRC32 (wantRamCrc only).
    uint64_t kernelInstrs = 0;  ///< Thread-weighted executed instrs.
    uint64_t threadsLaunched = 0;
    std::vector<uint8_t> readback;   ///< ReadSpecs, concatenated in
                                     ///< request order.

    void serialize(snapshot::ChunkWriter &w) const;
    static JobResultMsg parse(snapshot::ChunkReader &r);
};

/** Daemon greeting (FLTW payload): what the warm image offers. */
struct Welcome
{
    uint32_t version = kProtoVersion;
    std::vector<std::string> kernels;      ///< Registry order.
    std::vector<uint64_t> bufferBytes;     ///< Registry order.

    void serialize(snapshot::ChunkWriter &w) const;
    static Welcome parse(snapshot::ChunkReader &r);
};

/** Server counters (FLTS payload): name -> value in registry order,
 *  plus server uptime and per-tenant accounting rows so clients can
 *  derive per-tenant rates without scraping logs. */
struct StatsReply
{
    /** One tenant's lifetime totals on this server. */
    struct TenantRow
    {
        std::string name;
        uint64_t submitted = 0;   ///< Admission attempts.
        uint64_t completed = 0;   ///< Jobs that ran to Ok.
        uint64_t faulted = 0;     ///< Fault + BadRequest outcomes.
        uint64_t queueNs = 0;     ///< Summed admission->dispatch ns.
        uint64_t execNs = 0;      ///< Summed dispatch->completion ns.
    };

    std::vector<std::pair<std::string, uint64_t>> counters;
    uint64_t uptimeNs = 0;        ///< Server age.
    std::vector<TenantRow> tenants;   ///< Sorted by name.

    void serialize(snapshot::ChunkWriter &w) const;

    /** Parse-then-commit: any strict prefix throws. */
    static StatsReply parse(snapshot::ChunkReader &r);
};

/** An fd-level frame, kind + raw (already CRC-verified) payload. */
struct Frame
{
    uint32_t kind = 0;
    std::vector<uint8_t> payload;

    /** Bounds-checked reader over the payload. */
    snapshot::ChunkReader
    reader() const
    {
        return snapshot::ChunkReader(kind, payload.data(),
                                     payload.size());
    }
};

/** Serialises a frame to wire bytes (header + CRC + payload). */
std::vector<uint8_t> encodeFrame(uint32_t kind,
                                 const std::vector<uint8_t> &payload);

/**
 * Reads one complete frame from @p fd (blocking, restarts on EINTR).
 * @return false on clean EOF at a frame boundary; true with @p out
 * filled otherwise.  @throws snapshot::SnapshotError on truncation
 * mid-frame, oversized length, CRC mismatch or read error.
 */
bool readFrame(int fd, Frame &out);

/** Writes one complete frame to @p fd (blocking, restarts on EINTR).
 *  @throws snapshot::SnapshotError on write error. */
void writeFrame(int fd, uint32_t kind,
                const std::vector<uint8_t> &payload);

} // namespace bifsim::fleet

#endif // BIFSIM_FLEET_PROTO_H

#ifndef BIFSIM_REPLAY_REPLAY_H
#define BIFSIM_REPLAY_REPLAY_H

/**
 * @file
 * Record/replay of the CPU<->GPU boundary (DESIGN.md §5h).
 *
 * A Recorder attached to a GpuDevice captures everything that crosses
 * the boundary from the CPU side — MMIO register writes, the RAM pages
 * the CPU dirtied before each JS_SUBMIT (job descriptors, page tables,
 * argument tables, input buffers) — plus everything that comes back:
 * IRQ raises in causal order and a per-chain fingerprint of the
 * guest-visible result state (registers, RAM CRC, kernel statistics,
 * fault details).  The log is a `BRPL` container in the shared TLV
 * format (snapshot.h, DESIGN.md §5e), one record per event, written
 * and decoded by the snapshot module; this module adds only the log's
 * own rules — known event kinds, exactly one RCFG, first — so a
 * truncated or bit-flipped log always fails with a located error.
 *
 * replay() re-executes the log against a standalone GpuDevice — no
 * Session, no guest OS, no CPU — re-records the run through the same
 * hooks, and diffs the two event streams.  Because inputs (MemDelta,
 * Mmio) are replayed verbatim and outputs (Irq, Fingerprint) are
 * regenerated, any mismatch is by construction a determinism bug, and
 * the diff names the first diverging event.
 *
 * Determinism contract: recording requires GpuConfig::syncSubmit (the
 * chain runs inline on the submitting thread, so every hook fires in
 * causal order on one thread), and fingerprints cover only state that
 * is a pure function of the guest inputs — RAM, IRQ/JS/fault
 * registers, merged kernel statistics.  Host-dependent counters
 * (TlbStats, SchedStats, SystemStats control-register traffic) are
 * deliberately excluded so a log replays bit-identically across CPU
 * tiers and any worker-thread count.  Kernels whose
 * *results* depend on atomic ordering (e.g. storing a fetched counter
 * value) are outside the contract — their RAM is order-dependent on
 * real hardware too.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"
#include "gpu/gpu.h"
#include "mem/phys_mem.h"
#include "snapshot/snapshot.h"

namespace bifsim::replay {

/** Thrown for any malformed, truncated or corrupt log, and for replay
 *  preconditions.  The message locates the failure (event + offset). */
class ReplayError : public SimError
{
  public:
    using SimError::SimError;
};

/** Throws ReplayError with a printf-style formatted message. */
[[noreturn]] void replayError(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Log format constants. */
constexpr uint32_t kMagic = snapshot::makeTag("BRPL");
constexpr uint32_t kVersion = 1;

/**
 * Event kinds.  Each is a 4-character tag (like snapshot chunk tags)
 * so hexdumps and error messages are self-describing.
 *
 *  RCFG  recording configuration (always the first event)
 *  RMEM  RAM delta: pages the CPU dirtied since the previous capture
 *  RMIO  one MMIO register write (offset, value)
 *  RIRQ  one IRQ raise (bits, raw status after)
 *  RFPR  post-chain fingerprint of guest-visible result state
 */
constexpr uint32_t kEvConfig = snapshot::makeTag("RCFG");
constexpr uint32_t kEvMemDelta = snapshot::makeTag("RMEM");
constexpr uint32_t kEvMmio = snapshot::makeTag("RMIO");
constexpr uint32_t kEvIrq = snapshot::makeTag("RIRQ");
constexpr uint32_t kEvFingerprint = snapshot::makeTag("RFPR");

/** The RCFG payload: what the recording world looked like.  Execution-
 *  relevant fields (RAM geometry, core count, instrumentation) bind the
 *  replayer; the rest is informational so tier/worker crossings can be
 *  reported. */
struct LogConfig
{
    uint64_t ramBase = 0;
    uint64_t ramBytes = 0;
    uint32_t numCores = 0;
    uint32_t hostThreads = 0;   ///< Informational: recording pool size.
    bool instrument = true;
    bool cpuDbt = false;        ///< Informational: CPU tier (FullSystem).
    bool fullSystem = false;    ///< Informational: submission mode.
};

/**
 * A fully validated BRPL log.  Construction decodes the container
 * (snapshot::decodeContainer) and checks the event kinds and the one
 * leading RCFG before any payload becomes visible; per-field reads
 * through reader() are bounds-checked on top of that.
 */
class Log
{
  public:
    /** Parses and validates @p bytes.  Throws ReplayError. */
    static Log fromBytes(std::vector<uint8_t> bytes);

    /** Reads and validates the log at @p path.  Throws ReplayError. */
    static Log load(const std::string &path);

    /** Writes the log to @p path (atomic: tmp+rename). */
    void save(const std::string &path) const;

    size_t eventCount() const { return events_.size(); }

    /** Kind tag of event @p i. */
    uint32_t kind(size_t i) const { return events_[i].tag; }

    /** Bounds-checked cursor over event @p i's payload. */
    snapshot::ChunkReader reader(size_t i) const;

    /** Raw payload bytes of event @p i (for byte-level diffing). */
    const uint8_t *payload(size_t i) const;
    size_t payloadSize(size_t i) const { return events_[i].length; }

    /** The parsed+validated RCFG event. */
    const LogConfig &config() const { return cfg_; }

    size_t sizeBytes() const { return bytes_.size(); }
    const std::vector<uint8_t> &bytes() const { return bytes_; }

  private:
    Log() = default;

    std::vector<uint8_t> bytes_;
    std::vector<snapshot::Record> events_;
    LogConfig cfg_;
};

/** Informational recording context the device cannot see itself. */
struct RecordInfo
{
    bool cpuDbt = false;
    bool fullSystem = false;
};

/**
 * Captures the CPU<->GPU boundary of one GpuDevice into a BRPL log.
 *
 * Attaching requires GpuConfig::syncSubmit and an idle device with all
 * IRQs acknowledged; the Recorder hooks stay attached until finish()
 * (or destruction).  The device may already have run jobs (warm boot,
 * priming enqueues): cumulative state — JOB_COUNT, merged kernel
 * statistics, the last job result — is baselined at attach so
 * fingerprints carry only what happened *during* the recording, which
 * is exactly what a fresh replay device reproduces.
 *
 * RAM changes come from PhysMem's written-page tracking (DESIGN.md
 * §5h), never from a whole-RAM scan.  The Recorder keeps a per-page
 * CRC-32 shadow of RAM.  At each JS_SUBMIT it takes the pages written
 * since its last sync, re-CRCs only those, and logs the ones whose CRC
 * moved (the CPU's delta); after each chain it takes and re-CRCs the
 * pages the GPU wrote.  The device's per-job MMU epoch bump makes every
 * job re-walk, and so re-mark, its writable pages.  The first delta is
 * emitted against a zeroed shadow with the `full` flag set (replayers
 * clear RAM first) and covers every page written since the last
 * PhysMem::clear() plus a CoW image's non-zero pages, which makes logs
 * self-contained even when recording starts on a warm-booted /
 * snapshot-restored session.  The RFPR RAM CRC is the CRC of the
 * shadow.
 *
 * Threading: all hooks fire on the submitting thread (guaranteed by
 * the syncSubmit requirement); construction, finish() and destruction
 * belong to that same simulation thread.  Single-owner by contract,
 * so the Recorder carries no sim::Mutex/GUARDED_BY (DESIGN.md §5i) —
 * note the GPU-side hook *dispatch* does run under the device lock_:
 * onMmioWrite/onIrqRaise fire inside GpuDevice's critical sections,
 * while onSubmit/onChainComplete fire outside them (gpu.cc), all on
 * the one submitting thread.
 */
class Recorder
{
  public:
    Recorder(PhysMem &mem, gpu::GpuDevice &gpu, RecordInfo info = {});
    ~Recorder();

    Recorder(const Recorder &) = delete;
    Recorder &operator=(const Recorder &) = delete;

    /** Detaches from the device and returns the sealed log bytes. */
    std::vector<uint8_t> finish();

    /** Chains (JS_SUBMIT writes) recorded so far. */
    size_t chains() const { return chains_; }

    /** Per-page CRC-32 of RAM as of the last capture (page i at [i]);
     *  the RFPR RAM CRC is the CRC of this table. */
    const std::vector<uint32_t> &shadow() const { return shadow_; }

    // GpuDevice hooks — called by the device only.
    void onMmioWrite(uint32_t offset, uint32_t value);
    void onIrqRaise(uint32_t bits, uint32_t raw_after);
    void onSubmit(uint32_t chain_va);
    void onChainComplete();

  private:
    PhysMem &mem_;
    gpu::GpuDevice &gpu_;
    snapshot::Writer log_{kMagic, kVersion};
    std::vector<uint32_t> shadow_;   ///< Per-page CRC32 of last capture.
    bool first_ = true;              ///< Next delta carries `full`.
    uint64_t resets_ = 0;            ///< PhysMem::resets() at last sync.
    bool attached_ = false;
    bool finished_ = false;
    size_t chains_ = 0;
    uint32_t baseJobCount_ = 0;      ///< JOB_COUNT at attach.
    gpu::KernelStats baseTotal_;     ///< Cumulative stats at attach.

    /** Brings the shadow up to date; returns the pages whose CRC
     *  changed, ascending. */
    std::vector<uint32_t> syncShadow();
    void captureDelta();
    void emitFingerprint();
    uint32_t ramCrc() const;
};

/** First point where two logs disagree. */
struct Divergence
{
    size_t event = 0;       ///< Index into the *reference* log.
    std::string what;       ///< Human-readable field-level diff.
};

/**
 * Compares two logs event by event.  RCFG events are compared only
 * when @p compare_config (they legitimately differ across tiers and
 * between a recording and its replay).  Returns the first divergence,
 * or nullopt if the logs agree.
 */
std::optional<Divergence> diffLogs(const Log &a, const Log &b,
                                   bool compare_config = false);

/** Renders event @p i of @p log for error messages / `replaycap info`. */
std::string describeEvent(const Log &log, size_t i);

/** Host-side replay knobs.  Everything execution-relevant comes from
 *  the log; these choose the simulation strategy, which the
 *  determinism contract says must not change the outcome. */
struct ReplayOptions
{
    unsigned hostThreads = 1;
    bool validate = true;   ///< Re-record and diff against the source;
                            ///< false applies the inputs only (no
                            ///< per-chain RAM CRCs — the fast path
                            ///< for reproducing a workload).
};

/** Outcome of one replay. */
struct ReplayResult
{
    bool ok = false;
    size_t chains = 0;
    size_t divergenceEvent = 0;   ///< Valid when !ok.
    std::string divergence;       ///< Empty when ok.
    gpu::JobResult lastJob;       ///< Final device result state.
    gpu::KernelStats totalKernel;
};

/**
 * Replays @p log into a standalone GpuDevice (syncSubmit, no CPU or
 * guest OS).  Input events are applied verbatim; output events are
 * regenerated by a fresh Recorder and, when @p opt.validate, diffed
 * against the source — the first mismatching event is reported in
 * ReplayResult::divergence.  Throws ReplayError on malformed payloads
 * or implausible configuration; divergence is a result, not a throw.
 */
ReplayResult replay(const Log &log, const ReplayOptions &opt = {});

} // namespace bifsim::replay

#endif // BIFSIM_REPLAY_REPLAY_H

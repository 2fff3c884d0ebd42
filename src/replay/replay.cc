/** @file Record/replay of the CPU<->GPU boundary: BRPL log container,
 *  the GpuDevice-attached Recorder, the standalone replayer and the
 *  first-divergence log differ.  See replay.h for the format and the
 *  determinism contract. */

#include "replay/replay.h"

#include <algorithm>
#include <cstdarg>
#include <cstring>

namespace bifsim::replay {

namespace snap = snapshot;

void
replayError(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrfmt(fmt, ap);
    va_end(ap);
    throw ReplayError("replay: " + msg);
}

namespace {

constexpr size_t kPage = PhysMem::kPageBytes;
constexpr uint64_t kMaxRam = 1ull << 31;
constexpr uint32_t kMaxCores = 1024;
constexpr uint32_t kMaxHostThreads = 4096;
/** RCFG verifier byte: the one decode-time verifier policy, rejecting
 *  unsafe-class findings (analysis::firstRejected). */
constexpr uint8_t kVerifyPolicy = 1;

bool
knownKind(uint32_t kind)
{
    return kind == kEvConfig || kind == kEvMemDelta || kind == kEvMmio ||
           kind == kEvIrq || kind == kEvFingerprint;
}

uint32_t
zeroPageCrc()
{
    static const uint32_t crc = [] {
        std::vector<uint8_t> zero(kPage, 0);
        return snap::crc32(zero.data(), zero.size());
    }();
    return crc;
}

/** Runs @p f, rethrowing a SnapshotError from the shared container
 *  code as a located ReplayError. */
template <typename F>
auto
asReplayError(F &&f, const char *what = "")
{
    try {
        return f();
    } catch (const snap::SnapshotError &e) {
        throw ReplayError(std::string("replay: ") + what + e.what());
    }
}

/** Parses and sanity-checks the RCFG payload. */
LogConfig
parseConfig(snap::ChunkReader r)
{
    LogConfig c;
    c.ramBase = r.u64();
    c.ramBytes = r.u64();
    c.numCores = r.u32();
    c.hostThreads = r.u32();
    // A log recorded under a retired verifier policy (0 = off,
    // 2 = strict) cannot replay faithfully.
    if (uint8_t verify = r.u8(); verify != kVerifyPolicy)
        r.fail(strfmt("unsupported verifier policy %u", verify));
    c.instrument = r.u8() != 0;
    r.u8();   // Retired fastPath byte (0 = legacy interpreter): ignored.
    c.cpuDbt = r.u8() != 0;
    c.fullSystem = r.u8() != 0;
    r.u8();   // reserved
    r.expectEnd();
    if (c.ramBytes == 0 || c.ramBytes > kMaxRam ||
        c.ramBytes % kPage != 0)
        r.fail(strfmt("implausible RAM size %llu",
                      static_cast<unsigned long long>(c.ramBytes)));
    if (c.numCores == 0 || c.numCores > kMaxCores)
        r.fail(strfmt("implausible shader-core count %u", c.numCores));
    if (c.hostThreads > kMaxHostThreads)
        r.fail(strfmt("implausible host-thread count %u",
                      c.hostThreads));
    return c;
}

} // namespace

// ---------------------------------------------------------------- Log

Log
Log::fromBytes(std::vector<uint8_t> bytes)
{
    Log log;
    log.bytes_ = std::move(bytes);
    log.events_ = asReplayError(
        [&] { return snap::decodeContainer(log.bytes_, kMagic, kVersion); });
    if (log.events_.empty() || log.events_[0].tag != kEvConfig)
        replayError("log does not start with an RCFG event");
    for (size_t i = 1; i < log.events_.size(); ++i) {
        uint32_t kind = log.events_[i].tag;
        if (kind == kEvConfig)
            replayError("duplicate RCFG event at index %zu", i);
        if (!knownKind(kind))
            replayError("event %zu has unknown kind %s", i,
                        snap::tagName(kind).c_str());
    }
    log.cfg_ = asReplayError([&] { return parseConfig(log.reader(0)); },
                             "RCFG: ");
    return log;
}

Log
Log::load(const std::string &path)
{
    return fromBytes(asReplayError([&] { return snap::readFile(path); }));
}

void
Log::save(const std::string &path) const
{
    asReplayError([&] { snap::writeFileAtomic(path, bytes_); });
}

snap::ChunkReader
Log::reader(size_t i) const
{
    const snap::Record &e = events_[i];
    return snap::ChunkReader(e.tag, bytes_.data() + e.offset, e.length);
}

const uint8_t *
Log::payload(size_t i) const
{
    return bytes_.data() + events_[i].offset;
}

// ----------------------------------------------------------- Recorder

Recorder::Recorder(PhysMem &mem, gpu::GpuDevice &gpu, RecordInfo info)
    : mem_(mem), gpu_(gpu)
{
    if (mem_.size() % kPage != 0)
        replayError("RAM size %zu is not page-aligned", mem_.size());
    shadow_.assign(mem_.size() / kPage, zeroPageCrc());

    const gpu::GpuConfig &g = gpu_.config();
    snap::ChunkWriter &w = log_.chunk(kEvConfig);
    w.u64(mem_.base());
    w.u64(mem_.size());
    w.u32(g.numCores);
    w.u32(g.hostThreads);
    w.u8(kVerifyPolicy);
    w.u8(g.instrument ? 1 : 0);
    w.u8(1);   // Retired interpreter-tier byte (see parseConfig).
    w.u8(info.cpuDbt ? 1 : 0);
    w.u8(info.fullSystem ? 1 : 0);
    w.u8(0);

    gpu_.setRecorder(this);   // Throws unless syncSubmit, idle and
                              // all IRQs acknowledged.
    attached_ = true;

    // Fingerprints must be a pure function of the *recorded* inputs,
    // but the device may have run jobs before the recorder attached
    // (warm boot, priming enqueues): baseline its cumulative state so
    // fingerprints report deltas a fresh replay device reproduces.
    baseJobCount_ = gpu_.regState().jobCount;
    baseTotal_ = gpu_.totalKernelStats();
}

Recorder::~Recorder()
{
    if (attached_)
        gpu_.setRecorder(nullptr);
}

std::vector<uint8_t>
Recorder::finish()
{
    if (finished_)
        replayError("recorder already finished");
    if (attached_) {
        gpu_.setRecorder(nullptr);
        attached_ = false;
    }
    finished_ = true;
    return log_.finish();
}

void
Recorder::onMmioWrite(uint32_t offset, uint32_t value)
{
    // Called with the device lock held: append-only, no device calls.
    snap::ChunkWriter &w = log_.chunk(kEvMmio);
    w.u32(offset);
    w.u32(value);
}

void
Recorder::onIrqRaise(uint32_t bits, uint32_t raw_after)
{
    // Called with the device lock held: append-only, no device calls.
    snap::ChunkWriter &w = log_.chunk(kEvIrq);
    w.u32(bits);
    w.u32(raw_after);
}

void
Recorder::onSubmit(uint32_t chain_va)
{
    // Called on the submitting thread with the device lock released,
    // before the chain runs: capture the RAM the CPU dirtied (the DMA
    // sources — descriptors, page tables, arguments, input buffers),
    // then the submit itself.
    captureDelta();
    snap::ChunkWriter &w = log_.chunk(kEvMmio);
    w.u32(static_cast<uint32_t>(gpu::kRegJsSubmit));
    w.u32(chain_va);
    chains_++;
}

void
Recorder::onChainComplete()
{
    // Resync the shadow with the GPU's own writes so they don't bleed
    // into the next CPU delta, then fingerprint the result state.
    syncShadow();
    emitFingerprint();
}

std::vector<uint32_t>
Recorder::syncShadow()
{
    // Only pages written since the last sync can differ from the
    // shadow.  After a clear()/resetToImage() (and on the first sync,
    // which captureDelta runs while first_ is still set) that no longer
    // holds: any page written since the clear or still non-zero in the
    // shadow may have changed.
    std::vector<uint32_t> candidates = mem_.takeWritten();
    if (first_ || mem_.resets() != resets_) {
        std::vector<uint32_t> written = mem_.writtenSinceClear();
        candidates.clear();
        auto next = written.begin();
        for (uint32_t i = 0; i < shadow_.size(); ++i) {
            bool w = next != written.end() && *next == i;
            if (w)
                ++next;
            if (w || shadow_[i] != zeroPageCrc())
                candidates.push_back(i);
        }
        resets_ = mem_.resets();
    }

    const uint8_t *base = mem_.readPtr(mem_.base());
    std::vector<uint32_t> changed;
    for (uint32_t i : candidates) {
        uint32_t crc =
            snap::crc32(base + static_cast<size_t>(i) * kPage, kPage);
        if (crc != shadow_[i]) {
            shadow_[i] = crc;
            changed.push_back(i);
        }
    }
    return changed;
}

void
Recorder::captureDelta()
{
    const uint8_t *base = mem_.readPtr(mem_.base());
    std::vector<uint32_t> changed = syncShadow();
    snap::ChunkWriter &w = log_.chunk(kEvMemDelta);
    w.reserve(1 + 4 + changed.size() * (4 + kPage));
    w.u8(first_ ? 1 : 0);   // full: replayer clears RAM first, so
                            // pages equal to zero need no bytes.
    w.u32(static_cast<uint32_t>(changed.size()));
    for (uint32_t idx : changed) {
        w.u32(idx);
        w.bytes(base + static_cast<size_t>(idx) * kPage, kPage);
    }
    first_ = false;
}

uint32_t
Recorder::ramCrc() const
{
    return snap::crc32(shadow_.data(),
                       shadow_.size() * sizeof(uint32_t));
}

void
Recorder::emitFingerprint()
{
    // Only state that is a pure function of the guest inputs: the
    // guest-visible registers, whole-RAM CRC, fault details and the
    // commutatively merged kernel statistics.  TlbStats / SchedStats /
    // SystemStats vary with worker count and host behaviour and are
    // deliberately absent.
    gpu::GpuDevice::RegState rs = gpu_.regState();
    // If no job ran since attach, lastJob() is pre-recording history a
    // replay device cannot know; report the fresh-device default.
    gpu::JobResult last = rs.jobCount == baseJobCount_
                              ? gpu::JobResult{}
                              : gpu_.lastJob();
    gpu::KernelStats total = gpu_.totalKernelStats();
    total.subtract(baseTotal_);

    snap::ChunkWriter &w = log_.chunk(kEvFingerprint);
    w.u32(rs.jobCount - baseJobCount_);
    w.u32(rs.jsStatus);
    w.u32(rs.irqRaw);
    w.u32(rs.faultStatus);
    w.u32(rs.faultAddress);
    w.u32(ramCrc());
    w.u8(last.faulted ? 1 : 0);
    w.u8(static_cast<uint8_t>(last.fault.kind));
    w.u32(last.fault.va);
    w.str(last.fault.detail);
    w.u64(last.pagesAccessed);
    saveStats(w, last.kernel);
    saveStats(w, total);
}

// --------------------------------------------------------------- Diff

namespace {

/** Scalar prefix of an RFPR payload (kernel stats stay byte-compared). */
struct FingerprintHead
{
    uint32_t jobCount, jsStatus, irqRaw, faultStatus, faultAddress;
    uint32_t ramCrc;
    uint8_t faulted, faultKind;
    uint32_t faultVa;
    std::string faultDetail;
    uint64_t pagesAccessed;
    size_t statsOffset = 0;   ///< Where the stats bytes begin.
};

FingerprintHead
readFingerprintHead(snap::ChunkReader r)
{
    FingerprintHead h;
    h.jobCount = r.u32();
    h.jsStatus = r.u32();
    h.irqRaw = r.u32();
    h.faultStatus = r.u32();
    h.faultAddress = r.u32();
    h.ramCrc = r.u32();
    h.faulted = r.u8();
    h.faultKind = r.u8();
    h.faultVa = r.u32();
    h.faultDetail = r.str();
    h.pagesAccessed = r.u64();
    h.statsOffset = r.offset();
    return h;
}

void
appendDiff(std::string &out, const char *field, uint64_t a, uint64_t b)
{
    if (a != b) {
        if (!out.empty())
            out += ", ";
        out += strfmt("%s 0x%llx vs 0x%llx", field,
                      static_cast<unsigned long long>(a),
                      static_cast<unsigned long long>(b));
    }
}

/** Field-level rendering of two same-kind events that differ. */
std::string
renderEventDiff(const Log &a, size_t i, const Log &b, size_t j)
{
    uint32_t kind = a.kind(i);
    try {
        if (kind == kEvFingerprint) {
            FingerprintHead fa = readFingerprintHead(a.reader(i));
            FingerprintHead fb = readFingerprintHead(b.reader(j));
            std::string d;
            appendDiff(d, "jobCount", fa.jobCount, fb.jobCount);
            appendDiff(d, "jsStatus", fa.jsStatus, fb.jsStatus);
            appendDiff(d, "irqRaw", fa.irqRaw, fb.irqRaw);
            appendDiff(d, "faultStatus", fa.faultStatus,
                       fb.faultStatus);
            appendDiff(d, "faultAddress", fa.faultAddress,
                       fb.faultAddress);
            appendDiff(d, "ramCrc", fa.ramCrc, fb.ramCrc);
            appendDiff(d, "faulted", fa.faulted, fb.faulted);
            appendDiff(d, "faultKind", fa.faultKind, fb.faultKind);
            appendDiff(d, "faultVa", fa.faultVa, fb.faultVa);
            if (fa.faultDetail != fb.faultDetail) {
                if (!d.empty())
                    d += ", ";
                d += strfmt("faultDetail \"%s\" vs \"%s\"",
                            fa.faultDetail.c_str(),
                            fb.faultDetail.c_str());
            }
            appendDiff(d, "pagesAccessed", fa.pagesAccessed,
                       fb.pagesAccessed);
            if (d.empty())
                d = "kernel statistics differ";
            return "fingerprint mismatch: " + d;
        }
        if (kind == kEvMemDelta) {
            snap::ChunkReader ra = a.reader(i);
            snap::ChunkReader rb = b.reader(j);
            uint8_t fulla = ra.u8(), fullb = rb.u8();
            uint32_t na = ra.u32(), nb = rb.u32();
            if (fulla != fullb)
                return strfmt("mem delta full flag %u vs %u", fulla,
                              fullb);
            if (na != nb)
                return strfmt("mem delta page count %u vs %u", na, nb);
            for (uint32_t k = 0; k < na; ++k) {
                uint32_t pa = ra.u32(), pb = rb.u32();
                if (pa != pb)
                    return strfmt("mem delta page index %u vs %u (entry"
                                  " %u)",
                                  pa, pb, k);
                const uint8_t *da = ra.raw(kPage);
                const uint8_t *db = rb.raw(kPage);
                if (std::memcmp(da, db, kPage) != 0)
                    return strfmt("mem delta page %u content differs",
                                  pa);
            }
            return "mem delta trailing bytes differ";
        }
    } catch (const snap::SnapshotError &e) {
        return std::string("undecodable payload: ") + e.what();
    }
    return describeEvent(a, i) + " vs " + describeEvent(b, j);
}

} // namespace

std::string
describeEvent(const Log &log, size_t i)
{
    uint32_t kind = log.kind(i);
    try {
        snap::ChunkReader r = log.reader(i);
        if (kind == kEvConfig) {
            const LogConfig &c = log.config();
            return strfmt("RCFG ram=%lluKiB cores=%u threads=%u "
                          "dbt=%u fullsys=%u",
                          static_cast<unsigned long long>(c.ramBytes >>
                                                          10),
                          c.numCores, c.hostThreads,
                          c.cpuDbt ? 1 : 0, c.fullSystem ? 1 : 0);
        }
        if (kind == kEvMemDelta) {
            uint8_t full = r.u8();
            uint32_t n = r.u32();
            return strfmt("RMEM full=%u pages=%u", full, n);
        }
        if (kind == kEvMmio) {
            uint32_t off = r.u32(), val = r.u32();
            return strfmt("RMIO [0x%03x] <= 0x%08x", off, val);
        }
        if (kind == kEvIrq) {
            uint32_t bits = r.u32(), raw = r.u32();
            return strfmt("RIRQ bits=0x%x raw=0x%x", bits, raw);
        }
        if (kind == kEvFingerprint) {
            FingerprintHead h = readFingerprintHead(std::move(r));
            return strfmt("RFPR jobs=%u js=%u irq=0x%x fault=%u@0x%08x "
                          "ramcrc=0x%08x",
                          h.jobCount, h.jsStatus, h.irqRaw,
                          h.faultStatus, h.faultAddress, h.ramCrc);
        }
    } catch (const snap::SnapshotError &e) {
        return strfmt("%s (undecodable: %s)",
                      snap::tagName(kind).c_str(), e.what());
    }
    return snap::tagName(kind);
}

std::optional<Divergence>
diffLogs(const Log &a, const Log &b, bool compare_config)
{
    size_t n = std::min(a.eventCount(), b.eventCount());
    for (size_t i = 0; i < n; ++i) {
        if (a.kind(i) != b.kind(i))
            return Divergence{
                i, strfmt("event kind %s vs %s",
                          snap::tagName(a.kind(i)).c_str(),
                          snap::tagName(b.kind(i)).c_str())};
        if (a.kind(i) == kEvConfig && !compare_config)
            continue;
        if (a.payloadSize(i) != b.payloadSize(i) ||
            std::memcmp(a.payload(i), b.payload(i),
                        a.payloadSize(i)) != 0)
            return Divergence{i, renderEventDiff(a, i, b, i)};
    }
    if (a.eventCount() != b.eventCount())
        return Divergence{
            n, strfmt("log has %zu events, other has %zu",
                      a.eventCount(), b.eventCount())};
    return std::nullopt;
}

// ------------------------------------------------------------- Replay

ReplayResult
replay(const Log &log, const ReplayOptions &opt)
{
    const LogConfig &c = log.config();
    if (opt.hostThreads > kMaxHostThreads)
        replayError("implausible host-thread count %u",
                    opt.hostThreads);

    PhysMem mem(static_cast<Addr>(c.ramBase),
                static_cast<size_t>(c.ramBytes));
    gpu::GpuConfig gcfg;
    gcfg.numCores = c.numCores;
    gcfg.hostThreads = opt.hostThreads == 0 ? 1 : opt.hostThreads;
    gcfg.instrument = c.instrument;
    gcfg.syncSubmit = true;
    gpu::GpuDevice dev(mem, gcfg, nullptr);

    // Validation re-records the run through the same hooks (paying a
    // CRC of every page written per chain); without it, replay just
    // applies the inputs — the fast path for reproducing a workload.
    std::optional<Recorder> rec;
    if (opt.validate)
        rec.emplace(mem, dev, RecordInfo{});
    const size_t npages = mem.size() / kPage;
    size_t submits = 0;

    ReplayResult res;
    for (size_t i = 1; i < log.eventCount(); ++i) {
        try {
            switch (log.kind(i)) {
              case kEvMemDelta: {
                snap::ChunkReader r = log.reader(i);
                uint8_t full = r.u8();
                uint32_t count = r.u32();
                if (static_cast<uint64_t>(count) * (4 + kPage) >
                    r.remaining())
                    r.fail(strfmt("page count %u exceeds event size",
                                  count));
                if (full)
                    mem.clear();
                uint64_t prev = UINT64_MAX;
                for (uint32_t k = 0; k < count; ++k) {
                    uint32_t idx = r.u32();
                    if (idx >= npages)
                        r.fail(strfmt("page index %u out of range "
                                      "(%zu pages)",
                                      idx, npages));
                    if (prev != UINT64_MAX && idx <= prev)
                        r.fail(strfmt("page index %u not ascending",
                                      idx));
                    prev = idx;
                    const uint8_t *src = r.raw(kPage);
                    mem.writeBlock(mem.base() +
                                       static_cast<Addr>(idx) * kPage,
                                   src, kPage);
                }
                r.expectEnd();
                break;
              }
              case kEvMmio: {
                snap::ChunkReader r = log.reader(i);
                uint32_t offset = r.u32();
                uint32_t value = r.u32();
                r.expectEnd();
                if (offset == gpu::kRegJsSubmit)
                    submits++;
                dev.mmioWrite(static_cast<Addr>(offset), value);
                break;
              }
              case kEvIrq:
              case kEvFingerprint:
                // Outputs: regenerated by the attached recorder and
                // checked by the diff below.
                break;
              default:
                break;   // Unreachable: fromBytes rejects unknowns.
            }
        } catch (const snap::SnapshotError &e) {
            throw ReplayError(strfmt("replay: event %zu (%s): %s", i,
                                     snap::tagName(log.kind(i)).c_str(),
                                     e.what()));
        }
    }
    dev.waitIdle();
    res.chains = submits;
    res.lastJob = dev.lastJob();
    res.totalKernel = dev.totalKernelStats();

    if (rec) {
        Log rerecorded = Log::fromBytes(rec->finish());
        std::optional<Divergence> d = diffLogs(log, rerecorded);
        if (d) {
            res.ok = false;
            res.divergenceEvent = d->event;
            res.divergence =
                strfmt("event %zu: %s", d->event, d->what.c_str());
            return res;
        }
    }
    res.ok = true;
    return res;
}

} // namespace bifsim::replay

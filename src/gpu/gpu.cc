#include "gpu/gpu.h"

#include <cstdlib>
#include <cstring>
#include <unordered_set>

#include "common/logging.h"
#include "metrics/metrics.h"
#include "replay/replay.h"

namespace bifsim::gpu {

namespace {

constexpr uint32_t kMaxGroupThreads = 1024;

/** Descriptor-chain walk bound: a chain longer than this is treated as
 *  malformed (one guest store can otherwise link a cycle and park the
 *  JM thread forever). */
constexpr size_t kMaxChainDescriptors = 65536;

/** Worker-pool size ceiling (sanity bound for auto-detection and the
 *  BIFSIM_HOST_THREADS override). */
constexpr unsigned kMaxHostThreads = 256;

/** Slices dealt per worker at job start.  >1 so late-finishing workers
 *  leave stealable tail work; small so slices stay coarse enough that
 *  the per-slice queue locking is negligible. */
constexpr uint32_t kSlicesPerWorker = 4;

/** Resolves GpuConfig::hostThreads (0 = auto, see gpu.h). */
unsigned
resolveHostThreads(unsigned configured)
{
    unsigned t = configured;
    if (t == 0) {
        if (const char *env = std::getenv("BIFSIM_HOST_THREADS"))
            t = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
    }
    if (t == 0)
        t = std::thread::hardware_concurrency();
    if (t == 0)
        t = 1;
    return std::min(t, kMaxHostThreads);
}

/**
 * Derives a job's KernelStats from its workers' raw counts, once, at
 * job completion (paper §IV-A): each clause's static metrics times the
 * threads that ran it, and its CFG edges from the threads that left it
 * for its one static successor (the rest fell through to c + 1).  Every
 * workgroup always runs, so the launch counts come from the job's
 * dimensions and stay counted with instrumentation off.  The inputs
 * are sums, so the result does not depend on which worker ran (or
 * stole) which workgroup.
 */
KernelStats
foldKernelStats(const JobContext &job,
                const std::vector<WorkgroupExecutor> &executors)
{
    KernelStats k;
    const JobDescriptor &d = job.desc;
    const uint64_t group_threads = uint64_t{d.wg[0]} * d.wg[1] * d.wg[2];
    k.workgroups = job.totalGroups;
    k.threadsLaunched = k.workgroups * group_threads;
    k.warpsLaunched = k.workgroups * ((group_threads + bif::kWarpWidth - 1) /
                                      bif::kWarpWidth);
    if (!job.collect)
        return k;

    const DecodedShader &sh = *job.shader;
    for (uint32_t c = 0; c < sh.info.size(); ++c) {
        uint64_t n = 0;
        uint64_t taken = 0;
        for (const WorkgroupExecutor &ex : executors) {
            n += ex.collector().clauseExec[c];
            taken += ex.collector().taken[c];
        }
        if (!n)
            continue;
        const ClauseStaticInfo &ci = sh.info[c];
        k.arithInstrs += ci.arith * n;
        k.lsInstrs += ci.ls * n;
        k.cfInstrs += ci.cf * n;
        k.nopSlots += ci.nop * n;
        k.grfReads += ci.grfReads * n;
        k.grfWrites += ci.grfWrites * n;
        k.tempAccesses += (ci.tempReads + ci.tempWrites) * n;
        k.constReads += ci.constReads * n;
        k.romReads += ci.romReads * n;
        k.globalLdSt += (ci.globalLd + ci.globalSt) * n;
        k.localLdSt += (ci.localLd + ci.localSt) * n;
        k.clausesExecuted += n;
        k.clauseSizes.sample(ci.sizeTuples, n);
        if (sh.succ[c] == kNoSuccessor)
            continue;
        if (taken)
            k.cfgEdges[cfgEdgeKey(c, sh.succ[c])] += taken;
        if (taken < n)
            k.cfgEdges[cfgEdgeKey(c, c + 1)] += n - taken;
    }
    for (const WorkgroupExecutor &ex : executors)
        k.divergentBranches += ex.collector().divergent;
    return k;
}

} // namespace

GpuDevice::GpuDevice(PhysMem &mem, GpuConfig cfg, IrqFn irq)
    : mem_(mem), cfg_(cfg), irq_(std::move(irq)), mmu_(mem),
      tracer_(cfg.trace)
{
    cfg_.hostThreads = resolveHostThreads(cfg_.hostThreads);
    devBuf_ = tracer_.registerThread("gpu-device");
    jmBuf_ = tracer_.registerThread("gpu-jm");
    executors_.resize(cfg_.hostThreads);
    deques_ = std::make_unique<SliceDeque[]>(cfg_.hostThreads);
    workers_.reserve(cfg_.hostThreads);
    for (unsigned i = 0; i < cfg_.hostThreads; ++i)
        workers_.emplace_back([this, i] { workerMain(i); });
    jmThread_ = std::thread([this] { jmMain(); });
}

GpuDevice::~GpuDevice()
{
    {
        sim::LockGuard g(lock_);
        shutdown_ = true;
        cv_.notify_all();
    }
    {
        sim::LockGuard g(poolLock_);
        poolCv_.notify_all();
    }
    jmThread_.join();
    for (std::thread &w : workers_)
        w.join();
}

void
GpuDevice::flushShadersLocked()
{
    shaders_.clear();
    shaderGen_++;
}

void
GpuDevice::updateIrqOutput()
{
    bool level = (irqRaw_ & irqMask_) != 0;
    if (level != irqLevel_) {
        irqLevel_ = level;
        if (irq_)
            irq_(level);
    }
}

void
GpuDevice::raiseIrqLocked(uint32_t bits)
{
    irqRaw_ |= bits;
    sys_.irqsAsserted++;
    if (devBuf_)
        devBuf_->instant("irq_raise", "irq", "bits", bits);
    if (recorder_)
        recorder_->onIrqRaise(bits, irqRaw_);
    updateIrqOutput();
}

uint32_t
GpuDevice::mmioRead(Addr offset)
{
    sim::LockGuard g(lock_);
    sys_.ctrlRegReads++;
    switch (offset) {
      case kRegGpuId:          return 0x47310000u | cfg_.numCores;
      case kRegIrqRawStat:     return irqRaw_;
      case kRegIrqMask:        return irqMask_;
      case kRegIrqStatus:      return irqRaw_ & irqMask_;
      case kRegJsStatus:       return jsStatus_;
      case kRegJsJobCount:     return jobCount_;
      case kRegAsTranstab:
        return static_cast<uint32_t>(mmu_.root());
      case kRegAsFaultStatus:  return faultStatus_;
      case kRegAsFaultAddress: return faultAddress_;
      case kRegScCount:        return cfg_.numCores;
      case kRegScThreads:
        // Runtime-effective pool size: the threads that actually exist,
        // which reflects auto-detection (hostThreads = 0), not the
        // value the configuration was constructed with.
        return static_cast<uint32_t>(workers_.size());
      default:                 return 0;
    }
}

void
GpuDevice::mmioWrite(Addr offset, uint32_t value)
{
    sim::UniqueLock g(lock_);
    sys_.ctrlRegWrites++;
    // JS_SUBMIT is captured by onSubmit() below, after the pre-chain
    // RAM delta, so the log preserves the delta -> submit ordering.
    if (recorder_ && offset != kRegJsSubmit)
        recorder_->onMmioWrite(static_cast<uint32_t>(offset), value);
    switch (offset) {
      case kRegIrqClear:
        irqRaw_ &= ~value;
        updateIrqOutput();
        break;
      case kRegIrqMask:
        irqMask_ = value;
        updateIrqOutput();
        break;
      case kRegGpuCmd:
        if (value == 1)
            flushShadersLocked();
        break;
      case kRegJsSubmit:
        jsStatus_ = kJsRunning;
        if (devBuf_)
            devBuf_->instant("js_submit", "mmio", "chain_va", value);
        if (cfg_.syncSubmit) {
            // Deterministic co-simulation: execute the chain inline on
            // the submitting thread.  The completion IRQ is pending by
            // the time this MMIO write retires.
            chainActive_ = true;
            replay::Recorder *rec = recorder_;
            g.unlock();
            if (rec)
                rec->onSubmit(value);
            runChain(value);
            if (rec)
                rec->onChainComplete();
            g.lock();
            chainActive_ = false;
            cv_.notify_all();
        } else {
            submitQueue_.push_back(value);
            cv_.notify_all();
        }
        break;
      case kRegAsTranstab:
        // The decode cache is keyed by guest VA; a new translation root
        // can map the same VA to different bytes, so cached shaders are
        // stale the moment the root changes.  (Re-writing the current
        // root, as drivers do on every submit, keeps the cache.)
        if (static_cast<Addr>(value) != mmu_.root()) {
            flushShadersLocked();
            if (devBuf_)
                devBuf_->instant("as_root_switch", "mmio", "root",
                                 value);
        }
        mmu_.setRoot(value);
        break;
      case kRegAsCommand:
        // TLB flush: bump the global epoch; workers notice at their
        // next clause boundary and flush locally (no broadcast, no
        // cross-thread coordination).
        if (value == 1) {
            mmu_.bumpEpoch();
            if (devBuf_)
                devBuf_->instant("as_tlb_flush", "mmio");
        }
        break;
      default:
        break;
    }
}

void
GpuDevice::waitIdle()
{
    sim::UniqueLock l(lock_);
    while (!submitQueue_.empty() || chainActive_)
        cv_.wait(l);
}

bool
GpuDevice::idle() const
{
    sim::LockGuard g(lock_);
    return submitQueue_.empty() && !chainActive_;
}

void
GpuDevice::reset()
{
    waitIdle();
    sim::LockGuard g(lock_);
    irqRaw_ = 0;
    irqMask_ = 0;
    jsStatus_ = kJsIdle;
    jobCount_ = 0;
    faultStatus_ = 0;
    faultAddress_ = 0;
    setSysStatsLocked(SystemStats{});
    total_ = KernelStats{};
    lastJob_ = JobResult{};
    sched_ = SchedStats{};
    cacheStats_ = ShaderCacheStats{};
    flushShadersLocked();
    jmTlb_.flush();
    mmu_.setRoot(0);
    updateIrqOutput();
}

namespace {

void
saveJobFault(snapshot::ChunkWriter &w, const JobFault &f)
{
    w.u8(static_cast<uint8_t>(f.kind));
    w.u32(f.va);
    w.str(f.detail);
}

void
restoreJobFault(snapshot::ChunkReader &r, JobFault &f)
{
    uint8_t kind = r.u8();
    if (kind > static_cast<uint8_t>(JobFaultKind::ShaderVerify))
        r.fail(strfmt("invalid job-fault kind %u", kind));
    f.kind = static_cast<JobFaultKind>(kind);
    f.va = r.u32();
    f.detail = r.str();
}

} // namespace

void
saveJobResult(snapshot::ChunkWriter &w, const JobResult &r)
{
    saveStats(w, r.kernel);
    saveStats(w, r.tlb);
    w.u64(r.pagesAccessed);
    w.u8(r.faulted ? 1 : 0);
    saveJobFault(w, r.fault);
}

void
restoreJobResult(snapshot::ChunkReader &r, JobResult &out)
{
    JobResult v;
    restoreStats(r, v.kernel);
    restoreStats(r, v.tlb);
    v.pagesAccessed = r.u64();
    v.faulted = r.u8() != 0;
    restoreJobFault(r, v.fault);
    out = std::move(v);
}

void
GpuDevice::saveState(snapshot::ChunkWriter &w) const
{
    sim::LockGuard g(lock_);
    // Quiescence rule: job-slot state mid-chain lives on the JM thread
    // stack and in worker executors; it is not capturable.  Callers
    // must waitIdle() first.
    if (!submitQueue_.empty() || chainActive_)
        snapshot::snapshotError("GPU is not quiescent (chain %s); "
                                "snapshot only at waitIdle()",
                                chainActive_ ? "active" : "queued");
    w.u32(irqRaw_);
    w.u32(irqMask_);
    w.u32(jsStatus_);
    w.u32(jobCount_);
    w.u32(faultStatus_);
    w.u32(faultAddress_);
    w.u64(mmu_.root());
    saveStats(w, sys_);
    saveStats(w, total_);
    saveJobResult(w, lastJob_);
    w.u64(cacheStats_.decodes);
    w.u64(cacheStats_.hits);
}

void
GpuDevice::restoreState(snapshot::ChunkReader &r)
{
    // Parse-then-commit: decode the full chunk before touching any
    // device state.
    uint32_t irq_raw = r.u32();
    uint32_t irq_mask = r.u32();
    uint32_t js_status = r.u32();
    if (js_status == kJsRunning || js_status > kJsFault)
        r.fail(strfmt("JS_STATUS %u is not a quiescent state",
                      js_status));
    uint32_t job_count = r.u32();
    uint32_t fault_status = r.u32();
    uint32_t fault_address = r.u32();
    uint64_t root = r.u64();
    SystemStats sys;
    restoreStats(r, sys);
    KernelStats total;
    restoreStats(r, total);
    JobResult last;
    restoreJobResult(r, last);
    ShaderCacheStats cache_stats;
    cache_stats.decodes = r.u64();
    cache_stats.hits = r.u64();
    r.expectEnd();

    sim::LockGuard g(lock_);
    if (!submitQueue_.empty() || chainActive_)
        snapshot::snapshotError("cannot restore into a non-quiescent GPU");
    irqRaw_ = irq_raw;
    irqMask_ = irq_mask;
    jsStatus_ = js_status;
    jobCount_ = job_count;
    faultStatus_ = fault_status;
    faultAddress_ = fault_address;
    setSysStatsLocked(sys);
    total_ = std::move(total);
    lastJob_ = std::move(last);
    cacheStats_ = cache_stats;
    // Decoded shaders were compiled against the old address space;
    // setRoot()'s epoch bump makes every worker drop its host-pointer
    // TLB at the next clause boundary.
    flushShadersLocked();
    jmTlb_.flush();
    mmu_.setRoot(root);
    updateIrqOutput();
}

JobResult
GpuDevice::lastJob() const
{
    sim::LockGuard g(lock_);
    return lastJob_;
}

GpuDevice::RegState
GpuDevice::regState() const
{
    sim::LockGuard g(lock_);
    return RegState{irqRaw_, jsStatus_, jobCount_, faultStatus_,
                    faultAddress_};
}

void
GpuDevice::setRecorder(replay::Recorder *rec)
{
    if (rec) {
        if (!cfg_.syncSubmit)
            simError("recording requires GpuConfig::syncSubmit "
                     "(deterministic inline chains)");
        if (!idle())
            simError("cannot attach a recorder while the GPU is busy");
    }
    sim::LockGuard g(lock_);
    if (rec && irqRaw_ != 0)
        simError("cannot attach a recorder with unacknowledged IRQs "
                 "(raw 0x%x): clear them first so replayed IRQ state "
                 "is a pure function of the recorded inputs",
                 irqRaw_);
    recorder_ = rec;
}

KernelStats
GpuDevice::totalKernelStats() const
{
    sim::LockGuard g(lock_);
    return total_;
}

SystemStats
GpuDevice::systemStats() const
{
    sim::LockGuard g(lock_);
    return sys_;
}

ShaderCacheStats
GpuDevice::shaderCacheStats() const
{
    sim::LockGuard g(lock_);
    return cacheStats_;
}

SchedStats
GpuDevice::schedulerStats() const
{
    sim::LockGuard g(lock_);
    return sched_;
}

void
GpuDevice::resetStats()
{
    sim::LockGuard g(lock_);
    setSysStatsLocked(SystemStats{});
    total_ = KernelStats{};
    lastJob_ = JobResult{};
    sched_ = SchedStats{};
    cacheStats_ = ShaderCacheStats{};
}

bool
GpuDevice::readVaRange(uint32_t va, size_t len, std::vector<uint8_t> &out)
{
    out.resize(len);
    // jmTlb_ is private to the chain-execution thread (JM, or the
    // submitting thread under syncSubmit — never both at once), so
    // descriptor/shader/argument fetches keep their translations warm
    // across a chain.  The epoch check drops them when the root moves.
    jmTlb_.syncEpoch(mmu_);
    GpuTlb &tlb = jmTlb_;
    size_t done = 0;
    while (done < len) {
        uint32_t cur = va + static_cast<uint32_t>(done);
        size_t in_page = 4096 - (cur & 0xfff);
        size_t chunk = std::min(in_page, len - done);
        const GpuTlb::Entry *e = mmu_.lookup(cur, false, tlb);
        if (!e)
            return false;
        Addr pa = (static_cast<Addr>(e->ppn) << kGpuPageShift) |
                  (cur & (kGpuPageBytes - 1));
        if (!mem_.contains(pa, chunk))
            return false;
        mem_.readBlock(pa, out.data() + done, chunk);
        done += chunk;
    }
    return true;
}

std::shared_ptr<DecodedShader>
GpuDevice::getShader(uint32_t binary_va, std::string &error,
                     JobFaultKind &kind)
{
    kind = JobFaultKind::BadBinary;
    uint64_t t0 = jmBuf_ ? trace::nowNs() : 0;
    // Read the generation in the lookup's critical section, *before*
    // the guest bytes are read: if a flush lands while we decode, the
    // insert below is skipped and the next job re-decodes.
    uint64_t gen;
    {
        sim::LockGuard g(lock_);
        auto it = shaders_.find(binary_va);
        if (it != shaders_.end()) {
            cacheStats_.hits++;
            if (jmBuf_)
                jmBuf_->span("decode", "shader", t0, "hit", 1, "va",
                             binary_va);
            return it->second;
        }
        gen = shaderGen_;
    }

    // Decode phase (paper §III-B2): executed exactly once per shader.
    std::vector<uint8_t> header;
    if (!readVaRange(binary_va, 32, header)) {
        error = "shader header unreadable";
        return nullptr;
    }
    uint32_t num_clauses, clause_off, rom_off, rom_words;
    std::memcpy(&num_clauses, header.data() + 4, 4);
    std::memcpy(&clause_off, header.data() + 8, 4);
    std::memcpy(&rom_off, header.data() + 12, 4);
    std::memcpy(&rom_words, header.data() + 16, 4);
    (void)num_clauses;
    (void)clause_off;
    // Widen before multiplying: rom_words * 4 in uint32_t wraps for
    // rom_words >= 0x4000'0000 and would sail under the size guard.
    uint64_t total64 = static_cast<uint64_t>(rom_off) +
                       static_cast<uint64_t>(rom_words) * 4;
    if (total64 < 32 || total64 > (64u << 20)) {
        error = "implausible shader size";
        return nullptr;
    }
    size_t total = static_cast<size_t>(total64);
    std::vector<uint8_t> bytes;
    if (!readVaRange(binary_va, total, bytes)) {
        error = "shader body unreadable";
        return nullptr;
    }
    bif::Module mod;
    if (!bif::decode(bytes.data(), bytes.size(), mod, error))
        return nullptr;

    // Static verification (decode-time gate; see GpuConfig::verify).
    if (cfg_.verify != analysis::Strictness::kOff) {
        uint64_t v0 = jmBuf_ ? trace::nowNs() : 0;
        analysis::Options opts;
        opts.maxArgWords = kMaxArgWords;
        opts.deadWrites = false;   // Lint-only class; skip the pass.
        analysis::Result res = analysis::analyze(mod, opts);
        if (jmBuf_) {
            for (const analysis::Diag &d : res.diags) {
                jmBuf_->instant(analysis::checkName(d.check), "verify",
                                "clause", d.clause, "tuple", d.tuple);
            }
            jmBuf_->span("verify", "shader", v0, "diags",
                         res.diags.size(), "va", binary_va);
        }
        if (const analysis::Diag *d =
                analysis::firstRejected(res, cfg_.verify)) {
            error = "shader verify: " + analysis::renderDiag(*d);
            kind = JobFaultKind::ShaderVerify;
            return nullptr;
        }
    }

    auto shader =
        std::make_shared<DecodedShader>(DecodedShader::build(std::move(mod)));
    sim::LockGuard g(lock_);
    if (shaderGen_ == gen)
        shaders_[binary_va] = shader;
    cacheStats_.decodes++;
    if (jmBuf_)
        jmBuf_->span("decode", "shader", t0, "hit", 0, "va", binary_va);
    return shader;
}

bool
GpuDevice::runJob(const JobDescriptor &desc)
{
    auto fail = [&](JobFaultKind kind, uint32_t va, std::string detail) {
        sim::LockGuard g(lock_);
        lastJob_ = JobResult{};
        lastJob_.faulted = true;
        lastJob_.fault = JobFault{kind, va, std::move(detail)};
        faultStatus_ = static_cast<uint32_t>(kind);
        faultAddress_ = va;
        raiseIrqLocked(kind == JobFaultKind::MmuFault ? kIrqMmuFault
                                                      : kIrqJobFault);
        return false;
    };

    if (desc.jobType != JobDescriptor::kTypeCompute) {
        return fail(JobFaultKind::BadDescriptor, 0,
                    strfmt("unsupported job type %u", desc.jobType));
    }
    // Both products are bounded after every factor, in 64 bits: a
    // 32-bit product of guest dimensions can wrap to a small value and
    // pass the bound.
    uint64_t group_threads = 1;
    uint64_t total_groups = 1;
    for (int d = 0; d < 3; ++d) {
        if (desc.wg[d] == 0 || desc.grid[d] == 0 ||
            desc.grid[d] % desc.wg[d] != 0) {
            return fail(JobFaultKind::BadDimensions, 0,
                        "grid not a multiple of workgroup size");
        }
        group_threads *= desc.wg[d];
        if (group_threads > kMaxGroupThreads) {
            return fail(JobFaultKind::BadDimensions, 0,
                        "workgroup too large");
        }
        total_groups *= desc.grid[d] / desc.wg[d];
        if (total_groups > UINT32_MAX) {
            return fail(JobFaultKind::BadDimensions, 0,
                        "too many workgroups");
        }
    }

    std::string err;
    JobFaultKind binKind = JobFaultKind::BadBinary;
    std::shared_ptr<DecodedShader> shader =
        getShader(desc.binaryVa, err, binKind);
    if (!shader)
        return fail(binKind, desc.binaryVa, err);

    JobContext ctx;
    ctx.shader = shader.get();
    ctx.shaderRef = shader;
    ctx.desc = desc;
    ctx.mmu = &mmu_;
    ctx.mem = &mem_;
    ctx.deques = deques_.get();
    ctx.numWorkers = static_cast<unsigned>(workers_.size());
    ctx.collect = cfg_.instrument;
    for (int d = 0; d < 3; ++d)
        ctx.groups[d] = desc.grid[d] / desc.wg[d];
    ctx.totalGroups = static_cast<uint32_t>(total_groups);

    if (desc.argsVa != 0) {
        std::vector<uint8_t> argbytes;
        if (!readVaRange(desc.argsVa, kMaxArgWords * 4, argbytes)) {
            return fail(JobFaultKind::BadDescriptor, desc.argsVa,
                        "argument table unreadable");
        }
        std::memcpy(ctx.args, argbytes.data(), sizeof(ctx.args));
    }

    // Job boundary: stale translations from the previous job must not
    // survive.  Workers pick up the new epoch in beginJob.
    mmu_.bumpEpoch();

    // Deal the grid into the per-worker deques while the pool is still
    // parked — after the publication below, the deques belong to the
    // workers until the completion barrier.
    distributeSlices(ctx.totalGroups);

    // Dispatch to the worker pool.
    {
        sim::UniqueLock l(poolLock_);
        activeJob_ = &ctx;
        workersDone_ = 0;
        jobSeq_++;
        poolCv_.notify_all();
        while (workersDone_ != workers_.size())
            poolDoneCv_.wait(l);
        activeJob_ = nullptr;
    }

    // Copy the winning fault out under its own lock, then release it
    // before fail() takes the device lock — faultLock and lock_ are
    // never held together.  (The completion barrier already ordered
    // the write, but the contract is per-lock, not per-barrier.)
    JobFault f;
    {
        sim::LockGuard g(ctx.faultLock);
        f = ctx.fault;
    }
    if (f.kind != JobFaultKind::None)
        return fail(f.kind, f.va, std::move(f.detail));

    // Merge the workers' counts (paper §IV-A: totalled at job
    // completion, no hot-path synchronisation).  All merges are sums
    // and set unions, so the result is independent of which worker ran
    // (or stole) which workgroup — the determinism the multi-worker
    // snapshot tests rely on.
    JobResult result;
    result.kernel = foldKernelStats(ctx, executors_);
    SchedStats jobSched;
    jobPages_.clear();
    for (const WorkgroupExecutor &ex : executors_) {
        jobPages_.merge(ex.collector().pages);
        result.tlb.merge(ex.tlb().stats);
        jobSched.merge(ex.sched());
    }
    result.pagesAccessed = jobPages_.size();

    sim::LockGuard g(lock_);
    lastJob_ = result;
    total_.merge(result.kernel);
    sched_.merge(jobSched);
    sys_.pagesAccessed += result.pagesAccessed;
    sys_.computeJobs++;
    jobCount_++;
    if (jmBuf_) {
        std::vector<NamedCounter> counters;
        appendCounters(counters, result.kernel);
        appendCounters(counters, result.tlb);
        appendCounters(counters, sys_);
        appendCounters(counters, jobSched);
        for (const NamedCounter &c : counters)
            jmBuf_->counter(c.name, c.value);
    }
    // Always-on metrics (§5k): job completion is the natural merge
    // point, so the per-job kernel/TLB/sched deltas publish as one
    // batch.  sys_ counters accumulate outside runJob too (MMIO,
    // IRQs), so the batch carries their growth since the last publish;
    // a faulted job's sys increments fold into the next successful
    // publish.
    if (metrics::registry().enabled()) {
        std::vector<NamedCounter> deltas;
        appendCounters(deltas, result.kernel);
        appendCounters(deltas, result.tlb);
        appendCounters(deltas, jobSched);
        appendSysDeltasLocked(deltas);
        metrics::registry().publish(deltas);
    }
    raiseIrqLocked(kIrqJobDone);
    return true;
}

void
GpuDevice::appendSysDeltasLocked(std::vector<NamedCounter> &batch)
{
    std::vector<NamedCounter> now;
    appendCounters(now, sys_);
    sysBase_.appendDeltas(batch, now);
}

void
GpuDevice::setSysStatsLocked(const SystemStats &s)
{
    std::vector<NamedCounter> pending;
    appendSysDeltasLocked(pending);
    if (!pending.empty())
        metrics::registry().publish(pending);
    sys_ = s;
    std::vector<NamedCounter> now;
    appendCounters(now, sys_);
    sysBase_.rebase(now);
}

void
GpuDevice::distributeSlices(uint32_t total_groups)
{
    const unsigned nw = static_cast<unsigned>(workers_.size());
    for (unsigned w = 0; w < nw; ++w)
        deques_[w].reset();

    // Each worker owns one contiguous block of the grid (locality of
    // guest data between neighbouring groups), split into a few slices
    // so finished workers find stealable tail work in slow workers'
    // queues instead of idling at the barrier.
    uint32_t next = 0;
    for (unsigned w = 0; w < nw && next < total_groups; ++w) {
        uint32_t block =
            (total_groups - next + (nw - w) - 1) / (nw - w);
        uint32_t dealt = 0;
        for (uint32_t s = 0; s < kSlicesPerWorker && dealt < block; ++s) {
            uint32_t n = (block - dealt + (kSlicesPerWorker - s) - 1) /
                         (kSlicesPerWorker - s);
            GroupSlice slice{next + dealt, next + dealt + n};
            deques_[cfg_.skewSlices ? 0 : w].push(slice);
            dealt += n;
        }
        next += block;
    }
}

void
GpuDevice::runChain(uint32_t desc_va)
{
    uint64_t chain_t0 = jmBuf_ ? trace::nowNs() : 0;
    uint32_t va = desc_va;
    bool ok = true;
    uint64_t jobs_run = 0;
    // A descriptor chain lives in guest-writable memory, so it can be
    // self-linked or cyclic; an unbounded walk would park the JM thread
    // forever and waitIdle() would never return.
    std::unordered_set<uint32_t> visited;
    size_t walked = 0;
    while (va != 0) {
        if (!visited.insert(va).second ||
            ++walked > kMaxChainDescriptors) {
            sim::LockGuard g(lock_);
            faultStatus_ =
                static_cast<uint32_t>(JobFaultKind::BadDescriptor);
            faultAddress_ = va;
            raiseIrqLocked(kIrqJobFault);
            ok = false;
            break;
        }
        std::vector<uint8_t> raw;
        if (!readVaRange(va, JobDescriptor::kSizeBytes, raw)) {
            sim::LockGuard g(lock_);
            faultStatus_ =
                static_cast<uint32_t>(JobFaultKind::BadDescriptor);
            faultAddress_ = va;
            raiseIrqLocked(kIrqJobFault);
            ok = false;
            break;
        }
        if (jmBuf_)
            jmBuf_->instant("desc_fetch", "jm", "va", va);
        JobDescriptor desc = JobDescriptor::readFrom(raw.data());
        if (desc.jobType == JobDescriptor::kTypeNull) {
            va = desc.next;
            continue;
        }
        uint64_t job_t0 = jmBuf_ ? trace::nowNs() : 0;
        bool jok = runJob(desc);
        jobs_run++;
        if (jmBuf_)
            jmBuf_->span("job", "jm", job_t0, "ok", jok ? 1 : 0, "va",
                         va);
        if (!jok) {
            ok = false;
            break;
        }
        va = desc.next;
    }
    if (jmBuf_)
        jmBuf_->span("chain", "jm", chain_t0, "jobs", jobs_run, "ok",
                     ok ? 1 : 0);
    sim::LockGuard g(lock_);
    jsStatus_ = ok ? kJsDone : kJsFault;
    // Chain-complete interrupt: raised *after* the status update so a
    // driver woken by the last per-job IRQ can never observe a stale
    // "running" status and sleep through completion.
    raiseIrqLocked(ok ? kIrqJobDone : kIrqJobFault);
}

void
GpuDevice::jmMain()
{
    for (;;) {
        uint32_t va = 0;
        {
            sim::UniqueLock l(lock_);
            while (!shutdown_ && submitQueue_.empty())
                cv_.wait(l);
            if (shutdown_)
                return;
            va = submitQueue_.front();
            submitQueue_.pop_front();
            chainActive_ = true;
            jsStatus_ = kJsRunning;
        }
        runChain(va);
        {
            sim::LockGuard g(lock_);
            chainActive_ = false;
            cv_.notify_all();
        }
    }
}

void
GpuDevice::workerMain(unsigned idx)
{
    if (tracer_.enabled()) {
        executors_[idx].setTrace(
            tracer_.registerThread(strfmt("gpu-worker-%u", idx)));
    }
    uint64_t my_seq = 0;
    sim::UniqueLock l(poolLock_);
    for (;;) {
        while (!shutdown_ && (activeJob_ == nullptr || jobSeq_ == my_seq))
            poolCv_.wait(l);
        if (shutdown_)
            return;
        my_seq = jobSeq_;
        JobContext *job = activeJob_;
        l.unlock();

        executors_[idx].beginJob(job, idx);
        executors_[idx].runUntilDone();

        l.lock();
        workersDone_++;
        if (workersDone_ == workers_.size())
            poolDoneCv_.notify_all();
    }
}

} // namespace bifsim::gpu

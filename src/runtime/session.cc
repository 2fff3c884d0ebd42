#include "runtime/session.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bits.h"
#include "common/logging.h"
#include "instrument/stats.h"
#include "trace/trace.h"

namespace bifsim::rt {

Arg
Arg::buf(const Buffer &b)
{
    Arg a;
    a.kind = Kind::Buf;
    a.value = b.gpuVa;
    return a;
}

Arg
Arg::i32(int32_t v)
{
    Arg a;
    a.kind = Kind::I32;
    a.value = static_cast<uint32_t>(v);
    return a;
}

Arg
Arg::u32(uint32_t v)
{
    Arg a;
    a.kind = Kind::U32;
    a.value = v;
    return a;
}

Arg
Arg::f32(float v)
{
    Arg a;
    a.kind = Kind::F32;
    a.value = std::bit_cast<uint32_t>(v);
    return a;
}

Session::Session(SystemConfig cfg, Mode mode)
    : mode_(mode), sys_(cfg),
      layout_(guestos::defaultLayout(System::kRamBase))
{
    // Null when tracing is disabled; every event site below gates on it.
    trcBuf_ = sys_.gpu().tracer().registerThread("cpu-driver");
    // Guest layout: OS image + mailbox in the first 128 KiB, then the
    // GPU page-table arena, then the general heap.
    heap_ = System::kRamBase + 0x20000;
    gpuVaNext_ = 0x00100000;

    ptRoot_ = allocPhys(4096);
    ptArena_ = allocPhys(256 * 4096);
    ptArenaEnd_ = ptArena_ + 256 * 4096;

    descPa_ = allocPhys(4096);
    argsPa_ = allocPhys(4096);
    descVa_ = mapRange(descPa_, 4096, false);
    argsVa_ = mapRange(argsPa_, 4096, false);

    if (mode_ == Mode::FullSystem)
        bootOs();
}

Addr
Session::allocPhys(size_t bytes, size_t align)
{
    // The heap moves only on success, so a caught failure leaves the
    // session's later allocations where they would have been.
    Addr pa = roundUp(heap_, align);
    if (!sys_.mem().contains(pa, std::max<size_t>(bytes, 1)))
        simError("guest RAM exhausted (%zu bytes requested)", bytes);
    heap_ = pa + roundUp(bytes, 4);
    return pa;
}

void
Session::installMapHost(const MapEntry &e)
{
    // Host-side variant of the guest driver's install_mappings.
    PhysMem &m = sys_.mem();
    uint32_t va = e.va;
    uint32_t pa = e.pa;
    for (uint32_t i = 0; i < e.npages; ++i) {
        uint32_t vpn1 = va >> 22;
        uint32_t vpn0 = (va >> 12) & 0x3ff;
        Addr l1 = ptRoot_ + vpn1 * 4;
        uint32_t pte1 = m.read<uint32_t>(l1);
        Addr l0;
        if (!(pte1 & gpu::kGpuPteValid)) {
            if (ptArena_ >= ptArenaEnd_)
                simError("GPU page-table arena exhausted");
            l0 = ptArena_;
            ptArena_ += 4096;
            pte1 = static_cast<uint32_t>((l0 >> 12) << 10) |
                   gpu::kGpuPteValid;
            m.write<uint32_t>(l1, pte1);
        } else {
            l0 = static_cast<Addr>((pte1 >> 10) & 0xfffff) << 12;
        }
        uint32_t pte0 = static_cast<uint32_t>((pa >> 12) << 10) |
                        gpu::kGpuPteValid |
                        ((e.flags & 1)
                             ? static_cast<uint32_t>(gpu::kGpuPteWrite)
                             : 0u);
        m.write<uint32_t>(l0 + vpn0 * 4, pte0);
        va += 4096;
        pa += 4096;
    }
    mappedPages_ += e.npages;
}

uint32_t
Session::mapRange(Addr pa, size_t bytes, bool writable)
{
    uint32_t npages =
        static_cast<uint32_t>(roundUp(bytes, 4096) / 4096);
    uint32_t va = gpuVaNext_;
    gpuVaNext_ += npages * 4096;

    MapEntry e;
    e.va = va;
    e.pa = static_cast<uint32_t>(pa);
    e.npages = npages;
    e.flags = writable ? 1 : 0;

    if (mode_ == Mode::Direct) {
        installMapHost(e);
    } else {
        pendingMaps_.push_back(e);
    }
    return va;
}

Buffer
Session::alloc(size_t bytes)
{
    if (bytes == 0)
        bytes = 4;
    // Bounded before rounding: roundUp wraps a size near SIZE_MAX to 0.
    if (bytes > sys_.mem().size())
        simError("guest RAM exhausted (%zu bytes requested)", bytes);
    Buffer b;
    b.bytes = bytes;
    b.pa = allocPhys(roundUp(bytes, 4096));
    b.gpuVa = mapRange(b.pa, bytes, true);
    buffers_.push_back(b);
    return b;
}

void
Session::write(const Buffer &b, const void *src, size_t len,
               size_t offset)
{
    if (offset > b.bytes || len > b.bytes - offset)
        simError("buffer write out of range");
    sys_.mem().writeBlock(b.pa + offset, src, len);
}

void
Session::read(const Buffer &b, void *dst, size_t len, size_t offset)
{
    if (offset > b.bytes || len > b.bytes - offset)
        simError("buffer read out of range");
    sys_.mem().readBlock(b.pa + offset, dst, len);
}

KernelHandle
Session::compile(const std::string &source,
                 const std::string &kernel_name,
                 const kclc::CompilerOptions &opts)
{
    return load(kclc::compileKernel(source, kernel_name, opts));
}

KernelHandle
Session::load(const kclc::CompiledKernel &kernel)
{
    KernelHandle h;
    h.info = kernel;
    h.binaryPa = allocPhys(roundUp(kernel.binary.size(), 4096));
    sys_.mem().writeBlock(h.binaryPa, kernel.binary.data(),
                          kernel.binary.size());
    h.binaryVa = mapRange(h.binaryPa, kernel.binary.size(), false);
    kernels_.push_back(h);
    return h;
}

void
Session::bootOs()
{
    sa32::Program os = guestos::buildOs(
        layout_, System::kUartBase, System::kIntcBase, System::kGpuBase,
        System::kGpuIntcLine);
    os.loadInto(sys_.mem());
    sys_.cpu().flushCodeCache();
    sys_.cpu().setPc(layout_.base);

    // Initialise the mailbox.
    PhysMem &m = sys_.mem();
    for (uint32_t off = 0; off < 64; off += 4)
        m.write<uint32_t>(layout_.mailbox + off, 0);

    // Let the OS run its init code up to the first mailbox poll.
    sys_.runCpu(10000);
    osBooted_ = true;
}

void
Session::mailboxCommand(uint32_t cmd, uint32_t desc_va)
{
    PhysMem &m = sys_.mem();
    Addr mb = layout_.mailbox;

    // Describe pending mappings for the guest driver.
    Addr maplist = 0;
    uint32_t count = static_cast<uint32_t>(pendingMaps_.size());
    if (cmd == guestos::kCmdSubmit) {
        maplist = allocPhys(std::max<size_t>(count, 1) * 16);
        Addr p = maplist;
        for (const MapEntry &e : pendingMaps_) {
            m.write<uint32_t>(p + 0, e.va);
            m.write<uint32_t>(p + 4, e.pa);
            m.write<uint32_t>(p + 8, e.npages);
            m.write<uint32_t>(p + 12, e.flags);
            mappedPages_ += e.npages;
            p += 16;
        }
        pendingMaps_.clear();
        m.write<uint32_t>(mb + guestos::kMbMapList,
                          static_cast<uint32_t>(maplist));
        m.write<uint32_t>(mb + guestos::kMbMapCount, count);
        m.write<uint32_t>(mb + guestos::kMbPtRoot,
                          static_cast<uint32_t>(ptRoot_));
        m.write<uint32_t>(mb + guestos::kMbPtBump,
                          static_cast<uint32_t>(ptArena_));
    }
    m.write<uint32_t>(mb + guestos::kMbDescVa, desc_va);
    m.write<uint32_t>(mb + guestos::kMbStatus, 0);
    m.write<uint32_t>(mb + guestos::kMbCmd, cmd);

    // Run the guest driver until it reports completion.  The batch is
    // kept small so driverInstructions() resolves the actual per-command
    // work instead of rounding everything up to one large batch (the
    // driver busy-polls the mailbox once it is done, so the tail of the
    // final batch is attributed to the command that triggered it).
    uint64_t before = sys_.cpu().stats().instret;
    uint64_t cmd_t0 = trcBuf_ ? trace::nowNs() : 0;
    bool woke = false;
    for (int spin = 0; spin < 4'000'000; ++spin) {
        sys_.runCpu(50);
        if (trcBuf_ && !woke &&
            m.read<uint32_t>(mb + guestos::kMbIrqFlag) != 0) {
            // First host observation of the guest driver's wake-up from
            // its WFI loop (the IRQ handler set IRQFLAG).
            woke = true;
            trcBuf_->instant("driver_wake", "driver", "guest_wakes",
                             m.read<uint32_t>(mb + guestos::kMbWakes));
        }
        if (m.read<uint32_t>(mb + guestos::kMbStatus) == 2)
            break;
    }
    if (trcBuf_) {
        trcBuf_->span("driver_cmd", "driver", cmd_t0, "cmd", cmd);
        // CPU-side counter tracks next to the GPU's (same consumer:
        // chrome://tracing counter rows + the text trace summary).
        std::vector<gpu::NamedCounter> counters;
        gpu::appendCounters(counters, sys_.cpu().stats());
        for (const gpu::NamedCounter &c : counters)
            trcBuf_->counter(c.name(), c.value);
    }
    driverInstrs_ += sys_.cpu().stats().instret - before;

    if (m.read<uint32_t>(mb + guestos::kMbStatus) != 2)
        simError("guest driver did not complete the command");
    if (cmd == guestos::kCmdSubmit) {
        // The driver consumed the L0 bump allocator; resync.
        ptArena_ = m.read<uint32_t>(mb + guestos::kMbPtBump);
    }
}

replay::Recorder &
Session::startRecording()
{
    if (recorder_)
        simError("a boundary recording is already in progress");
    replay::RecordInfo info;
    info.cpuDbt = sys_.config().cpuDbt;
    info.fullSystem = mode_ == Mode::FullSystem;
    recorder_ = std::make_unique<replay::Recorder>(sys_.mem(),
                                                   sys_.gpu(), info);
    return *recorder_;
}

std::vector<uint8_t>
Session::stopRecording()
{
    if (!recorder_)
        simError("no boundary recording in progress");
    std::vector<uint8_t> bytes = recorder_->finish();
    recorder_.reset();
    return bytes;
}

void
Session::stopRecordingToFile(const std::string &path)
{
    replay::Log::fromBytes(stopRecording()).save(path);
}

gpu::JobResult
Session::submitDirect(uint32_t desc_va)
{
    Bus &bus = sys_.bus();
    Addr base = System::kGpuBase;

    // Program the address space exactly as the driver would.
    bus.write(base + gpu::kRegAsTranstab, 4,
              static_cast<uint32_t>(ptRoot_));
    bus.write(base + gpu::kRegAsCommand, 4, 1);
    bus.write(base + gpu::kRegIrqMask, 4, 7);
    bus.write(base + gpu::kRegJsSubmit, 4, desc_va);

    sys_.gpu().waitIdle();
    // Direct mode has no guest driver; the host waking from waitIdle
    // plays its role in the lifecycle.
    if (trcBuf_)
        trcBuf_->instant("driver_wake", "driver");

    // Acknowledge the interrupt like the driver's handler.
    uint64_t status = 0;
    bus.read(base + gpu::kRegIrqStatus, 4, status);
    bus.write(base + gpu::kRegIrqClear, 4,
              static_cast<uint32_t>(status));
    uint64_t js = 0;
    bus.read(base + gpu::kRegJsStatus, 4, js);

    return sys_.gpu().lastJob();
}

gpu::JobResult
Session::submitFullSystem(uint32_t desc_va)
{
    mailboxCommand(guestos::kCmdSubmit, desc_va);
    return sys_.gpu().lastJob();
}

gpu::JobResult
Session::enqueue(const KernelHandle &kernel, NDRange global,
                 NDRange local, const std::vector<Arg> &args)
{
    uint64_t t0 = trcBuf_ ? trace::nowNs() : 0;
    PhysMem &m = sys_.mem();

    // Argument table.
    if (args.size() > bif::kMaxArgWords)
        simError("too many kernel arguments");
    for (size_t i = 0; i < bif::kMaxArgWords; ++i) {
        uint32_t v = i < args.size() ? args[i].value : 0;
        m.write<uint32_t>(argsPa_ + i * 4, v);
    }

    // Local-memory arena: the driver allocates one slot per guest
    // shader core (paper §III-B3); the simulator's virtual cores use
    // host-side storage beyond that.
    uint32_t local_bytes = kernel.info.localBytes;
    if (local_bytes > 0) {
        uint32_t need = local_bytes * sys_.gpu().config().numCores;
        if (need > localArenaSize_) {
            localArena_ = alloc(need);
            localArenaSize_ = need;
        }
    }

    // Job descriptor.
    gpu::JobDescriptor d;
    d.jobType = gpu::JobDescriptor::kTypeCompute;
    d.next = 0;
    d.grid[0] = global.x;
    d.grid[1] = global.y;
    d.grid[2] = global.z;
    d.wg[0] = local.x;
    d.wg[1] = local.y;
    d.wg[2] = local.z;
    d.binaryVa = kernel.binaryVa;
    d.argsVa = argsVa_;
    d.localSize = local_bytes;
    d.localBase = localArena_.gpuVa;
    uint8_t raw[gpu::JobDescriptor::kSizeBytes];
    d.writeTo(raw);
    m.writeBlock(descPa_, raw, sizeof(raw));

    lastResult_ = mode_ == Mode::Direct ? submitDirect(descVa_)
                                        : submitFullSystem(descVa_);
    if (trcBuf_)
        trcBuf_->span("enqueue", "driver", t0, "faulted",
                      lastResult_.faulted ? 1 : 0);
    return lastResult_;
}

// ----------------------------------------------------------- Snapshots

namespace snap = snapshot;

void
Session::saveSnapshot(snap::Writer &w)
{
    sys_.gpu().waitIdle();
    sys_.saveSnapshot(w);

    snap::ChunkWriter &c = w.chunk(snap::kTagSession);
    c.u8(mode_ == Mode::FullSystem ? 1 : 0);
    c.u64(heap_);
    c.u32(gpuVaNext_);
    c.u64(ptRoot_);
    c.u64(ptArena_);
    c.u64(ptArenaEnd_);
    c.u64(descPa_);
    c.u32(descVa_);
    c.u64(argsPa_);
    c.u32(argsVa_);
    c.u32(localArena_.gpuVa);
    c.u64(localArena_.pa);
    c.u64(localArena_.bytes);
    c.u32(localArenaSize_);
    c.u64(driverInstrs_);
    c.u64(mappedPages_);
    c.u8(osBooted_ ? 1 : 0);

    c.u32(static_cast<uint32_t>(pendingMaps_.size()));
    for (const MapEntry &e : pendingMaps_) {
        c.u32(e.va);
        c.u32(e.pa);
        c.u32(e.npages);
        c.u32(e.flags);
    }

    gpu::saveJobResult(c, lastResult_);

    // Kernel registry: the encoded BIF image round-trips the module, so
    // a warm boot re-decodes instead of recompiling.
    c.u32(static_cast<uint32_t>(kernels_.size()));
    for (const KernelHandle &h : kernels_) {
        c.str(h.info.name);
        c.u32(static_cast<uint32_t>(h.info.binary.size()));
        c.bytes(h.info.binary.data(), h.info.binary.size());
        c.u32(static_cast<uint32_t>(h.info.args.size()));
        for (const kclc::ArgInfo &a : h.info.args) {
            c.str(a.name);
            c.u8(a.isBuffer ? 1 : 0);
        }
        c.u32(h.info.regCount);
        c.u32(h.info.localBytes);
        c.u32(h.info.spills);
        c.u32(h.binaryVa);
        c.u64(h.binaryPa);
    }

    c.u32(static_cast<uint32_t>(buffers_.size()));
    for (const Buffer &b : buffers_) {
        c.u32(b.gpuVa);
        c.u64(b.pa);
        c.u64(b.bytes);
    }
}

void
Session::saveSnapshot(const std::string &path)
{
    snap::Writer w;
    saveSnapshot(w);
    snap::writeFileAtomic(path, w.finish());
}

Session::Session(const snap::Image &image, SystemConfig cfg)
    : mode_(Mode::Direct), sys_(cfg),
      layout_(guestos::defaultLayout(System::kRamBase)), heap_(0),
      gpuVaNext_(0)
{
    trcBuf_ = sys_.gpu().tracer().registerThread("cpu-driver");
    restoreFrom(image);
}

void
Session::restoreFrom(const snap::Image &image)
{
    // Parse the whole SESS chunk into locals before the machine restore
    // so a malformed session chunk cannot leave a half-built Session
    // wrapped around a restored System.
    snap::ChunkReader c = image.chunk(snap::kTagSession);
    uint8_t mode_raw = c.u8();
    if (mode_raw > 1)
        c.fail(strfmt("invalid session mode %u", mode_raw));
    uint64_t heap = c.u64();
    uint32_t gpu_va_next = c.u32();
    uint64_t pt_root = c.u64();
    uint64_t pt_arena = c.u64();
    uint64_t pt_arena_end = c.u64();
    uint64_t desc_pa = c.u64();
    uint32_t desc_va = c.u32();
    uint64_t args_pa = c.u64();
    uint32_t args_va = c.u32();
    Buffer local_arena;
    local_arena.gpuVa = c.u32();
    local_arena.pa = c.u64();
    local_arena.bytes = c.u64();
    uint32_t local_arena_size = c.u32();
    uint64_t driver_instrs = c.u64();
    uint64_t mapped_pages = c.u64();
    bool os_booted = c.u8() != 0;

    uint32_t n_maps = c.u32();
    if (static_cast<uint64_t>(n_maps) * 16 > c.remaining())
        c.fail(strfmt("pending-map count %u exceeds chunk size", n_maps));
    std::vector<MapEntry> maps;
    maps.reserve(n_maps);
    for (uint32_t i = 0; i < n_maps; ++i) {
        MapEntry e;
        e.va = c.u32();
        e.pa = c.u32();
        e.npages = c.u32();
        e.flags = c.u32();
        maps.push_back(e);
    }

    gpu::JobResult last_result;
    gpu::restoreJobResult(c, last_result);

    uint32_t n_kernels = c.u32();
    std::vector<KernelHandle> kernels;
    kernels.reserve(std::min<uint32_t>(n_kernels, 1024));
    for (uint32_t i = 0; i < n_kernels; ++i) {
        KernelHandle h;
        h.info.name = c.str();
        uint32_t bin_len = c.u32();
        if (bin_len > c.remaining())
            c.fail(strfmt("kernel %u binary length %u exceeds chunk "
                          "size",
                          i, bin_len));
        const uint8_t *bin = c.raw(bin_len);
        h.info.binary.assign(bin, bin + bin_len);
        uint32_t n_args = c.u32();
        if (static_cast<uint64_t>(n_args) * 5 > c.remaining())
            c.fail(strfmt("kernel %u arg count %u exceeds chunk size",
                          i, n_args));
        h.info.args.resize(n_args);
        for (kclc::ArgInfo &a : h.info.args) {
            a.name = c.str();
            a.isBuffer = c.u8() != 0;
        }
        h.info.regCount = c.u32();
        h.info.localBytes = c.u32();
        h.info.spills = c.u32();
        h.binaryVa = c.u32();
        h.binaryPa = c.u64();
        std::string err;
        if (!bif::decode(h.info.binary.data(), h.info.binary.size(),
                         h.info.mod, err))
            c.fail(strfmt("kernel %u ('%s') binary does not decode: %s",
                          i, h.info.name.c_str(), err.c_str()));
        kernels.push_back(std::move(h));
    }

    uint32_t n_buffers = c.u32();
    if (static_cast<uint64_t>(n_buffers) * 20 > c.remaining())
        c.fail(strfmt("buffer count %u exceeds chunk size", n_buffers));
    std::vector<Buffer> buffers;
    buffers.reserve(n_buffers);
    for (uint32_t i = 0; i < n_buffers; ++i) {
        Buffer b;
        b.gpuVa = c.u32();
        b.pa = c.u64();
        b.bytes = c.u64();
        buffers.push_back(b);
    }
    c.expectEnd();

    // Machine restore (validates its own chunks; resets on failure).
    sys_.restoreSnapshot(image);

    // Commit the session layer.
    mode_ = mode_raw ? Mode::FullSystem : Mode::Direct;
    heap_ = heap;
    gpuVaNext_ = gpu_va_next;
    ptRoot_ = pt_root;
    ptArena_ = pt_arena;
    ptArenaEnd_ = pt_arena_end;
    descPa_ = desc_pa;
    descVa_ = desc_va;
    argsPa_ = args_pa;
    argsVa_ = args_va;
    localArena_ = local_arena;
    localArenaSize_ = local_arena_size;
    driverInstrs_ = driver_instrs;
    mappedPages_ = mapped_pages;
    osBooted_ = os_booted;
    pendingMaps_ = std::move(maps);
    lastResult_ = std::move(last_result);
    kernels_ = std::move(kernels);
    buffers_ = std::move(buffers);
}

void
Session::resetFromSnapshot(const snap::Image &image)
{
    if (recorder_)
        simError("cannot recycle a session while a boundary recording "
                 "is in progress");
    sys_.gpu().waitIdle();
    restoreFrom(image);
}

std::unique_ptr<Session>
Session::fromSnapshot(const snap::Image &image, SystemConfig base)
{
    // RAM geometry and guest-visible core count must match the image;
    // take them from it so the caller only chooses host-side knobs.
    // Both values size host allocations, so a hostile (well-formed)
    // image must not be able to demand absurd amounts before the
    // restore proper even starts.
    snap::ChunkReader conf = image.chunk(snap::kTagConfig);
    uint64_t ram_bytes = conf.u64();
    uint32_t num_cores = conf.u32();
    constexpr uint64_t kMaxRam = 1ull << 31;   // 32-bit CPU, RAM at 2G.
    if (ram_bytes == 0 || ram_bytes > kMaxRam ||
        ram_bytes % PhysMem::kPageBytes != 0)
        conf.fail(strfmt("implausible RAM size %llu",
                         static_cast<unsigned long long>(ram_bytes)));
    if (num_cores == 0 || num_cores > 1024)
        conf.fail(strfmt("implausible shader-core count %u", num_cores));
    base.ramBytes = static_cast<size_t>(ram_bytes);
    base.gpu.numCores = num_cores;
    return std::unique_ptr<Session>(new Session(image, base));
}

std::unique_ptr<Session>
Session::fromSnapshot(const std::string &path, SystemConfig base)
{
    return fromSnapshot(snap::Image::load(path), base);
}

bool
Session::runUserProgram(Addr entry_va, uint32_t satp, uint64_t max_insts)
{
    if (!osBooted_)
        bootOs();
    PhysMem &m = sys_.mem();
    Addr mb = layout_.mailbox;
    m.write<uint32_t>(mb + guestos::kMbDescVa,
                      static_cast<uint32_t>(entry_va));
    m.write<uint32_t>(mb + guestos::kMbMapList, satp);
    m.write<uint32_t>(mb + guestos::kMbStatus, 0);
    m.write<uint32_t>(mb + guestos::kMbCmd, guestos::kCmdEnterUser);
    return sys_.runUntilHalt(max_insts);
}

} // namespace bifsim::rt

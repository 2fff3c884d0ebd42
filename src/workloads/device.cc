#include "workloads/device.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bits.h"
#include "common/logging.h"

namespace bifsim::workloads {

WArg
WArg::f32(float v)
{
    return {Kind::F32, std::bit_cast<uint32_t>(v)};
}

// -------------------------------------------------------- SessionDevice

void
SessionDevice::build(const std::string &source,
                     const kclc::CompilerOptions &opts)
{
    for (kclc::CompiledKernel &k : kclc::compileAll(source, opts)) {
        std::string name = k.name;
        kernels_[name] = session_.load(k);
    }
}

BufHandle
SessionDevice::alloc(size_t bytes)
{
    rt::Buffer b = session_.alloc(bytes);
    buffers_[b.gpuVa] = b;
    return b.gpuVa;
}

void
SessionDevice::write(BufHandle h, const void *src, size_t len,
                     size_t offset)
{
    session_.write(buffers_.at(h), src, len, offset);
}

void
SessionDevice::read(BufHandle h, void *dst, size_t len, size_t offset)
{
    session_.read(buffers_.at(h), dst, len, offset);
}

bool
SessionDevice::launch(const std::string &kernel, Dim3 global, Dim3 local,
                      const std::vector<WArg> &args, std::string &error)
{
    auto it = kernels_.find(kernel);
    if (it == kernels_.end()) {
        error = "kernel not built: " + kernel;
        return false;
    }
    std::vector<rt::Arg> rargs;
    rargs.reserve(args.size());
    for (const WArg &a : args) {
        rt::Arg r;
        r.kind = a.kind == WArg::Kind::Buf ? rt::Arg::Kind::Buf
               : a.kind == WArg::Kind::F32 ? rt::Arg::Kind::F32
               : a.kind == WArg::Kind::U32 ? rt::Arg::Kind::U32
                                           : rt::Arg::Kind::I32;
        r.value = a.value;
        rargs.push_back(r);
    }
    launches_++;
    gpu::JobResult res = session_.enqueue(
        it->second, rt::NDRange{global.x, global.y, global.z},
        rt::NDRange{local.x, local.y, local.z}, rargs);
    if (res.faulted) {
        error = strfmt("GPU fault (%s, va=0x%x)", res.fault.detail.c_str(),
                       res.fault.va);
        return false;
    }
    return true;
}

// ------------------------------------------------------------ M2sDevice

void
M2sDevice::build(const std::string &source,
                 const kclc::CompilerOptions &opts)
{
    for (kclc::CompiledKernel &k : kclc::compileAll(source, opts))
        binaries_[k.name] = k.binary;
}

BufHandle
M2sDevice::alloc(size_t bytes)
{
    heap_ = static_cast<uint32_t>(roundUp(heap_, 4096));
    uint32_t off = heap_;
    heap_ += static_cast<uint32_t>(roundUp(std::max<size_t>(bytes, 4), 4));
    if (heap_ > mem_.size())
        simError("m2s device memory exhausted");
    return off;
}

void
M2sDevice::write(BufHandle h, const void *src, size_t len, size_t offset)
{
    std::memcpy(mem_.data() + h + offset, src, len);
}

void
M2sDevice::read(BufHandle h, void *dst, size_t len, size_t offset)
{
    std::memcpy(dst, mem_.data() + h + offset, len);
}

bool
M2sDevice::launch(const std::string &kernel, Dim3 global, Dim3 local,
                  const std::vector<WArg> &args, std::string &error)
{
    auto it = binaries_.find(kernel);
    if (it == binaries_.end()) {
        error = "kernel not built: " + kernel;
        return false;
    }
    std::vector<uint32_t> raw;
    raw.reserve(args.size());
    for (const WArg &a : args)
        raw.push_back(a.value);
    uint32_t grid[3] = {global.x, global.y, global.z};
    uint32_t wg[3] = {local.x, local.y, local.z};
    launches_++;
    return gpu::ref::launch<gpu::ref::Fetch::Redecode>(
        it->second, grid, wg, raw, mem_, stats_, error);
}

} // namespace bifsim::workloads

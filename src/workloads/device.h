#ifndef BIFSIM_WORKLOADS_DEVICE_H
#define BIFSIM_WORKLOADS_DEVICE_H

/**
 * @file
 * A small device abstraction so every benchmark workload can run
 * unmodified on either the full simulator (rt::Session, in direct or
 * full-system mode) or on the Multi2Sim-style baseline (the reference
 * interpreter in gpu/ref) for the Fig. 8 comparison.
 */

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gpu/ref/ref_interp.h"
#include "kclc/compiler.h"
#include "runtime/session.h"

namespace bifsim::workloads {

/** A device buffer handle (GPU VA on the simulator, offset on m2s). */
using BufHandle = uint32_t;

/** A kernel launch argument. */
struct WArg
{
    enum class Kind : uint8_t { Buf, I32, U32, F32 };

    Kind kind;
    uint32_t value;

    static WArg
    buf(BufHandle h)
    {
        return {Kind::Buf, h};
    }

    static WArg
    i32(int32_t v)
    {
        return {Kind::I32, static_cast<uint32_t>(v)};
    }

    static WArg
    u32(uint32_t v)
    {
        return {Kind::U32, v};
    }

    static WArg f32(float v);
};

/** Launch dimensions. */
struct Dim3
{
    uint32_t x = 1, y = 1, z = 1;
};

/** The device interface workloads program against. */
class Device
{
  public:
    virtual ~Device() = default;

    /** Compiles all kernels in @p source with @p opts. */
    virtual void build(const std::string &source,
                       const kclc::CompilerOptions &opts) = 0;

    virtual BufHandle alloc(size_t bytes) = 0;
    virtual void write(BufHandle b, const void *src, size_t len,
                       size_t offset = 0) = 0;
    virtual void read(BufHandle b, void *dst, size_t len,
                      size_t offset = 0) = 0;

    /**
     * Launches a built kernel and waits for completion.
     * @return false on any fault (message in @p error).
     */
    virtual bool launch(const std::string &kernel, Dim3 global,
                        Dim3 local, const std::vector<WArg> &args,
                        std::string &error) = 0;

    /** Number of launches so far. */
    uint64_t launches() const { return launches_; }

  protected:
    uint64_t launches_ = 0;
};

/** Device backed by the full simulator. */
class SessionDevice : public Device
{
  public:
    explicit SessionDevice(rt::Session &session) : session_(session) {}

    void build(const std::string &source,
               const kclc::CompilerOptions &opts) override;
    BufHandle alloc(size_t bytes) override;
    void write(BufHandle b, const void *src, size_t len,
               size_t offset) override;
    void read(BufHandle b, void *dst, size_t len, size_t offset) override;
    bool launch(const std::string &kernel, Dim3 global, Dim3 local,
                const std::vector<WArg> &args,
                std::string &error) override;

    rt::Session &session() { return session_; }

  private:
    rt::Session &session_;
    std::map<std::string, rt::KernelHandle> kernels_;
    std::map<BufHandle, rt::Buffer> buffers_;
};

/**
 * Device backed by the Multi2Sim-style baseline, which reproduces the
 * shortcuts the paper criticises in Multi2Sim-class simulators:
 *  - GPU-only: no job manager, GPU MMU or interrupts; kernels run
 *    through an intercepted runtime call, not a driver;
 *  - flat memory: buffers are offsets into one host array, handed out
 *    by a bump allocator;
 *  - per-instruction re-decode, one work-item at a time
 *    (gpu::ref::launch with Fetch::Redecode);
 *  - only an instruction breakdown and the job dimensions as output.
 */
class M2sDevice : public Device
{
  public:
    explicit M2sDevice(size_t mem_bytes = 64u << 20) : mem_(mem_bytes) {}

    void build(const std::string &source,
               const kclc::CompilerOptions &opts) override;
    BufHandle alloc(size_t bytes) override;
    void write(BufHandle b, const void *src, size_t len,
               size_t offset) override;
    void read(BufHandle b, void *dst, size_t len, size_t offset) override;
    bool launch(const std::string &kernel, Dim3 global, Dim3 local,
                const std::vector<WArg> &args,
                std::string &error) override;

    /** Cumulative counts over every launch. */
    const gpu::ref::LaunchStats &stats() const { return stats_; }

  private:
    std::vector<uint8_t> mem_;
    uint32_t heap_ = 4096;
    gpu::ref::LaunchStats stats_;
    std::map<std::string, std::vector<uint8_t>> binaries_;
};

} // namespace bifsim::workloads

#endif // BIFSIM_WORKLOADS_DEVICE_H

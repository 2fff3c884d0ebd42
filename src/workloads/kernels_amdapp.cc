/**
 * @file
 * Table II workloads from the AMD APP SDK 2.5 suite: BinarySearch,
 * BinomialOption, BitonicSort, DCT, DwtHaar1D, FloydWarshall,
 * MatrixTranspose, RecursiveGaussian, Reduction, ScanLargeArrays,
 * SobelFilter, URNG.
 *
 * Each workload generates deterministic inputs, runs its kernels on a
 * Device (simulator or baseline), and verifies against a host
 * reference.  Sizes follow Table II, scaled by the `scale` parameter.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "common/logging.h"
#include "workloads/factories.h"
#include "workloads/workload.h"

namespace bifsim::workloads {

namespace {

uint32_t
scaled(uint32_t paper, double scale, uint32_t floor_val,
       uint32_t multiple)
{
    auto v = static_cast<uint32_t>(paper * scale);
    v = std::max(v, floor_val);
    v = (v / multiple) * multiple;
    return std::max(v, multiple);
}

uint32_t
scaledSide(uint32_t paper, double scale, uint32_t floor_val,
           uint32_t multiple)
{
    return scaled(paper, std::sqrt(scale), floor_val, multiple);
}

} // namespace

// ========================================================= BinarySearch

/** AMD APP BinarySearch: iterative sub-division search with a short
 *  kernel per step and heavy host interaction (see Fig. 10's worst
 *  case). */
class BinarySearch final : public Workload
{
  public:
    explicit BinarySearch(double scale)
    {
        n_ = scaled(16777216, scale, 4096, 256);
        Rng rng(7);
        data_.resize(n_);
        uint32_t v = 0;
        for (uint32_t i = 0; i < n_; ++i) {
            v += rng.nextBelow(5) + 1;
            data_[i] = static_cast<int32_t>(v);
        }
        key_ = data_[static_cast<size_t>(n_ * 0.7351)];
    }

    std::string name() const override { return "binarysearch"; }

    std::string
    source() const override
    {
        return R"(
kernel void bsearch_seg(global const int* data, global int* result,
                        int lo, int seg, int key, int nseg) {
    int t = get_global_id(0);
    if (t < nseg) {
        int a = data[lo + t * seg];
        int b = data[lo + (t + 1) * seg - 1];
        if (key >= a && key <= b) {
            result[0] = t;
        }
    }
}
)";
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        constexpr uint32_t kThreads = 256;
        BufHandle ddata = dev.alloc(n_ * 4);
        BufHandle dres = dev.alloc(4);
        dev.write(ddata, data_.data(), n_ * 4);

        uint32_t lo = 0, len = n_;
        while (len > 1) {
            uint32_t seg = std::max(1u, len / kThreads);
            uint32_t nseg = len / seg;
            int32_t minus1 = -1;
            dev.write(dres, &minus1, 4);
            std::string err;
            if (!dev.launch("bsearch_seg", Dim3{kThreads, 1, 1},
                            Dim3{64, 1, 1},
                            {WArg::buf(ddata), WArg::buf(dres),
                             WArg::i32(lo), WArg::i32(seg),
                             WArg::i32(key_), WArg::i32(nseg)},
                            err)) {
                rr.error = err;
                return rr;
            }
            int32_t found = -1;
            dev.read(dres, &found, 4);
            if (found < 0) {
                rr.error = "key not found in any segment";
                return rr;
            }
            lo += static_cast<uint32_t>(found) * seg;
            len = seg;
        }
        rr.launches = dev.launches();

        auto it = std::lower_bound(data_.begin(), data_.end(), key_);
        uint32_t expect = static_cast<uint32_t>(it - data_.begin());
        // The kernel reports a segment whose bounds include the key;
        // with duplicates any matching index is acceptable.
        if (lo >= n_ || data_[lo] != key_) {
            (void)expect;
            rr.error = strfmt("found index %u does not hold the key", lo);
            return rr;
        }
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        auto it = std::lower_bound(data_.begin(), data_.end(), key_);
        return static_cast<double>(it - data_.begin());
    }

  private:
    uint32_t n_;
    int32_t key_;
    std::vector<int32_t> data_;
};

// ======================================================= BinomialOption

/** AMD APP BinomialOption: one workgroup per option, barrier-heavy
 *  lattice walk in local memory. */
class BinomialOption final : public Workload
{
  public:
    explicit BinomialOption(double scale)
    {
        samples_ = scaled(512, scale, 16, 4);
        steps_ = 63;   // workgroup = steps + 1 threads
        Rng rng(11);
        rand_.resize(samples_);
        for (uint32_t i = 0; i < samples_; ++i)
            rand_[i] = 0.1f + 0.8f * rng.nextFloat();
    }

    std::string name() const override { return "binomialoption"; }

    std::string
    source() const override
    {
        return R"(
kernel void binomial_option(global const float* randArr,
                            global float* output, int steps) {
    local float callA[128];
    local float callB[128];
    int tid = get_local_id(0);
    int bid = get_group_id(0);
    float inRand = randArr[bid];
    float s = (1.0f - inRand) * 5.0f + inRand * 30.0f;
    float x = (1.0f - inRand) * 1.0f + inRand * 100.0f;
    float optionYears = (1.0f - inRand) * 0.25f + inRand * 10.0f;
    float dt = optionYears * (1.0f / (float)steps);
    float vsdt = 0.3f * sqrt(dt);
    float rdt = 0.02f * dt;
    float r = exp(rdt);
    float rInv = 1.0f / r;
    float u = exp(vsdt);
    float d = 1.0f / u;
    float pu = (r - d) / (u - d);
    float pd = 1.0f - pu;
    float puByr = pu * rInv;
    float pdByr = pd * rInv;
    float profit = s * exp(vsdt * (float)(2 * tid - steps)) - x;
    callA[tid] = fmax(profit, 0.0f);
    barrier();
    for (int j = steps; j > 0; j -= 1) {
        if (tid < j) {
            callB[tid] = puByr * callA[tid + 1] + pdByr * callA[tid];
        }
        barrier();
        if (tid < j) {
            callA[tid] = callB[tid];
        }
        barrier();
    }
    if (tid == 0) {
        output[bid] = callA[0];
    }
}
)";
    }

    std::vector<float>
    reference() const
    {
        std::vector<float> out(samples_);
        std::vector<float> callA(steps_ + 1), callB(steps_ + 1);
        for (uint32_t b = 0; b < samples_; ++b) {
            float in_rand = rand_[b];
            float s = (1.0f - in_rand) * 5.0f + in_rand * 30.0f;
            float x = (1.0f - in_rand) * 1.0f + in_rand * 100.0f;
            float years = (1.0f - in_rand) * 0.25f + in_rand * 10.0f;
            float dt = years * (1.0f / static_cast<float>(steps_));
            float vsdt = 0.3f * std::sqrt(dt);
            float rdt = 0.02f * dt;
            float r = std::exp(rdt);
            float r_inv = 1.0f / r;
            float u = std::exp(vsdt);
            float d = 1.0f / u;
            float pu = (r - d) / (u - d);
            float pd = 1.0f - pu;
            float pu_byr = pu * r_inv;
            float pd_byr = pd * r_inv;
            for (uint32_t t = 0; t <= steps_; ++t) {
                float profit =
                    s * std::exp(vsdt * (2.0f * static_cast<float>(t) -
                                         static_cast<float>(steps_))) -
                    x;
                callA[t] = std::max(profit, 0.0f);
            }
            for (int j = static_cast<int>(steps_); j > 0; --j) {
                for (int t = 0; t < j; ++t)
                    callB[t] = pu_byr * callA[t + 1] + pd_byr * callA[t];
                for (int t = 0; t < j; ++t)
                    callA[t] = callB[t];
            }
            out[b] = callA[0];
        }
        return out;
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        BufHandle drand = dev.alloc(samples_ * 4);
        BufHandle dout = dev.alloc(samples_ * 4);
        dev.write(drand, rand_.data(), samples_ * 4);
        std::string err;
        uint32_t wg = steps_ + 1;
        if (!dev.launch("binomial_option", Dim3{samples_ * wg, 1, 1},
                        Dim3{wg, 1, 1},
                        {WArg::buf(drand), WArg::buf(dout),
                         WArg::i32(static_cast<int32_t>(steps_))},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(samples_);
        dev.read(dout, got.data(), samples_ * 4);
        std::vector<float> want = reference();
        for (uint32_t i = 0; i < samples_; ++i) {
            if (!closeEnough(got[i], want[i], 5e-3f)) {
                rr.error = strfmt("sample %u: got %f want %f", i, got[i],
                                  want[i]);
                return rr;
            }
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        std::vector<float> out = reference();
        double sum = 0;
        for (float v : out)
            sum += v;
        return sum;
    }

  private:
    uint32_t samples_;
    uint32_t steps_;
    std::vector<float> rand_;
};

// ========================================================== BitonicSort

/** AMD APP BitonicSort: log^2(n) short passes driven by the host. */
class BitonicSort final : public Workload
{
  public:
    explicit BitonicSort(double scale)
    {
        uint32_t n = scaled(2048, std::max(scale, 0.5), 512, 2);
        // Round up to a power of two.
        n_ = 1;
        while (n_ < n)
            n_ <<= 1;
        Rng rng(3);
        data_.resize(n_);
        for (uint32_t i = 0; i < n_; ++i)
            data_[i] = rng.next();
    }

    std::string name() const override { return "bitonicsort"; }

    std::string
    source() const override
    {
        return R"(
kernel void bitonic_sort(global uint* data, int stage, int passOfStage,
                         int direction) {
    int t = get_global_id(0);
    int pairDistance = 1 << (stage - passOfStage);
    int blockWidth = 2 * pairDistance;
    int leftId = (t % pairDistance) + (t / pairDistance) * blockWidth;
    int rightId = leftId + pairDistance;
    uint leftElement = data[leftId];
    uint rightElement = data[rightId];
    int sameDirectionBlockWidth = 1 << stage;
    int dirMod = (t / sameDirectionBlockWidth) % 2;
    int sortIncreasing = dirMod == 1 ? 1 - direction : direction;
    uint greater = leftElement > rightElement ? leftElement
                                              : rightElement;
    uint lesser = leftElement > rightElement ? rightElement
                                             : leftElement;
    if (sortIncreasing != 0) {
        data[leftId] = lesser;
        data[rightId] = greater;
    } else {
        data[leftId] = greater;
        data[rightId] = lesser;
    }
}
)";
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        BufHandle dbuf = dev.alloc(n_ * 4);
        dev.write(dbuf, data_.data(), n_ * 4);

        uint32_t stages = 0;
        for (uint32_t t = n_; t > 1; t >>= 1)
            stages++;
        uint32_t threads = n_ / 2;
        for (uint32_t stage = 0; stage < stages; ++stage) {
            for (uint32_t pass = 0; pass <= stage; ++pass) {
                std::string err;
                if (!dev.launch(
                        "bitonic_sort", Dim3{threads, 1, 1},
                        Dim3{std::min(threads, 64u), 1, 1},
                        {WArg::buf(dbuf),
                         WArg::i32(static_cast<int32_t>(stage)),
                         WArg::i32(static_cast<int32_t>(pass)),
                         WArg::i32(1)},
                        err)) {
                    rr.error = err;
                    return rr;
                }
            }
        }
        std::vector<uint32_t> got(n_);
        dev.read(dbuf, got.data(), n_ * 4);
        std::vector<uint32_t> want = data_;
        std::sort(want.begin(), want.end());
        if (got != want) {
            rr.error = "output not sorted";
            return rr;
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        std::vector<uint32_t> v = data_;
        std::sort(v.begin(), v.end());
        return static_cast<double>(v[v.size() / 2]);
    }

  private:
    uint32_t n_;
    std::vector<uint32_t> data_;
};

// ================================================================== DCT

/** AMD APP DCT: 8x8 block discrete cosine transform. */
class Dct final : public Workload
{
  public:
    explicit Dct(double scale)
    {
        w_ = scaledSide(4096, scale, 64, 8);
        h_ = scaledSide(2048, scale, 64, 8);
        Rng rng(17);
        in_.resize(static_cast<size_t>(w_) * h_);
        for (float &v : in_)
            v = rng.nextFloat() * 255.0f;
        for (int v = 0; v < 8; ++v) {
            for (int i = 0; i < 8; ++i) {
                float a = v == 0 ? std::sqrt(1.0f / 8.0f)
                                 : std::sqrt(2.0f / 8.0f);
                dct8_[v * 8 + i] =
                    a * std::cos((2 * i + 1) * v * 3.14159265f / 16.0f);
            }
        }
    }

    std::string name() const override { return "dct"; }

    std::string
    source() const override
    {
        return R"(
kernel void dct8x8(global const float* input, global float* output,
                   global const float* dct8, int width) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int bx = (x / 8) * 8;
    int by = (y / 8) * 8;
    int u = x % 8;
    int v = y % 8;
    float acc = 0.0f;
    for (int i = 0; i < 8; i += 1) {
        float t = 0.0f;
        for (int j = 0; j < 8; j += 1) {
            t += input[(by + i) * width + bx + j] * dct8[u * 8 + j];
        }
        acc += dct8[v * 8 + i] * t;
    }
    output[y * width + x] = acc;
}
)";
    }

    std::vector<float>
    reference() const
    {
        std::vector<float> out(in_.size());
        for (uint32_t y = 0; y < h_; ++y) {
            for (uint32_t x = 0; x < w_; ++x) {
                uint32_t bx = (x / 8) * 8, by = (y / 8) * 8;
                uint32_t u = x % 8, v = y % 8;
                float acc = 0;
                for (int i = 0; i < 8; ++i) {
                    float t = 0;
                    for (int j = 0; j < 8; ++j) {
                        t += in_[(by + i) * w_ + bx + j] *
                             dct8_[u * 8 + j];
                    }
                    acc += dct8_[v * 8 + i] * t;
                }
                out[y * w_ + x] = acc;
            }
        }
        return out;
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        size_t bytes = in_.size() * 4;
        BufHandle din = dev.alloc(bytes);
        BufHandle dout = dev.alloc(bytes);
        BufHandle dtab = dev.alloc(sizeof(dct8_));
        dev.write(din, in_.data(), bytes);
        dev.write(dtab, dct8_, sizeof(dct8_));
        std::string err;
        if (!dev.launch("dct8x8", Dim3{w_, h_, 1}, Dim3{8, 8, 1},
                        {WArg::buf(din), WArg::buf(dout), WArg::buf(dtab),
                         WArg::i32(static_cast<int32_t>(w_))},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(in_.size());
        dev.read(dout, got.data(), bytes);
        std::vector<float> want = reference();
        for (size_t i = 0; i < got.size(); ++i) {
            if (!closeEnough(got[i], want[i], 1e-3f)) {
                rr.error = strfmt("pixel %zu: got %f want %f", i, got[i],
                                  want[i]);
                return rr;
            }
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        std::vector<float> out = reference();
        double s = 0;
        for (float v : out)
            s += v;
        return s;
    }

  private:
    uint32_t w_, h_;
    std::vector<float> in_;
    float dct8_[64];
};

// ============================================================ DwtHaar1D

/** AMD APP DwtHaar1D: per-group Haar wavelet with barriers. */
class DwtHaar1D final : public Workload
{
  public:
    explicit DwtHaar1D(double scale)
    {
        groupSize_ = 64;                      // threads per group
        uint32_t signal = scaled(8388608, scale, 8192, groupSize_ * 2);
        groups_ = signal / (groupSize_ * 2);
        n_ = groups_ * groupSize_ * 2;
        Rng rng(23);
        in_.resize(n_);
        for (float &v : in_)
            v = rng.nextFloat() * 2.0f - 1.0f;
    }

    std::string name() const override { return "dwthaar1d"; }

    std::string
    source() const override
    {
        return R"(
kernel void dwt_haar1d(global const float* in, global float* out,
                       int groupSize) {
    local float t0[128];
    local float t1[128];
    int lid = get_local_id(0);
    int gid = get_group_id(0);
    int base = gid * groupSize * 2;
    float invsq = 0.70710678f;
    t0[2 * lid] = in[base + 2 * lid];
    t0[2 * lid + 1] = in[base + 2 * lid + 1];
    barrier();
    int len = groupSize;
    while (len > 0) {
        if (lid < len) {
            float a = t0[2 * lid];
            float b = t0[2 * lid + 1];
            out[base + len + lid] = (a - b) * invsq;
            t1[lid] = (a + b) * invsq;
        }
        barrier();
        if (lid < len) {
            t0[lid] = t1[lid];
        }
        barrier();
        len = len / 2;
    }
    if (lid == 0) {
        out[base] = t0[0];
    }
}
)";
    }

    std::vector<float>
    reference() const
    {
        std::vector<float> out(n_);
        const float invsq = 0.70710678f;
        std::vector<float> t0(groupSize_ * 2), t1(groupSize_);
        for (uint32_t g = 0; g < groups_; ++g) {
            uint32_t base = g * groupSize_ * 2;
            for (uint32_t i = 0; i < groupSize_ * 2; ++i)
                t0[i] = in_[base + i];
            uint32_t len = groupSize_;
            while (len > 0) {
                for (uint32_t i = 0; i < len; ++i) {
                    float a = t0[2 * i], b = t0[2 * i + 1];
                    out[base + len + i] = (a - b) * invsq;
                    t1[i] = (a + b) * invsq;
                }
                for (uint32_t i = 0; i < len; ++i)
                    t0[i] = t1[i];
                len /= 2;
            }
            out[base] = t0[0];
        }
        return out;
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        BufHandle din = dev.alloc(n_ * 4);
        BufHandle dout = dev.alloc(n_ * 4);
        dev.write(din, in_.data(), n_ * 4);
        std::string err;
        if (!dev.launch("dwt_haar1d", Dim3{groups_ * groupSize_, 1, 1},
                        Dim3{groupSize_, 1, 1},
                        {WArg::buf(din), WArg::buf(dout),
                         WArg::i32(static_cast<int32_t>(groupSize_))},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(n_);
        dev.read(dout, got.data(), n_ * 4);
        std::vector<float> want = reference();
        for (size_t i = 0; i < got.size(); ++i) {
            if (!closeEnough(got[i], want[i], 1e-3f)) {
                rr.error = strfmt("coef %zu: got %f want %f", i, got[i],
                                  want[i]);
                return rr;
            }
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        std::vector<float> out = reference();
        double s = 0;
        for (float v : out)
            s += v;
        return s;
    }

  private:
    uint32_t groupSize_, groups_, n_;
    std::vector<float> in_;
};

// ======================================================== FloydWarshall

/** AMD APP FloydWarshall: n kernel launches, one per pivot. */
class FloydWarshall final : public Workload
{
  public:
    explicit FloydWarshall(double scale)
    {
        n_ = scaledSide(256, std::max(scale, 0.25), 64, 16);
        Rng rng(29);
        dist_.assign(static_cast<size_t>(n_) * n_, 0);
        for (uint32_t i = 0; i < n_; ++i) {
            for (uint32_t j = 0; j < n_; ++j) {
                if (i == j)
                    dist_[i * n_ + j] = 0;
                else if (rng.nextBelow(100) < 12)
                    dist_[i * n_ + j] =
                        static_cast<int32_t>(rng.nextBelow(100) + 1);
                else
                    dist_[i * n_ + j] = kInf;
            }
        }
    }

    std::string name() const override { return "floydwarshall"; }

    std::string
    source() const override
    {
        return R"(
kernel void floyd_warshall(global int* dist, int n, int k) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int ik = dist[y * n + k];
    int kj = dist[k * n + x];
    int cur = dist[y * n + x];
    int cand = ik + kj;
    if (cand < cur) {
        dist[y * n + x] = cand;
    }
}
)";
    }

    std::vector<int32_t>
    reference() const
    {
        std::vector<int32_t> d = dist_;
        for (uint32_t k = 0; k < n_; ++k) {
            for (uint32_t i = 0; i < n_; ++i) {
                for (uint32_t j = 0; j < n_; ++j) {
                    int32_t c = d[i * n_ + k] + d[k * n_ + j];
                    if (c < d[i * n_ + j])
                        d[i * n_ + j] = c;
                }
            }
        }
        return d;
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        size_t bytes = dist_.size() * 4;
        BufHandle dmat = dev.alloc(bytes);
        dev.write(dmat, dist_.data(), bytes);
        for (uint32_t k = 0; k < n_; ++k) {
            std::string err;
            if (!dev.launch("floyd_warshall", Dim3{n_, n_, 1},
                            Dim3{16, 16, 1},
                            {WArg::buf(dmat),
                             WArg::i32(static_cast<int32_t>(n_)),
                             WArg::i32(static_cast<int32_t>(k))},
                            err)) {
                rr.error = err;
                return rr;
            }
        }
        std::vector<int32_t> got(dist_.size());
        dev.read(dmat, got.data(), bytes);
        if (got != reference()) {
            rr.error = "distance matrix mismatch";
            return rr;
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        std::vector<int32_t> d = reference();
        double s = 0;
        for (int32_t v : d)
            s += v == kInf ? 0 : v;
        return s;
    }

  private:
    static constexpr int32_t kInf = 1 << 28;
    uint32_t n_;
    std::vector<int32_t> dist_;
};

// ====================================================== MatrixTranspose

/** AMD APP MatrixTranspose: 16x16 tiles staged through local memory. */
class MatrixTranspose final : public Workload
{
  public:
    explicit MatrixTranspose(double scale)
    {
        w_ = scaledSide(3008, scale, 64, 16);
        h_ = scaledSide(3008, scale, 64, 16);
        Rng rng(31);
        in_.resize(static_cast<size_t>(w_) * h_);
        for (float &v : in_)
            v = rng.nextFloat();
    }

    std::string name() const override { return "matrixtranspose"; }

    std::string
    source() const override
    {
        return R"(
kernel void matrix_transpose(global const float* in, global float* out,
                             int width, int height) {
    local float tile[256];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int x = get_global_id(0);
    int y = get_global_id(1);
    tile[ly * 16 + lx] = in[y * width + x];
    barrier();
    int gx = get_group_id(0) * 16;
    int gy = get_group_id(1) * 16;
    out[(gx + ly) * height + gy + lx] = tile[lx * 16 + ly];
}
)";
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        size_t bytes = in_.size() * 4;
        BufHandle din = dev.alloc(bytes);
        BufHandle dout = dev.alloc(bytes);
        dev.write(din, in_.data(), bytes);
        std::string err;
        if (!dev.launch("matrix_transpose", Dim3{w_, h_, 1},
                        Dim3{16, 16, 1},
                        {WArg::buf(din), WArg::buf(dout),
                         WArg::i32(static_cast<int32_t>(w_)),
                         WArg::i32(static_cast<int32_t>(h_))},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(in_.size());
        dev.read(dout, got.data(), bytes);
        for (uint32_t y = 0; y < h_; ++y) {
            for (uint32_t x = 0; x < w_; ++x) {
                if (got[x * h_ + y] != in_[y * w_ + x]) {
                    rr.error = strfmt("transpose mismatch at (%u,%u)", x,
                                      y);
                    return rr;
                }
            }
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        std::vector<float> out(in_.size());
        for (uint32_t y = 0; y < h_; ++y)
            for (uint32_t x = 0; x < w_; ++x)
                out[x * h_ + y] = in_[y * w_ + x];
        return out[out.size() / 2];
    }

  private:
    uint32_t w_, h_;
    std::vector<float> in_;
};

// ===================================================== RecursiveGaussian

/** AMD APP RecursiveGaussian: row-parallel IIR filter + transpose,
 *  applied in both dimensions. */
class RecursiveGaussian final : public Workload
{
  public:
    explicit RecursiveGaussian(double scale)
    {
        side_ = scaledSide(1536, scale, 64, 16);
        Rng rng(37);
        in_.resize(static_cast<size_t>(side_) * side_);
        for (float &v : in_)
            v = rng.nextFloat() * 255.0f;
    }

    std::string name() const override { return "recursivegaussian"; }

    std::string
    source() const override
    {
        return R"(
kernel void rgauss_rows(global const float* in, global float* out,
                        int width, int height, float a) {
    int y = get_global_id(0);
    if (y >= height) {
        return;
    }
    float yp = in[y * width];
    out[y * width] = yp;
    for (int x = 1; x < width; x += 1) {
        float xc = in[y * width + x];
        yp = yp + a * (xc - yp);
        out[y * width + x] = yp;
    }
    yp = out[y * width + width - 1];
    for (int x = width - 2; x >= 0; x -= 1) {
        float xc = out[y * width + x];
        yp = yp + a * (xc - yp);
        out[y * width + x] = yp;
    }
}

kernel void rgauss_transpose(global const float* in, global float* out,
                             int width, int height) {
    local float tile[256];
    int lx = get_local_id(0);
    int ly = get_local_id(1);
    int x = get_global_id(0);
    int y = get_global_id(1);
    tile[ly * 16 + lx] = in[y * width + x];
    barrier();
    int gx = get_group_id(0) * 16;
    int gy = get_group_id(1) * 16;
    out[(gx + ly) * height + gy + lx] = tile[lx * 16 + ly];
}
)";
    }

    static void
    hostRows(const std::vector<float> &in, std::vector<float> &out,
             uint32_t w, uint32_t h, float a)
    {
        for (uint32_t y = 0; y < h; ++y) {
            float yp = in[y * w];
            out[y * w] = yp;
            for (uint32_t x = 1; x < w; ++x) {
                float xc = in[y * w + x];
                yp = yp + a * (xc - yp);
                out[y * w + x] = yp;
            }
            yp = out[y * w + w - 1];
            for (int x = static_cast<int>(w) - 2; x >= 0; --x) {
                float xc = out[y * w + x];
                yp = yp + a * (xc - yp);
                out[y * w + x] = yp;
            }
        }
    }

    std::vector<float>
    reference() const
    {
        uint32_t s = side_;
        std::vector<float> t1(in_.size()), t2(in_.size());
        hostRows(in_, t1, s, s, kAlpha);
        // transpose
        for (uint32_t y = 0; y < s; ++y)
            for (uint32_t x = 0; x < s; ++x)
                t2[x * s + y] = t1[y * s + x];
        hostRows(t2, t1, s, s, kAlpha);
        std::vector<float> out(in_.size());
        for (uint32_t y = 0; y < s; ++y)
            for (uint32_t x = 0; x < s; ++x)
                out[x * s + y] = t1[y * s + x];
        return out;
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        size_t bytes = in_.size() * 4;
        BufHandle din = dev.alloc(bytes);
        BufHandle dt1 = dev.alloc(bytes);
        BufHandle dt2 = dev.alloc(bytes);
        dev.write(din, in_.data(), bytes);
        std::string err;
        uint32_t s = side_;
        auto rows = [&](BufHandle src, BufHandle dst) {
            return dev.launch("rgauss_rows", Dim3{s, 1, 1},
                              Dim3{16, 1, 1},
                              {WArg::buf(src), WArg::buf(dst),
                               WArg::i32(static_cast<int32_t>(s)),
                               WArg::i32(static_cast<int32_t>(s)),
                               WArg::f32(kAlpha)},
                              err);
        };
        auto transpose = [&](BufHandle src, BufHandle dst) {
            return dev.launch("rgauss_transpose", Dim3{s, s, 1},
                              Dim3{16, 16, 1},
                              {WArg::buf(src), WArg::buf(dst),
                               WArg::i32(static_cast<int32_t>(s)),
                               WArg::i32(static_cast<int32_t>(s))},
                              err);
        };
        if (!rows(din, dt1) || !transpose(dt1, dt2) || !rows(dt2, dt1) ||
            !transpose(dt1, dt2)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(in_.size());
        dev.read(dt2, got.data(), bytes);
        std::vector<float> want = reference();
        for (size_t i = 0; i < got.size(); ++i) {
            if (!closeEnough(got[i], want[i], 1e-3f)) {
                rr.error = strfmt("pixel %zu: got %f want %f", i, got[i],
                                  want[i]);
                return rr;
            }
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        std::vector<float> out = reference();
        double sum = 0;
        for (float v : out)
            sum += v;
        return sum;
    }

  private:
    static constexpr float kAlpha = 0.6f;
    uint32_t side_;
    std::vector<float> in_;
};

// ============================================================ Reduction

/** AMD APP Reduction: local-memory tree reduction, multi-pass. */
class Reduction final : public Workload
{
  public:
    explicit Reduction(double scale)
    {
        n_ = scaled(9999360, scale, 16384, 256);
        Rng rng(41);
        in_.resize(n_);
        for (uint32_t i = 0; i < n_; ++i)
            in_[i] = static_cast<int32_t>(rng.nextBelow(100));
    }

    std::string name() const override { return "reduction"; }

    std::string
    source() const override
    {
        return R"(
kernel void reduce(global const int* in, global int* out, int n) {
    local int sdata[256];
    int lid = get_local_id(0);
    int g = get_global_id(0);
    sdata[lid] = g < n ? in[g] : 0;
    barrier();
    for (int s = get_local_size(0) / 2; s > 0; s = s / 2) {
        if (lid < s) {
            sdata[lid] += sdata[lid + s];
        }
        barrier();
    }
    if (lid == 0) {
        out[get_group_id(0)] = sdata[0];
    }
}
)";
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        constexpr uint32_t kWg = 256;
        BufHandle din = dev.alloc(n_ * 4);
        dev.write(din, in_.data(), n_ * 4);
        uint32_t n = n_;
        BufHandle cur = din;
        while (n > 1) {
            uint32_t groups = (n + kWg - 1) / kWg;
            BufHandle next = dev.alloc(groups * 4);
            std::string err;
            if (!dev.launch("reduce", Dim3{groups * kWg, 1, 1},
                            Dim3{kWg, 1, 1},
                            {WArg::buf(cur), WArg::buf(next),
                             WArg::i32(static_cast<int32_t>(n))},
                            err)) {
                rr.error = err;
                return rr;
            }
            cur = next;
            n = groups;
        }
        int32_t got = 0;
        dev.read(cur, &got, 4);
        int64_t want = 0;
        for (int32_t v : in_)
            want += v;
        if (got != static_cast<int32_t>(want)) {
            rr.error = strfmt("sum mismatch: got %d want %lld", got,
                              static_cast<long long>(want));
            return rr;
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        int64_t want = 0;
        for (int32_t v : in_)
            want += v;
        return static_cast<double>(want);
    }

  private:
    uint32_t n_;
    std::vector<int32_t> in_;
};

// ====================================================== ScanLargeArrays

/** AMD APP ScanLargeArrays: block scan + host-scanned block sums +
 *  offset propagation. */
class ScanLargeArrays final : public Workload
{
  public:
    explicit ScanLargeArrays(double scale)
    {
        n_ = scaled(1048576, scale, 8192, 256);
        Rng rng(43);
        in_.resize(n_);
        for (float &v : in_)
            v = rng.nextFloat();
    }

    std::string name() const override { return "scanlargearrays"; }

    std::string
    source() const override
    {
        return R"(
kernel void scan_block(global const float* in, global float* out,
                       global float* sums, int n) {
    local float a[256];
    local float b[256];
    int lid = get_local_id(0);
    int g = get_global_id(0);
    int B = get_local_size(0);
    a[lid] = g < n ? in[g] : 0.0f;
    barrier();
    for (int off = 1; off < B; off = off * 2) {
        if (lid >= off) {
            b[lid] = a[lid] + a[lid - off];
        } else {
            b[lid] = a[lid];
        }
        barrier();
        a[lid] = b[lid];
        barrier();
    }
    out[g] = lid > 0 ? a[lid - 1] : 0.0f;
    if (lid == B - 1) {
        sums[get_group_id(0)] = a[lid];
    }
}

kernel void scan_add_offsets(global float* out,
                             global const float* offsets, int n) {
    int g = get_global_id(0);
    if (g < n) {
        out[g] += offsets[get_group_id(0)];
    }
}
)";
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        constexpr uint32_t kWg = 256;
        uint32_t groups = (n_ + kWg - 1) / kWg;
        BufHandle din = dev.alloc(n_ * 4);
        BufHandle dout = dev.alloc(n_ * 4);
        BufHandle dsums = dev.alloc(groups * 4);
        dev.write(din, in_.data(), n_ * 4);
        std::string err;
        if (!dev.launch("scan_block", Dim3{groups * kWg, 1, 1},
                        Dim3{kWg, 1, 1},
                        {WArg::buf(din), WArg::buf(dout),
                         WArg::buf(dsums),
                         WArg::i32(static_cast<int32_t>(n_))},
                        err)) {
            rr.error = err;
            return rr;
        }
        // Host-side exclusive scan of the block sums (the reference
        // implementation launches a recursive kernel; a host scan keeps
        // the same device-side work per element).
        std::vector<float> sums(groups);
        dev.read(dsums, sums.data(), groups * 4);
        float acc = 0;
        for (uint32_t i = 0; i < groups; ++i) {
            float next = acc + sums[i];
            sums[i] = acc;
            acc = next;
        }
        dev.write(dsums, sums.data(), groups * 4);
        if (!dev.launch("scan_add_offsets", Dim3{groups * kWg, 1, 1},
                        Dim3{kWg, 1, 1},
                        {WArg::buf(dout), WArg::buf(dsums),
                         WArg::i32(static_cast<int32_t>(n_))},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(n_);
        dev.read(dout, got.data(), n_ * 4);
        double run = 0;
        for (uint32_t i = 0; i < n_; ++i) {
            if (!closeEnough(got[i], static_cast<float>(run), 2e-3f)) {
                rr.error = strfmt("scan[%u]: got %f want %f", i, got[i],
                                  run);
                return rr;
            }
            run += in_[i];
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        double run = 0;
        for (float v : in_)
            run += v;
        return run;
    }

  private:
    uint32_t n_;
    std::vector<float> in_;
};

// ========================================================== SobelFilter

/** AMD APP SobelFilter: 3x3 gradient filter, one thread per pixel. */
class SobelFilter final : public Workload
{
  public:
    explicit SobelFilter(double scale)
    {
        side_ = scaledSide(1536, scale, 64, 16);
        Rng rng(47);
        in_.resize(static_cast<size_t>(side_) * side_);
        for (float &v : in_)
            v = rng.nextFloat() * 255.0f;
    }

    std::string name() const override { return "sobelfilter"; }

    std::string
    source() const override
    {
        return R"(
kernel void sobel(global const float* in, global float* out, int width,
                  int height) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x == 0 || y == 0 || x == width - 1 || y == height - 1) {
        out[y * width + x] = 0.0f;
        return;
    }
    float i00 = in[(y - 1) * width + x - 1];
    float i01 = in[(y - 1) * width + x];
    float i02 = in[(y - 1) * width + x + 1];
    float i10 = in[y * width + x - 1];
    float i12 = in[y * width + x + 1];
    float i20 = in[(y + 1) * width + x - 1];
    float i21 = in[(y + 1) * width + x];
    float i22 = in[(y + 1) * width + x + 1];
    float gx = i00 + 2.0f * i01 + i02 - i20 - 2.0f * i21 - i22;
    float gy = i00 + 2.0f * i10 + i20 - i02 - 2.0f * i12 - i22;
    out[y * width + x] = sqrt(gx * gx + gy * gy) * 0.5f;
}
)";
    }

    std::vector<float>
    reference() const
    {
        uint32_t w = side_, h = side_;
        std::vector<float> out(in_.size(), 0.0f);
        for (uint32_t y = 1; y + 1 < h; ++y) {
            for (uint32_t x = 1; x + 1 < w; ++x) {
                float i00 = in_[(y - 1) * w + x - 1];
                float i01 = in_[(y - 1) * w + x];
                float i02 = in_[(y - 1) * w + x + 1];
                float i10 = in_[y * w + x - 1];
                float i12 = in_[y * w + x + 1];
                float i20 = in_[(y + 1) * w + x - 1];
                float i21 = in_[(y + 1) * w + x];
                float i22 = in_[(y + 1) * w + x + 1];
                float gx =
                    i00 + 2.0f * i01 + i02 - i20 - 2.0f * i21 - i22;
                float gy =
                    i00 + 2.0f * i10 + i20 - i02 - 2.0f * i12 - i22;
                out[y * w + x] = std::sqrt(gx * gx + gy * gy) * 0.5f;
            }
        }
        return out;
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        size_t bytes = in_.size() * 4;
        BufHandle din = dev.alloc(bytes);
        BufHandle dout = dev.alloc(bytes);
        dev.write(din, in_.data(), bytes);
        std::string err;
        if (!dev.launch("sobel", Dim3{side_, side_, 1}, Dim3{16, 16, 1},
                        {WArg::buf(din), WArg::buf(dout),
                         WArg::i32(static_cast<int32_t>(side_)),
                         WArg::i32(static_cast<int32_t>(side_))},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(in_.size());
        dev.read(dout, got.data(), bytes);
        std::vector<float> want = reference();
        for (size_t i = 0; i < got.size(); ++i) {
            if (!closeEnough(got[i], want[i], 1e-3f)) {
                rr.error = strfmt("pixel %zu: got %f want %f", i, got[i],
                                  want[i]);
                return rr;
            }
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        std::vector<float> out = reference();
        double s = 0;
        for (float v : out)
            s += v;
        return s;
    }

  private:
    uint32_t side_;
    std::vector<float> in_;
};

// ================================================================= URNG

/** AMD APP URNG: uniform random noise applied per pixel. */
class Urng final : public Workload
{
  public:
    explicit Urng(double scale)
    {
        side_ = scaledSide(1536, scale, 64, 16);
        Rng rng(53);
        in_.resize(static_cast<size_t>(side_) * side_);
        for (float &v : in_)
            v = rng.nextFloat() * 255.0f;
    }

    std::string name() const override { return "urng"; }

    std::string
    source() const override
    {
        return R"(
kernel void urng(global const float* in, global float* out, int width) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int idx = y * width + x;
    uint seed = (uint)idx * 1103515245u + 12345u;
    seed = seed * 1103515245u + 12345u;
    uint noise = (seed >> 16) & 255u;
    seed = seed * 1103515245u + 12345u;
    noise = (noise + ((seed >> 16) & 255u)) >> 1;
    float delta = ((float)noise - 128.0f) * 0.2f;
    out[idx] = in[idx] + delta;
}
)";
    }

    std::vector<float>
    reference() const
    {
        std::vector<float> out(in_.size());
        for (uint32_t i = 0; i < in_.size(); ++i) {
            uint32_t seed = i * 1103515245u + 12345u;
            seed = seed * 1103515245u + 12345u;
            uint32_t noise = (seed >> 16) & 255u;
            seed = seed * 1103515245u + 12345u;
            noise = (noise + ((seed >> 16) & 255u)) >> 1;
            float delta = (static_cast<float>(noise) - 128.0f) * 0.2f;
            out[i] = in_[i] + delta;
        }
        return out;
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        size_t bytes = in_.size() * 4;
        BufHandle din = dev.alloc(bytes);
        BufHandle dout = dev.alloc(bytes);
        dev.write(din, in_.data(), bytes);
        std::string err;
        if (!dev.launch("urng", Dim3{side_, side_, 1}, Dim3{16, 16, 1},
                        {WArg::buf(din), WArg::buf(dout),
                         WArg::i32(static_cast<int32_t>(side_))},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(in_.size());
        dev.read(dout, got.data(), bytes);
        std::vector<float> want = reference();
        for (size_t i = 0; i < got.size(); ++i) {
            if (got[i] != want[i]) {
                rr.error = strfmt("pixel %zu: got %f want %f", i, got[i],
                                  want[i]);
                return rr;
            }
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        std::vector<float> out = reference();
        double s = 0;
        for (float v : out)
            s += v;
        return s;
    }

  private:
    uint32_t side_;
    std::vector<float> in_;
};

// Factories used by the registry in workload.cc.
std::unique_ptr<Workload>
makeBinarySearch(double s)
{
    return std::make_unique<BinarySearch>(s);
}
std::unique_ptr<Workload>
makeBinomialOption(double s)
{
    return std::make_unique<BinomialOption>(s);
}
std::unique_ptr<Workload>
makeBitonicSort(double s)
{
    return std::make_unique<BitonicSort>(s);
}
std::unique_ptr<Workload>
makeDct(double s)
{
    return std::make_unique<Dct>(s);
}
std::unique_ptr<Workload>
makeDwtHaar1D(double s)
{
    return std::make_unique<DwtHaar1D>(s);
}
std::unique_ptr<Workload>
makeFloydWarshall(double s)
{
    return std::make_unique<FloydWarshall>(s);
}
std::unique_ptr<Workload>
makeMatrixTranspose(double s)
{
    return std::make_unique<MatrixTranspose>(s);
}
std::unique_ptr<Workload>
makeRecursiveGaussian(double s)
{
    return std::make_unique<RecursiveGaussian>(s);
}
std::unique_ptr<Workload>
makeReduction(double s)
{
    return std::make_unique<Reduction>(s);
}
std::unique_ptr<Workload>
makeScanLargeArrays(double s)
{
    return std::make_unique<ScanLargeArrays>(s);
}
std::unique_ptr<Workload>
makeSobelFilter(double s)
{
    return std::make_unique<SobelFilter>(s);
}
std::unique_ptr<Workload>
makeUrng(double s)
{
    return std::make_unique<Urng>(s);
}

} // namespace bifsim::workloads

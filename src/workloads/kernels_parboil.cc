/**
 * @file
 * Table II workloads from Parboil and Rodinia: backprop, bfs, cutcp,
 * nearest neighbor, sgemm, spmv, stencil — the "larger, more complex"
 * workloads of the paper's evaluation (§V).
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

} // namespace

// ============================================================= BackProp

/** Rodinia back propagation: staged weight products in local memory
 *  with a tree reduction, plus a weight-adjust kernel.  The suite's
 *  most main-memory-bound workload (Fig. 12). */
class BackProp final : public Workload
{
  public:
    explicit BackProp(double scale)
    {
        inN_ = scaled(65536, scale, 1024, 16);
        hid_ = 16;
        Rng rng(61);
        input_.resize(inN_ + 1);
        for (float &v : input_)
            v = rng.nextFloat();
        weights_.resize(static_cast<size_t>(inN_ + 1) * (hid_ + 1));
        for (float &v : weights_)
            v = rng.nextFloat() - 0.5f;
        delta_.resize(hid_ + 1);
        for (float &v : delta_)
            v = rng.nextFloat() - 0.5f;
    }

    std::string name() const override { return "backprop"; }

    std::string
    source() const override
    {
        return R"(
kernel void bpnn_layerforward(global const float* input,
                              global float* partial,
                              global const float* weights, int hid) {
    local float input_node[16];
    local float weight_matrix[256];
    int by = get_group_id(1);
    int tx = get_local_id(0);
    int ty = get_local_id(1);
    if (tx == 0) {
        input_node[ty] = input[16 * by + ty + 1];
    }
    barrier();
    int index = (hid + 1) * 16 * by + (hid + 1) * ty + tx + 1 +
                (hid + 1);
    weight_matrix[ty * 16 + tx] = weights[index] * input_node[ty];
    barrier();
    for (int i = 1; i <= 4; i += 1) {
        int pw = 1 << i;
        if (ty % pw == 0) {
            weight_matrix[ty * 16 + tx] +=
                weight_matrix[(ty + pw / 2) * 16 + tx];
        }
        barrier();
    }
    if (ty == 0) {
        partial[by * 16 + tx] = weight_matrix[tx];
    }
}

kernel void bpnn_adjust_weights(global float* weights,
                                global const float* delta,
                                global const float* ly, int hid) {
    int by = get_group_id(1);
    int tx = get_local_id(0);
    int ty = get_local_id(1);
    int index = (hid + 1) * 16 * by + (hid + 1) * ty + tx + 1 +
                (hid + 1);
    weights[index] += 0.3f * delta[tx + 1] * ly[16 * by + ty + 1];
}
)";
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        uint32_t blocks = inN_ / 16;
        BufHandle din = dev.alloc(input_.size() * 4);
        BufHandle dw = dev.alloc(weights_.size() * 4);
        BufHandle dpart = dev.alloc(static_cast<size_t>(blocks) * 16 * 4);
        BufHandle ddelta = dev.alloc(delta_.size() * 4);
        dev.write(din, input_.data(), input_.size() * 4);
        dev.write(dw, weights_.data(), weights_.size() * 4);
        dev.write(ddelta, delta_.data(), delta_.size() * 4);

        std::string err;
        if (!dev.launch("bpnn_layerforward", Dim3{16, blocks * 16, 1},
                        Dim3{16, 16, 1},
                        {WArg::buf(din), WArg::buf(dpart), WArg::buf(dw),
                         WArg::i32(static_cast<int32_t>(hid_))},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> partial(static_cast<size_t>(blocks) * 16);
        dev.read(dpart, partial.data(), partial.size() * 4);

        // Verify the forward pass against the host reference.
        for (uint32_t b = 0; b < blocks; ++b) {
            for (uint32_t tx = 0; tx < 16; ++tx) {
                float want = 0;
                for (uint32_t ty = 0; ty < 16; ++ty) {
                    uint32_t index = (hid_ + 1) * 16 * b +
                                     (hid_ + 1) * ty + tx + 1 +
                                     (hid_ + 1);
                    want += weights_[index] * input_[16 * b + ty + 1];
                }
                if (!closeEnough(partial[b * 16 + tx], want, 1e-3f)) {
                    rr.error = strfmt("partial[%u,%u] mismatch", b, tx);
                    return rr;
                }
            }
        }

        if (!dev.launch("bpnn_adjust_weights", Dim3{16, blocks * 16, 1},
                        Dim3{16, 16, 1},
                        {WArg::buf(dw), WArg::buf(ddelta), WArg::buf(din),
                         WArg::i32(static_cast<int32_t>(hid_))},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(weights_.size());
        dev.read(dw, got.data(), got.size() * 4);
        for (uint32_t b = 0; b < blocks; ++b) {
            for (uint32_t ty = 0; ty < 16; ++ty) {
                for (uint32_t tx = 0; tx < 16; ++tx) {
                    uint32_t index = (hid_ + 1) * 16 * b +
                                     (hid_ + 1) * ty + tx + 1 +
                                     (hid_ + 1);
                    float want = weights_[index] +
                                 0.3f * delta_[tx + 1] *
                                     input_[16 * b + ty + 1];
                    if (!closeEnough(got[index], want, 1e-3f)) {
                        rr.error = "weight adjust mismatch";
                        return rr;
                    }
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
        double sum = 0;
        uint32_t blocks = inN_ / 16;
        for (uint32_t b = 0; b < blocks; ++b) {
            for (uint32_t tx = 0; tx < 16; ++tx) {
                float acc = 0;
                for (uint32_t ty = 0; ty < 16; ++ty) {
                    uint32_t index = (hid_ + 1) * 16 * b +
                                     (hid_ + 1) * ty + tx + 1 +
                                     (hid_ + 1);
                    acc += weights_[index] * input_[16 * b + ty + 1];
                }
                sum += acc;
            }
        }
        return sum;
    }

  private:
    uint32_t inN_, hid_;
    std::vector<float> input_, weights_, delta_;
};

// ================================================================== BFS

/** Parboil breadth-first search: level-synchronous expansion with a
 *  host-side convergence loop — one compute job per level, the
 *  divergence showcase of Fig. 6 and the job-heavy row of Table III. */
class Bfs final : public Workload
{
  public:
    explicit Bfs(double scale)
    {
        n_ = scaled(1257001, scale, 4096, 64);
        Rng rng(67);
        // Random connected graph: a tree plus extra edges (~6/node).
        std::vector<std::vector<int32_t>> adj(n_);
        for (uint32_t v = 1; v < n_; ++v) {
            uint32_t p = rng.nextBelow(v);
            adj[p].push_back(static_cast<int32_t>(v));
            adj[v].push_back(static_cast<int32_t>(p));
        }
        for (uint32_t e = 0; e < n_ * 2; ++e) {
            uint32_t a = rng.nextBelow(n_), b = rng.nextBelow(n_);
            if (a != b) {
                adj[a].push_back(static_cast<int32_t>(b));
                adj[b].push_back(static_cast<int32_t>(a));
            }
        }
        rowptr_.resize(n_ + 1);
        for (uint32_t v = 0; v < n_; ++v) {
            rowptr_[v + 1] = rowptr_[v] +
                             static_cast<int32_t>(adj[v].size());
            for (int32_t u : adj[v])
                cols_.push_back(u);
        }
    }

    std::string name() const override { return "bfs"; }

    std::string
    source() const override
    {
        return R"(
kernel void bfs_step(global const int* rowptr, global const int* cols,
                     global int* cost, global int* changed, int level,
                     int n) {
    int v = get_global_id(0);
    if (v < n && cost[v] == level) {
        for (int e = rowptr[v]; e < rowptr[v + 1]; e += 1) {
            int u = cols[e];
            if (cost[u] < 0) {
                cost[u] = level + 1;
                changed[0] = 1;
            }
        }
    }
}
)";
    }

    std::vector<int32_t>
    reference() const
    {
        std::vector<int32_t> cost(n_, -1);
        cost[0] = 0;
        std::vector<uint32_t> frontier = {0};
        int32_t level = 0;
        while (!frontier.empty()) {
            std::vector<uint32_t> next;
            for (uint32_t v : frontier) {
                for (int32_t e = rowptr_[v]; e < rowptr_[v + 1]; ++e) {
                    int32_t u = cols_[e];
                    if (cost[u] < 0) {
                        cost[u] = level + 1;
                        next.push_back(static_cast<uint32_t>(u));
                    }
                }
            }
            frontier = std::move(next);
            level++;
        }
        return cost;
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        BufHandle drow = dev.alloc(rowptr_.size() * 4);
        BufHandle dcols = dev.alloc(std::max<size_t>(cols_.size(), 1) * 4);
        BufHandle dcost = dev.alloc(n_ * 4);
        BufHandle dchanged = dev.alloc(4);
        dev.write(drow, rowptr_.data(), rowptr_.size() * 4);
        dev.write(dcols, cols_.data(), cols_.size() * 4);
        std::vector<int32_t> cost(n_, -1);
        cost[0] = 0;
        dev.write(dcost, cost.data(), n_ * 4);

        uint32_t threads = ((n_ + 63) / 64) * 64;
        for (int32_t level = 0;; ++level) {
            int32_t zero = 0;
            dev.write(dchanged, &zero, 4);
            std::string err;
            if (!dev.launch("bfs_step", Dim3{threads, 1, 1},
                            Dim3{64, 1, 1},
                            {WArg::buf(drow), WArg::buf(dcols),
                             WArg::buf(dcost), WArg::buf(dchanged),
                             WArg::i32(level),
                             WArg::i32(static_cast<int32_t>(n_))},
                            err)) {
                rr.error = err;
                return rr;
            }
            int32_t changed = 0;
            dev.read(dchanged, &changed, 4);
            if (!changed)
                break;
            if (level > static_cast<int32_t>(n_)) {
                rr.error = "BFS did not converge";
                return rr;
            }
        }
        std::vector<int32_t> got(n_);
        dev.read(dcost, got.data(), n_ * 4);
        if (got != reference()) {
            rr.error = "BFS levels mismatch";
            return rr;
        }
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        std::vector<int32_t> cost = reference();
        double s = 0;
        for (int32_t c : cost)
            s += c;
        return s;
    }

  private:
    uint32_t n_;
    std::vector<int32_t> rowptr_, cols_;
};

// ================================================================ Cutcp

/** Parboil cutcp: cutoff-limited Coulombic potential on a 3D lattice. */
class Cutcp final : public Workload
{
  public:
    explicit Cutcp(double scale)
    {
        natoms_ = 67;   // Paper-exact atom count.
        double side_scale = std::cbrt(std::max(scale, 0.01));
        nx_ = scaled(static_cast<uint32_t>(96 * side_scale), 1.0, 16, 8);
        ny_ = nx_;
        nz_ = std::max(8u, nx_ / 4);
        spacing_ = 0.5f;
        cutoff2_ = 16.0f;
        Rng rng(71);
        atoms_.resize(natoms_ * 4);
        for (uint32_t a = 0; a < natoms_; ++a) {
            atoms_[a * 4 + 0] = rng.nextFloat() * nx_ * spacing_ + 0.13f;
            atoms_[a * 4 + 1] = rng.nextFloat() * ny_ * spacing_ + 0.17f;
            atoms_[a * 4 + 2] = rng.nextFloat() * nz_ * spacing_ + 0.19f;
            atoms_[a * 4 + 3] = rng.nextFloat() * 2.0f - 1.0f;
        }
    }

    std::string name() const override { return "cutcp"; }

    std::string
    source() const override
    {
        return R"(
kernel void cutcp(global const float* atoms, global float* lattice,
                  int natoms, int nx, int ny, float spacing,
                  float cutoff2) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int z = get_global_id(2);
    float px = (float)x * spacing;
    float py = (float)y * spacing;
    float pz = (float)z * spacing;
    float e = 0.0f;
    for (int a = 0; a < natoms; a += 1) {
        float dx = atoms[a * 4] - px;
        float dy = atoms[a * 4 + 1] - py;
        float dz = atoms[a * 4 + 2] - pz;
        float q = atoms[a * 4 + 3];
        float r2 = dx * dx + dy * dy + dz * dz;
        if (r2 < cutoff2) {
            float s = 1.0f - r2 / cutoff2;
            e += q * rsqrt(r2) * s * s;
        }
    }
    lattice[(z * ny + y) * nx + x] = e;
}
)";
    }

    std::vector<float>
    reference() const
    {
        std::vector<float> lat(static_cast<size_t>(nx_) * ny_ * nz_);
        for (uint32_t z = 0; z < nz_; ++z)
        for (uint32_t y = 0; y < ny_; ++y)
        for (uint32_t x = 0; x < nx_; ++x) {
            float px = x * spacing_, py = y * spacing_, pz = z * spacing_;
            float e = 0;
            for (uint32_t a = 0; a < natoms_; ++a) {
                float dx = atoms_[a * 4] - px;
                float dy = atoms_[a * 4 + 1] - py;
                float dz = atoms_[a * 4 + 2] - pz;
                float q = atoms_[a * 4 + 3];
                float r2 = dx * dx + dy * dy + dz * dz;
                if (r2 < cutoff2_) {
                    float s = 1.0f - r2 / cutoff2_;
                    e += q * (1.0f / std::sqrt(r2)) * s * s;
                }
            }
            lat[(z * ny_ + y) * nx_ + x] = e;
        }
        return lat;
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        size_t lat_bytes = static_cast<size_t>(nx_) * ny_ * nz_ * 4;
        BufHandle datoms = dev.alloc(atoms_.size() * 4);
        BufHandle dlat = dev.alloc(lat_bytes);
        dev.write(datoms, atoms_.data(), atoms_.size() * 4);
        std::string err;
        if (!dev.launch("cutcp", Dim3{nx_, ny_, nz_}, Dim3{8, 8, 1},
                        {WArg::buf(datoms), WArg::buf(dlat),
                         WArg::i32(static_cast<int32_t>(natoms_)),
                         WArg::i32(static_cast<int32_t>(nx_)),
                         WArg::i32(static_cast<int32_t>(ny_)),
                         WArg::f32(spacing_), WArg::f32(cutoff2_)},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(static_cast<size_t>(nx_) * ny_ * nz_);
        dev.read(dlat, got.data(), lat_bytes);
        std::vector<float> want = reference();
        for (size_t i = 0; i < got.size(); ++i) {
            if (!closeEnough(got[i], want[i], 1e-3f)) {
                rr.error = strfmt("lattice %zu: got %f want %f", i,
                                  got[i], want[i]);
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
        std::vector<float> lat = reference();
        double s = 0;
        for (float v : lat)
            s += v;
        return s;
    }

  private:
    uint32_t natoms_, nx_, ny_, nz_;
    float spacing_, cutoff2_;
    std::vector<float> atoms_;
};

// ====================================================== NearestNeighbor

/** Rodinia nn: per-record distance computation; the host keeps the
 *  5 nearest (Table II: 5 records, 30 latitude, 90 longitude). */
class NearestNeighbor final : public Workload
{
  public:
    explicit NearestNeighbor(double scale)
    {
        n_ = scaled(42764, scale, 2048, 64);
        lat_ = 30.0f;
        lng_ = 90.0f;
        Rng rng(73);
        locations_.resize(static_cast<size_t>(n_) * 2);
        for (uint32_t i = 0; i < n_; ++i) {
            locations_[2 * i] = rng.nextFloat() * 180.0f - 90.0f;
            locations_[2 * i + 1] = rng.nextFloat() * 360.0f - 180.0f;
        }
    }

    std::string name() const override { return "nn"; }

    std::string
    source() const override
    {
        return R"(
kernel void nearest_neighbor(global const float* locations,
                             global float* distances, int n, float lat,
                             float lng) {
    int g = get_global_id(0);
    if (g < n) {
        float dx = locations[2 * g] - lat;
        float dy = locations[2 * g + 1] - lng;
        distances[g] = sqrt(dx * dx + dy * dy);
    }
}
)";
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        BufHandle dloc = dev.alloc(locations_.size() * 4);
        BufHandle ddist = dev.alloc(n_ * 4);
        dev.write(dloc, locations_.data(), locations_.size() * 4);
        std::string err;
        if (!dev.launch("nearest_neighbor", Dim3{n_, 1, 1},
                        Dim3{64, 1, 1},
                        {WArg::buf(dloc), WArg::buf(ddist),
                         WArg::i32(static_cast<int32_t>(n_)),
                         WArg::f32(lat_), WArg::f32(lng_)},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(n_);
        dev.read(ddist, got.data(), n_ * 4);
        for (uint32_t i = 0; i < n_; ++i) {
            float dx = locations_[2 * i] - lat_;
            float dy = locations_[2 * i + 1] - lng_;
            float want = std::sqrt(dx * dx + dy * dy);
            if (!closeEnough(got[i], want, 1e-4f)) {
                rr.error = strfmt("distance %u: got %f want %f", i,
                                  got[i], want);
                return rr;
            }
        }
        // Host selects the 5 nearest records, as in Rodinia.
        std::vector<uint32_t> idx(n_);
        for (uint32_t i = 0; i < n_; ++i)
            idx[i] = i;
        std::partial_sort(idx.begin(), idx.begin() + 5, idx.end(),
                          [&](uint32_t a, uint32_t b) {
                              return got[a] < got[b];
                          });
        rr.launches = dev.launches();
        rr.ok = true;
        return rr;
    }

    double
    runNative() override
    {
        double best = 1e30;
        for (uint32_t i = 0; i < n_; ++i) {
            float dx = locations_[2 * i] - lat_;
            float dy = locations_[2 * i + 1] - lng_;
            best = std::min(best,
                            static_cast<double>(
                                std::sqrt(dx * dx + dy * dy)));
        }
        return best;
    }

  private:
    uint32_t n_;
    float lat_, lng_;
    std::vector<float> locations_;
};

// ================================================================ SGEMM

/** Parboil sgemm: C = alpha*A*B + beta*C (paper-exact 128x96 x 96x160). */
class Sgemm final : public Workload
{
  public:
    explicit Sgemm(double scale)
    {
        m_ = scaled(128, std::max(scale, 1.0), 32, 16);
        k_ = scaled(96, std::max(scale, 1.0), 32, 16);
        n_ = scaled(160, std::max(scale, 1.0), 32, 16);
        Rng rng(79);
        a_.resize(static_cast<size_t>(m_) * k_);
        b_.resize(static_cast<size_t>(k_) * n_);
        c_.resize(static_cast<size_t>(m_) * n_);
        for (float &v : a_)
            v = rng.nextFloat() - 0.5f;
        for (float &v : b_)
            v = rng.nextFloat() - 0.5f;
        for (float &v : c_)
            v = rng.nextFloat() - 0.5f;
    }

    std::string name() const override { return "sgemm"; }

    std::string
    source() const override
    {
        return R"(
kernel void sgemm(global const float* A, global const float* B,
                  global float* C, int m, int n, int k, float alpha,
                  float beta) {
    int col = get_global_id(0);
    int row = get_global_id(1);
    float sum = 0.0f;
    for (int i = 0; i < k; i += 1) {
        sum += A[row * k + i] * B[i * n + col];
    }
    C[row * n + col] = alpha * sum + beta * C[row * n + col];
}
)";
    }

    std::vector<float>
    reference() const
    {
        std::vector<float> out = c_;
        for (uint32_t r = 0; r < m_; ++r) {
            for (uint32_t c = 0; c < n_; ++c) {
                float sum = 0;
                for (uint32_t i = 0; i < k_; ++i)
                    sum += a_[r * k_ + i] * b_[i * n_ + c];
                out[r * n_ + c] = 1.5f * sum + 0.5f * c_[r * n_ + c];
            }
        }
        return out;
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        BufHandle da = dev.alloc(a_.size() * 4);
        BufHandle db = dev.alloc(b_.size() * 4);
        BufHandle dc = dev.alloc(c_.size() * 4);
        dev.write(da, a_.data(), a_.size() * 4);
        dev.write(db, b_.data(), b_.size() * 4);
        dev.write(dc, c_.data(), c_.size() * 4);
        std::string err;
        if (!dev.launch("sgemm", Dim3{n_, m_, 1}, Dim3{16, 16, 1},
                        {WArg::buf(da), WArg::buf(db), WArg::buf(dc),
                         WArg::i32(static_cast<int32_t>(m_)),
                         WArg::i32(static_cast<int32_t>(n_)),
                         WArg::i32(static_cast<int32_t>(k_)),
                         WArg::f32(1.5f), WArg::f32(0.5f)},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(c_.size());
        dev.read(dc, got.data(), got.size() * 4);
        std::vector<float> want = reference();
        for (size_t i = 0; i < got.size(); ++i) {
            if (!closeEnough(got[i], want[i], 1e-3f)) {
                rr.error = strfmt("C[%zu]: got %f want %f", i, got[i],
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
    uint32_t m_, k_, n_;
    std::vector<float> a_, b_, c_;
};

// ================================================================= SPMV

/** Parboil spmv: CSR sparse matrix-vector product (paper-exact size:
 *  1138x1138, 2596 non-zeros at scale 1). */
class Spmv final : public Workload
{
  public:
    explicit Spmv(double scale)
    {
        n_ = scaled(1138, std::max(scale, 1.0), 256, 2);
        uint32_t nnz_target = scaled(2596, std::max(scale, 1.0), 512, 1);
        Rng rng(83);
        std::vector<std::vector<std::pair<uint32_t, float>>> rows(n_);
        for (uint32_t e = 0; e < nnz_target; ++e) {
            uint32_t r = rng.nextBelow(n_);
            uint32_t c = rng.nextBelow(n_);
            rows[r].push_back({c, rng.nextFloat() - 0.5f});
        }
        rowptr_.resize(n_ + 1);
        for (uint32_t r = 0; r < n_; ++r) {
            rowptr_[r + 1] = rowptr_[r] +
                             static_cast<int32_t>(rows[r].size());
            for (auto [c, v] : rows[r]) {
                cols_.push_back(static_cast<int32_t>(c));
                vals_.push_back(v);
            }
        }
        x_.resize(n_);
        for (float &v : x_)
            v = rng.nextFloat() - 0.5f;
    }

    std::string name() const override { return "spmv"; }

    std::string
    source() const override
    {
        return R"(
kernel void spmv_csr(global const int* rowptr, global const int* cols,
                     global const float* vals, global const float* x,
                     global float* y, int n) {
    int r = get_global_id(0);
    if (r < n) {
        float sum = 0.0f;
        for (int e = rowptr[r]; e < rowptr[r + 1]; e += 1) {
            sum += vals[e] * x[cols[e]];
        }
        y[r] = sum;
    }
}
)";
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        BufHandle drow = dev.alloc(rowptr_.size() * 4);
        BufHandle dcols = dev.alloc(std::max<size_t>(cols_.size(), 1) * 4);
        BufHandle dvals = dev.alloc(std::max<size_t>(vals_.size(), 1) * 4);
        BufHandle dx = dev.alloc(x_.size() * 4);
        BufHandle dy = dev.alloc(n_ * 4);
        dev.write(drow, rowptr_.data(), rowptr_.size() * 4);
        dev.write(dcols, cols_.data(), cols_.size() * 4);
        dev.write(dvals, vals_.data(), vals_.size() * 4);
        dev.write(dx, x_.data(), x_.size() * 4);
        std::string err;
        uint32_t threads = ((n_ + 63) / 64) * 64;
        if (!dev.launch("spmv_csr", Dim3{threads, 1, 1}, Dim3{64, 1, 1},
                        {WArg::buf(drow), WArg::buf(dcols),
                         WArg::buf(dvals), WArg::buf(dx), WArg::buf(dy),
                         WArg::i32(static_cast<int32_t>(n_))},
                        err)) {
            rr.error = err;
            return rr;
        }
        std::vector<float> got(n_);
        dev.read(dy, got.data(), n_ * 4);
        for (uint32_t r = 0; r < n_; ++r) {
            float want = 0;
            for (int32_t e = rowptr_[r]; e < rowptr_[r + 1]; ++e)
                want += vals_[e] * x_[cols_[e]];
            if (!closeEnough(got[r], want, 1e-3f)) {
                rr.error = strfmt("y[%u]: got %f want %f", r, got[r],
                                  want);
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
        double s = 0;
        for (uint32_t r = 0; r < n_; ++r) {
            float want = 0;
            for (int32_t e = rowptr_[r]; e < rowptr_[r + 1]; ++e)
                want += vals_[e] * x_[cols_[e]];
            s += want;
        }
        return s;
    }

  private:
    uint32_t n_;
    std::vector<int32_t> rowptr_, cols_;
    std::vector<float> vals_, x_;
};

// ============================================================== Stencil

/** Parboil stencil: 7-point 3D Jacobi, host-iterated with ping-pong
 *  buffers (100 iterations at scale 1). */
class Stencil final : public Workload
{
  public:
    explicit Stencil(double scale)
    {
        double s = std::cbrt(std::max(scale, 0.002));
        nx_ = scaled(static_cast<uint32_t>(128 * s), 1.0, 16, 8);
        ny_ = nx_;
        nz_ = std::max(8u, nx_ / 2);
        iters_ = std::max(4u, static_cast<uint32_t>(100 * scale));
        Rng rng(89);
        in_.resize(static_cast<size_t>(nx_) * ny_ * nz_);
        for (float &v : in_)
            v = rng.nextFloat();
    }

    std::string name() const override { return "stencil"; }

    std::string
    source() const override
    {
        return R"(
kernel void stencil7(global const float* in, global float* out, int nx,
                     int ny, int nz, float c0, float c1) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    int z = get_global_id(2);
    int idx = (z * ny + y) * nx + x;
    if (x > 0 && x < nx - 1 && y > 0 && y < ny - 1 && z > 0 &&
        z < nz - 1) {
        float acc = in[idx - 1] + in[idx + 1] + in[idx - nx] +
                    in[idx + nx] + in[idx - nx * ny] + in[idx + nx * ny];
        out[idx] = c1 * acc + c0 * in[idx];
    } else {
        out[idx] = in[idx];
    }
}
)";
    }

    std::vector<float>
    reference() const
    {
        std::vector<float> a = in_, b(in_.size());
        for (uint32_t it = 0; it < iters_; ++it) {
            for (uint32_t z = 0; z < nz_; ++z)
            for (uint32_t y = 0; y < ny_; ++y)
            for (uint32_t x = 0; x < nx_; ++x) {
                size_t idx = (static_cast<size_t>(z) * ny_ + y) * nx_ + x;
                if (x > 0 && x < nx_ - 1 && y > 0 && y < ny_ - 1 &&
                    z > 0 && z < nz_ - 1) {
                    float acc = a[idx - 1] + a[idx + 1] + a[idx - nx_] +
                                a[idx + nx_] +
                                a[idx - static_cast<size_t>(nx_) * ny_] +
                                a[idx + static_cast<size_t>(nx_) * ny_];
                    b[idx] = kC1 * acc + kC0 * a[idx];
                } else {
                    b[idx] = a[idx];
                }
            }
            std::swap(a, b);
        }
        return a;
    }

    RunResult
    run(Device &dev) override
    {
        RunResult rr;
        size_t bytes = in_.size() * 4;
        BufHandle d0 = dev.alloc(bytes);
        BufHandle d1 = dev.alloc(bytes);
        dev.write(d0, in_.data(), bytes);
        BufHandle src = d0, dst = d1;
        for (uint32_t it = 0; it < iters_; ++it) {
            std::string err;
            if (!dev.launch("stencil7", Dim3{nx_, ny_, nz_},
                            Dim3{8, 8, 1},
                            {WArg::buf(src), WArg::buf(dst),
                             WArg::i32(static_cast<int32_t>(nx_)),
                             WArg::i32(static_cast<int32_t>(ny_)),
                             WArg::i32(static_cast<int32_t>(nz_)),
                             WArg::f32(kC0), WArg::f32(kC1)},
                            err)) {
                rr.error = err;
                return rr;
            }
            std::swap(src, dst);
        }
        std::vector<float> got(in_.size());
        dev.read(src, got.data(), bytes);
        std::vector<float> want = reference();
        for (size_t i = 0; i < got.size(); ++i) {
            if (!closeEnough(got[i], want[i], 2e-3f)) {
                rr.error = strfmt("cell %zu: got %f want %f", i, got[i],
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
    static constexpr float kC0 = 0.5f;
    static constexpr float kC1 = 1.0f / 12.0f;
    uint32_t nx_, ny_, nz_, iters_;
    std::vector<float> in_;
};

// Factories used by the registry in workload.cc.
std::unique_ptr<Workload>
makeBackProp(double s)
{
    return std::make_unique<BackProp>(s);
}
std::unique_ptr<Workload>
makeBfs(double s)
{
    return std::make_unique<Bfs>(s);
}
std::unique_ptr<Workload>
makeCutcp(double s)
{
    return std::make_unique<Cutcp>(s);
}
std::unique_ptr<Workload>
makeNearestNeighbor(double s)
{
    return std::make_unique<NearestNeighbor>(s);
}
std::unique_ptr<Workload>
makeSgemm(double s)
{
    return std::make_unique<Sgemm>(s);
}
std::unique_ptr<Workload>
makeSpmv(double s)
{
    return std::make_unique<Spmv>(s);
}
std::unique_ptr<Workload>
makeStencil(double s)
{
    return std::make_unique<Stencil>(s);
}

} // namespace bifsim::workloads

#include "instrument/stats.h"

namespace bifsim::gpu {

std::vector<ClauseStaticInfo>
analyzeClauses(const bif::Module &mod)
{
    using bif::Op;
    std::vector<ClauseStaticInfo> out;
    out.reserve(mod.clauses.size());
    for (const bif::Clause &cl : mod.clauses) {
        ClauseStaticInfo ci;
        ci.sizeTuples = static_cast<uint32_t>(cl.tuples.size());
        for (const bif::Tuple &t : cl.tuples) {
            for (const bif::Instr &in : t.slot) {
                if (in.op == Op::Nop) {
                    ci.nop++;
                    continue;
                }
                switch (bif::category(in.op)) {
                  case bif::Category::Arith:       ci.arith++; break;
                  case bif::Category::LoadStore:   ci.ls++; break;
                  case bif::Category::ControlFlow: ci.cf++; break;
                  case bif::Category::Nop:         break;
                }
                // Register-file traffic.  Special (preloaded) operands
                // live in the GRF on real Bifrost, so they count as GRF
                // reads.
                if (bif::isGrf(in.dst))
                    ci.grfWrites++;
                else if (bif::isTemp(in.dst))
                    ci.tempWrites++;
                for (uint8_t src : {in.src0, in.src1, in.src2}) {
                    if (bif::isGrf(src) || bif::isSpecial(src))
                        ci.grfReads++;
                    else if (bif::isTemp(src))
                        ci.tempReads++;
                }
                switch (in.op) {
                  case Op::LdRom:      ci.romReads++; break;
                  case Op::LdArg:      ci.constReads++; break;
                  case Op::LdGlobal: case Op::LdGlobalU8:
                    ci.globalLd++;
                    break;
                  case Op::StGlobal: case Op::StGlobalU8:
                    ci.globalSt++;
                    break;
                  case Op::AtomAddG:
                    ci.globalLd++;
                    ci.globalSt++;
                    break;
                  case Op::LdLocal:    ci.localLd++; break;
                  case Op::StLocal:    ci.localSt++; break;
                  case Op::AtomAddL:
                    ci.localLd++;
                    ci.localSt++;
                    break;
                  default:
                    break;
                }
            }
        }
        out.push_back(ci);
    }
    return out;
}

void
KernelStats::merge(const KernelStats &other)
{
    addCounters(*this, other);
    clauseSizes.merge(other.clauseSizes);
    for (const auto &[k, v] : other.cfgEdges)
        cfgEdges[k] += v;
}

void
KernelStats::subtract(const KernelStats &base)
{
    for (const CounterField<KernelStats> &c : kKernelCounters)
        this->*c.field -= base.*c.field;
    clauseSizes.subtract(base.clauseSizes);
    for (const auto &[k, v] : base.cfgEdges) {
        auto it = cfgEdges.find(k);
        it->second -= v;
        if (it->second == 0)
            cfgEdges.erase(it);
    }
}

void
saveStats(snapshot::ChunkWriter &w, const KernelStats &k)
{
    for (const CounterField<KernelStats> &c : kKernelCounters)
        w.u64(k.*c.field);
    w.u32(static_cast<uint32_t>(k.clauseSizes.size()));
    for (size_t i = 0; i < k.clauseSizes.size(); ++i)
        w.u64(k.clauseSizes.count(i));
    w.u32(static_cast<uint32_t>(k.cfgEdges.size()));
    for (const auto &[key, count] : k.cfgEdges) {
        w.u64(key);
        w.u64(count);
    }
}

void
restoreStats(snapshot::ChunkReader &r, KernelStats &k)
{
    KernelStats s;
    for (const CounterField<KernelStats> &c : kKernelCounters)
        s.*c.field = r.u64();
    uint32_t n_buckets = r.u32();
    if (static_cast<uint64_t>(n_buckets) * 8 > r.remaining())
        r.fail(strfmt("histogram bucket count %u exceeds chunk size",
                      n_buckets));
    s.clauseSizes = Histogram(n_buckets);
    for (uint32_t i = 0; i < n_buckets; ++i)
        s.clauseSizes.sample(static_cast<int64_t>(i), r.u64());
    uint32_t n_edges = r.u32();
    if (static_cast<uint64_t>(n_edges) * 16 > r.remaining())
        r.fail(strfmt("CFG edge count %u exceeds chunk size", n_edges));
    uint64_t prev_key = 0;
    for (uint32_t i = 0; i < n_edges; ++i) {
        uint64_t key = r.u64();
        if (i > 0 && key <= prev_key)
            r.fail(strfmt("CFG edge keys unordered at entry %u", i));
        prev_key = key;
        s.cfgEdges[key] = r.u64();
    }
    k = std::move(s);
}

} // namespace bifsim::gpu

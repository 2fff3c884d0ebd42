#include "instrument/stats.h"

#include "cpu/core.h"
#include "fleet/fleet_stats.h"

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
    arithInstrs += other.arithInstrs;
    lsInstrs += other.lsInstrs;
    cfInstrs += other.cfInstrs;
    nopSlots += other.nopSlots;
    grfReads += other.grfReads;
    grfWrites += other.grfWrites;
    tempAccesses += other.tempAccesses;
    constReads += other.constReads;
    romReads += other.romReads;
    globalLdSt += other.globalLdSt;
    localLdSt += other.localLdSt;
    clausesExecuted += other.clausesExecuted;
    threadsLaunched += other.threadsLaunched;
    warpsLaunched += other.warpsLaunched;
    workgroups += other.workgroups;
    divergentBranches += other.divergentBranches;
    clauseSizes.merge(other.clauseSizes);
    for (const auto &[k, v] : other.cfgEdges)
        cfgEdges[k] += v;
}

void
KernelStats::subtract(const KernelStats &base)
{
    arithInstrs -= base.arithInstrs;
    lsInstrs -= base.lsInstrs;
    cfInstrs -= base.cfInstrs;
    nopSlots -= base.nopSlots;
    grfReads -= base.grfReads;
    grfWrites -= base.grfWrites;
    tempAccesses -= base.tempAccesses;
    constReads -= base.constReads;
    romReads -= base.romReads;
    globalLdSt -= base.globalLdSt;
    localLdSt -= base.localLdSt;
    clausesExecuted -= base.clausesExecuted;
    threadsLaunched -= base.threadsLaunched;
    warpsLaunched -= base.warpsLaunched;
    workgroups -= base.workgroups;
    divergentBranches -= base.divergentBranches;
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
    w.u64(k.arithInstrs);
    w.u64(k.lsInstrs);
    w.u64(k.cfInstrs);
    w.u64(k.nopSlots);
    w.u64(k.grfReads);
    w.u64(k.grfWrites);
    w.u64(k.tempAccesses);
    w.u64(k.constReads);
    w.u64(k.romReads);
    w.u64(k.globalLdSt);
    w.u64(k.localLdSt);
    w.u64(k.clausesExecuted);
    w.u64(k.threadsLaunched);
    w.u64(k.warpsLaunched);
    w.u64(k.workgroups);
    w.u64(k.divergentBranches);
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
    s.arithInstrs = r.u64();
    s.lsInstrs = r.u64();
    s.cfInstrs = r.u64();
    s.nopSlots = r.u64();
    s.grfReads = r.u64();
    s.grfWrites = r.u64();
    s.tempAccesses = r.u64();
    s.constReads = r.u64();
    s.romReads = r.u64();
    s.globalLdSt = r.u64();
    s.localLdSt = r.u64();
    s.clausesExecuted = r.u64();
    s.threadsLaunched = r.u64();
    s.warpsLaunched = r.u64();
    s.workgroups = r.u64();
    s.divergentBranches = r.u64();
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

void
saveStats(snapshot::ChunkWriter &w, const TlbStats &t)
{
    w.u64(t.lastPageHits);
    w.u64(t.arrayHits);
    w.u64(t.walks);
}

void
restoreStats(snapshot::ChunkReader &r, TlbStats &t)
{
    TlbStats s;
    s.lastPageHits = r.u64();
    s.arrayHits = r.u64();
    s.walks = r.u64();
    t = s;
}

void
saveStats(snapshot::ChunkWriter &w, const SystemStats &s)
{
    w.u64(s.pagesAccessed);
    w.u64(s.ctrlRegReads);
    w.u64(s.ctrlRegWrites);
    w.u64(s.irqsAsserted);
    w.u64(s.computeJobs);
}

void
restoreStats(snapshot::ChunkReader &r, SystemStats &s)
{
    SystemStats v;
    v.pagesAccessed = r.u64();
    v.ctrlRegReads = r.u64();
    v.ctrlRegWrites = r.u64();
    v.irqsAsserted = r.u64();
    v.computeJobs = r.u64();
    s = v;
}

void
appendCounters(std::vector<NamedCounter> &out, const KernelStats &k)
{
    out.push_back({"kernel.arith_instrs", k.arithInstrs});
    out.push_back({"kernel.ls_instrs", k.lsInstrs});
    out.push_back({"kernel.cf_instrs", k.cfInstrs});
    out.push_back({"kernel.nop_slots", k.nopSlots});
    out.push_back({"kernel.grf_reads", k.grfReads});
    out.push_back({"kernel.grf_writes", k.grfWrites});
    out.push_back({"kernel.temp_accesses", k.tempAccesses});
    out.push_back({"kernel.const_reads", k.constReads});
    out.push_back({"kernel.rom_reads", k.romReads});
    out.push_back({"kernel.global_ldst", k.globalLdSt});
    out.push_back({"kernel.local_ldst", k.localLdSt});
    out.push_back({"kernel.clauses_executed", k.clausesExecuted});
    out.push_back({"kernel.threads_launched", k.threadsLaunched});
    out.push_back({"kernel.warps_launched", k.warpsLaunched});
    out.push_back({"kernel.workgroups", k.workgroups});
    out.push_back({"kernel.divergent_branches", k.divergentBranches});
}

void
appendCounters(std::vector<NamedCounter> &out, const TlbStats &t)
{
    out.push_back({"tlb.last_page_hits", t.lastPageHits});
    out.push_back({"tlb.array_hits", t.arrayHits});
    out.push_back({"tlb.walks", t.walks});
}

void
appendCounters(std::vector<NamedCounter> &out, const SystemStats &s)
{
    out.push_back({"sys.pages_accessed", s.pagesAccessed});
    out.push_back({"sys.ctrl_reg_reads", s.ctrlRegReads});
    out.push_back({"sys.ctrl_reg_writes", s.ctrlRegWrites});
    out.push_back({"sys.irqs_asserted", s.irqsAsserted});
    out.push_back({"sys.compute_jobs", s.computeJobs});
}

void
appendCounters(std::vector<NamedCounter> &out, const SchedStats &s)
{
    out.push_back({"sched.slices_run", s.slicesRun});
    out.push_back({"sched.groups_run", s.groupsRun});
    out.push_back({"sched.steals", s.steals});
    out.push_back({"sched.steal_attempts", s.stealAttempts});
}

void
appendCounters(std::vector<NamedCounter> &out, const sa32::CoreStats &c)
{
    out.push_back({"cpu.instret", c.instret});
    out.push_back({"cpu.blocks_decoded", c.blocksDecoded});
    out.push_back({"cpu.block_hits", c.blockHits});
    out.push_back({"cpu.traps", c.traps});
    out.push_back({"cpu.interrupts", c.interrupts});
    out.push_back({"cpu.cache_flushes", c.cacheFlushes});
    out.push_back({"cpu.dbt_blocks", c.dbtBlocks});
    out.push_back({"cpu.dbt_chain_links", c.dbtChainLinks});
    out.push_back({"cpu.dbt_chain_follows", c.dbtChainFollows});
    out.push_back({"cpu.dbt_chain_breaks", c.dbtChainBreaks});
    out.push_back({"cpu.dbt_retires", c.dbtRetires});
}

void
appendCounters(std::vector<NamedCounter> &out, const fleet::FleetStats &f)
{
    out.push_back({"fleet.jobs_submitted", f.jobsSubmitted});
    out.push_back({"fleet.jobs_completed", f.jobsCompleted});
    out.push_back({"fleet.jobs_faulted", f.jobsFaulted});
    out.push_back({"fleet.jobs_rejected", f.jobsRejected});
    out.push_back({"fleet.jobs_bad_request", f.jobsBadRequest});
    out.push_back({"fleet.queue_ns_total", f.queueNsTotal});
    out.push_back({"fleet.exec_ns_total", f.execNsTotal});
    out.push_back({"fleet.queue_peak", f.queuePeak});
    out.push_back({"fleet.tenants_seen", f.tenantsSeen});
    out.push_back({"fleet.bytes_in", f.bytesIn});
    out.push_back({"fleet.bytes_out", f.bytesOut});
    out.push_back({"fleet.spawns", f.spawns});
    out.push_back({"fleet.recycles", f.recycles});
    out.push_back({"fleet.recycle_failures", f.recycleFailures});
    out.push_back({"fleet.acquire_waits", f.acquireWaits});
    out.push_back({"fleet.sessions_live", f.sessionsLive});
    out.push_back({"fleet.sessions_idle", f.sessionsIdle});
    out.push_back({"fleet.queue_depth", f.queueDepth});
}

} // namespace bifsim::gpu

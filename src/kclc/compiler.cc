#include "kclc/compiler.h"

#include "analysis/analysis.h"
#include "common/logging.h"
#include "kclc/lower.h"
#include "kclc/parser.h"
#include "kclc/passes.h"
#include "kclc/regalloc.h"
#include "kclc/schedule.h"

namespace bifsim::kclc {

CompilerOptions
CompilerOptions::forLevel(int level)
{
    static const char *const kVersions[] = {"5.6", "5.7", "6.0", "6.1"};
    CompilerOptions o;
    o.level = level;
    o.versionName = kVersions[level >= 0 && level < 3 ? level : 3];
    return o;
}

CompilerOptions
CompilerOptions::forVersion(const std::string &version)
{
    if (version == "5.6")
        return forLevel(0);
    if (version == "5.7")
        return forLevel(1);
    if (version == "6.0")
        return forLevel(2);
    if (version == "6.1" || version == "6.2") {
        CompilerOptions o = forLevel(3);
        o.versionName = version;
        return o;
    }
    simError("kclc: unknown compiler version '%s'", version.c_str());
}

namespace {

/** The passes one optimisation level runs. */
struct Passes
{
    bool constFold;
    bool cse;
    ScheduleOptions sched;
};

/** The one level-to-pass map (see the version table in compiler.h). */
Passes
passesFor(int level)
{
    // ScheduleOptions: {maxTuples, pairSlots, dualIssue, tempPromote}.
    switch (level) {
      case 0:  return {false, false, {1, false, false, false}};
      case 1:  return {true, false, {4, true, false, false}};
      case 2:  return {true, true, {8, true, false, true}};
      default: return {true, true, {8, true, true, true}};
    }
}

CompiledKernel
compileOne(const Kernel &k, const CompilerOptions &opts)
{
    const Passes p = passesFor(opts.level);
    LFunc f = lower(k);

    removeUnreachable(f);
    if (p.constFold)
        constFold(f);
    if (p.cse) {
        cse(f);
        copyProp(f);
    }
    if (p.constFold || p.cse)
        deadCodeElim(f);

    AllocResult alloc = allocateRegisters(f);

    bif::Module mod = schedule(f, p.sched);

    std::string verr = bif::validate(mod);
    if (!verr.empty())
        panic("kclc produced an invalid module: %s", verr.c_str());

    // Self-check: the static analyzer must find no error-severity
    // defect in our own output, at every optimisation level.
    analysis::Result ares = analysis::analyze(mod);
    if (ares.hasErrors()) {
        std::string msg;
        for (const analysis::Diag &d : ares.diags) {
            if (d.sev == analysis::Severity::Error)
                msg += "\n  " + analysis::renderDiag(d);
        }
        simError("kclc miscompiled '%s' (analyzer findings):%s",
                 k.name.c_str(), msg.c_str());
    }

    CompiledKernel out;
    out.name = k.name;
    out.binary = bif::encode(mod);
    out.args = f.args;
    out.regCount = mod.regCount;
    out.localBytes = mod.localBytes;
    out.spills = alloc.spills;
    out.mod = std::move(mod);
    return out;
}

} // namespace

CompiledKernel
compileKernel(const std::string &source, const std::string &kernel_name,
              const CompilerOptions &opts)
{
    Unit u = parse(source);
    const Kernel *k = u.find(kernel_name);
    if (!k)
        simError("kclc: no kernel named '%s'", kernel_name.c_str());
    return compileOne(*k, opts);
}

std::vector<CompiledKernel>
compileAll(const std::string &source, const CompilerOptions &opts)
{
    Unit u = parse(source);
    std::vector<CompiledKernel> out;
    out.reserve(u.kernels.size());
    for (const Kernel &k : u.kernels)
        out.push_back(compileOne(k, opts));
    return out;
}

} // namespace bifsim::kclc

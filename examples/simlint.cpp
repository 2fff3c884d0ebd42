/**
 * @file
 * Standalone repo-invariant checker ("simlint", DESIGN.md §5i).
 *
 * Runs the src/lint/ checks over the repository tree: TLV chunk-tag
 * uniqueness, the registered counters (gpu::kCounters) against
 * docs/METRICS.md in both directions, and sim::Mutex annotation
 * coverage.  CI runs it on every push; tests/test_simlint.cc proves
 * each check actually fires on seeded violations.
 *
 * Usage:
 *   simlint [--root <repo-root>] [--check <name>]
 *
 * --root defaults to the current directory and must contain src/.
 * --check limits the run to one of: tlv-tag, counters,
 * mutex-coverage.  Diagnostics print as
 * "file:line: [check] message".
 *
 * Exit status: 0 clean, 1 findings, 2 usage error.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "lint/simlint.h"

namespace {

int
usage()
{
    std::fprintf(stderr,
                 "usage: simlint [--root <repo-root>] [--check "
                 "tlv-tag|counters|mutex-coverage]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace bifsim;

    lint::Options opts;
    std::string only;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--root") == 0 && i + 1 < argc) {
            opts.root = argv[++i];
        } else if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
            only = argv[++i];
        } else {
            return usage();
        }
    }

    std::vector<lint::Diag> diags;
    if (only.empty()) {
        diags = lint::runAllChecks(opts);
    } else if (only == "tlv-tag") {
        diags = lint::checkTagUniqueness(opts);
    } else if (only == "counters") {
        diags = lint::checkCounterDoc(opts);
    } else if (only == "mutex-coverage") {
        diags = lint::checkMutexCoverage(opts);
    } else {
        return usage();
    }

    for (const lint::Diag &d : diags)
        std::fprintf(stderr, "%s\n", lint::renderDiag(d).c_str());
    if (diags.empty()) {
        std::fprintf(stderr, "simlint: clean (%s)\n",
                     only.empty() ? "all checks" : only.c_str());
        return 0;
    }
    std::fprintf(stderr, "simlint: %zu finding(s)\n", diags.size());
    return 1;
}

/**
 * @file
 * Standalone repo-invariant checker ("simlint", DESIGN.md §5i).
 *
 * Runs the src/lint/ checks over the repository tree: TLV chunk-tag
 * uniqueness, DBT X-macro handler/dispatch parity, counter-name
 * registry consistency against docs/METRICS.md, sim::Mutex
 * annotation coverage, and no raw writable pointers into guest RAM
 * outside the written-page choke points.  CI runs it on every push;
 * the seeded-violation fixtures under tests/simlint_fixtures/ prove
 * each check actually fires (tests/test_simlint.cc).
 *
 * Usage:
 *   simlint [--root <repo-root>] [--check <name>]
 *
 * --root defaults to the current directory and must contain src/.
 * --check limits the run to one of: tlv-tag, dbt-parity, counters,
 * mutex-coverage, raw-ram-write.  Diagnostics print as
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
                 "tlv-tag|dbt-parity|counters|mutex-coverage|"
                 "raw-ram-write]\n");
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
    } else if (only == "dbt-parity") {
        diags = lint::checkDbtParity(opts);
    } else if (only == "counters") {
        diags = lint::checkCounterRegistry(opts);
    } else if (only == "mutex-coverage") {
        diags = lint::checkMutexCoverage(opts);
    } else if (only == "raw-ram-write") {
        diags = lint::checkRawRamWrites(opts);
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

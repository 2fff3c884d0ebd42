#ifndef BIFSIM_LINT_SIMLINT_H
#define BIFSIM_LINT_SIMLINT_H

/**
 * @file
 * simlint: repo-shape invariant checks (DESIGN.md §5i).
 *
 * The compiler enforces what a single translation unit can see: DBT
 * handler parity (the computed-goto label table), counter-name
 * uniqueness and grammar (static_asserts on gpu::kCounters) and who
 * may write guest RAM (PhysMem::hostPtr is private).  The clang
 * thread-safety job proves lock discipline.  This library checks the
 * invariants left over — the kind that corrupt silently when violated:
 *
 *  1. TLV tag uniqueness: every `constexpr uint32_t k... = makeTag`
 *     4CC across the BSNP/BRPL/FLT* serializers is claimed exactly
 *     once.  The tags span headers no one translation unit includes.
 *  2. Counter doc: every counter in gpu::kCounters is documented in
 *     docs/METRICS.md, and the doc names no counter that isn't
 *     registered.
 *  3. Mutex coverage: no raw std mutex/condition-variable member in
 *     src/ outside thread_annotations.h, and every `sim::Mutex`
 *     member is referenced by at least one thread-safety annotation
 *     in its file.  An unannotated member is not a type error.
 *
 * Checks 1 and 3 are lexical (line-oriented scans, no real C++
 * parse): the guarded patterns are lexical idioms the repo enforces
 * by convention.  Fixture-driven tests (tests/test_simlint.cc) pin
 * the exact file:line each seeded violation is reported at.
 *
 * Used by the `simlint` CLI (examples/simlint.cpp) and CI.
 */

#include <span>
#include <string>
#include <vector>

#include "instrument/stats.h"

namespace bifsim::lint {

/** One finding.  `file` is relative to Options::root. */
struct Diag
{
    std::string file;
    int line = 0;           ///< 1-based; 0 = whole-file/cross-file.
    std::string check;      ///< "tlv-tag", "counters",
                            ///< "mutex-coverage".
    std::string message;
};

/** Where to look.  Defaults mirror the repository layout; tests point
 *  `root` at seeded-violation fixture trees with the same shape. */
struct Options
{
    std::string root = ".";
    std::string srcDir = "src";
    std::string metricsDoc = "docs/METRICS.md";
};

/** @name Individual checks (each returns its findings, empty = clean).
 *  A missing input file is itself a finding — a renamed METRICS.md
 *  must fail the check, not silently skip it. */
///@{
std::vector<Diag> checkTagUniqueness(const Options &opts);
/** Checks Options::metricsDoc against @p counters, both ways. */
std::vector<Diag> checkCounterDoc(
    const Options &opts,
    std::span<const gpu::CounterInfo> counters = gpu::kCounters);
std::vector<Diag> checkMutexCoverage(const Options &opts);
///@}

/** Runs every check; findings in check order, file/line order within
 *  a check. */
std::vector<Diag> runAllChecks(const Options &opts);

/** "file:line: [check] message" (line omitted when 0). */
std::string renderDiag(const Diag &d);

} // namespace bifsim::lint

#endif // BIFSIM_LINT_SIMLINT_H

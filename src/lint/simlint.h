#ifndef BIFSIM_LINT_SIMLINT_H
#define BIFSIM_LINT_SIMLINT_H

/**
 * @file
 * simlint: repo-shape invariant checks (DESIGN.md §5i).
 *
 * The clang thread-safety job proves lock discipline; this library
 * checks the *textual* invariants the type system can't reach — the
 * kind that corrupt silently when violated:
 *
 *  1. TLV tag uniqueness: every `constexpr uint32_t k... = makeTag`
 *     4CC across the BSNP/BRPL serializers is claimed exactly once.
 *  2. DBT X-macro parity: the `DBT_OPS(X)` op list and the
 *     `HANDLER(Op)` bodies in src/cpu/dbt.cc are the same set.
 *  3. Counter registry: every counter name `appendCounters` emits is
 *     unique, matches `prefix.lower_snake`, and is documented in
 *     docs/METRICS.md — and the doc names no counter that doesn't
 *     exist.
 *  4. Mutex coverage: no raw std mutex/condition-variable member in
 *     src/ outside thread_annotations.h, and every `sim::Mutex`
 *     member is referenced by at least one thread-safety annotation
 *     in its file.
 *  5. Raw RAM writes: no code in src/ takes PhysMem's writable
 *     `hostPtr(` outside phys_mem.*, gpu/gmmu.cc and
 *     gpu/shader_core.cc — the places that mark the pages they hand
 *     out — so every store to guest RAM reaches the written-page
 *     tracking (DESIGN.md §5h).  Comments are not code.
 *
 * The checks are deliberately lexical (line-oriented scans, no real
 * C++ parse): the guarded patterns are themselves lexical idioms the
 * repo enforces by convention, and a checker that needs a compiler to
 * run can't be the thing CI runs before the compiler.  Fixture-driven
 * tests (tests/test_simlint.cc) pin the exact file:line each seeded
 * violation is reported at.
 *
 * Used by the `simlint` CLI (examples/simlint.cpp) and CI.
 */

#include <string>
#include <vector>

namespace bifsim::lint {

/** One finding.  `file` is relative to Options::root. */
struct Diag
{
    std::string file;
    int line = 0;           ///< 1-based; 0 = whole-file/cross-file.
    std::string check;      ///< "tlv-tag", "dbt-parity", "counters",
                            ///< "mutex-coverage", "raw-ram-write".
    std::string message;
};

/** Where to look.  Defaults mirror the repository layout; tests point
 *  `root` at seeded-violation fixture trees with the same shape. */
struct Options
{
    std::string root = ".";
    std::string srcDir = "src";
    std::string dbtFile = "src/cpu/dbt.cc";
    std::string statsFile = "src/instrument/stats.cc";
    std::string metricsDoc = "docs/METRICS.md";
};

/** @name Individual checks (each returns its findings, empty = clean).
 *  A missing input file is itself a finding — a renamed dbt.cc must
 *  fail the check, not silently skip it. */
///@{
std::vector<Diag> checkTagUniqueness(const Options &opts);
std::vector<Diag> checkDbtParity(const Options &opts);
std::vector<Diag> checkCounterRegistry(const Options &opts);
std::vector<Diag> checkMutexCoverage(const Options &opts);
std::vector<Diag> checkRawRamWrites(const Options &opts);
///@}

/** Runs every check; findings in check order, file/line order within
 *  a check. */
std::vector<Diag> runAllChecks(const Options &opts);

/** "file:line: [check] message" (line omitted when 0). */
std::string renderDiag(const Diag &d);

} // namespace bifsim::lint

#endif // BIFSIM_LINT_SIMLINT_H

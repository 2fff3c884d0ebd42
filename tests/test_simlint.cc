// simlint self-tests: each seeded-violation fixture under
// tests/simlint_fixtures/ must be reported with the exact file, line
// and check tag a developer would need to fix it.  The fixtures
// mirror the repo layout (src/, docs/) so lint::Options defaults
// apply unchanged; SIMLINT_FIXTURE_DIR is injected by CMake.

#include "lint/simlint.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using bifsim::lint::Diag;
using bifsim::lint::Options;

namespace {

Options
fixture(const std::string &name)
{
    Options o;
    o.root = std::string(SIMLINT_FIXTURE_DIR) + "/" + name;
    return o;
}

bool
contains(const std::string &haystack, const std::string &needle)
{
    return haystack.find(needle) != std::string::npos;
}

} // namespace

TEST(Simlint, DuplicateTlvTagReportedAtSecondDefinition)
{
    std::vector<Diag> d =
        bifsim::lint::checkTagUniqueness(fixture("dup_tag"));
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].file, "src/serial_b.h");
    EXPECT_EQ(d[0].line, 6);
    EXPECT_EQ(d[0].check, "tlv-tag");
    // The message points back at the first claim of the 4CC.
    EXPECT_TRUE(contains(d[0].message, "\"DUPE\""));
    EXPECT_TRUE(contains(d[0].message, "src/serial_a.h:11"));
    // Read-side makeTag uses (serial_b.h:8) must not be flagged, and
    // the unique tag ALPH must not appear anywhere in the output.
    for (const Diag &diag : d)
        EXPECT_FALSE(contains(diag.message, "ALPH"));
}

TEST(Simlint, DuplicateFleetFrameTagReported)
{
    // Fleet frame kinds (FLT*) are minted with makeTag like snapshot
    // chunk tags, so the same check must catch a duplicated 4CC in
    // fleet protocol code.
    std::vector<Diag> d =
        bifsim::lint::checkTagUniqueness(fixture("dup_tag_fleet"));
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].file, "src/fleet_b.h");
    EXPECT_EQ(d[0].line, 6);
    EXPECT_EQ(d[0].check, "tlv-tag");
    EXPECT_TRUE(contains(d[0].message, "\"FLTZ\""));
    EXPECT_TRUE(contains(d[0].message, "src/fleet_a.h:11"));
}

TEST(Simlint, DbtParityFindsMissingAndOrphanHandlers)
{
    std::vector<Diag> d =
        bifsim::lint::checkDbtParity(fixture("missing_handler"));
    ASSERT_EQ(d.size(), 2u);
    // Op in the list without a handler body, at the X(Foo) line.
    EXPECT_EQ(d[0].file, "src/cpu/dbt.cc");
    EXPECT_EQ(d[0].line, 8);
    EXPECT_EQ(d[0].check, "dbt-parity");
    EXPECT_TRUE(contains(d[0].message, "op Foo"));
    EXPECT_TRUE(contains(d[0].message, "no HANDLER(Foo) body"));
    // Handler body with no list entry, at its definition line.
    EXPECT_EQ(d[1].file, "src/cpu/dbt.cc");
    EXPECT_EQ(d[1].line, 12);
    EXPECT_EQ(d[1].check, "dbt-parity");
    EXPECT_TRUE(contains(d[1].message, "HANDLER(Ghost)"));
    EXPECT_TRUE(contains(d[1].message, "no matching entry"));
}

TEST(Simlint, CounterRegistryFindsAllViolationKinds)
{
    std::vector<Diag> d =
        bifsim::lint::checkCounterRegistry(fixture("orphan_counter"));
    ASSERT_EQ(d.size(), 4u);
    // Scan-order first: duplicate emit at line 9 (first emit line 7).
    EXPECT_EQ(d[0].file, "src/instrument/stats.cc");
    EXPECT_EQ(d[0].line, 9);
    EXPECT_EQ(d[0].check, "counters");
    EXPECT_TRUE(contains(d[0].message, "\"sched.slices_run\""));
    EXPECT_TRUE(contains(d[0].message, "already emitted at line 7"));
    // Grammar violation at line 10.
    EXPECT_EQ(d[1].file, "src/instrument/stats.cc");
    EXPECT_EQ(d[1].line, 10);
    EXPECT_TRUE(contains(d[1].message, "\"sched.CamelCase\""));
    EXPECT_TRUE(contains(d[1].message, "grammar"));
    // Emitted but undocumented, at the emit line.
    EXPECT_EQ(d[2].file, "src/instrument/stats.cc");
    EXPECT_EQ(d[2].line, 8);
    EXPECT_TRUE(contains(d[2].message, "\"sched.bogus_counter\""));
    EXPECT_TRUE(contains(d[2].message, "not documented in "
                                       "docs/METRICS.md"));
    // Documented but never emitted, at its line in the doc.
    EXPECT_EQ(d[3].file, "docs/METRICS.md");
    EXPECT_EQ(d[3].line, 7);
    EXPECT_TRUE(contains(d[3].message, "\"tlb.phantom_series\""));
    EXPECT_TRUE(contains(d[3].message, "not emitted"));
}

TEST(Simlint, MutexCoverageFlagsRawAndUnreferencedMutexes)
{
    std::vector<Diag> d =
        bifsim::lint::checkMutexCoverage(fixture("unguarded_mutex"));
    ASSERT_EQ(d.size(), 2u);
    // Raw standard mutex member.
    EXPECT_EQ(d[0].file, "src/widget.h");
    EXPECT_EQ(d[0].line, 9);
    EXPECT_EQ(d[0].check, "mutex-coverage");
    EXPECT_TRUE(contains(d[0].message, "sim:: wrappers"));
    // sim::Mutex member never named by an annotation.
    EXPECT_EQ(d[1].file, "src/widget.h");
    EXPECT_EQ(d[1].line, 11);
    EXPECT_EQ(d[1].check, "mutex-coverage");
    EXPECT_TRUE(contains(d[1].message, "lonely_"));
    // guarded_ is referenced by GUARDED_BY(busy_'s annotation) and
    // must not be flagged.
    for (const Diag &diag : d)
        EXPECT_FALSE(contains(diag.message, "guarded_"));
}

TEST(Simlint, RawRamWriteFlaggedOutsideOwners)
{
    std::vector<Diag> d =
        bifsim::lint::checkRawRamWrites(fixture("raw_ram_write"));
    // phys_mem.h and gmmu.cc own the accessor; comments, readPtr and a
    // longer identifier ending in the name are not uses.
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].file, "src/replay/apply.cc");
    EXPECT_EQ(d[0].line, 14);
    EXPECT_EQ(d[0].check, "raw-ram-write");
    EXPECT_TRUE(contains(d[0].message, "written-page tracking"));
}

TEST(Simlint, MissingInputFilesAreFindingsNotSkips)
{
    // Point the dbt check at a fixture that has no src/cpu/dbt.cc:
    // a silently-skipped check is worse than a failing one.
    std::vector<Diag> d =
        bifsim::lint::checkDbtParity(fixture("dup_tag"));
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].file, "src/cpu/dbt.cc");
    EXPECT_EQ(d[0].line, 0);
    EXPECT_EQ(d[0].check, "dbt-parity");
    EXPECT_TRUE(contains(d[0].message, "missing"));
}

TEST(Simlint, RenderDiagFormatsFileLineCheckMessage)
{
    Diag d{"src/x.cc", 42, "tlv-tag", "boom"};
    EXPECT_EQ(bifsim::lint::renderDiag(d), "src/x.cc:42: [tlv-tag] boom");
    Diag whole{"src/x.cc", 0, "counters", "gone"};
    EXPECT_EQ(bifsim::lint::renderDiag(whole), "src/x.cc: [counters] gone");
}

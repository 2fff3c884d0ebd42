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

TEST(Simlint, CounterRegistryFindsAllViolationKinds)
{
    // The doc check takes the registered names as a parameter; a
    // two-entry table stands in for gpu::kCounters.
    constexpr bifsim::gpu::CounterInfo kFake[] = {
        {"sched.slices_run", false},
        {"sched.bogus_counter", false},
    };
    std::vector<Diag> d =
        bifsim::lint::checkCounterDoc(fixture("orphan_counter"), kFake);
    ASSERT_EQ(d.size(), 2u);
    // Registered but undocumented: no doc line to point at.
    EXPECT_EQ(d[0].file, "docs/METRICS.md");
    EXPECT_EQ(d[0].line, 0);
    EXPECT_EQ(d[0].check, "counters");
    EXPECT_TRUE(contains(d[0].message, "\"sched.bogus_counter\""));
    EXPECT_TRUE(contains(d[0].message, "not documented"));
    // Documented but never registered, at its line in the doc.  The
    // backticked `Sched.NotAName` is not a counter name and is skipped.
    EXPECT_EQ(d[1].file, "docs/METRICS.md");
    EXPECT_EQ(d[1].line, 7);
    EXPECT_EQ(d[1].check, "counters");
    EXPECT_TRUE(contains(d[1].message, "\"tlb.phantom_series\""));
    EXPECT_TRUE(contains(d[1].message, "not in any counter table"));
}

TEST(Simlint, RepoCounterTableIsTheDefault)
{
    // With no table given the check reads gpu::kCounters.  The
    // fixture doc lists one real name (sched.slices_run) and one
    // phantom, so every other real name plus the phantom is reported.
    std::vector<Diag> d =
        bifsim::lint::checkCounterDoc(fixture("orphan_counter"));
    EXPECT_EQ(d.size(), bifsim::gpu::kCounters.size());
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

TEST(Simlint, MissingInputFilesAreFindingsNotSkips)
{
    // Point the counter check at a fixture that has no
    // docs/METRICS.md: a silently-skipped check is worse than a
    // failing one.
    std::vector<Diag> d =
        bifsim::lint::checkCounterDoc(fixture("dup_tag"));
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].file, "docs/METRICS.md");
    EXPECT_EQ(d[0].line, 0);
    EXPECT_EQ(d[0].check, "counters");
    EXPECT_TRUE(contains(d[0].message, "missing"));

    // The tag scan over a tree with no src/ at all finds no tag
    // definitions, which is a finding too.
    Options none = fixture("orphan_counter");
    d = bifsim::lint::checkTagUniqueness(none);
    ASSERT_EQ(d.size(), 1u);
    EXPECT_EQ(d[0].file, "src");
    EXPECT_EQ(d[0].check, "tlv-tag");
    EXPECT_TRUE(contains(d[0].message, "no TLV tag definitions"));
}

TEST(Simlint, RenderDiagFormatsFileLineCheckMessage)
{
    Diag d{"src/x.cc", 42, "tlv-tag", "boom"};
    EXPECT_EQ(bifsim::lint::renderDiag(d), "src/x.cc:42: [tlv-tag] boom");
    Diag whole{"src/x.cc", 0, "counters", "gone"};
    EXPECT_EQ(bifsim::lint::renderDiag(whole), "src/x.cc: [counters] gone");
}

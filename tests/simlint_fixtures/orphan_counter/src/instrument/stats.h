// Seeded-violation fixture (simlint check: counters).
// Line 8: orphan (registered, never documented).  Line 9: duplicate of
// line 7.  Line 10: breaks the prefix.lower_snake grammar.
#include <cstdint>

inline constexpr CounterField<SchedStats> kSchedCounters[] = {
    {"sched.slices_run", &SchedStats::slicesRun},
    {"sched.bogus_counter", &SchedStats::groupsRun},
    {"sched.slices_run", &SchedStats::steals},
    {"sched.CamelCase", &SchedStats::stealAttempts, kGauge},
};

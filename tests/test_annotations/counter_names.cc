// Runs the counter-name predicates that guard gpu::kCounters on a
// small table of its own.  Built with -DDUPLICATE_NAME the table
// registers one name twice, and with -DBAD_NAME it has a name outside
// the prefix.lower_snake grammar; each must fail its static_assert
// under every compiler.

#include "instrument/stats.h"

using bifsim::gpu::CounterInfo;

constexpr CounterInfo kTable[] = {
    {"tlb.walks", false},
#ifdef DUPLICATE_NAME
    {"tlb.walks", false},
#elif defined(BAD_NAME)
    {"Kernel.Foo", false},
#else
    {"kernel.foo", false},
#endif
};

static_assert(bifsim::gpu::counterNamesUnique(kTable),
              "counter names must be unique");
static_assert(bifsim::gpu::counterNamesWellFormed(kTable),
              "counter names must be prefix.lower_snake");

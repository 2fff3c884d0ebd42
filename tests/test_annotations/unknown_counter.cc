// Reads a counter through its compile-time registry slot.  Built with
// -DUNKNOWN_COUNTER it names a counter no table registers (a scheduler
// counter that no longer exists), which must be a compile error under
// every compiler: a read of a missing counter can never silently
// return 0.

#include "instrument/stats.h"

#ifdef UNKNOWN_COUNTER
constexpr const char *kName = "sched.shader_l1_hits";
#else
constexpr const char *kName = "tlb.walks";
#endif

uint16_t
walksSlot()
{
    return bifsim::gpu::counterSlot(kName);
}

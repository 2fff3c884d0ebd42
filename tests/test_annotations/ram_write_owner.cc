// Reads guest RAM from a free function.  Built with -DRAW_RAM_WRITE it
// takes PhysMem's writable host pointer instead, which must be a
// compile error under every compiler: only the GPU MMU and the shader
// core (which mark the pages they hand out) may store to RAM around
// the written-page tracking.

#include "mem/phys_mem.h"

uint8_t
firstByte(bifsim::PhysMem &mem)
{
#ifdef RAW_RAM_WRITE
    return *mem.hostPtr(mem.base());
#else
    return *mem.readPtr(mem.base());
#endif
}

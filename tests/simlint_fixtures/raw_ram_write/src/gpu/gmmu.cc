// Seeded fixture: the GPU MMU marks what it caches, so it may call it.
#include "mem/phys_mem.h"

unsigned char *
fill(PhysMem &mem, unsigned long frame)
{
    return mem.hostPtr(frame);
}

// Seeded fixture: only line 14 is a violation.
#include <cstring>

#include "mem/phys_mem.h"

// A comment may mention mem.hostPtr(addr) freely.
void
apply(PhysMem &mem, unsigned long addr, const void *src)
{
    const unsigned char *view = mem.readPtr(addr);   // Reads are fine.
    (void)view;
    mem.writeBlock(addr, src, 4096);                 // Marked write.
    /* mem.hostPtr(addr) in a block comment is not code either. */
    std::memcpy(mem.hostPtr(addr), src, 4096);
}

unsigned char *ghosthostPtr(unsigned long);   // Longer identifier.

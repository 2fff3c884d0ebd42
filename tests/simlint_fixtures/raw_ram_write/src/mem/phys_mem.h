// Seeded fixture: the owner of the accessor may define and use it.
struct PhysMem
{
    unsigned char *hostPtr(unsigned long addr);
    const unsigned char *readPtr(unsigned long addr) const;
    void writeBlock(unsigned long addr, const void *src, unsigned long n);
};

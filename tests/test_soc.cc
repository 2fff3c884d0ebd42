/** @file Unit tests for the SoC devices: UART, timer, INTC. */

#include <gtest/gtest.h>

#include "soc/devices.h"

namespace bifsim::soc {
namespace {

TEST(Uart, CapturesOutput)
{
    Uart u;
    for (char c : std::string("hi\n"))
        u.mmioWrite(Uart::kRegThr, static_cast<uint32_t>(c));
    EXPECT_EQ(u.output(), "hi\n");
    u.clearOutput();
    EXPECT_EQ(u.output(), "");
}

TEST(Uart, TxAlwaysReady)
{
    Uart u;
    EXPECT_EQ(u.mmioRead(Uart::kRegLsr) & 1, 1u);
}

TEST(Uart, IgnoresOtherOffsets)
{
    Uart u;
    u.mmioWrite(0x40, 'x');
    EXPECT_EQ(u.output(), "");
    EXPECT_EQ(u.mmioRead(Uart::kRegThr), 0u);
}

TEST(Timer, CountsTicks)
{
    Timer t(nullptr);
    t.tick(100);
    EXPECT_EQ(t.now(), 100u);
    EXPECT_EQ(t.mmioRead(Timer::kRegTimeLo), 100u);
    EXPECT_EQ(t.mmioRead(Timer::kRegTimeHi), 0u);
}

TEST(Timer, CompareRaisesAndClearsIrq)
{
    bool level = false;
    Timer t([&](bool l) { level = l; });
    t.mmioWrite(Timer::kRegCmpLo, 50);
    t.mmioWrite(Timer::kRegCmpHi, 0);
    t.tick(49);
    EXPECT_FALSE(level);
    t.tick(1);
    EXPECT_TRUE(level);
    // Move the compare forward: IRQ drops.
    t.mmioWrite(Timer::kRegCmpLo, 1000);
    EXPECT_FALSE(level);
}

TEST(Timer, SixtyFourBitTime)
{
    Timer t(nullptr);
    t.tick(0x1'0000'0000ull);
    EXPECT_EQ(t.mmioRead(Timer::kRegTimeHi), 1u);
}

/**
 * Regression: a guest reading MTIME_LO then MTIME_HI across a tick()
 * must observe a consistent 64-bit pair.  Before the high-word latch, a
 * tick carrying mtime over a 2^32 boundary between the two reads
 * produced LO=0xffffffff paired with the *new* HI (a time 2^32 in the
 * future); the LO read now latches the matching HI.
 */
TEST(Timer, NoTornSixtyFourBitRead)
{
    Timer t(nullptr);
    t.tick(0xffffffffull);                 // mtime = 0x0'ffff'ffff
    uint32_t lo = t.mmioRead(Timer::kRegTimeLo);
    t.tick(1);                             // mtime = 0x1'0000'0000
    uint32_t hi = t.mmioRead(Timer::kRegTimeHi);
    EXPECT_EQ(lo, 0xffffffffu);
    EXPECT_EQ(hi, 0u);   // Old code returned 1: a torn pair.

    // The latch is consumed: the next HI read is live again.
    EXPECT_EQ(t.mmioRead(Timer::kRegTimeHi), 1u);
}

TEST(Timer, NoTornCompareRead)
{
    Timer t(nullptr);
    t.mmioWrite(Timer::kRegCmpLo, 0xffffffffu);
    t.mmioWrite(Timer::kRegCmpHi, 0);
    uint32_t lo = t.mmioRead(Timer::kRegCmpLo);
    // The compare register changes between the two halves of the read
    // (e.g. another context reprogramming it).
    t.mmioWrite(Timer::kRegCmpHi, 5);
    uint32_t hi = t.mmioRead(Timer::kRegCmpHi);
    EXPECT_EQ(lo, 0xffffffffu);
    EXPECT_EQ(hi, 0u);   // Paired with the LO read, not the new value.
    EXPECT_EQ(t.mmioRead(Timer::kRegCmpHi), 5u);
}

TEST(Timer, ResetReturnsToPowerOn)
{
    bool level = false;
    Timer t([&](bool l) { level = l; });
    t.mmioWrite(Timer::kRegCmpLo, 10);
    t.mmioWrite(Timer::kRegCmpHi, 0);
    t.tick(100);
    EXPECT_TRUE(level);
    t.reset();
    EXPECT_FALSE(level);   // cmp back at ~0: IRQ dropped.
    EXPECT_EQ(t.now(), 0u);
    EXPECT_EQ(t.mmioRead(Timer::kRegTimeLo), 0u);
}

TEST(Intc, PendingAndEnable)
{
    bool level = false;
    Intc ic([&](bool l) { level = l; });
    ic.setLine(3, true);
    EXPECT_FALSE(level);               // Not enabled yet.
    ic.mmioWrite(Intc::kRegEnable, 1u << 3);
    EXPECT_TRUE(level);
    EXPECT_EQ(ic.mmioRead(Intc::kRegPending), 1u << 3);
}

TEST(Intc, ClaimReturnsLowestLine)
{
    Intc ic(nullptr);
    ic.mmioWrite(Intc::kRegEnable, 0xFF);
    ic.setLine(5, true);
    ic.setLine(2, true);
    EXPECT_EQ(ic.mmioRead(Intc::kRegClaim), 3u);   // line 2 + 1.
    ic.setLine(2, false);
    EXPECT_EQ(ic.mmioRead(Intc::kRegClaim), 6u);   // line 5 + 1.
    ic.setLine(5, false);
    EXPECT_EQ(ic.mmioRead(Intc::kRegClaim), 0u);
}

TEST(Intc, LevelDropsWhenSourceClears)
{
    bool level = false;
    Intc ic([&](bool l) { level = l; });
    ic.mmioWrite(Intc::kRegEnable, 2);
    ic.setLine(1, true);
    EXPECT_TRUE(level);
    ic.setLine(1, false);
    EXPECT_FALSE(level);
}

TEST(Intc, DisableMasksOutput)
{
    bool level = false;
    Intc ic([&](bool l) { level = l; });
    ic.mmioWrite(Intc::kRegEnable, 2);
    ic.setLine(1, true);
    EXPECT_TRUE(level);
    ic.mmioWrite(Intc::kRegEnable, 0);
    EXPECT_FALSE(level);
}

TEST(Intc, ResetDropsPendingLinesAndOutput)
{
    bool level = false;
    Intc ic([&](bool l) { level = l; });
    ic.mmioWrite(Intc::kRegEnable, 2);
    ic.setLine(1, true);
    EXPECT_TRUE(level);
    ic.reset();
    EXPECT_FALSE(level);
    EXPECT_EQ(ic.mmioRead(Intc::kRegPending), 0u);
    EXPECT_EQ(ic.mmioRead(Intc::kRegEnable), 0u);
}

TEST(Uart, ResetClearsCapturedOutput)
{
    Uart u;
    u.mmioWrite(Uart::kRegThr, 'x');
    EXPECT_EQ(u.output(), "x");
    u.reset();
    EXPECT_EQ(u.output(), "");
}

} // namespace
} // namespace bifsim::soc

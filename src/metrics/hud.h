#ifndef BIFSIM_METRICS_HUD_H
#define BIFSIM_METRICS_HUD_H

/**
 * @file
 * Live text HUD over the always-on metrics registry (§5k).
 *
 * renderHud() is a pure function from the registry's sample ring to a
 * block of text — no terminal I/O, no timing, no state — so tests can
 * assert on its output and `full_system_boot --hud` owns the refresh
 * loop (sample, render, cursor-up-rewrite) separately.  All rates are
 * windowed over the ring (see Registry::rate), so a stalled guest
 * decays to 0 instead of averaging over the whole run.
 */

#include <string>

namespace bifsim::metrics {

class Registry;

/**
 * Renders the current HUD frame: CPU MIPS, GPU kernel MI/s and
 * jobs/s, TLB hit %, scheduler steal ratio, and — when the process
 * hosts a fleet server — queue depth and session gauges.  Rates are
 * over a fixed 1 s window.  Every line is padded to one width and
 * ends in '\n'; the line count is stable across frames for a fixed
 * registry population, so callers can move the cursor up by the
 * number of lines they previously printed and overwrite the frame.
 *
 * Threading: call from the sampling thread (reads the ring).
 */
std::string renderHud(const Registry &reg);

} // namespace bifsim::metrics

#endif // BIFSIM_METRICS_HUD_H

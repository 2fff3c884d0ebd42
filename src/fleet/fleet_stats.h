#ifndef BIFSIM_FLEET_FLEET_STATS_H
#define BIFSIM_FLEET_FLEET_STATS_H

/**
 * @file
 * Fleet server counters (DESIGN.md §5j).
 *
 * A dependency-free leaf header: the fleet server fills this struct
 * and its counter table (instrument::kFleetCounters) names each field
 * "fleet."-prefixed, keeping the counter registry (and simlint's
 * counters check, docs/METRICS.md) in one place without
 * instrument/ depending on the fleet subsystem proper.
 *
 * Counters are monotone accumulators except the five the table marks
 * as gauges (levels, a high-water mark and a set size, taken at query
 * time).
 */

#include <cstdint>
#include <cstddef>

namespace bifsim::fleet {

struct FleetStats
{
    uint64_t jobsSubmitted = 0;    ///< Admission attempts.
    uint64_t jobsCompleted = 0;    ///< Ran to completion (Ok).
    uint64_t jobsFaulted = 0;      ///< GPU-side faults.
    uint64_t jobsRejected = 0;     ///< Backpressure rejections.
    uint64_t jobsBadRequest = 0;   ///< Validation failures.
    uint64_t queueNsTotal = 0;     ///< Sum of admission->dispatch ns.
    uint64_t execNsTotal = 0;      ///< Sum of dispatch->completion ns.
    uint64_t queuePeak = 0;        ///< High-water mark of queued jobs.
    uint64_t tenantsSeen = 0;      ///< Distinct tenant names admitted.
    uint64_t bytesIn = 0;          ///< Job write payload bytes.
    uint64_t bytesOut = 0;         ///< Job readback bytes.
    uint64_t spawns = 0;           ///< Pool: cold spawns from the image.
    uint64_t recycles = 0;         ///< Pool: in-place session resets.
    uint64_t recycleFailures = 0;  ///< Pool: resets that dropped a session.
    uint64_t acquireWaits = 0;     ///< Pool: acquires that blocked.
    uint64_t sessionsLive = 0;     ///< Gauge: sessions in existence.
    uint64_t sessionsIdle = 0;     ///< Gauge: sessions parked, ready.
    uint64_t queueDepth = 0;       ///< Gauge: jobs queued right now.
};

} // namespace bifsim::fleet

#endif // BIFSIM_FLEET_FLEET_STATS_H

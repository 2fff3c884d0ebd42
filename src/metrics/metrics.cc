#include "metrics/metrics.h"

#include <algorithm>

#include "trace/trace.h"

namespace bifsim::metrics {

Registry::Registry(size_t ring_capacity)
    : ring_(ring_capacity ? ring_capacity : 1)
{
}

void
Registry::publish(const std::vector<gpu::NamedCounter> &deltas)
{
    if (!enabled())
        return;
    sim::LockGuard g(lock_);
    for (const gpu::NamedCounter &d : deltas)
        if (!gpu::counterIsGauge(d.slot))
            cells_[d.slot] += d.value;
    ++stats_.publishes;
}

void
Registry::setGauge(uint16_t slot, uint64_t value)
{
    if (!enabled())
        return;
    sim::LockGuard g(lock_);
    cells_[slot] = value;
}

std::array<uint64_t, kMaxSlots>
Registry::totals() const
{
    sim::LockGuard g(lock_);
    return cells_;
}

Sample
Registry::snapshot() const
{
    Sample s;
    s.ns = trace::nowNs();
    s.v = totals();
    return s;
}

void
Registry::sample()
{
    sim::LockGuard g(lock_);
    // Timestamped under the lock, so the ring's timeline is monotone
    // whichever thread samples.
    Sample &s = ring_[ringPushed_ % ring_.size()];
    s.ns = trace::nowNs();
    s.v = cells_;
    ++ringPushed_;
    ++stats_.samples;
}

size_t
Registry::ringSizeLocked() const
{
    return static_cast<size_t>(
        std::min<uint64_t>(ringPushed_, ring_.size()));
}

size_t
Registry::ringSize() const
{
    sim::LockGuard g(lock_);
    return ringSizeLocked();
}

uint64_t
Registry::ringPushed() const
{
    sim::LockGuard g(lock_);
    return ringPushed_;
}

size_t
Registry::ringCapacity() const
{
    sim::LockGuard g(lock_);
    return ring_.size();
}

const Sample *
Registry::ringAtLocked(size_t age) const
{
    if (age >= ringSizeLocked())
        return nullptr;
    return &ring_[(ringPushed_ - 1 - age) % ring_.size()];
}

bool
Registry::ringAt(size_t age_from_newest, Sample &out) const
{
    sim::LockGuard g(lock_);
    const Sample *s = ringAtLocked(age_from_newest);
    if (s)
        out = *s;
    return s != nullptr;
}

double
Registry::rate(uint16_t slot, uint64_t window_ns) const
{
    if (slot >= kMaxSlots)
        return 0;
    sim::LockGuard g(lock_);
    const Sample *newest = ringAtLocked(0);
    if (!newest)
        return 0;
    // Scan back for the oldest retained sample still inside the
    // window.  The ring is small (default 1024) and the HUD calls
    // this a handful of times per refresh; linear is fine.
    const Sample *oldest = newest;
    for (size_t age = 1;; ++age) {
        const Sample *s = ringAtLocked(age);
        if (!s || newest->ns - s->ns > window_ns)
            break;
        oldest = s;
    }
    if (newest->ns <= oldest->ns)
        return 0;
    uint64_t dv = newest->v[slot] >= oldest->v[slot]
                      ? newest->v[slot] - oldest->v[slot]
                      : 0;   // Gauge moved down; rate is meaningless.
    double dt = static_cast<double>(newest->ns - oldest->ns) * 1e-9;
    return static_cast<double>(dv) / dt;
}

RegistryStats
Registry::stats() const
{
    sim::LockGuard g(lock_);
    return stats_;
}

Registry &
registry()
{
    // Leaked on purpose: publisher threads (fleet workers, GPU
    // workers) may still be publishing during static destruction.
    static Registry *g = new Registry();
    return *g;
}

void
CounterBaseline::appendDeltas(std::vector<gpu::NamedCounter> &out,
                              const std::vector<gpu::NamedCounter> &now)
{
    base_.resize(now.size());
    for (size_t i = 0; i < now.size(); ++i) {
        if (now[i].value > base_[i])
            out.push_back({now[i].slot, now[i].value - base_[i]});
        base_[i] = std::max(base_[i], now[i].value);
    }
}

void
CounterBaseline::rebase(const std::vector<gpu::NamedCounter> &now)
{
    base_.resize(now.size());
    for (size_t i = 0; i < now.size(); ++i)
        base_[i] = now[i].value;
}

} // namespace bifsim::metrics

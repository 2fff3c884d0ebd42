#include "trace/trace.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <string_view>

namespace bifsim::trace {

uint64_t
nowNs()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point epoch = clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            clock::now() - epoch)
            .count());
}

TraceBuffer::TraceBuffer(std::string thread_name)
    : threadName_(std::move(thread_name)), ring_(kCapacity)
{
}

void
TraceBuffer::push(const Event &e)
{
    uint64_t n = count_.load(std::memory_order_relaxed);
    ring_[n % ring_.size()] = e;
    count_.store(n + 1, std::memory_order_release);
}

void
TraceBuffer::pushNow(const char *name, const char *cat, Phase ph,
                     uint8_t nargs, const char *a0n, uint64_t a0,
                     const char *a1n, uint64_t a1)
{
    Event e;
    e.name = name;
    e.cat = cat;
    e.ts = nowNs();
    e.phase = ph;
    e.numArgs = nargs;
    e.args[0] = {a0n, a0};
    e.args[1] = {a1n, a1};
    push(e);
}

void
TraceBuffer::pushSpan(const char *name, const char *cat,
                      uint64_t start_ts, uint8_t nargs, const char *a0n,
                      uint64_t a0, const char *a1n, uint64_t a1)
{
    Event e;
    e.name = name;
    e.cat = cat;
    e.ts = start_ts;
    uint64_t end = nowNs();
    e.dur = end > start_ts ? end - start_ts : 0;
    e.phase = Phase::Span;
    e.numArgs = nargs;
    e.args[0] = {a0n, a0};
    e.args[1] = {a1n, a1};
    push(e);
}

void
TraceBuffer::counter(const char *name, uint64_t value)
{
    Event e;
    e.name = name;
    e.cat = "counter";
    e.ts = nowNs();
    e.phase = Phase::Counter;
    e.numArgs = 1;
    e.args[0] = {"value", value};
    e.args[1] = {nullptr, 0};
    push(e);
}

size_t
TraceBuffer::size() const
{
    return static_cast<size_t>(
        std::min<uint64_t>(pushed(), ring_.size()));
}

void
TraceBuffer::snapshot(std::vector<Event> &out) const
{
    uint64_t n = pushed();
    uint64_t first = n > ring_.size() ? n - ring_.size() : 0;
    out.reserve(out.size() + static_cast<size_t>(n - first));
    for (uint64_t i = first; i < n; ++i)
        out.push_back(ring_[i % ring_.size()]);
}

Tracer::Tracer(bool enabled)
    : enabled_(enabled)
{
}

TraceBuffer *
Tracer::registerThread(const std::string &name)
{
    if (!enabled_)
        return nullptr;
    sim::LockGuard g(lock_);
    buffers_.push_back(std::make_unique<TraceBuffer>(name));
    return buffers_.back().get();
}

size_t
Tracer::eventCount() const
{
    sim::LockGuard g(lock_);
    size_t n = 0;
    for (const auto &b : buffers_)
        n += b->size();
    return n;
}

std::vector<Tracer::TaggedEvent>
Tracer::merged() const
{
    std::vector<TaggedEvent> out;
    sim::LockGuard g(lock_);
    std::vector<Event> tmp;
    for (unsigned i = 0; i < buffers_.size(); ++i) {
        tmp.clear();
        buffers_[i]->snapshot(tmp);
        for (const Event &e : tmp)
            out.push_back(TaggedEvent{e, i});
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const TaggedEvent &a, const TaggedEvent &b) {
                         return a.e.ts < b.e.ts;
                     });
    return out;
}

namespace {

/** Microseconds with sub-us precision, as Chrome expects in "ts". */
void
writeUs(std::ostream &os, uint64_t ns)
{
    os << ns / 1000 << '.' << static_cast<char>('0' + (ns % 1000) / 100)
       << static_cast<char>('0' + (ns % 100) / 10)
       << static_cast<char>('0' + ns % 10);
}

void
writeArgs(std::ostream &os, const Event &e)
{
    os << "\"args\":{";
    for (uint8_t i = 0; i < e.numArgs; ++i) {
        if (i)
            os << ',';
        os << '"' << e.args[i].name << "\":" << e.args[i].value;
    }
    os << '}';
}

} // namespace

void
Tracer::exportChromeJson(std::ostream &os) const
{
    os << "{\"traceEvents\":[";
    bool first = true;
    {
        sim::LockGuard g(lock_);
        for (unsigned i = 0; i < buffers_.size(); ++i) {
            if (!first)
                os << ",\n";
            first = false;
            os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << i
               << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
               << buffers_[i]->threadName() << "\"}}";
        }
    }
    for (const TaggedEvent &te : merged()) {
        const Event &e = te.e;
        if (!first)
            os << ",\n";
        first = false;
        os << "{\"name\":\"" << e.name << "\",\"cat\":\""
           << (e.cat ? e.cat : "") << "\",\"ph\":\"";
        switch (e.phase) {
          case Phase::Span:    os << 'X'; break;
          case Phase::Instant: os << 'i'; break;
          case Phase::Counter: os << 'C'; break;
        }
        os << "\",\"ts\":";
        writeUs(os, e.ts);
        if (e.phase == Phase::Span) {
            os << ",\"dur\":";
            writeUs(os, e.dur);
        }
        if (e.phase == Phase::Instant)
            os << ",\"s\":\"t\"";
        os << ",\"pid\":0,\"tid\":" << te.tid << ',';
        writeArgs(os, e);
        os << '}';
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool
Tracer::exportChromeJsonFile(const std::string &path) const
{
    std::ofstream ofs(path);
    if (!ofs)
        return false;
    exportChromeJson(ofs);
    return ofs.good();
}

void
Tracer::writeSummary(std::ostream &os) const
{
    std::vector<TaggedEvent> evs = merged();

    struct SpanAgg
    {
        uint64_t count = 0;
        uint64_t totalNs = 0;
    };
    std::map<std::string, SpanAgg> spans;
    std::map<std::string, uint64_t> instants;
    std::map<std::string, uint64_t> counters;   // Last value wins.
    unsigned jobIndex = 0;

    os << "trace summary: " << evs.size() << " events\n";
    os << " jobs:\n";
    for (const TaggedEvent &te : evs) {
        const Event &e = te.e;
        switch (e.phase) {
          case Phase::Span:
            spans[e.name].count++;
            spans[e.name].totalNs += e.dur;
            if (std::string_view(e.name) == "job") {
                os << "   job #" << jobIndex++ << ": "
                   << static_cast<double>(e.dur) / 1e6 << " ms";
                for (uint8_t i = 0; i < e.numArgs; ++i)
                    os << ", " << e.args[i].name << '='
                       << e.args[i].value;
                os << '\n';
            }
            break;
          case Phase::Instant:
            instants[e.name]++;
            break;
          case Phase::Counter:
            counters[e.name] = e.args[0].value;
            break;
        }
    }
    os << " spans:\n";
    for (const auto &[name, agg] : spans)
        os << "   " << name << " x" << agg.count << " total "
           << static_cast<double>(agg.totalNs) / 1e6 << " ms\n";
    os << " instants:\n";
    for (const auto &[name, n] : instants)
        os << "   " << name << " x" << n << '\n';
    os << " counters (latest):\n";
    for (const auto &[name, v] : counters)
        os << "   " << name << " = " << v << '\n';
}

} // namespace bifsim::trace

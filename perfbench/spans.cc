#include "spans.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <unordered_map>

namespace perfbench {

std::int64_t
nowNs()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

SpanLog::SpanLog(std::uint32_t thread, std::size_t capacity)
    : thread_(thread), capacity_(capacity)
{
    spans_.reserve(std::min<std::size_t>(capacity, 1 << 16));
}

std::uint64_t
SpanLog::add(const char *name, std::uint64_t parent,
             std::uint64_t request, std::int64_t startNs,
             std::int64_t endNs)
{
    std::uint64_t id = nextId();
    addReserved(id, name, parent, request, startNs, endNs);
    return id;
}

void
SpanLog::addReserved(std::uint64_t id, const char *name,
                     std::uint64_t parent, std::uint64_t request,
                     std::int64_t startNs, std::int64_t endNs)
{
    if (spans_.size() >= capacity_) {
        ++dropped_;
        return;
    }
    spans_.push_back(Span{name, id, parent, request, startNs, endNs});
}

std::vector<LayerTime>
selfTimes(const std::vector<const SpanLog *> &logs)
{
    // Children of one span never overlap here (every layer call is
    // sequential within its thread), so covered time is their sum.
    std::unordered_map<std::uint64_t, std::int64_t> childNs;
    for (const SpanLog *log : logs)
        for (const Span &span : log->spans())
            if (span.parent != 0)
                childNs[span.parent] += span.endNs - span.startNs;

    std::map<std::string, LayerTime> byName;
    for (const SpanLog *log : logs) {
        for (const Span &span : log->spans()) {
            LayerTime &layer = byName[span.name];
            layer.name = span.name;
            std::int64_t total = span.endNs - span.startNs;
            auto child = childNs.find(span.id);
            std::int64_t self =
                child == childNs.end()
                    ? total
                    : std::max<std::int64_t>(0, total - child->second);
            ++layer.calls;
            layer.totalMs += double(total) / 1e6;
            layer.selfMs += double(self) / 1e6;
        }
    }
    std::vector<LayerTime> out;
    for (auto &[name, layer] : byName)
        out.push_back(layer);
    std::sort(out.begin(), out.end(),
              [](const LayerTime &a, const LayerTime &b) {
                  return a.selfMs > b.selfMs;
              });
    return out;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<const SpanLog *> &logs)
{
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        return false;
    std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
    bool first = true;
    std::size_t dropped = 0;
    for (const SpanLog *log : logs) {
        dropped += log->dropped();
        for (const Span &span : log->spans()) {
            std::fprintf(
                out,
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                "\"id\":%llu,\"parent\":%llu,\"request\":%llu}}",
                first ? "" : ",", span.name, log->thread(),
                double(span.startNs) / 1e3,
                double(span.endNs - span.startNs) / 1e3,
                static_cast<unsigned long long>(span.id),
                static_cast<unsigned long long>(span.parent),
                static_cast<unsigned long long>(span.request));
            first = false;
        }
    }
    std::fprintf(out, "\n],\"otherData\":{\"dropped_spans\":%zu}}\n",
                 dropped);
    return std::fclose(out) == 0;
}

} // namespace perfbench

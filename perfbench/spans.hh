/**
 * @file
 * The benchmark's own span log, kept apart from the program's
 * `obs/trace` so that a change to the program's tracing cannot change
 * what the benchmark measures.
 *
 * Each span has a name, a start, an end, the span that caused it and,
 * on the serve workloads, the id of the request it belongs to. One
 * `SpanLog` belongs to one thread; logs are merged only when the run
 * ends, so recording takes no lock.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Nanoseconds since an arbitrary process-wide epoch. */
std::int64_t nowNs();

struct Span
{
    const char *name = "";
    std::uint64_t id = 0;
    /** 0 = a root span. */
    std::uint64_t parent = 0;
    /** 0 = not part of a request. */
    std::uint64_t request = 0;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
};

class SpanLog
{
  public:
    /**
     * @param thread the Chrome trace `tid` and the high bits of every
     *        id this log hands out, so ids stay unique across logs.
     * @param capacity spans kept; later ones are counted as dropped.
     */
    SpanLog(std::uint32_t thread, std::size_t capacity);

    /** Record a finished span; returns its id (also when dropped). */
    std::uint64_t add(const char *name, std::uint64_t parent,
                      std::uint64_t request, std::int64_t startNs,
                      std::int64_t endNs);

    /** Reserve an id for a span whose children finish first. */
    std::uint64_t reserve() { return nextId(); }

    /** Record a span under an id from reserve(). */
    void addReserved(std::uint64_t id, const char *name,
                     std::uint64_t parent, std::uint64_t request,
                     std::int64_t startNs, std::int64_t endNs);

    std::uint32_t thread() const { return thread_; }
    const std::vector<Span> &spans() const { return spans_; }
    std::size_t dropped() const { return dropped_; }

  private:
    std::uint64_t nextId()
    {
        return (std::uint64_t(thread_) << 40) | ++sequence_;
    }

    std::uint32_t thread_;
    std::size_t capacity_;
    std::uint64_t sequence_ = 0;
    std::size_t dropped_ = 0;
    std::vector<Span> spans_;
};

/** Per span name: calls, total duration and self time. */
struct LayerTime
{
    std::string name;
    std::size_t calls = 0;
    double totalMs = 0;
    /** Duration minus the part its child spans cover. */
    double selfMs = 0;
};

/** Self time per span name over every log, sorted by self time. */
std::vector<LayerTime> selfTimes(const std::vector<const SpanLog *> &logs);

/**
 * Write every span as Chrome trace JSON (`chrome://tracing`,
 * Perfetto). Returns false when the file cannot be written.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<const SpanLog *> &logs);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

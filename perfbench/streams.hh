/**
 * @file
 * Request generators for the serve workloads, seeded by `--seed` and
 * independent of the program's own random number generator, so that
 * the parent and a change receive the same requests.
 *
 * - `serve_hot`: a Zipf(1.1) stream over the ~45 `bench_serve`
 *   shapes. The working set fits the daemon's result cache.
 * - `serve_scan`: a uniform stream over tens of thousands of distinct
 *   shapes (count/run/group over vendor x random disclosure window x
 *   run limit), far more than the cache holds, so nearly every
 *   request executes and renders.
 */

#ifndef PERFBENCH_STREAMS_HH
#define PERFBENCH_STREAMS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** SplitMix64: small, fast and fully specified. */
class SplitMix64
{
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    /** Uniform in [0, bound). */
    std::uint64_t below(std::uint64_t bound);
    /** Uniform in [0, 1). */
    double unit();

  private:
    std::uint64_t state_;
};

enum class StreamKind { Hot, Scan };

/** Distinct request lines of the serve_scan workload. */
constexpr std::size_t kScanShapes = 50000;

/** The request lines (no trailing newline) a workload draws from. */
std::vector<std::string> makeShapes(StreamKind kind, std::uint64_t seed);

/** An endless, deterministic sequence of shape indices. */
class RequestStream
{
  public:
    RequestStream(StreamKind kind, std::size_t shapes,
                  std::uint64_t seed, std::uint32_t connection);

    std::uint32_t next();

  private:
    SplitMix64 rng_;
    std::size_t shapes_;
    /** Zipf cumulative distribution (hot only). */
    std::vector<double> cdf_;
};

} // namespace perfbench

#endif // PERFBENCH_STREAMS_HH

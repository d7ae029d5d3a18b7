/**
 * @file
 * Shared pieces of the benchmark harness: command-line arguments,
 * the report every mode prints, and small measurement helpers.
 *
 * The harness is one binary with three modes, driven by run.py:
 *
 *   prepare  builds the seed's database outside the measured process,
 *            self-tests the generators, writes the reference hashes
 *            and, for the serve workloads, the input snapshot;
 *   cold     one cold build + check in a fresh process (the build
 *            workload's set-up samples);
 *   run      measures one workload for --seconds.
 *
 * Each mode prints one JSON object as its last stdout line.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hh"

namespace rememberr {
class Database;
struct CheckReport;
struct DedupResult;
} // namespace rememberr

namespace perfbench {

/** Closed-loop parameters of the serve workloads. */
constexpr std::size_t kServerWorkers = 2;
constexpr std::size_t kConnections = 2;
constexpr std::size_t kWindow = 16;
constexpr std::size_t kCacheCapacity = 1024;

struct Args
{
    std::string mode;
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for the snapshot and the trace file. */
    std::string dir = ".";
    /** Reference hashes from `prepare` (run mode). */
    std::string expectDb;
    std::string expectDiag;
};

class Report
{
  public:
    void metric(const std::string &name, double value,
                const std::string &unit);
    void info(const std::string &key, const std::string &value);
    void info(const std::string &key, double value);
    void info(const std::string &key, const std::vector<double> &values);

    /** Print the report as one JSON line on stdout. */
    void print() const;

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::vector<std::string> metrics_;
    std::vector<std::string> info_;
};

/** 64-bit FNV-1a of the bytes, as 16 hex digits. */
std::string hashHex(const std::string &bytes);

/** Hash of `Database::toJson().dump()`. */
std::string databaseHash(const rememberr::Database &db);

/** Hash of the check report's rendered diagnostics. */
std::string diagnosticsHash(const rememberr::CheckReport &report);

/** Peak resident set size of this process (VmHWM), in MB. */
double peakRssMb();

/** Median of the samples (0 when empty). */
double median(std::vector<double> samples);

/** The q-quantile of the samples, nearest rank (0 when empty). */
double quantile(std::vector<double> samples, double q);

double msSince(std::int64_t startNs);

/** Per-layer timings and counts of one stage-by-stage build. */
struct StageTimes
{
    struct Count
    {
        double value = 0;
        std::string unit;
    };
    std::map<std::string, double> ms;
    std::map<std::string, Count> counts;
};

/**
 * Build the seed's database by calling each layer's entry point in
 * turn (the steps `runPipeline` takes), then run the checks. Every
 * call is timed and, when `spans` is set, recorded as a span under
 * one `build` root span.
 */
struct StagedBuild
{
    std::string dbHash;
    std::string groundTruthHash;
    std::string diagHash;
    StageTimes times;
    /** Wall time of the whole build + check, hashing excluded. */
    double totalMs = 0;
    /** Snapshot of the ground-truth database, when asked for. */
    std::string snapshot;
};

StagedBuild stagedBuild(std::uint64_t seed, SpanLog *spans,
                        bool keepSnapshot);

int runBuild(const Args &args);
int runServe(const Args &args);
int runCold(const Args &args);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH

#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <stdexcept>

#include "core/pipeline.hh"
#include "db/query_spec.hh"
#include "diag/check.hh"
#include "diag/render.hh"
#include "streams.hh"
#include "util/json.hh"
#include "util/logging.hh"

#ifndef __OPTIMIZE__
#error "perfbench must be built with optimization (CMAKE_BUILD_TYPE=Release)"
#endif

namespace perfbench {

using namespace rememberr;

namespace {

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof(escaped), "\\u%04x", c);
            out += escaped;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        throw std::runtime_error("non-finite measurement");
    char text[32];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

} // namespace

void
Report::metric(const std::string &name, double value,
               const std::string &unit)
{
    metrics_.push_back(jsonString(name) + ":{\"value\":" +
                       jsonNumber(value) + ",\"unit\":" +
                       jsonString(unit) + "}");
}

void
Report::info(const std::string &key, const std::string &value)
{
    info_.push_back(jsonString(key) + ":" + jsonString(value));
}

void
Report::info(const std::string &key, double value)
{
    info_.push_back(jsonString(key) + ":" + jsonNumber(value));
}

void
Report::info(const std::string &key, const std::vector<double> &values)
{
    std::string list;
    for (double value : values)
        list += (list.empty() ? "" : ",") + jsonNumber(value);
    info_.push_back(jsonString(key) + ":[" + list + "]");
}

void
Report::print() const
{
    auto join = [](const std::vector<std::string> &items) {
        std::string out;
        for (const std::string &item : items)
            out += (out.empty() ? "" : ",") + item;
        return out;
    };
    std::printf("{\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s},"
                "\"info\":{%s}}\n",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                join(metrics_).c_str(), join(info_).c_str());
    std::fflush(stdout);
}

std::string
hashHex(const std::string &bytes)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

std::string
databaseHash(const Database &db)
{
    return hashHex(db.toJson().dump());
}

std::string
diagnosticsHash(const CheckReport &report)
{
    return hashHex(
        diagnosticsToJson(report.diagnostics, report.suppressed).dump());
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

double
median(std::vector<double> samples)
{
    return quantile(std::move(samples), 0.5);
}

double
quantile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    if (q == 0.5 && samples.size() % 2 == 0) {
        std::size_t mid = samples.size() / 2;
        return (samples[mid - 1] + samples[mid]) / 2;
    }
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * double(samples.size())));
    return samples[std::min(samples.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double
msSince(std::int64_t startNs)
{
    return double(nowNs() - startNs) / 1e6;
}

namespace {

/** Generator self-test: determinism per seed and enough variety. */
void
selfTestStreams(std::uint64_t seed, Report &report)
{
    auto fail = [&](const std::string &what) {
        ++report.failed;
        std::fprintf(stderr, "self-test: %s\n", what.c_str());
    };
    auto prefix = [](StreamKind kind, std::size_t shapes,
                     std::uint64_t s) {
        std::vector<std::uint32_t> out;
        for (std::uint32_t c = 0; c < kConnections; ++c) {
            RequestStream stream(kind, shapes, s, c);
            for (int i = 0; i < 4096; ++i)
                out.push_back(stream.next());
        }
        return out;
    };
    for (StreamKind kind : {StreamKind::Hot, StreamKind::Scan}) {
        const char *name = kind == StreamKind::Hot ? "hot" : "scan";
        std::vector<std::string> shapes = makeShapes(kind, seed);
        report.attempted += 2;
        if (shapes != makeShapes(kind, seed) ||
            prefix(kind, shapes.size(), seed) !=
                prefix(kind, shapes.size(), seed))
            fail(std::string(name) + ": same seed, different stream");
        if (prefix(kind, shapes.size(), seed) ==
                prefix(kind, shapes.size(), seed + 1) ||
            (kind == StreamKind::Scan &&
             shapes == makeShapes(kind, seed + 1)))
            fail(std::string(name) + ": a new seed left the stream as it was");

        // Every shape is a valid query, and the scan set has at least
        // ten times as many distinct cache keys as the cache holds.
        std::set<std::string> keys;
        std::size_t elided = 0;
        std::size_t invalid = 0;
        for (const std::string &shape : shapes) {
            auto parsed = parseJson(shape);
            auto spec = parsed ? QuerySpec::fromJson(parsed.value())
                               : Expected<QuerySpec>(parsed.error());
            if (!spec) {
                if (++invalid <= 3)
                    std::fprintf(stderr, "self-test: invalid shape %s\n",
                                 shape.c_str());
                continue;
            }
            keys.insert(spec.value().canonical());
            if (spec.value().emptyReason())
                ++elided;
        }
        ++report.attempted;
        if (invalid > 0)
            fail(std::string(name) + ": " + std::to_string(invalid) +
                 " invalid shapes");
        report.info(std::string(name) + "_shapes", double(shapes.size()));
        report.info(std::string(name) + "_distinct_keys", double(keys.size()));
        report.info(std::string(name) + "_elided_share",
                    double(elided) / double(shapes.size()));
        if (kind == StreamKind::Scan) {
            ++report.attempted;
            if (keys.size() < 10 * kCacheCapacity)
                fail("scan: only " + std::to_string(keys.size()) +
                     " distinct cache keys");
        }
    }
}

int
runPrepare(const Args &args)
{
    bool serve = args.workload != "build";
    Report report;
    StagedBuild staged = stagedBuild(args.seed, nullptr, serve);
#ifdef __clang__
    report.info("compiler", "clang " __VERSION__);
#else
    report.info("compiler", "gcc " __VERSION__);
#endif
    report.info("build_type", PERFBENCH_BUILD_TYPE);
    report.info("db_hash", staged.dbHash);
    report.info("ground_truth_hash", staged.groundTruthHash);
    report.info("diag_hash", staged.diagHash);

    // A different seed must give a different database.
    PipelineOptions other;
    other.generator.seed = args.seed + 1;
    other.metrics = nullptr;
    other.trace = nullptr;
    ++report.attempted;
    if (databaseHash(runPipeline(other).database) == staged.dbHash) {
        ++report.failed;
        std::fprintf(stderr, "self-test: seeds %llu and %llu built the "
                             "same database\n",
                     static_cast<unsigned long long>(args.seed),
                     static_cast<unsigned long long>(args.seed + 1));
    }
    selfTestStreams(args.seed, report);

    if (serve) {
        std::string path = args.dir + "/snapshot.bin";
        std::ofstream out(path, std::ios::binary);
        out.write(staged.snapshot.data(),
                  std::streamsize(staged.snapshot.size()));
        if (!out.flush())
            throw std::runtime_error("cannot write " + path);
        report.info("snapshot", path);
    }
    if (args.trace) {
        for (const auto &[name, ms] : staged.times.ms)
            report.metric(name, ms, "ms");
        for (const auto &[name, count] : staged.times.counts)
            report.metric(name, count.value, count.unit);
    }
    report.print();
    return 0;
}

Args
parseArgs(int argc, char **argv)
{
    if (argc < 2)
        throw std::invalid_argument("usage: perfbench_harness "
                                    "prepare|cold|run [options]");
    Args args;
    args.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--dir")
            args.dir = value;
        else if (flag == "--expect-db")
            args.expectDb = value;
        else if (flag == "--expect-diag")
            args.expectDiag = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (args.workload != "build" && args.workload != "serve_hot" &&
        args.workload != "serve_scan")
        throw std::invalid_argument("unknown workload '" +
                                    args.workload + "'");
    if (!(args.seconds > 0))
        throw std::invalid_argument("--seconds must be positive");
    return args;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    try {
        rememberr::setLogQuiet(true);
        Args args = parseArgs(argc, argv);
        if (args.mode == "prepare")
            return runPrepare(args);
        if (args.mode == "cold")
            return runCold(args);
        if (args.mode == "run")
            return args.workload == "build" ? runBuild(args)
                                            : runServe(args);
        throw std::invalid_argument("unknown mode '" + args.mode + "'");
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench_harness: %s\n", error.what());
        return 2;
    }
}

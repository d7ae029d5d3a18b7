#include "streams.hh"

#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

std::uint64_t
SplitMix64::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
SplitMix64::below(std::uint64_t bound)
{
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next()) * bound) >> 64);
}

double
SplitMix64::unit()
{
    return double(next() >> 11) * 0x1.0p-53;
}

namespace {

/** The bench_serve shape set: every cached op and filter family. */
std::vector<std::string>
hotShapes()
{
    std::vector<std::string> shapes;
    const char *vendors[] = {nullptr, "intel", "amd"};
    for (const char *vendor : vendors) {
        std::string base = "{\"op\":\"count\"";
        if (vendor)
            base += std::string(",\"vendor\":\"") + vendor + "\"";
        for (const char *filter :
             {"", ",\"workaround\":\"none\"",
              ",\"workaround\":\"software\"", ",\"min_triggers\":2",
              ",\"min_triggers\":3", ",\"complex\":true",
              ",\"simulation_only\":true", ",\"min_occurrences\":2"})
            shapes.push_back(base + filter + "}");
    }
    shapes.push_back("{\"op\":\"count\",\"status\":\"fixed\"}");
    shapes.push_back("{\"op\":\"count\",\"status\":\"nofix\"}");
    shapes.push_back("{\"op\":\"count\",\"disclosed_from\":"
                     "\"2016-01-01\",\"disclosed_to\":\"2019-12-31\"}");
    shapes.push_back("{\"op\":\"count\",\"disclosed_from\":"
                     "\"2020-01-01\",\"disclosed_to\":\"2023-12-31\"}");
    for (const char *axis : {"trigger", "context", "effect"}) {
        for (const char *by : {"class", "category"})
            shapes.push_back(std::string("{\"op\":\"group\",\"by\":\"") +
                             by + "\",\"axis\":\"" + axis + "\"}");
    }
    shapes.push_back("{\"op\":\"group\",\"by\":\"workaround\"}");
    for (const char *vendor : vendors) {
        std::string base = "{\"op\":\"run\"";
        if (vendor)
            base += std::string(",\"vendor\":\"") + vendor + "\"";
        shapes.push_back(base + ",\"limit\":5}");
        shapes.push_back(base + ",\"limit\":20}");
    }
    // Provably-empty conjunctions, answered without the database.
    shapes.push_back("{\"op\":\"count\",\"exact_triggers\":1,"
                     "\"min_triggers\":4}");
    shapes.push_back("{\"op\":\"run\",\"limit\":5,\"disclosed_from\":"
                     "\"2022-01-01\",\"disclosed_to\":\"2020-12-31\"}");
    shapes.push_back("{\"op\":\"group\",\"by\":\"workaround\","
                     "\"exact_triggers\":0,\"min_triggers\":2}");
    shapes.push_back("{\"op\":\"ping\"}");
    return shapes;
}

/** A date as "YYYY-MM-DD" plus a sortable ordinal. */
std::pair<int, std::string>
randomDate(SplitMix64 &rng)
{
    int year = 2005 + int(rng.below(19));
    int month = 1 + int(rng.below(12));
    int day = 1 + int(rng.below(28));
    char text[16];
    std::snprintf(text, sizeof(text), "%04d-%02d-%02d", year, month,
                  day);
    return {(year * 12 + month) * 31 + day, text};
}

/**
 * One serve_scan shape. One window in twenty is inverted, which the
 * daemon's query lint answers without touching the database.
 */
std::string
scanShape(SplitMix64 &rng)
{
    std::string line;
    std::uint64_t op = rng.below(10);
    if (op < 4)
        line = "{\"op\":\"count\"";
    else if (op < 7)
        line = "{\"op\":\"run\",\"limit\":" +
               std::to_string(1 + rng.below(50));
    else
        line = "{\"op\":\"group\"";

    const char *vendors[] = {nullptr, "intel", "amd"};
    if (const char *vendor = vendors[rng.below(3)])
        line += std::string(",\"vendor\":\"") + vendor + "\"";

    auto from = randomDate(rng);
    auto to = randomDate(rng);
    while (to.first == from.first)
        to = randomDate(rng);
    bool inverted = rng.below(20) == 0;
    if ((from.first > to.first) != inverted)
        std::swap(from, to);
    line += ",\"disclosed_from\":\"" + from.second +
            "\",\"disclosed_to\":\"" + to.second + "\"";

    if (op >= 7) {
        const char *groupings[] = {
            "\"by\":\"class\",\"axis\":\"trigger\"",
            "\"by\":\"class\",\"axis\":\"context\"",
            "\"by\":\"class\",\"axis\":\"effect\"",
            "\"by\":\"category\",\"axis\":\"trigger\"",
            "\"by\":\"category\",\"axis\":\"context\"",
            "\"by\":\"category\",\"axis\":\"effect\"",
            "\"by\":\"workaround\""};
        line += std::string(",") + groupings[rng.below(7)];
    } else if (op < 4 && rng.below(3) == 0) {
        const char *filters[] = {",\"min_triggers\":2",
                                 ",\"workaround\":\"none\"",
                                 ",\"status\":\"fixed\""};
        line += filters[rng.below(3)];
    }
    return line + "}";
}

} // namespace

std::vector<std::string>
makeShapes(StreamKind kind, std::uint64_t seed)
{
    if (kind == StreamKind::Hot)
        return hotShapes();
    SplitMix64 rng(seed ^ 0x5ca7e5ca7e5ca7e5ULL);
    std::vector<std::string> shapes;
    shapes.reserve(kScanShapes);
    for (std::size_t i = 0; i < kScanShapes; ++i)
        shapes.push_back(scanShape(rng));
    return shapes;
}

RequestStream::RequestStream(StreamKind kind, std::size_t shapes,
                             std::uint64_t seed,
                             std::uint32_t connection)
    : rng_(seed * 0x2545f4914f6cdd1dULL + connection + 1),
      shapes_(shapes)
{
    if (kind != StreamKind::Hot)
        return;
    // Popularity ranks are a fixed shuffle, so that hot shapes are
    // not just the ones listed first. It does not depend on the seed:
    // a seed changes which requests come when, never the mix, so
    // runs with different seeds measure the same load.
    SplitMix64 shuffle(0x2a11f0b5e11aULL);
    std::vector<std::size_t> rank(shapes);
    for (std::size_t i = 0; i < shapes; ++i)
        rank[i] = i;
    for (std::size_t i = shapes; i > 1; --i)
        std::swap(rank[i - 1], rank[shuffle.below(i)]);
    std::vector<double> weight(shapes);
    double total = 0;
    for (std::size_t i = 0; i < shapes; ++i) {
        weight[rank[i]] = 1.0 / std::pow(double(i + 1), 1.1);
        total += weight[rank[i]];
    }
    cdf_.resize(shapes);
    double running = 0;
    for (std::size_t i = 0; i < shapes; ++i) {
        running += weight[i] / total;
        cdf_[i] = running;
    }
    cdf_.back() = 1.0;
}

std::uint32_t
RequestStream::next()
{
    if (cdf_.empty())
        return static_cast<std::uint32_t>(rng_.below(shapes_));
    double u = rng_.unit();
    std::size_t lo = 0;
    std::size_t hi = cdf_.size() - 1;
    while (lo < hi) {
        std::size_t mid = (lo + hi) / 2;
        if (cdf_[mid] < u)
            lo = mid + 1;
        else
            hi = mid;
    }
    return static_cast<std::uint32_t>(lo);
}

} // namespace perfbench

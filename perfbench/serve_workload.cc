/**
 * @file
 * The serve workloads: an in-process `Server` over a snapshot of the
 * seed's database, driven by a closed loop. Callers of `serve` are
 * scripts and CI jobs that wait for their replies, so each of the
 * kConnections clients sends a window of kWindow pipelined requests
 * and sends the next window only when every reply has arrived. A
 * window of one is dominated by kernel wake-ups and is not steady.
 *
 * The snapshot is built by `prepare` in another process, so neither
 * set-up time nor peak RSS here includes building the database.
 */

#include <atomic>
#include <cstdio>
#include <memory>
#include <sched.h>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "db/query_spec.hh"
#include "harness.hh"
#include "serve/cache.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "snap/view.hh"
#include "streams.hh"
#include "util/json.hh"

namespace perfbench {

using namespace rememberr;

namespace {

constexpr int kReadTimeoutMs = 5000;
constexpr std::size_t kSetups = 21;
constexpr std::size_t kReservoir = 1 << 19;

/** What the in-process rendering of a shape looks like. */
struct Answer
{
    std::size_t size = 0;
    std::size_t hash = 0;
};

std::size_t
bytesHash(std::string_view bytes)
{
    return std::hash<std::string_view>{}(bytes);
}

QuerySpec
parseSpec(const std::string &line)
{
    auto parsed = parseJson(line);
    if (!parsed)
        throw std::runtime_error("bad shape " + line);
    auto spec = QuerySpec::fromJson(parsed.value());
    if (!spec)
        throw std::runtime_error("bad shape " + line + ": " +
                                 spec.error().message);
    return spec.value();
}

/** One fresh daemon start: open + verify, materialize, start. */
struct Daemon
{
    std::unique_ptr<Database> db;
    std::unique_ptr<serve::Server> server;
    double openMs = 0;
    double materializeMs = 0;
    double startMs = 0;
    double bytes = 0;
};

std::unique_ptr<Daemon>
startDaemon(const std::string &snapshot)
{
    auto daemon = std::make_unique<Daemon>();
    std::int64_t start = nowNs();
    auto view = snap::SnapshotView::open(snapshot);
    if (!view)
        throw std::runtime_error("snapshot: " + view.error().toString());
    daemon->openMs = msSince(start);
    start = nowNs();
    daemon->db = std::make_unique<Database>(view.value().database());
    daemon->materializeMs = msSince(start);
    start = nowNs();
    serve::ServeOptions options;
    options.workers = kServerWorkers;
    options.cacheCapacity = kCacheCapacity;
    daemon->server = std::make_unique<serve::Server>(*daemon->db, options);
    if (auto started = daemon->server->start(); !started)
        throw std::runtime_error("serve: " + started.error().toString());
    daemon->startMs = msSince(start);
    daemon->bytes = double(view.value().sizeBytes());
    return daemon;
}

/** Uniform sample of at most kReservoir latencies (Algorithm R). */
class Reservoir
{
  public:
    /** Every page is written up front, so that peak RSS does not
     * depend on how many replies a run completes. */
    explicit Reservoir(std::uint64_t seed)
        : rng_(seed), samples_(kReservoir, -1.0f)
    {
    }

    void
    add(float us)
    {
        ++seen_;
        if (size_ < samples_.size()) {
            samples_[size_++] = us;
            return;
        }
        std::uint64_t slot = rng_.below(seen_);
        if (slot < samples_.size())
            samples_[slot] = us;
    }

    void
    clear()
    {
        size_ = 0;
        seen_ = 0;
    }

    const float *begin() const { return samples_.data(); }
    const float *end() const { return samples_.data() + size_; }

  private:
    SplitMix64 rng_;
    std::vector<float> samples_;
    std::size_t size_ = 0;
    std::uint64_t seen_ = 0;
};

/** One client connection and the request stream it draws from. */
struct Connection
{
    Connection(serve::Client c, StreamKind kind, std::size_t shapes,
               std::uint64_t seed, std::uint32_t index)
        : client(std::move(c)), stream(kind, shapes, seed, index),
          requestBase(std::uint64_t(index + 1) << 40),
          latency(seed ^ (0x1a7e9c0ULL + index))
    {
    }

    serve::Client client;
    RequestStream stream;
    std::uint64_t requestBase;
    std::uint64_t requests = 0;
    Reservoir latency;
};

/** What one phase of the loop measured on one connection. */
struct PhaseStats
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t responses = 0;
    double responseBytes = 0;
    std::uint64_t windows = 0;
    double windowNs = 0;
    /** Responses completed in each whole second of the phase. */
    std::vector<std::uint64_t> perSecond;
};

struct Workload
{
    std::vector<std::string> shapes;
    std::vector<Answer> answers;
};

/**
 * Drive one connection until endNs. Windows sent before measureNs
 * warm the daemon up and are checked but not measured.
 */
void
drive(Connection &conn, const Workload &work, std::int64_t measureNs,
      std::int64_t endNs, PhaseStats &stats, SpanLog *spans,
      std::atomic<bool> &abort)
{
    std::string batch;
    std::uint32_t picked[kWindow];
    while (!abort.load(std::memory_order_relaxed)) {
        std::int64_t now = nowNs();
        if (now >= endNs)
            return;
        bool measured = now >= measureNs;
        batch.clear();
        for (std::size_t k = 0; k < kWindow; ++k) {
            picked[k] = conn.stream.next();
            batch += work.shapes[picked[k]];
            batch += '\n';
        }
        std::int64_t sendNs = nowNs();
        if (!conn.client.sendText(batch)) {
            stats.attempted += kWindow;
            stats.failed += kWindow;
            abort = true;
            return;
        }
        std::uint64_t window = spans && measured ? spans->reserve() : 0;
        std::int64_t arrivalNs = sendNs;
        for (std::size_t k = 0; k < kWindow; ++k) {
            auto line = conn.client.readLine(kReadTimeoutMs);
            arrivalNs = nowNs();
            ++stats.attempted;
            std::uint64_t request = conn.requestBase | ++conn.requests;
            if (!line) {
                std::fprintf(stderr, "serve: request %llu: %s\n",
                             static_cast<unsigned long long>(request),
                             line.error().toString().c_str());
                stats.failed += kWindow - k;
                stats.attempted += kWindow - k - 1;
                abort = true;
                return;
            }
            const Answer &want = work.answers[picked[k]];
            if (line.value().size() != want.size ||
                bytesHash(line.value()) != want.hash) {
                if (++stats.failed <= 3)
                    std::fprintf(stderr, "serve: mismatch on %s\n  got %s\n",
                                 work.shapes[picked[k]].c_str(),
                                 line.value().c_str());
            }
            if (!measured)
                continue;
            ++stats.responses;
            std::size_t second =
                std::size_t((arrivalNs - measureNs) / 1000000000);
            if (second < stats.perSecond.size())
                ++stats.perSecond[second];
            stats.responseBytes += double(line.value().size());
            conn.latency.add(float(double(arrivalNs - sendNs) / 1e3));
            if (spans)
                spans->add("serve.request", window, request, sendNs,
                           arrivalNs);
        }
        if (!measured)
            continue;
        ++stats.windows;
        stats.windowNs += double(arrivalNs - sendNs);
        if (spans)
            spans->addReserved(window, "serve.window", 0, 0, sendNs,
                               arrivalNs);
    }
}

struct PhaseResult
{
    PhaseStats total;
    /** Median over the phase's whole seconds of responses per second,
     * so that one stalled second on a shared host does not move it. */
    double qps = 0;
    std::vector<double> qpsPerSecond;
    std::vector<double> latencyUs;
    /** Read as the loop ends, before the figures are worked out. */
    double peakRssMb = 0;
};

void
addCounts(PhaseStats &into, const PhaseStats &from)
{
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.responses += from.responses;
    into.responseBytes += from.responseBytes;
    into.windows += from.windows;
    into.windowNs += from.windowNs;
}

/** Fold a later phase of the same kind into `into`. */
void
merge(PhaseResult &into, const PhaseResult &from)
{
    addCounts(into.total, from.total);
    into.qpsPerSecond.insert(into.qpsPerSecond.end(),
                             from.qpsPerSecond.begin(),
                             from.qpsPerSecond.end());
    into.latencyUs.insert(into.latencyUs.end(), from.latencyUs.begin(),
                          from.latencyUs.end());
    into.qps = median(into.qpsPerSecond);
}

/** Run every connection for one phase on its own thread. */
PhaseResult
runPhase(std::vector<std::unique_ptr<Connection>> &conns,
         const Workload &work, double warmupS, double measureS,
         const std::vector<SpanLog *> &spans)
{
    std::int64_t measureNs = nowNs() + std::int64_t(warmupS * 1e9);
    std::int64_t endNs = measureNs + std::int64_t(measureS * 1e9);
    std::atomic<bool> abort{false};
    std::size_t seconds = std::max<std::size_t>(1, std::size_t(measureS));
    std::vector<PhaseStats> stats(conns.size());
    for (PhaseStats &s : stats)
        s.perSecond.assign(seconds, 0);
    for (auto &conn : conns)
        conn->latency.clear();
    std::vector<std::string> errors(conns.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns.size(); ++c)
        threads.emplace_back([&, c] {
            try {
                drive(*conns[c], work, measureNs, endNs, stats[c],
                      spans.empty() ? nullptr : spans[c], abort);
            } catch (const std::exception &error) {
                errors[c] = error.what();
                abort = true;
            }
        });
    for (std::thread &thread : threads)
        thread.join();
    for (const std::string &error : errors)
        if (!error.empty())
            throw std::runtime_error("serve client: " + error);

    PhaseResult result;
    result.peakRssMb = peakRssMb();
    result.qpsPerSecond.assign(seconds, 0.0);
    for (const auto &conn : conns)
        result.latencyUs.insert(result.latencyUs.end(), conn->latency.begin(),
                                conn->latency.end());
    for (const PhaseStats &s : stats) {
        for (std::size_t i = 0; i < seconds; ++i)
            result.qpsPerSecond[i] += double(s.perSecond[i]);
        addCounts(result.total, s);
    }
    if (result.total.failed == 0 && result.total.responses == 0)
        throw std::runtime_error("serve: no response was measured");
    result.qps = median(result.qpsPerSecond);
    return result;
}

/** Sums of the in-process replay, per layer. */
struct Replay
{
    std::uint64_t requests = 0;
    std::uint64_t executed = 0;
    std::uint64_t elided = 0;
    std::uint64_t lookups = 0;
    std::uint64_t hits = 0;
    double parseNs = 0;
    double lintNs = 0;
    double canonicalNs = 0;
    double getNs = 0;
    double executeNs = 0;
    double renderNs = 0;
    double putNs = 0;

    double
    perRequestUs() const
    {
        return (parseNs + lintNs + canonicalNs + getNs + executeNs +
                renderNs + putNs) /
               double(requests) / 1e3;
    }
};

/**
 * Replay the first connection's request stream through the query and
 * cache layers in-process, the steps `Server::handleLine` takes, each
 * timed from outside.
 */
Replay
replay(const Database &db, const Workload &work, StreamKind kind,
       std::uint64_t seed, double seconds, SpanLog &spans)
{
    Replay r;
    serve::ShardedLruCache cache(kCacheCapacity);
    RequestStream stream(kind, work.shapes.size(), seed, 0);
    std::int64_t deadline = nowNs() + std::int64_t(seconds * 1e9);
    while (nowNs() < deadline) {
        const std::string &line = work.shapes[stream.next()];
        std::uint64_t request = ++r.requests;
        std::uint64_t root = spans.reserve();
        std::int64_t begin = nowNs();
        std::int64_t mark = begin;
        auto step = [&](const char *name, double &sum) {
            std::int64_t now = nowNs();
            sum += double(now - mark);
            spans.add(name, root, request, mark, now);
            mark = now;
        };

        auto parsed = parseJson(line);
        auto spec = QuerySpec::fromJson(parsed.value());
        step("query.parse", r.parseNs);
        std::string rendered;
        if (spec.value().op == QuerySpec::Op::Ping) {
            JsonValue response = spec.value().execute(db);
            step("query.execute", r.executeNs);
            rendered = response.dump();
            step("json.render", r.renderNs);
            ++r.executed;
        } else {
            auto reason = spec.value().emptyReason();
            step("query.lint", r.lintNs);
            std::string key = spec.value().canonical();
            step("query.canonical", r.canonicalNs);
            serve::ShardedLruCache::Value hit = cache.get(key);
            step("cache.get", r.getNs);
            ++r.lookups;
            if (reason)
                ++r.elided;
            if (hit) {
                ++r.hits;
            } else {
                JsonValue response = reason ? spec.value().executeEmpty()
                                            : spec.value().execute(db);
                step("query.execute", r.executeNs);
                rendered = response.dump();
                step("json.render", r.renderNs);
                cache.put(key, std::make_shared<const std::string>(
                                   std::move(rendered)));
                step("cache.put", r.putNs);
                ++r.executed;
            }
        }
        spans.addReserved(root, "replay.request", 0, request, begin,
                          nowNs());
    }
    return r;
}

/** The daemon's own counters, read through the public stats op. */
JsonValue
serverStats(Connection &conn)
{
    if (!conn.client.sendLine("{\"op\":\"stats\"}"))
        throw std::runtime_error("serve: cannot send the stats op");
    auto line = conn.client.readLine(kReadTimeoutMs);
    if (!line)
        throw std::runtime_error("serve: stats op: " +
                                 line.error().toString());
    auto parsed = parseJson(line.value());
    if (!parsed || !parsed.value().isObject())
        throw std::runtime_error("serve: bad stats reply " + line.value());
    return parsed.value();
}

/**
 * Stop a daemon only once its workers are parked. `Server::stop` sets
 * its stop flag without holding the queue mutex, so a worker that is
 * between its wait predicate and the wait itself misses the wake-up
 * and `stop` never returns. Workers park within microseconds of
 * start-up or of a client closing its connection; this pause keeps
 * the benchmark out of that window.
 */
void
stopDaemon(std::unique_ptr<Daemon> &daemon)
{
    if (!daemon)
        return;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    daemon.reset();
}

std::size_t
usableCpus()
{
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::size_t(CPU_COUNT(&set));
    return std::thread::hardware_concurrency();
}

} // namespace

int
runServe(const Args &args)
{
    std::size_t cpus = usableCpus();
    if (kServerWorkers + kConnections > cpus)
        throw std::runtime_error(
            "serve: " + std::to_string(kServerWorkers) + " workers + " +
            std::to_string(kConnections) + " connections exceed the " +
            std::to_string(cpus) + " usable cpus");
    StreamKind kind = args.workload == "serve_hot" ? StreamKind::Hot
                                                   : StreamKind::Scan;
    std::string snapshot = args.dir + "/snapshot.bin";
    Report report;

    // Set-up: repeated fresh starts, the last one kept for the run.
    std::vector<double> setupS, openMs, materializeMs, startMs;
    std::unique_ptr<Daemon> daemon;
    for (std::size_t i = 0; i < kSetups; ++i) {
        stopDaemon(daemon);
        std::int64_t start = nowNs();
        daemon = startDaemon(snapshot);
        setupS.push_back(msSince(start) / 1e3);
        openMs.push_back(daemon->openMs);
        materializeMs.push_back(daemon->materializeMs);
        startMs.push_back(daemon->startMs);
    }
    const Database &db = *daemon->db;
    ++report.attempted;
    if (databaseHash(db) != args.expectDb) {
        ++report.failed;
        std::fprintf(stderr, "serve: snapshot database differs from the "
                             "rebuilt one\n");
    }

    // The expected reply to every shape, rendered in-process before
    // the clock starts.
    Workload work;
    work.shapes = makeShapes(kind, args.seed);
    work.answers.reserve(work.shapes.size());
    for (const std::string &shape : work.shapes) {
        std::string rendered = parseSpec(shape).execute(db).dump();
        work.answers.push_back(Answer{rendered.size(), bytesHash(rendered)});
    }

    std::vector<std::unique_ptr<Connection>> conns;
    for (std::uint32_t c = 0; c < kConnections; ++c) {
        auto client = serve::Client::connect("127.0.0.1",
                                             daemon->server->port());
        if (!client)
            throw std::runtime_error("serve: " + client.error().toString());
        conns.push_back(std::make_unique<Connection>(
            std::move(client.value()), kind, work.shapes.size(), args.seed,
            c));
    }

    auto account = [&](const PhaseResult &phase) {
        report.attempted += phase.total.attempted;
        report.failed += phase.total.failed;
    };

    if (!args.trace) {
        PhaseResult phase = runPhase(conns, work, 1.0, args.seconds, {});
        account(phase);
        report.metric("latency_p50_ms", median(phase.latencyUs) / 1e3, "ms");
        report.metric("setup_s", median(setupS), "s");
        report.metric("peak_rss_mb", phase.peakRssMb, "MB");
        report.info("samples", double(phase.total.responses));
        report.info("qps", phase.qps);
        report.info("qps_per_second", phase.qpsPerSecond);
        conns.clear();
        stopDaemon(daemon);
        report.print();
        return 0;
    }

    // Traced: untraced and traced phases alternate over the same
    // connections, so that host drift does not read as tracing
    // overhead; then the in-process replay.
    std::vector<std::unique_ptr<SpanLog>> logs;
    std::vector<SpanLog *> clientLogs;
    for (std::uint32_t c = 0; c < kConnections; ++c) {
        logs.push_back(std::make_unique<SpanLog>(c + 1, 1 << 14));
        clientLogs.push_back(logs.back().get());
    }
    PhaseResult plain;
    PhaseResult traced;
    for (int round = 0; round < 2; ++round) {
        PhaseResult part = runPhase(conns, work, round == 0 ? 0.5 : 0.0,
                                    args.seconds * 0.175, {});
        account(part);
        merge(plain, part);
        part = runPhase(conns, work, 0.0, args.seconds * 0.175, clientLogs);
        account(part);
        merge(traced, part);
    }
    JsonValue stats = serverStats(*conns[0]);

    logs.push_back(std::make_unique<SpanLog>(kConnections + 1, 1 << 15));
    Replay r = replay(db, work, kind, args.seed, args.seconds * 0.3,
                      *logs.back());
    double requests = double(r.requests);
    double executed = double(std::max<std::uint64_t>(r.executed, 1));
    report.metric("query.parse_us", r.parseNs / requests / 1e3, "us");
    report.metric("query.lint_us", r.lintNs / requests / 1e3, "us");
    report.metric("query.canonical_us", r.canonicalNs / requests / 1e3, "us");
    report.metric("cache.get_us",
                  r.getNs / double(std::max<std::uint64_t>(r.lookups, 1)) / 1e3,
                  "us");
    report.metric("query.execute_us", r.executeNs / executed / 1e3, "us");
    report.metric("json.render_us", r.renderNs / executed / 1e3, "us");
    report.metric("query.elided_ratio", double(r.elided) / requests, "ratio");
    report.info("replay_requests", requests);
    report.info("replay_hit_ratio",
                double(r.hits) / double(std::max<std::uint64_t>(r.lookups, 1)));

    const JsonValue &cache = stats.at("cache");
    double hits = cache.at("hits").asNumber();
    double misses = cache.at("misses").asNumber();
    report.metric("cache.hit_ratio", hits / (hits + misses), "ratio");
    report.metric("cache.evictions", cache.at("evictions").asNumber(), "count");
    report.metric("serve.requests", stats.at("requests").asNumber(), "count");
    report.metric("serve.errors", stats.at("errors").asNumber(), "count");

    double rttUs = traced.total.windowNs / double(traced.total.windows) / 1e3;
    report.metric("serve.rtt_us", rttUs, "us");
    report.metric("serve.transport_us",
                  rttUs - double(kWindow) * r.perRequestUs(), "us");
    report.metric("serve.response_bytes",
                  plain.total.responseBytes / double(plain.total.responses),
                  "bytes");
    report.metric("serve.lat_p99_us", quantile(plain.latencyUs, 0.99), "us");
    report.metric("run.samples", double(plain.total.responses), "count");
    report.metric("serve.qps", plain.qps, "1/s");
    report.metric("trace.overhead_pct", (plain.qps / traced.qps - 1) * 100,
                  "%");
    report.metric("snap.open_ms", median(openMs), "ms");
    report.metric("snap.materialize_ms", median(materializeMs), "ms");
    report.metric("serve.start_ms", median(startMs), "ms");
    report.metric("snap.bytes", daemon->bytes, "bytes");

    std::vector<const SpanLog *> all;
    for (const auto &log : logs)
        all.push_back(log.get());
    std::string tracePath = args.dir + "/trace-" + args.workload + ".json";
    if (!writeChromeTrace(tracePath, all))
        throw std::runtime_error("cannot write " + tracePath);
    report.info("trace_file", tracePath);
    for (const LayerTime &layer : selfTimes(all))
        std::fprintf(stderr,
                     "self %-20s %9zu calls %10.2f ms total %10.2f ms self\n",
                     layer.name.c_str(), layer.calls, layer.totalMs,
                     layer.selfMs);
    conns.clear();
    stopDaemon(daemon);
    report.print();
    return 0;
}

} // namespace perfbench

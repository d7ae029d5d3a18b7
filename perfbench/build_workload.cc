/**
 * @file
 * The `build` workload: the serial cold pipeline on the calibrated
 * corpus, then the check driver over its result. This is what users
 * of `rememberr stats`, `profile` and `check` wait for.
 *
 * Untraced runs call `runPipeline` and `runChecks` as the CLI does.
 * Traced runs alternate those calls with a stage-by-stage build that
 * calls each layer's entry point in turn and times it from outside.
 */

#include <cstdio>
#include <optional>
#include <stdexcept>

#include "core/pipeline.hh"
#include "diag/check.hh"
#include "diag/doc_checks.hh"
#include "document/format.hh"
#include "harness.hh"
#include "obs/metrics.hh"
#include "snap/writer.hh"

namespace perfbench {

using namespace rememberr;

namespace {

double
counterValue(const MetricsRegistry &metrics, const std::string &name)
{
    const Counter *counter = metrics.findCounter(name);
    if (!counter)
        throw std::runtime_error("counter " + name + " not recorded");
    return double(counter->value());
}

/** One build as users run it: `runPipeline` then `runChecks`. */
struct Iteration
{
    double pipelineMs = 0;
    double checkMs = 0;
    std::string dbHash;
    std::string diagHash;
};

Iteration
buildAndCheck(std::uint64_t seed)
{
    PipelineOptions options;
    options.generator.seed = seed;
    options.threads = 1;
    options.metrics = nullptr;
    options.trace = nullptr;
    CheckOptions checkOptions;
    checkOptions.threads = 1;

    Iteration it;
    std::int64_t start = nowNs();
    PipelineResult result = runPipeline(options);
    it.pipelineMs = msSince(start);
    start = nowNs();
    CheckReport report = runChecks(result.corpus.documents,
                                   result.dedup, checkOptions);
    it.checkMs = msSince(start);
    // Hashing is off the clock.
    it.dbHash = databaseHash(result.database);
    it.diagHash = diagnosticsHash(report);
    return it;
}

} // namespace

StagedBuild
stagedBuild(std::uint64_t seed, SpanLog *spans, bool keepSnapshot)
{
    StagedBuild out;
    StageTimes &times = out.times;
    std::uint64_t root = spans ? spans->reserve() : 0;
    std::int64_t rootStart = nowNs();
    auto timed = [&](const char *span, const char *metric, auto &&call) {
        std::int64_t start = nowNs();
        call();
        std::int64_t end = nowNs();
        times.ms[metric] += double(end - start) / 1e6;
        if (spans)
            spans->add(span, root, 0, start, end);
    };

    GeneratorOptions generator;
    generator.seed = seed;
    Corpus corpus;
    timed("corpus.generate", "corpus.generate_ms",
          [&] { corpus = CorpusGenerator(generator).generate(); });

    std::vector<ErrataDocument> &documents = corpus.documents;
    double bytes = 0;
    for (ErrataDocument &document : documents) {
        std::string text;
        timed("document.render", "document.render_ms",
              [&] { text = renderDocument(document); });
        bytes += double(text.size());
        timed("document.parse", "document.parse_ms", [&] {
            auto parsed = parseDocument(text);
            if (!parsed)
                throw std::runtime_error("document " +
                                         document.design.name +
                                         " failed to re-parse: " +
                                         parsed.error().toString());
            parsed.value().sourcePath = std::move(document.sourcePath);
            document = std::move(parsed.value());
        });
    }
    times.counts["document.bytes"] = {bytes, "bytes"};

    for (const ErrataDocument &document : documents)
        timed("diag.doc_check", "diag.doc_check_ms",
              [&] { checkDocument(document); });

    MetricsRegistry metrics;
    DedupOptions dedupOptions;
    dedupOptions.threads = 1;
    dedupOptions.metrics = &metrics;
    DedupResult dedup;
    timed("dedup", "dedup.ms",
          [&] { dedup = deduplicate(documents, dedupOptions); });

    FourEyesOptions foureyes;
    foureyes.threads = 1;
    foureyes.metrics = &metrics;
    FourEyesResult annotations;
    timed("classify", "classify.ms",
          [&] { annotations = runFourEyes(corpus, foureyes); });

    std::optional<Database> database;
    std::optional<Database> groundTruth;
    timed("db.assemble", "db.assemble_ms", [&] {
        database.emplace(Database::build(corpus, dedup, annotations));
        groundTruth.emplace(Database::buildFromGroundTruth(corpus));
    });

    CheckOptions checkOptions;
    checkOptions.threads = 1;
    CheckReport report;
    timed("diag.run_checks", "diag.run_checks_ms",
          [&] { report = runChecks(documents, dedup, checkOptions); });
    std::int64_t rootEnd = nowNs();
    out.totalMs = double(rootEnd - rootStart) / 1e6;
    if (spans)
        spans->addReserved(root, "build", 0, 0, rootStart, rootEnd);

    double pairs = counterValue(metrics, "dedup.simkernel.pairs");
    double rejects = counterValue(metrics, "dedup.simkernel.screen_rejects");
    double jaro = counterValue(metrics, "dedup.simkernel.jaro_runs");
    double kept = counterValue(metrics, "dedup.simkernel.kept");
    times.counts["dedup.candidate_pairs"] = {pairs, "count"};
    times.counts["dedup.screen_rejects"] = {rejects, "count"};
    times.counts["dedup.jaro_runs"] = {jaro, "count"};
    times.counts["dedup.kept"] = {kept, "count"};
    times.counts["dedup.kept_per_jaro"] = {jaro > 0 ? kept / jaro : 0,
                                           "ratio"};
    double hits = counterValue(metrics, "classify.prefilter.hits");
    double vmRuns = counterValue(metrics, "classify.prefilter.vm_runs");
    double skipped = counterValue(metrics, "classify.prefilter.skipped");
    double patterns = hits + vmRuns + skipped;
    times.counts["classify.prefilter_skip_ratio"] = {
        patterns > 0 ? skipped / patterns : 0, "ratio"};
    times.counts["diag.diagnostics"] = {
        double(report.diagnostics.size()), "count"};

    out.dbHash = databaseHash(*database);
    out.groundTruthHash = databaseHash(*groundTruth);
    out.diagHash = diagnosticsHash(report);
    if (keepSnapshot)
        out.snapshot = snap::writeSnapshot(*groundTruth);
    return out;
}

int
runCold(const Args &args)
{
    std::int64_t start = nowNs();
    Iteration it = buildAndCheck(args.seed);
    double coldS = msSince(start) / 1e3;
    Report report;
    report.attempted = 1;
    report.failed = it.dbHash == args.expectDb &&
                            it.diagHash == args.expectDiag
                        ? 0
                        : 1;
    report.metric("cold_s", coldS, "s");
    report.info("db_hash", it.dbHash);
    report.info("diag_hash", it.diagHash);
    report.print();
    return 0;
}

int
runBuild(const Args &args)
{
    Report report;
    auto check = [&](const std::string &dbHash,
                     const std::string &diagHash) {
        ++report.attempted;
        if (dbHash != args.expectDb || diagHash != args.expectDiag) {
            ++report.failed;
            std::fprintf(stderr,
                         "build: hash mismatch: db %s (want %s), "
                         "diagnostics %s (want %s)\n",
                         dbHash.c_str(), args.expectDb.c_str(),
                         diagHash.c_str(), args.expectDiag.c_str());
        }
    };

    // The first build in this process is the cold one users of a
    // one-shot CLI run pay; it is a set-up sample, not a latency one.
    std::int64_t start = nowNs();
    Iteration cold = buildAndCheck(args.seed);
    double coldS = msSince(start) / 1e3;
    check(cold.dbHash, cold.diagHash);

    std::vector<double> pipelineMs;
    std::vector<double> checkMs;
    std::vector<double> totalMs;
    std::vector<double> tracedMs;
    std::map<std::string, std::vector<double>> stageMs;
    StageTimes lastStaged;
    SpanLog spans(1, 1 << 16);

    std::int64_t deadline = nowNs() + std::int64_t(args.seconds * 1e9);
    // At least three samples of each kind, however short the run.
    while (nowNs() < deadline || totalMs.size() < 3 ||
           (args.trace && tracedMs.size() < 3)) {
        Iteration it = buildAndCheck(args.seed);
        check(it.dbHash, it.diagHash);
        pipelineMs.push_back(it.pipelineMs);
        checkMs.push_back(it.checkMs);
        totalMs.push_back(it.pipelineMs + it.checkMs);
        if (!args.trace)
            continue;
        StagedBuild staged = stagedBuild(args.seed, &spans, false);
        tracedMs.push_back(staged.totalMs);
        check(staged.dbHash, staged.diagHash);
        for (const auto &[name, ms] : staged.times.ms)
            stageMs[name].push_back(ms);
        lastStaged = staged.times;
    }

    report.info("cold_s", coldS);
    report.info("pipeline_ms_median", median(pipelineMs));
    report.info("check_ms_median", median(checkMs));
    report.info("samples", double(totalMs.size()));
    report.info("iteration_ms", totalMs);
    if (!args.trace) {
        report.metric("latency_p50_ms", median(totalMs), "ms");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        report.print();
        return 0;
    }

    // Traced: per-layer medians, and the check that the stage spans
    // cover the untraced pipeline so that no layer goes unmeasured.
    double stagesMs = 0;
    for (const auto &[name, samples] : stageMs) {
        double value = median(samples);
        report.metric(name, value, "ms");
        if (name != "diag.run_checks_ms")
            stagesMs += value;
    }
    for (const auto &[name, count] : lastStaged.counts)
        report.metric(name, count.value, count.unit);
    double coverage = stagesMs / median(pipelineMs);
    report.info("stage_coverage", coverage);
    if (coverage < 0.9) {
        ++report.failed;
        std::fprintf(stderr,
                     "build: stage spans cover %.1f%% of the untraced "
                     "pipeline (need 90%%)\n",
                     coverage * 100);
    }
    report.metric("trace.overhead_pct",
                  (median(tracedMs) / median(totalMs) - 1) * 100, "%");
    report.metric("run.samples", double(totalMs.size()), "count");

    std::string tracePath = args.dir + "/trace-build.json";
    if (!writeChromeTrace(tracePath, {&spans}))
        throw std::runtime_error("cannot write " + tracePath);
    report.info("trace_file", tracePath);
    for (const LayerTime &layer : selfTimes({&spans}))
        std::fprintf(stderr, "self %-20s %8zu calls %10.2f ms total %10.2f ms self\n",
                     layer.name.c_str(), layer.calls, layer.totalMs,
                     layer.selfMs);
    report.print();
    return 0;
}

} // namespace perfbench

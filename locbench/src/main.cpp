/**
 * @file
 * locbench: one steady-state benchmark for localization latency,
 * pipelined throughput and fleet serving, with per-layer attribution.
 *
 *   locbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *            [--out <dir>] [--git-sha <sha>] [--source-digest <hex>]
 *
 * Prints a human-readable report, then, as its last line, one JSON
 * object {correct, attempted, failed, metrics}: the end-to-end metrics
 * with --trace 0, the per-layer metrics with --trace 1. The full record
 * (metadata, sample counts, percentiles, failed checks) is written to
 * <out>/<workload>-seed<n>-trace<t>.json, and with --trace 1 the spans
 * to <out>/<workload>-seed<n>.trace.json (Chrome trace-event format).
 * Exits 1 when a correctness check fails, 2 on bad arguments.
 */
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench_util.hpp"
#include "layers.hpp"
#include "math/cpu_features.hpp"
#include "workloads.hpp"

#ifndef LOCBENCH_BUILD_TYPE
#define LOCBENCH_BUILD_TYPE "unknown"
#endif

using namespace locbench;

namespace {

const char *kWorkloads[] = {"car-slam-dense", "drone-vio",
                            "fleet-shared-map"};

int
usage(const std::string &why)
{
    std::cerr << "locbench: " << why
              << "\nusage: locbench --workload <car-slam-dense|drone-vio|"
                 "fleet-shared-map> --seed <n> --seconds <s> --trace <0|1>"
                 " [--out <dir>] [--git-sha <sha>] [--source-digest <hex>]\n";
    return 2;
}

/** Orders @p got by @p catalog; a metric the run did not fill reads 0. */
std::vector<Metric>
byCatalog(const std::vector<MetricDef> &catalog,
          const std::vector<Metric> &got)
{
    std::map<std::string, Metric> by_name;
    for (const Metric &m : got)
        by_name[m.name] = m;
    std::vector<Metric> out;
    for (const MetricDef &d : catalog) {
        auto it = by_name.find(d.name);
        if (it != by_name.end())
            out.push_back(it->second);
        else
            out.push_back({d.name, 0.0, d.unit, 0, 0.0});
    }
    return out;
}

std::string
metricsObject(const std::vector<Metric> &ms, bool detail)
{
    std::ostringstream o;
    o << "{";
    for (size_t i = 0; i < ms.size(); ++i) {
        const Metric &m = ms[i];
        o << (i ? ", " : "") << jsonString(m.name)
          << ": {\"value\": " << jsonNumber(m.value)
          << ", \"unit\": " << jsonString(m.unit);
        if (detail)
            o << ", \"n\": " << m.n
              << ", \"percentile\": " << jsonNumber(m.percentile);
        o << "}";
    }
    o << "}";
    return o.str();
}

void
printMetric(const Metric &m)
{
    std::cout << "  " << m.name << " = " << m.value << " " << m.unit;
    if (m.percentile > 0.0)
        std::cout << "  (n=" << m.n << ", p" << m.percentile << ")";
    else if (m.n > 0)
        std::cout << "  (n=" << m.n << ")";
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string out_dir = ".", git_sha = "unknown", digest = "unknown";
    bool have_workload = false, have_seed = false, have_seconds = false,
         have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            return usage("missing value for " + a);
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            have_seed = end && *end == '\0' && !v.empty();
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            have_seconds = end && *end == '\0' && opt.seconds > 0.0 &&
                           opt.seconds <= 600.0;
        } else if (a == "--trace") {
            opt.trace = v == "1";
            have_trace = v == "0" || v == "1";
        } else if (a == "--out") {
            out_dir = v;
        } else if (a == "--git-sha") {
            git_sha = v;
        } else if (a == "--source-digest") {
            digest = v;
        } else {
            return usage("unknown argument " + a);
        }
    }
    bool known = false;
    for (const char *w : kWorkloads)
        known = known || opt.workload == w;
    if (!have_workload || !known)
        return usage("--workload must name one of the workloads");
    if (!have_seed || !have_seconds || !have_trace)
        return usage("--seed, --seconds (0 < s <= 600) and --trace 0|1 "
                     "are required");

    Trace trace(opt.trace);
    Result r = opt.workload == "fleet-shared-map"
                   ? runFleet(opt, trace)
                   : runSingleSession(opt, trace);
    const std::vector<Metric> e2e =
        byCatalog(endToEndCatalog(), r.end_to_end);
    const std::vector<Metric> layers =
        byCatalog(perLayerCatalog(), r.per_layer);
    const bool correct = r.violations.empty();
    const double failed_frac =
        r.attempted > 0 ? static_cast<double>(r.failed) / r.attempted : 1.0;

    std::vector<std::pair<std::string, std::string>> meta = {
        {"workload", jsonString(opt.workload)},
        {"seed", std::to_string(opt.seed)},
        {"seconds", jsonNumber(opt.seconds)},
        {"trace", opt.trace ? "1" : "0"},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"simd_tier", jsonString(edx::simdTierSummary())},
        {"git_sha", jsonString(git_sha)},
        {"source_digest", jsonString(digest)},
        {"build_type", jsonString(LOCBENCH_BUILD_TYPE)},
        {"setup_repeats", std::to_string(kSetupRepeats)},
        {"tail_rule", jsonString("11th largest sample: the highest "
                                 "order statistic with 10 samples "
                                 "beyond it")},
        {"failed_frac", jsonNumber(failed_frac)},
    };
    meta.insert(meta.end(), r.meta.begin(), r.meta.end());

    // --- human-readable report ---------------------------------------
    std::cout << "locbench " << opt.workload << "  seed " << opt.seed
              << "  seconds " << opt.seconds << "  trace " << opt.trace
              << "\n";
    for (const auto &kv : meta)
        std::cout << "  # " << kv.first << ": " << kv.second << "\n";
    std::cout << "end-to-end:\n";
    for (const Metric &m : e2e)
        printMetric(m);
    std::cout << "  failed_frac = " << failed_frac << " ratio  ("
              << r.failed << " of " << r.attempted << " frames)\n";
    if (opt.trace) {
        std::cout << "per-layer (steady-state medians):\n";
        for (const Metric &m : layers)
            printMetric(m);
    }
    for (const std::string &v : r.violations)
        std::cout << "CHECK FAILED: " << v << "\n";

    // --- files ---------------------------------------------------------
    const std::string stem =
        out_dir + "/" + opt.workload + "-seed" + std::to_string(opt.seed);
    {
        std::ofstream f(stem + "-trace" + (opt.trace ? "1" : "0") + ".json");
        f << "{\"correct\": " << (correct ? "true" : "false")
          << ", \"attempted\": " << r.attempted
          << ", \"failed\": " << r.failed << ", \"meta\": {";
        for (size_t i = 0; i < meta.size(); ++i)
            f << (i ? ", " : "") << jsonString(meta[i].first) << ": "
              << meta[i].second;
        f << "}, \"violations\": [";
        for (size_t i = 0; i < r.violations.size(); ++i)
            f << (i ? ", " : "") << jsonString(r.violations[i]);
        f << "], \"end_to_end\": " << metricsObject(e2e, true);
        if (opt.trace)
            f << ", \"per_layer\": " << metricsObject(layers, true);
        f << "}\n";
        if (!f)
            std::cerr << "locbench: could not write the result file\n";
    }
    if (opt.trace && !trace.writeChromeJson(stem + ".trace.json"))
        std::cerr << "locbench: could not write the trace file\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << r.attempted
              << ", \"failed\": " << r.failed << ", \"metrics\": "
              << metricsObject(opt.trace ? layers : e2e, false) << "}"
              << std::endl;
    return correct ? 0 : 1;
}

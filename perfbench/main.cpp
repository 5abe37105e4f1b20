/**
 * @file
 * perfbench: runs one workload for a fixed time and prints its
 * metrics. The last line of standard output is one JSON object:
 *
 *   {"correct": true, "attempted": N, "failed": 0,
 *    "metrics": {"<name>": {"value": V, "unit": "U"}, ...}}
 *
 * carrying the end-to-end metrics (--trace 0) or the per-layer metrics
 * (--trace 1). Earlier lines print the workload's own figures as
 * "metric <name> <value> <unit>". A provenance file with per-repetition
 * quartiles, deterministic fields and the span log goes to the run
 * directory. Usually started through run.py, which builds it.
 */

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload single_kernel|dse_sweep|"
                 "photond --seed N --seconds S --trace 0|1\n"
                 "                 --photon-sim PATH --run-dir DIR "
                 "[--commit ID]\n",
                 why);
    std::exit(2);
}

/** Fixed CPU-bound work for the parallelism probe. */
std::uint64_t
spin(std::uint64_t iters)
{
    std::uint64_t x = 88172645463325252ull;
    for (std::uint64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

/**
 * Effective parallelism: k copies of the same CPU-bound loop run
 * concurrently, against one copy alone. k * t_alone / t_concurrent is
 * the number of cores the host actually delivers right now (measured,
 * not read from hardware_concurrency).
 */
double
parallelismProbe(unsigned k)
{
    constexpr std::uint64_t kIters = 20'000'000;
    std::atomic<std::uint64_t> sink{0};
    std::vector<double> alone;
    for (int i = 0; i < 3; ++i) {
        double t0 = wallNow();
        sink += spin(kIters);
        alone.push_back(wallNow() - t0);
    }
    double t0 = wallNow();
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < k; ++i)
        threads.emplace_back([&] { sink += spin(kIters); });
    for (std::thread &t : threads)
        t.join();
    double conc = wallNow() - t0;
    return static_cast<double>(k) * median(alone) / conc;
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    return buf;
}

void
writeMetrics(std::ostream &os, const std::map<std::string, Metric> &m)
{
    os << "{";
    bool first = true;
    for (const auto &[name, metric] : m) {
        os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
           << num(metric.value) << ", \"unit\": \"" << metric.unit << "\"}";
        first = false;
    }
    os << "}";
}

void
writeProvenance(const std::string &path, const Options &o,
                const std::string &commit, double parallelism,
                const Report &r, const Tracer *spans)
{
    std::ofstream f(path);
    f << "{\n  \"workload\": \"" << o.workload << "\",\n  \"seed\": "
      << o.seed << ",\n  \"seconds\": " << num(o.seconds)
      << ",\n  \"trace\": " << (o.trace ? 1 : 0) << ",\n  \"commit\": \""
      << commit << "\",\n  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency()
      << ",\n  \"effective_parallelism\": " << num(parallelism)
      << ",\n  \"attempted\": " << r.attempted << ",\n  \"failed\": "
      << r.failed << ",\n  \"failures\": [";
    for (std::size_t i = 0; i < r.failures.size(); ++i)
        f << (i ? ", " : "") << "\"" << r.failures[i] << "\"";
    f << "],\n  \"end_to_end\": ";
    writeMetrics(f, r.endToEnd);
    f << ",\n  \"named\": ";
    writeMetrics(f, r.named);
    f << ",\n  \"per_layer\": ";
    writeMetrics(f, r.perLayer);
    f << ",\n  \"host_time_samples\": {";
    bool first = true;
    for (const auto &[name, v] : r.samples) {
        Quartiles q = quartiles(v);
        f << (first ? "" : ",") << "\n    \"" << name
          << "\": {\"median\": " << num(q.median) << ", \"q1\": "
          << num(q.q1) << ", \"q3\": " << num(q.q3) << ", \"n\": " << q.n
          << "}";
        first = false;
    }
    f << "\n  },\n  \"deterministic\": {";
    first = true;
    for (const auto &[name, v] : r.deterministic) {
        f << (first ? "" : ",") << "\n    \"" << name << "\": " << num(v);
        first = false;
    }
    f << "\n  }";
    if (spans) {
        f << ",\n  \"spans\": ";
        spans->write(f);
    }
    f << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    std::string commit = "unknown";
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        std::string v = argv[++i];
        if (a == "--workload") o.workload = v;
        else if (a == "--seed") { o.seed = std::stoull(v); have_seed = true; }
        else if (a == "--seconds") { o.seconds = std::stod(v); have_seconds = true; }
        else if (a == "--trace") { o.trace = v == "1"; have_trace = true; }
        else if (a == "--photon-sim") o.photonSim = v;
        else if (a == "--run-dir") o.runDir = v;
        else if (a == "--commit") commit = v;
        else usage(("unknown flag " + a).c_str());
    }
    if (!have_seed || !have_seconds || !have_trace || o.runDir.empty())
        usage("--seed, --seconds, --trace and --run-dir are required");
    if (o.workload != "single_kernel" && o.workload != "dse_sweep" &&
        o.workload != "photond")
        usage(("unknown workload '" + o.workload + "'").c_str());
    std::filesystem::create_directories(o.runDir);

    const double parallelism =
        parallelismProbe(std::max(1u, std::thread::hardware_concurrency()));

    Report report;
    Tracer tracer(o.trace);
    if (o.workload == "single_kernel")
        runSingleKernel(o, report, tracer);
    else if (o.workload == "dse_sweep")
        runDseSweep(o, report, tracer);
    else
        runPhotond(o, report, tracer);

    const double fail_frac =
        report.attempted ? static_cast<double>(report.failed) /
                               static_cast<double>(report.attempted)
                         : 1.0;
    report.endToEnd["ok_frac"] = {1.0 - fail_frac, "frac"};
    // A workload may measure its peak over a part of the run it chose.
    report.endToEnd.try_emplace("peak_rss_mb", Metric{peakRssMb(), "MB"});
    report.named["fail_frac"] = {fail_frac, "frac"};
    report.named.try_emplace("peak_rss_mb", report.endToEnd["peak_rss_mb"]);
    if (o.trace)
        zeroFillPerLayer(report);

    std::string tag = o.workload + "-seed" + std::to_string(o.seed) +
                      "-trace" + (o.trace ? "1" : "0");
    writeProvenance(o.runDir + "/result-" + tag + ".json", o, commit,
                    parallelism, report, o.trace ? &tracer : nullptr);

    for (const std::string &f : report.failures)
        std::fprintf(stderr, "perfbench: FAIL %s\n", f.c_str());
    std::printf("effective_parallelism %.3f (hardware_concurrency %u)\n",
                parallelism, std::thread::hardware_concurrency());
    for (const auto &[name, m] : report.named)
        std::printf("metric %s %s %s\n", name.c_str(), num(m.value).c_str(),
                    m.unit.c_str());

    std::ostringstream line;
    line << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << report.attempted << ", \"failed\": "
         << report.failed << ", \"metrics\": ";
    writeMetrics(line, o.trace ? report.perLayer : report.endToEnd);
    line << "}";
    std::cout << line.str() << std::endl;
    return 0;
}

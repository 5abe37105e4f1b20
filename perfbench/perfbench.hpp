/**
 * @file
 * Shared pieces of the repository benchmark: clocks, order statistics,
 * the in-memory span tracer, the per-run report, and the per-layer
 * probe that times calls into each library layer from benchmark code.
 * The three workloads (single_kernel, dse_sweep, photond) live in their
 * own translation units; README.md explains what each one measures.
 */

#ifndef PERFBENCH_PERFBENCH_HPP
#define PERFBENCH_PERFBENCH_HPP

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "driver/platform.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

// ----- Clocks and memory -----

/** Steady-clock seconds since an arbitrary epoch. */
double wallNow();
/** CPU seconds consumed by the calling thread (user + system). */
double threadCpuNow();
/** CPU seconds consumed by every thread of this process, including
 *  threads that have already exited. */
double processCpuNow();
/** Peak resident set of this process or any waited-for child, in MB. */
double peakRssMb();

/**
 * How much slower the host runs right now than the nominal host. Other
 * tenants of a shared host change its speed by up to 67% over minutes,
 * more than any bound on a host time could absorb (see README.md). This
 * times a fixed reference loop (integer hashing with lookups in a 256 KB
 * table, about 40 ms) five times on the calling thread and returns the
 * median thread CPU time over the loop's time on the nominal host. The
 * loop is benchmark code, so a change to the library cannot move it.
 * Gated host times are divided by the slowdown a HostSpeedSampler
 * measured while they ran; the named figures keep the raw times.
 */
double hostSlowdown();
/** One pass of hostSlowdown's reference loop over @p iterations, timed
 *  by @p clock, as a slowdown against the nominal host. */
double referenceLoop(int iterations, double (*clock)());

/**
 * Samples host speed on its own thread for as long as it lives: every
 * 50 ms it times a short pass of hostSlowdown's reference loop (about
 * 4 ms of thread CPU time on the nominal host). A gated time is divided
 * by the median of the samples taken while it was measured, so a
 * contention spell that slows the measurement is seen by the reference
 * too.
 */
class HostSpeedSampler
{
  public:
    HostSpeedSampler();
    ~HostSpeedSampler();
    HostSpeedSampler(const HostSpeedSampler &) = delete;
    HostSpeedSampler &operator=(const HostSpeedSampler &) = delete;

    /** Slowdowns sampled between steady-clock times @p from and @p to. */
    std::vector<double> between(double from, double to) const;
    /** Their median; a fresh hostSlowdown() when there are none. */
    double slowdown(double from, double to) const;
    /** CPU time the sampling thread has used so far, s. */
    double cpuSeconds() const;

  private:
    mutable std::mutex mu_;
    std::vector<std::pair<double, double>> samples_; ///< (time, slowdown)
    double cpu_ = 0.0;
    std::atomic<bool> stop_{false};
    std::thread thread_; ///< last: starts once the rest is initialised
};

// ----- Order statistics -----

/** Quartiles as Python's statistics.quantiles(v, n=4) gives them
 *  (exclusive method); all three equal the value for one sample. */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
    std::size_t n = 0;
};
Quartiles quartiles(std::vector<double> v);
double median(std::vector<double> v);
/** Nearest-rank percentile (pct in [0, 100]); 0 for an empty sample. */
double percentile(std::vector<double> v, double pct);
double geomean(const std::vector<double> &v);
/** Kendall tau-a between two equally long samples (0 when < 2). */
double kendallTau(const std::vector<double> &a,
                  const std::vector<double> &b);

// ----- Spans -----

/**
 * In-memory span log (name, start, end, parent, request/job id). A
 * disabled tracer records nothing and reads no clock. Spans nest per
 * thread: a span opened while another is open on the same thread
 * records it as parent.
 */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    class Span
    {
      public:
        Span(Tracer *t, int idx) : t_(t), idx_(idx) {}
        Span(Span &&o) noexcept : t_(o.t_), idx_(o.idx_) { o.t_ = nullptr; }
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;
        Span &operator=(Span &&) = delete;
        ~Span();

      private:
        Tracer *t_;
        int idx_;
    };

    /** Open a span closed by the returned guard's destructor. */
    Span span(const std::string &name, const std::string &id = "");
    /** Write every span as a JSON array. */
    void write(std::ostream &os) const;

  private:
    struct Record
    {
        std::string name;
        std::string id;
        double start = 0.0;
        double end = 0.0;
        int parent = -1;
    };

    bool on_;
    mutable std::mutex mu_;
    std::vector<Record> records_; ///< guarded by mu_
};

// ----- Per-run report -----

/** One printed metric. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};

/**
 * Everything one run produces: the printed metrics, the workload's own
 * figures printed as text, per-repetition samples (host time) and
 * deterministic fields for the provenance file, and the operation and
 * failure counts.
 */
struct Report
{
    std::map<std::string, Metric> endToEnd;
    std::map<std::string, Metric> perLayer;
    /** The workload's own figures ("full_s", "serve_p99_ms", ...). */
    std::map<std::string, Metric> named;
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, double> deterministic;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Count one operation; a false @p ok records @p what as a failure. */
    void op(bool ok, const std::string &what);
};

/** Command-line options of one run. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string photonSim; ///< path of the photon_sim binary
    std::string runDir;    ///< scratch directory for sockets and files
};

// ----- Workload inputs -----

/** One workload instance the benchmark can build repeatedly. */
struct App
{
    std::string name; ///< label used in reports ("mm256", ...)
    std::string gpu;  ///< "tiny" / "r9nano" / "mi100"
    std::function<photon::workloads::WorkloadPtr()> make;
};

photon::GpuConfig gpuByName(const std::string &name);

// ----- Per-layer probe -----

/**
 * Times direct calls into each layer's public functions on @p apps:
 * func::captureLaunchTrace, sampling::analyzeKernel,
 * timing::Gpu::runKernel (replaying the capture),
 * timing::IntervalBackend::runKernel and
 * sampling::PhotonSampler::runKernel, each on its own Platform so every
 * model sees the memory state a real launch would. The analysis and
 * Photon calls get the captured trace only when the workload's own
 * Photon launches would find one in a shared store; otherwise they
 * emulate, as a fresh Photon Platform does. Also checks the probe's
 * cycles against the workload's own launches when the caller supplies
 * them.
 */
struct ProbeApp
{
    App app;
    /** Expected per-app full-detail cycles (0 = unchecked). */
    std::uint64_t expectFullCycles = 0;
    /** Expected per-app interval cycles (0 = unchecked). */
    std::uint64_t expectIntervalCycles = 0;
    /** Expected per-app cycles of a fresh Photon Platform (0 =
     *  unchecked). */
    std::uint64_t expectPhotonCycles = 0;
    /** The workload's Photon launches replay traces from a shared
     *  store (campaign trace reuse); false: they emulate. */
    bool photonReplays = false;
};

struct ProbePoint
{
    std::string app;
    std::string gpu;
    std::uint64_t detailedCycles = 0;
    std::uint64_t intervalCycles = 0;
    std::uint64_t photonCycles = 0;
    double fullSeconds = 0.0;   ///< capture + detailed replay
    double photonSeconds = 0.0; ///< PhotonSampler::runKernel
    bool switched = false;      ///< any launch below full detail
};

struct ProbeResult
{
    std::vector<ProbePoint> points;
    double captureSeconds = 0.0;
    double detailedSeconds = 0.0;
    double intervalSeconds = 0.0;
    double analysisSeconds = 0.0;
    double photonSeconds = 0.0;
    std::uint64_t traceBytes = 0;
    std::uint64_t detailedCycles = 0;
    std::uint64_t detailedInsts = 0;
    std::uint64_t analysisInsts = 0;
    std::map<std::string, double> memStats;      ///< summed mem.* counters
    std::map<std::string, double> intervalStats; ///< summed interval.*
    std::uint32_t levels[4] = {};
    std::uint64_t residentAtSwitch = 0;
    std::uint64_t detailedWarps = 0;
    std::uint64_t totalWarps = 0;
};

ProbeResult probeLayers(const std::vector<ProbeApp> &apps, Tracer &tracer,
                        Report &report);

/** Fill the func/timing/sampling per-layer metrics from a probe. */
void reportProbe(const ProbeResult &probe, Report &report);

/** Interval-vs-detailed accuracy over (app, gpu) points: mean absolute
 *  error in percent and mean Kendall tau of the GPU orderings per app. */
void intervalAccuracy(const std::vector<ProbePoint> &points,
                      double &error_pct, double &rank_tau);

/** Every per-layer metric name with its unit, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/** Set every per-layer metric the workload did not measure to 0: its
 *  layer did no work in this workload (see README.md). */
void zeroFillPerLayer(Report &report);

// ----- Workloads -----

// Each runs for options.seconds and fills @p report. Traced runs
// record their spans in @p tracer (enabled exactly when options.trace).

void runSingleKernel(const Options &options, Report &report,
                     Tracer &tracer);
void runDseSweep(const Options &options, Report &report, Tracer &tracer);
void runPhotond(const Options &options, Report &report, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HPP

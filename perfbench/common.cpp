#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <thread>

#include "perfbench.hpp"
#include "sim/config.hpp"

namespace perfbench {

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
threadCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
processCpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    // ru_maxrss is in kilobytes on Linux.
    return static_cast<double>(std::max(self.ru_maxrss,
                                        children.ru_maxrss)) /
           1024.0;
}

namespace {
/** Reference-loop thread CPU time on the nominal host (the 4-vCPU host
 *  the benchmark was tuned on, at a quiet moment), s. */
constexpr double kNominalReferenceSeconds = 0.038;
volatile std::uint64_t reference_sink;
} // namespace

double
referenceLoop(int iterations, double (*clock)())
{
    static const std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(1u << 16);
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] = static_cast<std::uint32_t>(i * 2654435761u);
        return t;
    }();
    const double c0 = clock();
    std::uint64_t h = 1;
    for (int k = 0; k < iterations; ++k) {
        h = h * 6364136223846793005ull + table[h >> 48];
        if (h & 0x100)
            h ^= h >> 29;
        else
            h += table[(h >> 20) & 0xffff];
    }
    reference_sink = h;
    return (clock() - c0) * (3'000'000.0 / iterations) /
           kNominalReferenceSeconds;
}

double
hostSlowdown()
{
    std::vector<double> times;
    for (int rep = 0; rep < 5; ++rep)
        times.push_back(referenceLoop(3'000'000, threadCpuNow));
    return median(times);
}

HostSpeedSampler::HostSpeedSampler()
    : thread_([this] {
          while (!stop_) {
              const double t = wallNow();
              const double s = referenceLoop(300'000, threadCpuNow);
              {
                  std::lock_guard<std::mutex> lock(mu_);
                  samples_.emplace_back(t, s);
                  cpu_ = threadCpuNow();
              }
              std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
      })
{
}

HostSpeedSampler::~HostSpeedSampler()
{
    stop_ = true;
    thread_.join();
}

std::vector<double>
HostSpeedSampler::between(double from, double to) const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    for (const auto &[t, s] : samples_)
        if (t >= from && t <= to)
            out.push_back(s);
    return out;
}

double
HostSpeedSampler::slowdown(double from, double to) const
{
    std::vector<double> v = between(from, to);
    return v.empty() ? hostSlowdown() : median(v);
}

double
HostSpeedSampler::cpuSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cpu_;
}

Quartiles
quartiles(std::vector<double> v)
{
    Quartiles q;
    q.n = v.size();
    if (v.empty())
        return q;
    std::sort(v.begin(), v.end());
    if (v.size() == 1) {
        q.q1 = q.median = q.q3 = v[0];
        return q;
    }
    // statistics.quantiles(method="exclusive"), n = 4.
    const long ld = static_cast<long>(v.size());
    const long m = ld + 1;
    double cut[3];
    for (long i = 1; i <= 3; ++i) {
        long j = std::clamp(i * m / 4, 1L, ld - 1);
        long delta = i * m - j * 4;
        cut[i - 1] = (v[j - 1] * static_cast<double>(4 - delta) +
                      v[j] * static_cast<double>(delta)) /
                     4.0;
    }
    q.q1 = cut[0];
    q.median = median(v);
    q.q3 = cut[2];
    return q;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t h = v.size() / 2;
    return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double
percentile(std::vector<double> v, double pct)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(v.size())));
    rank = std::clamp<std::size_t>(rank, 1, v.size());
    return v[rank - 1];
}

double
geomean(const std::vector<double> &v)
{
    if (v.empty())
        return 0.0;
    double s = 0.0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / static_cast<double>(v.size()));
}

double
kendallTau(const std::vector<double> &a, const std::vector<double> &b)
{
    const std::size_t n = std::min(a.size(), b.size());
    if (n < 2)
        return 0.0;
    long score = 0;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = i + 1; j < n; ++j) {
            double x = (a[i] - a[j]) * (b[i] - b[j]);
            score += x > 0 ? 1 : x < 0 ? -1 : 0;
        }
    }
    return static_cast<double>(score) /
           static_cast<double>(n * (n - 1) / 2);
}

// ----- Tracer -----

namespace {
thread_local int t_open_span = -1;
}

Tracer::Span
Tracer::span(const std::string &name, const std::string &id)
{
    if (!on_)
        return Span(nullptr, -1);
    std::lock_guard<std::mutex> lock(mu_);
    Record r;
    r.name = name;
    r.id = id;
    r.parent = t_open_span;
    r.start = wallNow();
    records_.push_back(std::move(r));
    int idx = static_cast<int>(records_.size()) - 1;
    t_open_span = idx;
    return Span(this, idx);
}

Tracer::Span::~Span()
{
    if (!t_)
        return;
    double now = wallNow();
    std::lock_guard<std::mutex> lock(t_->mu_);
    Record &r = t_->records_[static_cast<std::size_t>(idx_)];
    r.end = now;
    t_open_span = r.parent;
}

void
Tracer::write(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu_);
    double t0 = records_.empty() ? 0.0 : records_.front().start;
    os << "[\n";
    char buf[160];
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        std::snprintf(buf, sizeof buf,
                      "\"start\": %.9f, \"end\": %.9f, \"parent\": %d",
                      r.start - t0, r.end - t0, r.parent);
        os << "  {\"span\": " << i << ", \"name\": \"" << r.name
           << "\", \"id\": \"" << r.id << "\", " << buf << "}"
           << (i + 1 < records_.size() ? "," : "") << "\n";
    }
    os << "]\n";
}

// ----- Report -----

void
Report::op(bool ok, const std::string &what)
{
    ++attempted;
    if (ok)
        return;
    ++failed;
    if (failures.size() < 50)
        failures.push_back(what);
}

// ----- Inputs -----

photon::GpuConfig
gpuByName(const std::string &name)
{
    if (name == "tiny")
        return photon::GpuConfig::testTiny();
    if (name == "mi100")
        return photon::GpuConfig::mi100();
    return photon::GpuConfig::r9Nano();
}

// ----- Per-layer metric list -----

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"func.capture_s", "s"},
        {"func.trace_captures", "count"},
        {"func.trace_hits", "count"},
        {"func.trace_misses", "count"},
        {"func.trace_hit_ratio", "frac"},
        {"func.trace_bytes", "bytes"},
        {"timing.detailed_s", "s"},
        {"timing.detailed_minst_per_s", "Minst/s"},
        {"timing.detailed_cycles", "cycles"},
        {"timing.detailed_insts", "count"},
        {"timing.l1v_hit_ratio", "frac"},
        {"timing.l2_hit_ratio", "frac"},
        {"timing.dram_accesses", "count"},
        {"timing.interval_s", "s"},
        {"timing.interval_l1_hit_ratio", "frac"},
        {"timing.interval_dram_lines", "count"},
        {"timing.interval_error_pct", "%"},
        {"timing.interval_rank_tau", "tau"},
        {"sampling.analysis_s", "s"},
        {"sampling.analysis_insts", "count"},
        {"sampling.photon_s", "s"},
        {"sampling.overhead_frac", "frac"},
        {"sampling.speedup_vs_full", "x"},
        {"sampling.detailed_warp_frac", "frac"},
        {"sampling.level_full", "count"},
        {"sampling.level_kernel", "count"},
        {"sampling.level_warp", "count"},
        {"sampling.level_bb", "count"},
        {"sampling.resident_at_switch", "count"},
        {"sampling.kernel_hit_ratio", "frac"},
        {"driver.launch_s", "s"},
        {"driver.setup_s", "s"},
        {"service.campaign_s", "s"},
        {"service.job_s_p50", "s"},
        {"service.job_s_max", "s"},
        {"service.worker_idle_frac", "frac"},
        {"service.artifact_save_s", "s"},
        {"service.artifact_load_s", "s"},
        {"service.artifact_bytes", "bytes"},
        {"serve.sim_ms_p50", "ms"},
        {"serve.sim_ms_p99", "ms"},
        {"serve.overhead_ms_p50", "ms"},
        {"serve.overhead_ms_p99", "ms"},
        {"serve.queue_depth_max", "count"},
        {"serve.cache_hit_ratio", "frac"},
        {"serve.dedup_ratio", "frac"},
        {"serve.checkpoints", "count"},
        {"serve.generator_lag_ms", "ms"},
        {"serve.max_rps", "1/s"},
        {"serve.capacity_rps", "1/s"},
        {"trace_overhead_frac", "frac"},
    };
    return list;
}

void
zeroFillPerLayer(Report &report)
{
    for (const auto &[name, unit] : perLayerMetrics())
        report.perLayer.try_emplace(name, Metric{0.0, unit});
}

} // namespace perfbench

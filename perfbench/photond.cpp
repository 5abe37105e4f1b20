/**
 * @file
 * photond: `photon_sim serve` on a Unix socket, checkpointing to a file
 * in the run directory, driven open-loop by one generator over a few
 * persistent connections.
 *
 * Requests are drawn (by --seed) from a hot set of small Photon specs,
 * each a few to a few tens of milliseconds cold, so most requests are
 * warm cache hits or collapse onto a run already in flight; one in ten
 * is a never-seen full-mode spec (a fresh fir or aes size) that
 * simulates, publishes to the store and drives checkpoints.
 * Arrivals are evenly spaced with seeded jitter. Each request is timed
 * from its due time, so a request that falls due while every connection
 * is busy counts its wait. A base-rate window (45% of the run) gives the
 * latency figures and the daemon's CPU time per request; a cold window
 * (25%) of never-seen specs only gives the CPU time of a request that
 * has to simulate. Shorter windows then climb from the base rate in
 * kStepFactor steps until one misses kLatencyLimit or its backlog
 * grows: the last rate that met it is serve_max_rps. A closed-loop
 * window on the same mix last measures the daemon's capacity.
 */

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>

#include "perfbench.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "service/campaign.hpp"
#include "sim/rng.hpp"

extern char **environ;

namespace perfbench {

using photon::driver::Platform;
using photon::driver::SimMode;
namespace svc = photon::service;
namespace srv = photon::serve;

namespace {

/** Requests per second of the base window: about half the closed-loop
 *  capacity measured on a 4-vCPU host (see README.md). */
constexpr double kBaseRate = 80.0;
constexpr double kStepFactor = 1.5;   ///< rate ratio of ladder windows
constexpr double kLatencyLimit = 0.1; ///< p99 limit for serve_max_rps, s
constexpr double kFreshShare = 0.1;
/** Requests per second of the cold window (never-seen specs only): a
 *  few tenths of one worker, so its requests rarely queue. */
constexpr double kColdRate = 20.0;
/** Two simulation workers leave the other cores of a 4-vCPU host to the
 *  generator's connection threads and the daemon's socket threads. */
constexpr std::uint32_t kDaemonWorkers = 2;
constexpr double kRequestTimeout = 30.0;

/** Hot specs: Photon mode, 2-30 ms cold each. The two pageranks are
 *  multi-kernel, so kernel-sampling hits (and Photon error) show. */
const std::vector<svc::JobSpec> kHot = {
    {"fir", 512, "photon", "tiny"},       {"sc", 512, "photon", "tiny"},
    {"aes", 256, "photon", "tiny"},       {"spmv", 64, "photon", "tiny"},
    {"pagerank", 1024, "photon", "tiny"}, {"mm", 64, "photon", "r9nano"},
    {"fir", 1024, "photon", "r9nano"},    {"sc", 1024, "photon", "r9nano"},
    {"pagerank", 2048, "photon", "r9nano"},
};

/** The daemon process: started with posix_spawn, stopped by a shutdown
 *  request (SIGKILL as a last resort), always reaped. */
class Daemon
{
  public:
    Daemon(const Options &o, const std::string &store)
        : socket_(o.runDir + "/photond.sock")
    {
        std::filesystem::remove(store);
        std::filesystem::remove(socket_);
        const std::string log = o.runDir + "/photond.log";
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_APPEND,
                                         0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        const std::string workers = std::to_string(kDaemonWorkers);
        std::vector<std::string> args = {o.photonSim, "serve",
                                         "--socket",  socket_,
                                         "--store",   store,
                                         "--serve-workers", workers};
        std::vector<char *> argv;
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        // Two malloc arenas: with glibc's default of up to eight per core,
        // the daemon's peak resident memory hinged on which arena each of
        // its threads happened to allocate in (see README.md).
        std::string arenas = "MALLOC_ARENA_MAX=2";
        std::vector<char *> env = {arenas.data()};
        for (char **e = environ; *e; ++e)
            if (std::strncmp(*e, "MALLOC_ARENA_MAX=", 17) != 0)
                env.push_back(*e);
        env.push_back(nullptr);
        if (posix_spawn(&pid_, o.photonSim.c_str(), &fa, nullptr,
                        argv.data(), env.data()) != 0)
            pid_ = -1;
        posix_spawn_file_actions_destroy(&fa);
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    ~Daemon() { stop(); }

    /** Poll until a ping succeeds; false after @p timeout seconds. */
    bool
    waitReady(double timeout)
    {
        double deadline = wallNow() + timeout;
        while (pid_ > 0 && wallNow() < deadline) {
            srv::Request ping;
            ping.op = srv::Op::Ping;
            ping.id = "ready";
            srv::Response resp;
            if (call(ping, resp, 1.0) && resp.ok)
                return true;
            usleep(2000);
        }
        return false;
    }

    /** One request on a fresh connection. */
    bool
    call(const srv::Request &req, srv::Response &resp, double timeout)
    {
        int fd = srv::net::connectUnix(socket_, nullptr);
        if (fd < 0)
            return false;
        std::string line;
        bool ok = srv::net::sendLine(fd, srv::encodeRequest(req)) &&
                  srv::net::recvLine(fd, line, timeout) > 0 &&
                  srv::decodeResponse(line, resp);
        srv::net::closeFd(fd);
        return ok;
    }

    /** Graceful shutdown; true when the daemon exited with status 0. */
    bool
    stop()
    {
        if (pid_ <= 0)
            return false;
        srv::Request req;
        req.op = srv::Op::Shutdown;
        req.id = "stop";
        srv::Response resp;
        call(req, resp, 5.0);
        int status = 0;
        bool exited = false;
        for (int i = 0; i < 3000 && !exited; ++i) {
            if (waitpid(pid_, &status, WNOHANG) == pid_)
                exited = true;
            else
                usleep(10000);
        }
        if (!exited) {
            kill(pid_, SIGKILL);
            waitpid(pid_, &status, 0);
        }
        pid_ = -1;
        return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

    const std::string &socket() const { return socket_; }

    /** Peak resident set of the daemon so far, MB (0 if unknown). */
    double
    peakRssMb() const
    {
        FILE *f = std::fopen(("/proc/" + std::to_string(pid_) + "/status")
                                 .c_str(),
                             "r");
        if (!f)
            return 0.0;
        char line[256];
        double kb = 0.0;
        while (std::fgets(line, sizeof line, f))
            if (std::sscanf(line, "VmHWM: %lf", &kb) == 1)
                break;
        std::fclose(f);
        return kb / 1024.0;
    }

    /** CPU seconds (user + system) the daemon has used so far. */
    double
    cpuSeconds() const
    {
        FILE *f = std::fopen(("/proc/" + std::to_string(pid_) + "/stat")
                                 .c_str(),
                             "r");
        if (!f)
            return 0.0;
        char buf[1024];
        std::size_t n = std::fread(buf, 1, sizeof buf - 1, f);
        std::fclose(f);
        buf[n] = 0;
        const char *p = std::strrchr(buf, ')');
        unsigned long ut = 0, st = 0;
        if (!p || std::sscanf(p + 2,
                              "%*c %*d %*d %*d %*d %*d %*u %*u %*u %*u "
                              "%*u %lu %lu",
                              &ut, &st) != 2)
            return 0.0;
        return static_cast<double>(ut + st) /
               static_cast<double>(sysconf(_SC_CLK_TCK));
    }

  private:
    std::string socket_;
    pid_t pid_ = -1;
};

/** Whether request @p i of a window is traced: alternate blocks of ten,
 *  each holding one fresh spec, so traced and untraced requests see the
 *  same mix. */
bool
tracedRequest(std::size_t i)
{
    return (i / static_cast<std::size_t>(1.0 / kFreshShare)) % 2 == 1;
}

/** One scheduled request and what came back. */
struct Sample
{
    svc::JobSpec spec;
    double due = 0.0; ///< offset from window start, s
    bool sent = false;
    bool ok = false;
    double latency = 0.0; ///< response time minus due time
    double lag = 0.0;     ///< send time minus due time
    srv::ServeResult result;
    std::string error;
};

/** Run one window over @p conns persistent connections and return its
 *  length in seconds. Open loop (@p closed_seconds 0): each request is
 *  sent at its due time; the window stops issuing once the generator
 *  falls a full second behind (the offered rate is past capacity).
 *  Closed loop: each connection sends its next request as soon as the
 *  last is answered, for @p closed_seconds, and a request is due when
 *  sent. Unsent requests are not attempted. Requests picked by
 *  tracedRequest are traced in @p tracer, so traced and untraced
 *  requests share the same load. */
double
runWindow(std::vector<Sample> &samples, const std::string &socket,
          unsigned conns, Tracer &tracer, double closed_seconds = 0.0)
{
    Tracer off(false);
    std::atomic<std::size_t> next{0};
    std::atomic<bool> overloaded{false};
    const double start = wallNow() + 0.01;
    auto worker = [&](unsigned c) {
        int fd = srv::net::connectUnix(socket, nullptr);
        for (std::size_t i; (i = next++) < samples.size();) {
            Sample &s = samples[i];
            double due = start + s.due;
            double now = wallNow();
            if (closed_seconds > 0.0) {
                due = now;
                if (now - start > closed_seconds)
                    break;
            } else if (due > now) {
                usleep(static_cast<useconds_t>((due - now) * 1e6));
                now = wallNow();
            }
            if (now - due > 1.0)
                overloaded = true;
            if (overloaded)
                break;
            s.sent = true;
            s.lag = now - due;
            auto span = (tracedRequest(i) ? tracer : off)
                            .span("serve.request", std::to_string(c) + ":" +
                                                       std::to_string(i));
            srv::Request req;
            req.op = srv::Op::Submit;
            req.id = std::to_string(i);
            req.spec = s.spec;
            std::string line;
            srv::Response resp;
            if (fd < 0) {
                s.error = "connect failed";
            } else if (!srv::net::sendLine(fd, srv::encodeRequest(req)) ||
                       srv::net::recvLine(fd, line, kRequestTimeout) <= 0) {
                s.error = "transport error or timeout";
            } else if (!srv::decodeResponse(line, resp, &s.error)) {
                // error filled by the decoder
            } else if (!resp.ok || !resp.hasResult) {
                s.error = "refused: " + resp.error;
            } else {
                s.ok = true;
                s.result = resp.result;
            }
            s.latency = wallNow() - due;
            if (!s.ok && fd >= 0) {
                srv::net::closeFd(fd);
                fd = srv::net::connectUnix(socket, nullptr);
            }
        }
        srv::net::closeFd(fd);
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < conns; ++c)
        threads.emplace_back(worker, c);
    for (std::thread &t : threads)
        t.join();
    return wallNow() - start;
}

/** Seeded schedule: evenly spaced arrivals at @p rate with +-40%
 *  jitter. One request in @p fresh_every is a never-seen full-mode spec
 *  (all of them for 1); the others walk the hot set in a fresh seeded
 *  order per round, so every seed offers the same mix and only order
 *  and timing change. */
std::vector<Sample>
schedule(photon::Rng &rng, double rate, double seconds,
         std::uint32_t &fresh_counter, std::size_t fresh_every)
{
    std::vector<Sample> out;
    std::vector<std::size_t> round;
    const auto n = static_cast<std::size_t>(rate * seconds);
    const std::size_t fresh_slot = rng.nextBelow(fresh_every);
    for (std::size_t i = 0; i < n; ++i) {
        Sample s;
        double jitter = (rng.nextFloat() - 0.5) * 0.8;
        s.due = std::max(0.0, (static_cast<double>(i) + jitter) / rate);
        if (i % fresh_every == fresh_slot) {
            // 1020 distinct specs of similar cost before any repeats
            // (a run sends about 350). Sizes skip 256 and 512, so no
            // fresh job captures a trace a hot spec could use.
            std::uint32_t k = fresh_counter++;
            s.spec = {k % 2 ? "aes" : "fir", 257 + (k / 4) % 255, "full",
                      (k / 2) % 2 ? "r9nano" : "tiny"};
        } else {
            if (round.empty()) {
                for (std::size_t h = 0; h < kHot.size(); ++h)
                    round.push_back(h);
                for (std::size_t h = round.size(); h > 1; --h)
                    std::swap(round[h - 1], round[rng.nextBelow(h)]);
            }
            s.spec = kHot[round.back()];
            round.pop_back();
        }
        out.push_back(s);
    }
    std::sort(out.begin(), out.end(),
              [](const Sample &a, const Sample &b) { return a.due < b.due; });
    return out;
}

struct Expected
{
    std::set<std::pair<std::uint64_t, std::uint64_t>> accepted;
    std::uint64_t coldCycles = 0;
};

/** Direct single-Platform runs of @p spec: the cold result, and for
 *  Photon also a second run seeded with the first run's records and
 *  analyses (what a repeat sees once the daemon's store is warm). */
Expected
directRuns(const svc::JobSpec &spec)
{
    Expected e;
    SimMode mode = SimMode::FullDetailed;
    svc::parseMode(spec.mode, mode);
    std::vector<photon::sampling::KernelRecord> records;
    photon::sampling::PhotonSampler::AnalysisStore analyses;
    for (int pass = 0; pass < (mode == SimMode::Photon ? 2 : 1); ++pass) {
        Platform p(gpuByName(spec.gpu), mode);
        if (auto *ph = p.photon()) {
            for (const auto &rec : records)
                ph->cache().insert(rec);
            ph->importAnalysisStore(analyses);
        }
        auto w = svc::makeWorkload(spec.workload, spec.size);
        w->setup(p);
        photon::workloads::runWorkload(*w, p);
        e.accepted.insert({p.totalKernelCycles(), p.totalInsts()});
        if (pass == 0)
            e.coldCycles = p.totalKernelCycles();
        if (auto *ph = p.photon()) {
            records = ph->cache().records();
            analyses = ph->analysisStore();
        }
    }
    return e;
}

/** What the daemon spent on one open-loop window. */
struct DaemonCost
{
    double start = 0.0;       ///< steady-clock window start, s
    double end = 0.0;         ///< steady-clock window end, s
    double cpu = 0.0;         ///< daemon CPU time over the window, s
    std::size_t answered = 0; ///< requests answered with a result
};

struct WindowStats
{
    double rate = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
    double coldP50 = 0.0; ///< median latency of never-seen specs
    bool meets = false;
};

WindowStats
windowStats(const std::vector<Sample> &samples, double rate)
{
    WindowStats w;
    w.rate = rate;
    std::vector<double> lat, cold;
    bool all_ok = true, all_sent = true;
    for (const Sample &s : samples) {
        all_sent &= s.sent;
        if (!s.sent)
            continue;
        all_ok &= s.ok;
        lat.push_back(s.latency);
        if (s.spec.mode == "full")
            cold.push_back(s.latency);
    }
    w.p50 = percentile(lat, 50.0);
    w.p99 = percentile(lat, 99.0);
    w.coldP50 = median(cold);
    // Backlog: the last tenth of the window must be answered as
    // promptly as the limit allows.
    std::vector<double> tail;
    for (std::size_t i = samples.size() * 9 / 10; i < samples.size(); ++i)
        if (samples[i].sent)
            tail.push_back(samples[i].latency);
    w.meets = all_ok && all_sent && !lat.empty() &&
              w.p99 <= kLatencyLimit && median(tail) <= kLatencyLimit;
    return w;
}

} // namespace

void
runPhotond(const Options &options, Report &report, Tracer &tracer)
{
    if (!srv::net::available()) {
        report.op(false, "photond: Unix-domain sockets unavailable");
        return;
    }
    const std::string store = options.runDir + "/photond_store.bin";
    const unsigned conns =
        std::min(4u, std::max(1u, std::thread::hardware_concurrency()));

    // Set-up: spawn to first answered ping, repeated for a median; the
    // last start is the daemon the load runs against.
    std::vector<double> starts;
    HostSpeedSampler speed;
    const double setup_start = wallNow();
    std::unique_ptr<Daemon> daemon;
    for (int i = 0; i < 15; ++i) {
        if (daemon)
            report.op(daemon->stop(), "photond did not drain cleanly");
        auto span = tracer.span("serve.start", std::to_string(i));
        double t0 = wallNow();
        daemon = std::make_unique<Daemon>(options, store);
        bool ready = daemon->waitReady(10.0);
        starts.push_back(wallNow() - t0);
        report.op(ready, "photond did not answer a ping within 10 s");
        if (!ready)
            return;
    }
    const double setup_slowdown = speed.slowdown(setup_start, wallNow());

    // Status poller on one persistent connection: queue depth while the
    // load runs.
    std::atomic<bool> polling{true};
    std::atomic<std::size_t> queue_max{0};
    std::thread poller([&] {
        int fd = srv::net::connectUnix(daemon->socket(), nullptr);
        srv::Request req;
        req.op = srv::Op::Status;
        req.id = "poll";
        const std::string line = srv::encodeRequest(req);
        while (polling && fd >= 0) {
            std::string reply;
            srv::Response resp;
            if (!srv::net::sendLine(fd, line) ||
                srv::net::recvLine(fd, reply, 5.0) <= 0)
                break;
            if (srv::decodeResponse(reply, resp) && resp.hasStatus)
                queue_max = std::max<std::size_t>(queue_max,
                                                  resp.status.queued);
            usleep(50000);
        }
        srv::net::closeFd(fd);
    });

    photon::Rng rng(options.seed * 0x9E3779B97F4A7C15ull + 17);
    std::uint32_t fresh = 0;
    const double base_seconds = std::max(1.0, 0.45 * options.seconds);
    const double cold_seconds = std::max(1.0, 0.25 * options.seconds);
    const double step_seconds = std::max(0.5, 0.06 * options.seconds);
    const double ladder_seconds =
        std::max(step_seconds, 0.2 * options.seconds);
    const double closed_seconds = std::max(0.5, 0.08 * options.seconds);
    std::vector<std::vector<Sample>> windows;
    std::vector<WindowStats> ws;
    std::vector<DaemonCost> costs; ///< per open window, like ws
    const auto mixed = static_cast<std::size_t>(1.0 / kFreshShare);
    auto open_window = [&](double rate, double seconds,
                           std::size_t fresh_every) {
        windows.push_back(schedule(rng, rate, seconds, fresh, fresh_every));
        auto span = tracer.span("serve.window", std::to_string(rate));
        DaemonCost c;
        c.start = wallNow();
        c.cpu = daemon->cpuSeconds();
        runWindow(windows.back(), daemon->socket(), conns, tracer);
        c.cpu = daemon->cpuSeconds() - c.cpu;
        c.end = wallNow();
        for (const Sample &s : windows.back())
            c.answered += s.ok;
        costs.push_back(c);
        ws.push_back(windowStats(windows.back(), rate));
        return ws.back().meets;
    };
    const double load_start = wallNow();
    bool ladder_capped = open_window(kBaseRate, base_seconds, mixed);
    // Never-seen specs only, at a rate the daemon serves without a queue:
    // what a request that has to simulate costs.
    open_window(kColdRate, cold_seconds, 1);
    // Memory over the fixed part of the load: the ladder and the closed
    // loop send as many requests as the host lets them, and the daemon's
    // store grows with every one.
    const double peak_rss = std::max(peakRssMb(), daemon->peakRssMb());
    // The ladder climbs until a window misses or its time is used up;
    // serve_max_rps is the last rate that met the limit.
    double max_rps = 0.0;
    const double ladder_start = wallNow();
    for (double rate = kBaseRate; ladder_capped;) {
        max_rps = rate;
        rate *= kStepFactor;
        if (wallNow() - ladder_start + step_seconds > ladder_seconds)
            break;
        ladder_capped = open_window(rate, step_seconds, mixed);
    }
    // Closed loop on the same mix: the daemon's capacity right now. The
    // schedule holds more requests than the window can send; the unsent
    // rest is never attempted.
    windows.push_back(
        schedule(rng, 40 * kBaseRate, closed_seconds, fresh, mixed));
    double closed_elapsed = 0.0;
    {
        auto span = tracer.span("serve.window", "closed");
        closed_elapsed = runWindow(windows.back(), daemon->socket(), conns,
                                   tracer, closed_seconds);
    }
    std::size_t closed_answered = 0;
    for (const Sample &s : windows.back())
        closed_answered += s.ok;
    const double capacity =
        static_cast<double>(closed_answered) / closed_elapsed;
    polling = false;
    poller.join();
    const double load_end = wallNow();
    report.endToEnd["peak_rss_mb"] = {peak_rss, "MB"};
    report.named["serve_peak_rss_end_mb"] = {daemon->peakRssMb(), "MB"};

    srv::Request sreq;
    sreq.op = srv::Op::Status;
    sreq.id = "final";
    srv::Response status;
    report.op(daemon->call(sreq, status, 5.0) && status.hasStatus,
              "photond: final status request failed");
    report.op(daemon->stop(), "photond did not drain cleanly");
    daemon.reset();

    // Correctness: every answered request equals a direct run of its
    // spec; every unanswered one is a failure.
    std::map<std::string, Expected> expected;
    std::map<std::string, svc::JobSpec> specs;
    for (const auto &w : windows)
        for (const Sample &s : w)
            if (s.sent)
                specs.emplace(s.spec.label(), s.spec);
    // One at a time, so the benchmark's own peak RSS does not depend on
    // how parallel checks happen to overlap.
    const double check_t0 = wallNow();
    for (const auto &[label, spec] : specs)
        expected[label] = directRuns(spec);
    report.samples["check_s"] = {wallNow() - check_t0};
    std::uint64_t answered = 0, cache_hits = 0, dedup = 0, kernels = 0,
                  khits = 0;
    std::vector<double> sim_ms, overhead_ms, lag_ms;
    std::map<std::string, std::uint64_t> last_cycles; ///< per spec label
    for (const auto &w : windows) {
        for (const Sample &s : w) {
            if (!s.sent)
                continue;
            if (!s.ok) {
                report.op(false, s.spec.label() + ": " + s.error);
                continue;
            }
            last_cycles[s.spec.label()] = s.result.cycles;
            const Expected &e = expected[s.spec.label()];
            bool match = e.accepted.count(
                {s.result.cycles, s.result.insts}) > 0;
            report.op(match, s.spec.label() + ": photond answered " +
                                 std::to_string(s.result.cycles) +
                                 " cycles, direct run disagrees");
            ++answered;
            cache_hits += s.result.cacheHit;
            dedup += s.result.dedupCollapsed;
            kernels += s.result.kernels;
            khits += s.result.kernelHits;
            // The latency split explains the base window's figures.
            if (&w != &windows.front())
                continue;
            sim_ms.push_back(1e3 * s.result.wallSeconds);
            overhead_ms.push_back(
                1e3 * std::max(0.0, s.latency - (s.result.dedupCollapsed
                                                     ? 0.0
                                                     : s.result.wallSeconds)));
            lag_ms.push_back(1e3 * s.lag);
        }
    }

    // Photon error of the daemon's answers: the last answer to each hot
    // spec (a warm store's by then) against a direct full-detail run.
    std::map<std::string, std::uint64_t> full_cycles;
    double err_sum = 0.0, err_max = 0.0;
    for (const svc::JobSpec &hot : kHot) {
        svc::JobSpec full = hot;
        full.mode = "full";
        const double f = static_cast<double>(
            full_cycles[hot.label()] = directRuns(full).coldCycles);
        const double p = static_cast<double>(last_cycles[hot.label()]);
        const double e = 100.0 * std::abs(p - f) / f;
        report.deterministic["photon_cycles." + hot.label()] = p;
        report.deterministic["photon_answer_cold." + hot.label()] =
            last_cycles[hot.label()] == expected[hot.label()].coldCycles;
        report.deterministic["photon_error_pct." + hot.label()] = e;
        err_sum += e;
        err_max = std::max(err_max, e);
    }
    const double err_mean = err_sum / static_cast<double>(kHot.size());

    for (const WindowStats &w : ws) {
        report.samples["p50_ms@" + std::to_string(int(w.rate))] = {1e3 * w.p50};
        report.samples["p99_ms@" + std::to_string(int(w.rate))] = {1e3 * w.p99};
    }
    report.samples["setup_s"] = starts;
    report.samples["host_slowdown"] = speed.between(load_start, load_end);
    const double slowdown = speed.slowdown(load_start, load_end);

    // Gated: the daemon's CPU time per answered request, at nominal host
    // speed (the median of the slowdowns sampled inside the window).
    // Latencies are printed but not gated: on a shared host they move
    // with how promptly the scheduler wakes each of the threads a request
    // passes through, by far more than any bound.
    auto cpu_per_request = [&](const DaemonCost &c, const char *name) {
        const std::vector<double> s = speed.between(c.start, c.end);
        report.op(c.cpu > 0.0 && c.answered > 0 && !s.empty(),
                  std::string("photond: no CPU time or host speed for ") +
                      name);
        const double raw =
            c.answered ? c.cpu / static_cast<double>(c.answered) : 0.0;
        report.samples[std::string(name) + "_host_slowdown"] = s;
        report.named[std::string(name) + "_cpu_ms_per_req"] = {1e3 * raw,
                                                               "ms"};
        return s.empty() ? raw : raw / median(s);
    };
    const WindowStats &base = ws.front();
    std::size_t base_sent = 0;
    for (const Sample &s : windows.front())
        base_sent += s.sent;
    report.deterministic["serve_base_requests"] =
        static_cast<double>(base_sent);
    report.deterministic["serve_cold_requests"] =
        static_cast<double>(windows[1].size());
    report.endToEnd["setup_s"] = {median(starts) / setup_slowdown, "s"};
    report.endToEnd["fast_s"] = {cpu_per_request(costs[0], "serve"), "s"};
    report.endToEnd["slow_s"] = {cpu_per_request(costs[1], "serve_cold"),
                                 "s"};
    report.endToEnd["error_pct"] = {err_mean, "%"};
    report.endToEnd["error_max_pct"] = {err_max, "%"};
    report.named["setup_s"] = {median(starts), "s"};
    report.named["host_slowdown"] = {slowdown, "x"};
    report.named["serve_p50_ms"] = {1e3 * base.p50, "ms"};
    report.named["serve_p99_ms"] = {1e3 * base.p99, "ms"};
    report.named["serve_cold_p50_ms"] = {1e3 * base.coldP50, "ms"};
    report.named["serve_max_rps"] = {max_rps, "req/s"};
    // 1 when the top of the ladder still met the limit: serve_max_rps is
    // then only a lower bound.
    report.named["serve_ladder_capped"] = {ladder_capped ? 1.0 : 0.0,
                                           "bool"};
    report.named["serve_capacity_rps"] = {capacity, "req/s"};
    report.named["photon_error_pct"] = {err_mean, "%"};
    report.named["photon_error_max_pct"] = {err_max, "%"};

    if (!options.trace)
        return;

    auto layer = [&](const std::string &name, double v, const char *unit) {
        report.perLayer[name] = Metric{v, unit};
    };
    auto ratio = [](std::uint64_t a, std::uint64_t b) {
        return b ? static_cast<double>(a) / static_cast<double>(b) : 0.0;
    };
    const srv::StoreStats &st = status.status.store;
    layer("serve.sim_ms_p50", percentile(sim_ms, 50.0), "ms");
    layer("serve.sim_ms_p99", percentile(sim_ms, 99.0), "ms");
    layer("serve.overhead_ms_p50", percentile(overhead_ms, 50.0), "ms");
    layer("serve.overhead_ms_p99", percentile(overhead_ms, 99.0), "ms");
    layer("serve.queue_depth_max", static_cast<double>(queue_max), "count");
    layer("serve.cache_hit_ratio", ratio(cache_hits, answered), "frac");
    layer("serve.dedup_ratio", ratio(dedup, answered), "frac");
    layer("serve.checkpoints", static_cast<double>(st.checkpoints), "count");
    layer("serve.generator_lag_ms", percentile(lag_ms, 99.0), "ms");
    layer("serve.max_rps", max_rps, "1/s");
    layer("serve.capacity_rps", capacity, "1/s");
    layer("func.trace_captures", static_cast<double>(st.traceCaptures),
          "count");
    layer("func.trace_hits", static_cast<double>(st.traceHits), "count");
    layer("func.trace_misses", static_cast<double>(st.traceMisses), "count");
    layer("func.trace_hit_ratio",
          ratio(st.traceHits, st.traceHits + st.traceMisses), "frac");
    layer("sampling.kernel_hit_ratio", ratio(khits, kernels), "frac");

    // The daemon's last checkpoint, reloaded and rewritten from here.
    svc::Artifact ckpt;
    double t0 = wallNow();
    svc::LoadStatus ls = svc::loadArtifact(store, ckpt);
    double t1 = wallNow();
    report.op(ls.ok, "photond checkpoint does not load: " + ls.error);
    svc::LoadStatus ss = svc::saveArtifact(ckpt, store + ".copy");
    double t2 = wallNow();
    report.op(ss.ok, "photond checkpoint does not save: " + ss.error);
    std::error_code ec;
    layer("service.artifact_load_s", t1 - t0, "s");
    layer("service.artifact_save_s", t2 - t1, "s");
    layer("service.artifact_bytes",
          static_cast<double>(std::filesystem::file_size(store, ec)),
          "bytes");

    // No full-mode job captures a hot spec's launches, so the daemon's
    // Photon runs find no trace and the probe's Photon side emulates.
    std::vector<ProbeApp> probe_apps;
    for (const svc::JobSpec &hot : kHot)
        probe_apps.push_back(
            {{hot.workload + std::to_string(hot.size), hot.gpu,
              [hot] { return svc::makeWorkload(hot.workload, hot.size); }},
             full_cycles[hot.label()],
             0,
             expected[hot.label()].coldCycles,
             false});
    ProbeResult probe = probeLayers(probe_apps, tracer, report);
    reportProbe(probe, report);
    double setup = 0.0, launch = 0.0;
    {
        // The driver layer on the hot set, outside the daemon.
        for (const svc::JobSpec &hot : kHot) {
            double a = wallNow();
            Platform p(gpuByName(hot.gpu), SimMode::Photon);
            auto w = svc::makeWorkload(hot.workload, hot.size);
            w->setup(p);
            double b = wallNow();
            photon::workloads::runWorkload(*w, p);
            setup += b - a;
            launch += p.totalWallSeconds();
        }
    }
    layer("driver.setup_s", setup, "s");
    layer("driver.launch_s", launch, "s");
    std::vector<double> traced_lat, untraced_lat;
    for (std::size_t i = 0; i < windows.front().size(); ++i)
        if (windows.front()[i].sent)
            (tracedRequest(i) ? traced_lat : untraced_lat)
                .push_back(windows.front()[i].latency);
    layer("trace_overhead_frac",
          median(traced_lat) / median(untraced_lat) - 1.0, "frac");
}

} // namespace perfbench

/**
 * @file
 * Campaign throughput: the work-stealing scheduler vs. a static
 * partition on a cost-skewed batch, plus the effect of a warm
 * kernel-signature store on a rerun (rebalancing and cross-run
 * signature reuse). Worker-count scaling is not measured: on a host
 * with about one effective core it would only time the batch's
 * longest job.
 *
 * The scheduler comparison seeds the same skewed batch (a few expensive
 * jobs amid cheap ones) both ways; results must be bit-identical —
 * stealing moves work between lanes, never changes it — so the bench
 * re-checks total cycles before reporting wall time.
 *
 * Writes BENCH_campaign.json in the working directory for the CI
 * perf-smoke artifact.
 */

#include <cstdio>
#include <fstream>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "driver/report.hpp"
#include "sampling/telemetry.hpp"
#include "service/campaign_runner.hpp"

using namespace photon;
using namespace photon::service;

namespace {

std::vector<JobSpec>
makeJobs(bool quick)
{
    std::vector<std::string> workloads = {"relu", "fir", "sc", "aes"};
    std::vector<std::uint32_t> sizes =
        quick ? std::vector<std::uint32_t>{128}
              : std::vector<std::uint32_t>{256, 1024};
    return expandJobs(workloads, sizes, {"photon"}, {"r9nano"});
}

/** A cost-skewed batch: two expensive mm jobs at indices 0 and 4, so
 *  round-robin seeding over 4 lanes stacks BOTH into lane 0. The
 *  static partition then runs them back to back while the other
 *  workers idle — the stranding case steal-half exists for. */
std::vector<JobSpec>
makeSkewedJobs(bool quick)
{
    std::uint32_t small = quick ? 128 : 256;
    std::uint32_t big = quick ? 256 : 512; // mm wants a power of two
    return {
        {"mm", big, "photon", "r9nano"},
        {"relu", small, "photon", "r9nano"},
        {"fir", small, "photon", "r9nano"},
        {"sc", small, "photon", "r9nano"},
        {"mm", big, "photon", "r9nano"},
        {"aes", small, "photon", "r9nano"},
        {"relu", small, "photon", "r9nano"},
        {"fir", small, "photon", "r9nano"},
    };
}

CampaignResult
runWith(const std::vector<JobSpec> &jobs, std::uint32_t workers,
        SharePolicy share, Artifact seed = {}, bool stealing = true)
{
    CampaignOptions opts;
    opts.workers = workers;
    opts.share = share;
    opts.stealing = stealing;
    return runCampaign(jobs, opts, std::move(seed));
}

struct BenchJson
{
    std::uint32_t schedWorkers = 0;
    double staticWall = 0.0;
    double stealWall = 0.0;
    std::uint64_t stealOps = 0;
    std::uint64_t stolenTasks = 0;
    double coldWall = 0.0;
    double warmWall = 0.0;
    std::uint32_t warmHits = 0;
};

void
writeJson(const BenchJson &b, const char *path)
{
    std::ofstream f(path);
    if (!f) {
        std::fprintf(stderr, "cannot open %s\n", path);
        return;
    }
    f << "{\n  \"bench\": \"campaign_throughput\",\n"
      << "  \"telemetry_schema_version\": "
      << sampling::kTelemetrySchemaVersion << ",\n"
      << "  \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ",\n"
      << "  \"scheduler\": {\"workers\": " << b.schedWorkers
      << ", \"static_wall_s\": " << b.staticWall
      << ", \"steal_wall_s\": " << b.stealWall
      << ", \"steal_ops\": " << b.stealOps
      << ", \"stolen_tasks\": " << b.stolenTasks
      << ", \"speedup_vs_static\": "
      << (b.stealWall > 0 ? b.staticWall / b.stealWall : 0.0) << "},\n"
      << "  \"warm_store\": {\"cold_wall_s\": " << b.coldWall
      << ", \"warm_wall_s\": " << b.warmWall
      << ", \"kernel_hits\": " << b.warmHits << ", \"speedup\": "
      << (b.warmWall > 0 ? b.coldWall / b.warmWall : 0.0) << "}\n}\n";
    std::printf("wrote %s\n", path);
}

} // namespace

int
main(int argc, char **argv)
{
    bool quick = bench::quickMode(argc, argv);
    std::vector<JobSpec> jobs = makeJobs(quick);
    BenchJson json;

    driver::printBanner(std::cout,
                        "Work-stealing vs. static partition (skewed)");
    std::vector<JobSpec> skewed = makeSkewedJobs(quick);
    const std::uint32_t sched_workers = 4;
    std::printf("%zu jobs, 2 expensive mm jobs seeded into one lane of "
                "%u;\nstatic = each worker drains only its own lane\n\n",
                skewed.size(), sched_workers);
    CampaignResult stat = runWith(skewed, sched_workers,
                                  SharePolicy::None, {}, false);
    CampaignResult steal = runWith(skewed, sched_workers,
                                   SharePolicy::None, {}, true);
    if (stat.totalCycles() != steal.totalCycles() ||
        stat.totalInsts() != steal.totalInsts()) {
        std::fprintf(stderr,
                     "FAIL: steal/static results diverged (%llu vs "
                     "%llu cycles)\n",
                     static_cast<unsigned long long>(
                         steal.totalCycles()),
                     static_cast<unsigned long long>(
                         stat.totalCycles()));
        return 1;
    }
    json.schedWorkers = sched_workers;
    json.staticWall = stat.wallSeconds;
    json.stealWall = steal.wallSeconds;
    json.stealOps = steal.stealOps;
    json.stolenTasks = steal.stolenTasks;
    driver::Table sched({"scheduler", "wall_s", "steal_ops",
                         "stolen_tasks", "speedup"});
    sched.addRow({"static", driver::Table::num(stat.wallSeconds, 3),
                  "0", "0", driver::Table::num(1.0)});
    sched.addRow({"steal", driver::Table::num(steal.wallSeconds, 3),
                  std::to_string(steal.stealOps),
                  std::to_string(steal.stolenTasks),
                  driver::Table::num(stat.wallSeconds /
                                     steal.wallSeconds)});
    sched.print(std::cout);
    std::printf("(identical cycle totals re-checked: the schedule moves "
                "work, never changes it)\n");

    driver::printBanner(std::cout,
                        "Warm kernel-signature store (rerun)");
    std::printf("%zu jobs (photon mode, r9nano)\n\n", jobs.size());
    CampaignResult cold = runWith(jobs, 1, SharePolicy::Ordered);
    CampaignResult warm =
        runWith(jobs, 1, SharePolicy::Ordered, cold.finalStore);
    json.coldWall = cold.wallSeconds;
    json.warmWall = warm.wallSeconds;
    json.warmHits = warm.totalKernelHits();
    driver::Table store({"run", "wall_s", "kernel_hits", "speedup"});
    store.addRow({"cold", driver::Table::num(cold.wallSeconds, 3),
                  std::to_string(cold.totalKernelHits()),
                  driver::Table::num(1.0)});
    store.addRow({"warm", driver::Table::num(warm.wallSeconds, 3),
                  std::to_string(warm.totalKernelHits()),
                  driver::Table::num(cold.wallSeconds /
                                     warm.wallSeconds)});
    store.print(std::cout);

    writeJson(json, "BENCH_campaign.json");
    return 0;
}

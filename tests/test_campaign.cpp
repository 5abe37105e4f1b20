/** @file Tests for campaign parsing and the parallel campaign runner. */

#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "service/artifact_store.hpp"
#include "service/campaign.hpp"
#include "service/campaign_runner.hpp"
#include "service/work_steal.hpp"

using namespace photon;
using namespace photon::service;

namespace {

/** 8-job mixed campaign on the tiny test GPU: one Photon chain plus
 *  independent full/pka jobs, so a 4-worker pool genuinely runs
 *  concurrently under the ordered share policy. */
std::vector<JobSpec>
mixedCampaign()
{
    return {
        {"relu", 64, "photon", "tiny"}, {"fir", 64, "photon", "tiny"},
        {"relu", 64, "full", "tiny"},   {"sc", 64, "photon", "tiny"},
        {"fir", 64, "full", "tiny"},    {"relu", 64, "pka", "tiny"},
        {"aes", 64, "photon", "tiny"},  {"fir", 64, "pka", "tiny"},
    };
}

CampaignResult
run(const std::vector<JobSpec> &jobs, std::uint32_t workers,
    SharePolicy share = SharePolicy::Ordered, Artifact seed = {})
{
    CampaignOptions opts;
    opts.workers = workers;
    opts.share = share;
    return runCampaign(jobs, opts, std::move(seed));
}

/** Zero the host-time telemetry field (telemetry schema v2) so the
 *  store comparison below checks only simulation-derived content. */
Artifact
withoutWallTime(Artifact art)
{
    for (auto &[gpu, g] : art.groups)
        for (auto &t : g.telemetry)
            t.wallSeconds = 0.0;
    return art;
}

} // namespace

// ----- Spec parsing -----

TEST(CampaignSpec, ParsesLinesCommentsAndDefaults)
{
    std::istringstream in("# header comment\n"
                          "mm 256 photon r9nano\n"
                          "\n"
                          "relu 4096   # trailing comment\n"
                          "resnet18 0 photon mi100\n"
                          "fir\n");
    std::vector<JobSpec> jobs;
    ASSERT_EQ(parseCampaignText(in, jobs), "");
    ASSERT_EQ(jobs.size(), 4u);
    EXPECT_EQ(jobs[0], (JobSpec{"mm", 256, "photon", "r9nano"}));
    EXPECT_EQ(jobs[1], (JobSpec{"relu", 4096, "photon", "r9nano"}));
    EXPECT_EQ(jobs[2], (JobSpec{"resnet18", 0, "photon", "mi100"}));
    EXPECT_EQ(jobs[3], (JobSpec{"fir", 0, "photon", "r9nano"}));
}

TEST(CampaignSpec, ReportsErrorsWithLineNumbers)
{
    std::vector<JobSpec> jobs;
    std::istringstream bad_size("mm abc\n");
    std::string err = parseCampaignText(bad_size, jobs);
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    EXPECT_NE(err.find("size"), std::string::npos) << err;

    std::istringstream bad_workload("mm 64\nnope 64\n");
    jobs.clear();
    err = parseCampaignText(bad_workload, jobs);
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_NE(err.find("unknown workload"), std::string::npos) << err;

    std::istringstream bad_backend("mm 64 photon r9nano surprise\n");
    jobs.clear();
    err = parseCampaignText(bad_backend, jobs);
    EXPECT_NE(err.find("unknown backend"), std::string::npos) << err;

    std::istringstream extra("mm 64 photon r9nano interval huh\n");
    jobs.clear();
    err = parseCampaignText(extra, jobs);
    EXPECT_NE(err.find("unexpected field"), std::string::npos) << err;
}

TEST(CampaignSpec, ExpandJobsBuildsCrossProduct)
{
    std::vector<JobSpec> jobs = expandJobs(
        {"mm", "relu"}, {128, 256}, {"photon"}, {"r9nano", "mi100"});
    EXPECT_EQ(jobs.size(), 8u);
    EXPECT_EQ(jobs.front(), (JobSpec{"mm", 128, "photon", "r9nano"}));
    EXPECT_EQ(jobs.back(), (JobSpec{"relu", 256, "photon", "mi100"}));
    // Empty size list means "workload default".
    EXPECT_EQ(expandJobs({"mm"}, {}, {"photon"}, {"r9nano"}).size(), 1u);
}

TEST(CampaignSpec, SplitListAndParseUint)
{
    EXPECT_EQ(splitList("a,b,c"),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(splitList("solo"), (std::vector<std::string>{"solo"}));
    EXPECT_EQ(splitList(",a,,b,"), (std::vector<std::string>{"a", "b"}));

    std::uint32_t v = 7;
    EXPECT_TRUE(parseUint("0", v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parseUint("4294967295", v));
    EXPECT_FALSE(parseUint("4294967296", v)); // overflow
    EXPECT_FALSE(parseUint("abc", v));
    EXPECT_FALSE(parseUint("12x", v));
    EXPECT_FALSE(parseUint("-3", v));
    EXPECT_FALSE(parseUint("", v));
}

TEST(CampaignSpec, ValidateJobCatchesEveryField)
{
    EXPECT_EQ(validateJob({"mm", 64, "photon", "r9nano"}), "");
    EXPECT_NE(validateJob({"bogus", 64, "photon", "r9nano"}), "");
    EXPECT_NE(validateJob({"mm", 64, "bogus", "r9nano"}), "");
    EXPECT_NE(validateJob({"mm", 64, "photon", "bogus"}), "");
}

TEST(CampaignSpec, SharePolicyNames)
{
    SharePolicy p = SharePolicy::None;
    EXPECT_TRUE(parseSharePolicy("ordered", p));
    EXPECT_EQ(p, SharePolicy::Ordered);
    EXPECT_STREQ(sharePolicyName(p), "ordered");
    EXPECT_TRUE(parseSharePolicy("live", p));
    EXPECT_TRUE(parseSharePolicy("none", p));
    std::string err;
    EXPECT_FALSE(parseSharePolicy("broadcast", p, &err));
    EXPECT_NE(err.find("broadcast"), std::string::npos);
}

// ----- The shared store -----

TEST(SharedSignatureStore, PublishSnapshotRoundTrip)
{
    SharedSignatureStore store;
    EXPECT_TRUE(store.snapshot("tiny").empty());

    sampling::KernelRecord rec;
    rec.name = "k";
    rec.numWarps = 64;
    rec.totalInsts = 1000;
    rec.cycles = 100;
    store.publish("tiny", {rec}, {});
    StoreGroup g = store.snapshot("tiny");
    ASSERT_EQ(g.kernels.size(), 1u);
    EXPECT_EQ(g.kernels[0].name, "k");
    EXPECT_TRUE(store.snapshot("other").empty());
    EXPECT_EQ(store.exportAll().numKernelRecords(), 1u);
}

TEST(SharedSignatureStore, ConcurrentPublishersAndReaders)
{
    // Exercised under -fsanitize=thread in CI: hammer the store from
    // several threads and check nothing is lost.
    SharedSignatureStore store;
    constexpr int kThreads = 8;
    constexpr int kPerThread = 50;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&store, t]() {
            for (int i = 0; i < kPerThread; ++i) {
                sampling::KernelRecord rec;
                // Built up by append: chained operator+ trips a GCC 12
                // -Wrestrict false positive under -Werror.
                rec.name = "k";
                rec.name += std::to_string(t);
                rec.name += '_';
                rec.name += std::to_string(i);
                rec.numWarps = 64;
                store.publish(t % 2 ? "a" : "b", {rec}, {});
                StoreGroup snap = store.snapshot("a");
                (void)snap;
            }
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(store.exportAll().numKernelRecords(),
              std::size_t{kThreads} * kPerThread);
}

// ----- The runner -----

TEST(CampaignRunner, ParallelMatchesSerialBitExactly)
{
    std::vector<JobSpec> jobs = mixedCampaign();
    CampaignResult serial = run(jobs, 1);
    CampaignResult parallel = run(jobs, 4);

    ASSERT_EQ(serial.jobs.size(), jobs.size());
    ASSERT_EQ(parallel.jobs.size(), jobs.size());
    EXPECT_EQ(parallel.workers, 4u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(serial.jobs[i].cycles, parallel.jobs[i].cycles)
            << "job " << i << " (" << jobs[i].label() << ")";
        EXPECT_EQ(serial.jobs[i].insts, parallel.jobs[i].insts)
            << "job " << i << " (" << jobs[i].label() << ")";
        EXPECT_EQ(serial.jobs[i].kernels, parallel.jobs[i].kernels);
        for (std::size_t l = 0; l < kNumSampleLevels; ++l)
            EXPECT_EQ(serial.jobs[i].levelCounts[l],
                      parallel.jobs[i].levelCounts[l])
                << "job " << i << " level " << l;
    }
    // The shared store converges to the same contents either way (wall
    // time is host-dependent and exempt from the bit-exact promise).
    EXPECT_EQ(serializeArtifact(withoutWallTime(serial.finalStore)),
              serializeArtifact(withoutWallTime(parallel.finalStore)));
}

TEST(CampaignRunner, OrderedShareGivesCrossJobKernelHits)
{
    std::vector<JobSpec> jobs = {{"relu", 64, "photon", "tiny"},
                                 {"relu", 64, "photon", "tiny"}};
    CampaignResult result = run(jobs, 2);
    // Job 0 simulates (deeper than kernel level); job 1 matches job 0's
    // published signature and is skipped entirely.
    EXPECT_EQ(result.jobs[0].kernelHits(), 0u);
    EXPECT_EQ(result.jobs[0].seedRecords, 0u);
    EXPECT_GE(result.jobs[0].newRecords, 1u);
    EXPECT_GE(result.jobs[1].kernelHits(), 1u);
    EXPECT_GE(result.jobs[1].seedRecords, 1u);
    EXPECT_EQ(result.jobs[1].cycles, result.jobs[0].cycles);
    EXPECT_EQ(result.totalKernelHits(), result.jobs[1].kernelHits());
}

TEST(CampaignRunner, NoneShareIsolatesJobs)
{
    std::vector<JobSpec> jobs = {{"relu", 64, "photon", "tiny"},
                                 {"relu", 64, "photon", "tiny"}};
    CampaignResult result = run(jobs, 2, SharePolicy::None);
    EXPECT_EQ(result.jobs[0].kernelHits(), 0u);
    EXPECT_EQ(result.jobs[1].kernelHits(), 0u);
    EXPECT_EQ(result.jobs[0].seedRecords, 0u);
    EXPECT_EQ(result.jobs[1].seedRecords, 0u);
    // Both jobs still publish into the final store.
    EXPECT_GE(result.finalStore.numKernelRecords(), 2u);
}

TEST(CampaignRunner, WarmCacheRerunHitsAtKernelLevel)
{
    // The acceptance scenario: a cold run resolves at a deeper level
    // and writes the store; a warm rerun seeded from it (after a full
    // serialization round trip) reports a SampleLevel::Kernel hit.
    std::vector<JobSpec> jobs = {{"relu", 64, "photon", "tiny"},
                                 {"fir", 64, "photon", "tiny"}};
    CampaignResult cold = run(jobs, 1);
    EXPECT_EQ(cold.totalKernelHits(), 0u);

    std::string bytes = serializeArtifact(cold.finalStore);
    Artifact seed;
    ASSERT_TRUE(deserializeArtifact(bytes, seed).ok);

    CampaignResult warm =
        run(jobs, 1, SharePolicy::Ordered, std::move(seed));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_GE(warm.jobs[i].kernelHits(), 1u)
            << jobs[i].label() << " did not hit the warm cache";
        EXPECT_EQ(warm.jobs[i].cycles, cold.jobs[i].cycles);
        EXPECT_EQ(warm.jobs[i].insts, cold.jobs[i].insts);
        // Offline mode: the warm run reuses the stored analyses too.
        EXPECT_EQ(warm.jobs[i].analysisInsts, 0u);
    }
}

TEST(CampaignRunner, ReportsRenderAllJobs)
{
    std::vector<JobSpec> jobs = {{"relu", 64, "photon", "tiny"},
                                 {"fir", 64, "full", "tiny"}};
    CampaignResult result = run(jobs, 2);

    std::ostringstream json;
    writeJsonReport(result, json);
    EXPECT_NE(json.str().find("\"workload\": \"relu\""),
              std::string::npos);
    EXPECT_NE(json.str().find("\"mode\": \"full\""), std::string::npos);
    EXPECT_NE(json.str().find("\"totals\""), std::string::npos);

    std::ostringstream table;
    printCampaignTable(result, table);
    EXPECT_NE(table.str().find("relu"), std::string::npos);
    std::ostringstream csv;
    printCampaignTable(result, csv, /*csv=*/true);
    EXPECT_NE(csv.str().find("relu,"), std::string::npos);
}

TEST(CampaignRunner, JobResultsCarryCacheCounters)
{
    // Two identical photon jobs in one ordered chain: the second is
    // seeded by the first, so it hits where the first missed.
    std::vector<JobSpec> jobs = {{"relu", 128, "photon", "tiny"},
                                 {"relu", 128, "photon", "tiny"}};
    CampaignResult result = run(jobs, 1);
    const JobResult &cold = result.jobs[0];
    const JobResult &warm = result.jobs[1];
    EXPECT_EQ(cold.cacheHits, 0u);
    EXPECT_GE(cold.cacheMisses, 1u);
    EXPECT_GE(cold.cacheInserts, 1u);
    EXPECT_GE(warm.cacheHits, 1u);
    // Seeding the warm job's cache must not count as insert activity.
    EXPECT_EQ(warm.cacheInserts, 0u);

    std::ostringstream json;
    writeJsonReport(result, json);
    EXPECT_NE(json.str().find("\"cache\": {\"hits\": "),
              std::string::npos);
    EXPECT_NE(json.str().find("\"cache_hits\": "), std::string::npos);
}

TEST(CampaignRunner, StealingAndStaticPartitionMatchBitExactly)
{
    // The scheduler moves work between lanes, never changes it: the
    // same batch under steal-half rebalancing and under the static
    // partition must produce identical per-job results and stores.
    std::vector<JobSpec> jobs = mixedCampaign();
    CampaignOptions steal_opts;
    steal_opts.workers = 4;
    CampaignOptions static_opts = steal_opts;
    static_opts.stealing = false;

    CampaignResult steal = runCampaign(jobs, steal_opts);
    CampaignResult stat = runCampaign(jobs, static_opts);

    EXPECT_TRUE(steal.stealing);
    EXPECT_FALSE(stat.stealing);
    EXPECT_EQ(stat.stealOps, 0u);
    EXPECT_EQ(stat.stolenTasks, 0u);

    ASSERT_EQ(steal.jobs.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(steal.jobs[i].cycles, stat.jobs[i].cycles)
            << "job " << i << " (" << jobs[i].label() << ")";
        EXPECT_EQ(steal.jobs[i].insts, stat.jobs[i].insts)
            << "job " << i << " (" << jobs[i].label() << ")";
        for (std::size_t l = 0; l < kNumSampleLevels; ++l)
            EXPECT_EQ(steal.jobs[i].levelCounts[l],
                      stat.jobs[i].levelCounts[l])
                << "job " << i << " level " << l;
    }
    EXPECT_EQ(serializeArtifact(withoutWallTime(steal.finalStore)),
              serializeArtifact(withoutWallTime(stat.finalStore)));

    // The scheduler block lands in the JSON report.
    std::ostringstream os;
    writeJsonReport(steal, os);
    EXPECT_NE(os.str().find("\"scheduler\""), std::string::npos);
    EXPECT_NE(os.str().find("\"steal_ops\""), std::string::npos);
}

TEST(CampaignRunner, WarmTraceSweepIsAllHitsAndBitIdentical)
{
    // Capture once, replay many on a backend/config sweep: the interval
    // backend across two GPUs plus detailed validation jobs on tiny. A
    // capture pass records every distinct launch; a sweep seeded with
    // its store must be fully trace-served and model the same machine
    // as a sweep that re-emulates every job.
    const std::vector<std::string> workloads = {"relu", "fir", "sc", "aes"};
    std::vector<JobSpec> jobs = expandJobs(workloads, {64, 128}, {"full"},
                                           {"tiny", "r9nano"},
                                           {"interval"});
    std::vector<JobSpec> validation =
        expandJobs(workloads, {64}, {"full"}, {"tiny"}, {"detailed"});
    jobs.insert(jobs.end(), validation.begin(), validation.end());
    ASSERT_EQ(jobs.size(), 20u);

    CampaignOptions opts;
    opts.workers = 1;
    CampaignResult captured = runCampaign(jobs, opts);
    EXPECT_FALSE(captured.finalStore.traces.empty());

    CampaignResult warm = runCampaign(jobs, opts, captured.finalStore);
    opts.traceReuse = false;
    CampaignResult cold = runCampaign(jobs, opts);

    std::uint64_t hits = 0, misses = 0, captures = 0;
    for (const JobResult &j : warm.jobs) {
        hits += j.traceHits;
        misses += j.traceMisses;
        captures += j.traceCaptures;
    }
    EXPECT_GT(hits, 0u);
    EXPECT_EQ(misses, 0u);
    EXPECT_EQ(captures, 0u);
    EXPECT_EQ(warm.totalCycles(), cold.totalCycles());
    EXPECT_EQ(warm.totalInsts(), cold.totalInsts());
}

// ----- Work-stealing deques -----

TEST(WorkStealDeques, StealsBackHalfInBothDirections)
{
    // Worker 0 steals from lane 1, then worker 1 steals from lane 0:
    // the two transfers take the same pair of lane locks from opposite
    // sides, which must not form a lock-order cycle.
    WorkStealDeques<int> d(2);
    for (int v : {1, 2, 3, 4})
        d.pushTo(1, v);

    int out = 0;
    ASSERT_TRUE(d.tryPop(0, out)); // lane 0 empty: steal [3, 4] from 1
    EXPECT_EQ(out, 3);
    for (int v : {5, 6, 7})
        d.pushTo(0, v); // lane 0: [4, 5, 6, 7]
    for (int want : {1, 2}) {
        ASSERT_TRUE(d.tryPop(1, out));
        EXPECT_EQ(out, want);
    }
    ASSERT_TRUE(d.tryPop(1, out)); // lane 1 empty: steal [6, 7] from 0
    EXPECT_EQ(out, 6);
    for (auto [w, want] : {std::pair{1, 7}, {0, 4}, {0, 5}}) {
        ASSERT_TRUE(d.tryPop(static_cast<std::size_t>(w), out));
        EXPECT_EQ(out, want);
    }
    EXPECT_FALSE(d.tryPop(0, out));
    EXPECT_FALSE(d.tryPop(1, out));
    EXPECT_EQ(d.sizeApprox(), 0u);

    StealStats st = d.stats();
    EXPECT_EQ(st.stealOps, 2u);
    EXPECT_EQ(st.stolenTasks, 4u);
}

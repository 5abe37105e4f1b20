/** @file Tests for the pluggable timing-backend seam.
 *
 *  Covers the backend name/enum round-trip, the campaign layer's
 *  backend dimension (cross-product expansion, labels, validation),
 *  the daemon's wire compatibility (requests without a "backend" key
 *  mean detailed) and admission dedup keyed on (fingerprint, backend),
 *  and the backends themselves: the detailed adapter reproduces the
 *  golden seed numbers with full capabilities, the interval model is
 *  deterministic with no capabilities, its cycle error against the
 *  detailed core stays inside each workload's stated bound, and every
 *  core workload passes its reference check under it and leaves memory
 *  as the seed reference engine does. The retired "auto" backend name is
 *  rejected at every entry point with the accepted names. */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "driver/platform.hpp"
#include "driver/report.hpp"
#include "serve/fingerprint.hpp"
#include "serve/protocol.hpp"
#include "service/campaign.hpp"
#include "workloads/workload.hpp"

using namespace photon;

namespace {

/** Build a platform, run one workload, and return the platform for
 *  inspection (cycles, telemetry, backend internals). */
struct RunResult
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    std::vector<sampling::KernelTelemetry> telemetry;
};

RunResult
runWorkloadOn(driver::Platform &p, const char *workload,
              std::uint32_t size)
{
    std::string err;
    auto w = service::makeWorkload(workload, size, &err);
    EXPECT_NE(w, nullptr) << err;
    w->setup(p);
    workloads::runWorkload(*w, p);
    return {p.totalKernelCycles(), p.totalInsts(), p.telemetry()};
}

GpuConfig
gpuByName(const char *name)
{
    GpuConfig gpu;
    std::string err;
    EXPECT_TRUE(service::parseGpuName(name, gpu, &err)) << err;
    return gpu;
}

} // namespace

// ----- Name round-trips -----

TEST(BackendKind, NameRoundTrip)
{
    using timing::BackendKind;
    for (auto kind : {BackendKind::Detailed, BackendKind::Interval}) {
        BackendKind parsed{};
        ASSERT_TRUE(
            timing::parseBackendKind(timing::backendKindName(kind), parsed));
        EXPECT_EQ(parsed, kind);
    }
}

TEST(BackendKind, RejectsUnknownNames)
{
    timing::BackendKind parsed = timing::BackendKind::Interval;
    EXPECT_FALSE(timing::parseBackendKind("cycle-level", parsed));
    EXPECT_FALSE(timing::parseBackendKind("", parsed));
    EXPECT_FALSE(timing::parseBackendKind("Detailed", parsed));
    EXPECT_FALSE(timing::parseBackendKind("auto", parsed));
    // A failed parse must leave the output untouched.
    EXPECT_EQ(parsed, timing::BackendKind::Interval);
}

TEST(BackendKind, ServiceParserNamesTheAlternatives)
{
    timing::BackendKind kind{};
    for (const char *name : {"surprise", "auto"}) {
        std::string err;
        EXPECT_FALSE(service::parseBackendName(name, kind, &err));
        EXPECT_NE(err.find(name), std::string::npos) << err;
        EXPECT_NE(err.find("(detailed, interval)"), std::string::npos)
            << err;
    }
}

// ----- Campaign layer -----

TEST(BackendCampaign, ExpandJobsCrossesTheBackendDimension)
{
    auto jobs = service::expandJobs({"mm", "relu"}, {64}, {"full"},
                                    {"tiny"}, {"detailed", "interval"});
    ASSERT_EQ(jobs.size(), 4u);
    std::set<std::string> labels;
    for (const auto &j : jobs)
        labels.insert(j.label());
    EXPECT_TRUE(labels.count("mm/64/full/tiny"));
    EXPECT_TRUE(labels.count("mm/64/full/tiny/interval"));
    EXPECT_TRUE(labels.count("relu/64/full/tiny"));
    EXPECT_TRUE(labels.count("relu/64/full/tiny/interval"));
}

TEST(BackendCampaign, EmptyBackendListMeansDetailed)
{
    auto jobs = service::expandJobs({"mm"}, {64}, {"full"}, {"tiny"});
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].backend, "detailed");
    // Pre-backend labels are unchanged: no fifth component.
    EXPECT_EQ(jobs[0].label(), "mm/64/full/tiny");
}

TEST(BackendCampaign, ValidateJobRestrictsBackendsToFullMode)
{
    service::JobSpec spec;
    spec.workload = "mm";
    spec.size = 64;
    spec.gpu = "tiny";
    spec.mode = "photon";
    spec.backend = "interval";
    // The sampled modes' control planes live in the detailed core's
    // monitor hooks; an analytical backend cannot host them.
    EXPECT_NE(service::validateJob(spec), "");

    spec.mode = "full";
    EXPECT_EQ(service::validateJob(spec), "");

    spec.backend = "definitely-not-a-backend";
    EXPECT_NE(service::validateJob(spec), "");

    // A campaign-file line and a submit carry the same JobSpec.
    spec.backend = "auto";
    EXPECT_NE(service::validateJob(spec).find("(detailed, interval)"),
              std::string::npos);
}

// ----- Wire protocol -----

TEST(BackendProtocol, DefaultBackendStaysOffTheWire)
{
    serve::Request req;
    req.op = serve::Op::Submit;
    req.id = "c1-0";
    req.spec.workload = "mm";
    req.spec.size = 256;
    req.spec.mode = "photon";
    req.spec.gpu = "r9nano";
    // A default-backend submit line must be byte-identical to what
    // pre-backend clients send.
    EXPECT_EQ(encodeRequest(req).find("backend"), std::string::npos);

    req.spec.backend = "interval";
    req.spec.mode = "full";
    std::string line = encodeRequest(req);
    EXPECT_NE(line.find("\"backend\": \"interval\""), std::string::npos);

    serve::Request back;
    std::string err;
    ASSERT_TRUE(decodeRequest(line, back, &err)) << err;
    EXPECT_EQ(back.spec.backend, "interval");
}

TEST(BackendProtocol, OldClientLinesDefaultToDetailed)
{
    // Exactly what a pre-backend client emits: no "backend" key.
    const std::string line =
        "{\"v\": 1, \"op\": \"submit\", \"id\": \"old-7\", "
        "\"workload\": \"spmv\", \"size\": 1024, \"mode\": \"photon\", "
        "\"gpu\": \"r9nano\"}";
    serve::Request req;
    std::string err;
    ASSERT_TRUE(decodeRequest(line, req, &err)) << err;
    EXPECT_EQ(req.spec.backend, "detailed");
    EXPECT_EQ(req.spec.workload, "spmv");
}

TEST(BackendProtocol, UnknownKeysStillIgnored)
{
    const std::string line =
        "{\"v\": 1, \"op\": \"submit\", \"id\": \"new-1\", "
        "\"workload\": \"mm\", \"size\": 64, \"mode\": \"full\", "
        "\"gpu\": \"tiny\", \"backend\": \"auto\", "
        "\"future_extension\": \"ignored\", \"priority\": 3}";
    serve::Request req;
    std::string err;
    ASSERT_TRUE(decodeRequest(line, req, &err)) << err;
    EXPECT_EQ(req.spec.backend, "auto");
    // The line decodes, but the retired backend is rejected at
    // admission (SimServer::submit validates the spec) with the
    // accepted names.
    EXPECT_NE(service::validateJob(req.spec).find("(detailed, interval)"),
              std::string::npos);
}

TEST(BackendAdmission, DedupKeysSeparateBackends)
{
    service::JobSpec detailed;
    detailed.workload = "mm";
    detailed.size = 64;
    detailed.mode = "full";
    detailed.gpu = "tiny";

    service::JobSpec interval = detailed;
    interval.backend = "interval";

    // A detailed and an interval run of the same spec give different
    // answers, so neither may ride the other...
    EXPECT_NE(serve::admissionKey(detailed), serve::admissionKey(interval));
    // ...while resubmitting the same spec still dedups.
    EXPECT_EQ(serve::admissionKey(interval), serve::admissionKey(interval));
}

// ----- Detailed backend: the adapter is the seed model -----

TEST(DetailedBackend, ReproducesGoldenNumbersWithFullCaps)
{
    driver::Platform p(gpuByName("tiny"), driver::SimMode::FullDetailed,
                       {}, timing::BackendKind::Detailed);
    auto caps = p.activeBackend().caps();
    EXPECT_TRUE(caps.cycleLevel);
    EXPECT_TRUE(caps.monitorHooks);
    EXPECT_TRUE(caps.occupancyStats);
    EXPECT_STREQ(p.activeBackend().name(), "detailed");

    // Golden constants from the seed build (see test_golden_parity).
    auto r = runWorkloadOn(p, "mm", 64);
    EXPECT_EQ(r.cycles, 15663ull);
    EXPECT_EQ(r.insts, 37696ull);
    ASSERT_FALSE(r.telemetry.empty());
    EXPECT_EQ(r.telemetry[0].backend, "detailed");
}

// ----- Interval backend -----

TEST(IntervalBackend, DeterministicWithNoCaps)
{
    Cycle first = 0;
    for (int run = 0; run < 2; ++run) {
        driver::Platform p(gpuByName("tiny"),
                           driver::SimMode::FullDetailed, {},
                           timing::BackendKind::Interval);
        ASSERT_NE(p.interval(), nullptr);
        auto caps = p.activeBackend().caps();
        EXPECT_FALSE(caps.cycleLevel);
        EXPECT_FALSE(caps.monitorHooks);
        EXPECT_FALSE(caps.occupancyStats);
        EXPECT_STREQ(p.activeBackend().name(), "interval");

        auto r = runWorkloadOn(p, "mm", 64);
        EXPECT_GT(r.cycles, 0ull);
        EXPECT_GT(r.insts, 0ull);
        ASSERT_FALSE(r.telemetry.empty());
        EXPECT_EQ(r.telemetry[0].backend, "interval");
        EXPECT_EQ(r.telemetry[0].backendDetailedCycles, 0ull);
        EXPECT_EQ(r.telemetry[0].backendIntervalCycles, r.cycles);

        if (run == 0)
            first = r.cycles;
        else
            EXPECT_EQ(r.cycles, first) << "interval model not deterministic";
    }
}

TEST(IntervalBackend, EveryCoreWorkloadPassesItsReferenceCheck)
{
    // The interval backend prices warps from the launch's trace, so its
    // functional results are the trace's: every core workload's output
    // must match its CPU reference and leave memory exactly as the seed
    // reference engine (which emulates inline at issue) leaves it,
    // including mmtiled, whose waves exchange tiles through LDS. Both
    // trace sources are covered: the platform's trace store, and the
    // backend's own capture when it is handed no trace.
    for (const char *workload : {"relu", "fir", "sc", "mm", "mmtiled",
                                 "aes", "spmv", "pagerank"}) {
        std::string err;
        auto ws = service::makeWorkload(workload, 64, &err);
        auto w = service::makeWorkload(workload, 64, &err);
        auto wo = service::makeWorkload(workload, 64, &err);
        ASSERT_TRUE(ws && w && wo) << err;

        driver::Platform seed(gpuByName("tiny"),
                              driver::SimMode::FullDetailed);
        ws->setup(seed);
        timing::RunOptions seed_opts;
        seed_opts.useSeedLoop = true;
        for (const workloads::LaunchSpec &l : ws->launches()) {
            func::LaunchDims dims{l.numWorkgroups, l.wavesPerWorkgroup,
                                  l.kernarg};
            seed.gpu().runKernel(*l.program, dims, seed.mem(), nullptr,
                                 seed_opts);
        }
        const std::uint64_t seed_mem = seed.mem().contentHash();

        driver::Platform stored(gpuByName("tiny"),
                                driver::SimMode::FullDetailed, {},
                                timing::BackendKind::Interval);
        w->setup(stored);
        workloads::runWorkload(*w, stored);
        EXPECT_TRUE(w->check(stored)) << workload << " platform trace";
        EXPECT_EQ(stored.mem().contentHash(), seed_mem) << workload;

        driver::Platform own(gpuByName("tiny"),
                             driver::SimMode::FullDetailed, {},
                             timing::BackendKind::Interval);
        wo->setup(own);
        Cycle own_cycles = 0;
        for (const workloads::LaunchSpec &l : wo->launches()) {
            func::LaunchDims dims{l.numWorkgroups, l.wavesPerWorkgroup,
                                  l.kernarg};
            own_cycles +=
                own.interval()->runKernel(*l.program, dims, own.mem())
                    .cycles();
        }
        EXPECT_TRUE(wo->check(own)) << workload << " own capture";
        EXPECT_EQ(own.mem().contentHash(), seed_mem) << workload;
        EXPECT_EQ(own_cycles, stored.totalKernelCycles()) << workload;

        if (std::string(workload) == "mmtiled") {
            EXPECT_EQ(stored.totalKernelCycles(), 7464ull);
        }
    }
}

TEST(IntervalBackend, CycleErrorWithinStatedBounds)
{
    // The interval model trades accuracy for speed by construction (no
    // event loop, no MSHR or bank contention), so each workload carries
    // an explicit bound on its cycle error against the detailed core.
    // spmv and pagerank are wide on purpose: their runtimes are
    // dominated by DRAM/MSHR contention equilibria the closed-form
    // floors cannot reproduce (DESIGN.md §14).
    const struct
    {
        const char *workload;
        std::uint32_t size;
        double boundPct;
    } cases[] = {
        {"pagerank", 65536, 95.0}, {"mm", 128, 25.0},
        {"spmv", 1024, 98.0},      {"relu", 16384, 15.0},
        {"pagerank", 4096, 75.0},
    };
    const timing::BackendKind kinds[] = {timing::BackendKind::Detailed,
                                         timing::BackendKind::Interval};
    for (const auto &c : cases) {
        Cycle cycles[2] = {};
        for (int k = 0; k < 2; ++k) {
            driver::Platform p(gpuByName("r9nano"),
                               driver::SimMode::FullDetailed, {}, kinds[k]);
            cycles[k] = runWorkloadOn(p, c.workload, c.size).cycles;
        }
        ASSERT_GT(cycles[0], 0ull) << c.workload << " " << c.size;
        double err = driver::percentError(static_cast<double>(cycles[1]),
                                          static_cast<double>(cycles[0]));
        EXPECT_LE(err, c.boundPct) << c.workload << " " << c.size;
    }
}

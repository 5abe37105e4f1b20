/** @file Tests for the photond daemon stack: wire protocol, admission
 *  fingerprints, the SimServer (shared cache, dedup, drain,
 *  checkpoint/restart), and both client transports. */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "serve/fingerprint.hpp"
#include "serve/net.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

using namespace photon;
using namespace photon::serve;

namespace {

namespace fs = std::filesystem;

/** Fresh per-test scratch directory under the build tree. */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::temp_directory_path() / ("photon_serve_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

service::JobSpec
spec(const std::string &workload, std::uint32_t size,
     const std::string &mode = "photon")
{
    return {workload, size, mode, "tiny"};
}

ServerOptions
tinyServer(std::uint32_t workers)
{
    ServerOptions o;
    o.workers = workers;
    return o;
}

} // namespace

// ----- Wire protocol -----

TEST(ServeProtocol, RequestRoundTrip)
{
    Request req;
    req.op = Op::Submit;
    req.id = "client-42";
    req.spec = {"mm", 128, "photon", "r9nano"};
    std::string line = encodeRequest(req);

    Request back;
    std::string err;
    ASSERT_TRUE(decodeRequest(line, back, &err)) << err;
    EXPECT_EQ(back.v, kProtocolVersion);
    EXPECT_EQ(back.op, Op::Submit);
    EXPECT_EQ(back.id, "client-42");
    EXPECT_EQ(back.spec, req.spec);
}

TEST(ServeProtocol, ResponseRoundTripWithResult)
{
    Response resp;
    resp.id = "r1";
    resp.ok = true;
    resp.hasResult = true;
    resp.result.spec = {"relu", 512, "photon", "tiny"};
    resp.result.ok = true;
    resp.result.cycles = 6005;
    resp.result.insts = 7680;
    resp.result.kernels = 1;
    resp.result.kernelHits = 1;
    resp.result.cacheHit = true;
    resp.result.dedupCollapsed = true;
    resp.result.fingerprint = 0xabcdefull;

    Response back;
    std::string err;
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), back, &err)) << err;
    ASSERT_TRUE(back.hasResult);
    EXPECT_FALSE(back.hasStatus);
    EXPECT_EQ(back.result.spec, resp.result.spec);
    EXPECT_EQ(back.result.cycles, 6005u);
    EXPECT_EQ(back.result.insts, 7680u);
    EXPECT_TRUE(back.result.cacheHit);
    EXPECT_TRUE(back.result.dedupCollapsed);
    EXPECT_EQ(back.result.fingerprint, 0xabcdefull);
}

TEST(ServeProtocol, ResponseRoundTripWithStatus)
{
    Response resp;
    resp.ok = true;
    resp.hasStatus = true;
    resp.status.workers = 3;
    resp.status.submitted = 10;
    resp.status.completed = 9;
    resp.status.store.cacheHits = 7;
    resp.status.store.dedupCollapsed = 2;
    resp.status.storeKernelRecords = 5;

    Response back;
    std::string err;
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), back, &err)) << err;
    ASSERT_TRUE(back.hasStatus);
    EXPECT_FALSE(back.hasResult);
    EXPECT_EQ(back.status.workers, 3u);
    EXPECT_EQ(back.status.submitted, 10u);
    EXPECT_EQ(back.status.store.cacheHits, 7u);
    EXPECT_EQ(back.status.store.dedupCollapsed, 2u);
    EXPECT_EQ(back.status.storeKernelRecords, 5u);
}

TEST(ServeProtocol, RejectsMissingAndFutureVersions)
{
    Request req;
    std::string err;
    EXPECT_FALSE(decodeRequest("{\"op\": \"ping\", \"id\": \"x\"}", req,
                               &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
    EXPECT_FALSE(decodeRequest("{\"v\": 99, \"op\": \"ping\"}", req,
                               &err));
    EXPECT_NE(err.find("version"), std::string::npos) << err;
}

TEST(ServeProtocol, IgnoresUnknownKeysForForwardCompat)
{
    Request req;
    std::string err;
    ASSERT_TRUE(decodeRequest("{\"v\": 1, \"op\": \"submit\", "
                              "\"id\": \"a\", \"workload\": \"fir\", "
                              "\"size\": 64, \"mode\": \"photon\", "
                              "\"gpu\": \"tiny\", "
                              "\"future_field\": 7}",
                              req, &err))
        << err;
    EXPECT_EQ(req.spec.workload, "fir");
    EXPECT_EQ(req.spec.size, 64u);
}

TEST(ServeProtocol, RejectsMalformedJson)
{
    Request req;
    std::string err;
    EXPECT_FALSE(decodeRequest("not json", req, &err));
    EXPECT_FALSE(decodeRequest("{\"v\": 1,}", req, &err));
    EXPECT_FALSE(decodeRequest("{\"v\": 1} trailing", req, &err));
}

// ----- Admission fingerprints -----

TEST(ServeFingerprint, SpecFingerprintSeparatesFields)
{
    std::uint64_t base = fingerprintSpec(spec("relu", 512));
    EXPECT_EQ(base, fingerprintSpec(spec("relu", 512)));
    EXPECT_NE(base, fingerprintSpec(spec("relu", 513)));
    EXPECT_NE(base, fingerprintSpec(spec("fir", 512)));
    EXPECT_NE(base, fingerprintSpec(spec("relu", 512, "full")));
}

TEST(ServeFingerprint, GpuBbvFingerprintIsDeterministic)
{
    sampling::GpuBbv a =
        sampling::GpuBbv::fromRaw({2.0, 1.5, 0.25, 0.0}, 2, 2);
    sampling::GpuBbv b =
        sampling::GpuBbv::fromRaw({2.0, 1.5, 0.25, 0.0}, 2, 2);
    EXPECT_EQ(fingerprintGpuBbv(a), fingerprintGpuBbv(b));
    sampling::GpuBbv c =
        sampling::GpuBbv::fromRaw({2.0, 1.5, 0.25, 0.125}, 2, 2);
    EXPECT_NE(fingerprintGpuBbv(a), fingerprintGpuBbv(c));
    // Same payload, different shape: still distinct.
    sampling::GpuBbv d =
        sampling::GpuBbv::fromRaw({2.0, 1.5, 0.25, 0.0}, 4, 1);
    EXPECT_NE(fingerprintGpuBbv(a), fingerprintGpuBbv(d));
}

TEST(ServeFingerprint, LearnedFingerprintReplacesSpecKey)
{
    GlobalStore store;
    service::JobSpec s = spec("relu", 512);
    std::uint64_t cold = store.admissionKey(s);
    EXPECT_EQ(cold, fingerprintSpec(s));
    store.learnFingerprint(s, 0xfeedu);
    EXPECT_EQ(store.admissionKey(s), 0xfeedu);
    // Fingerprint 0 (nothing learned) must not poison the registry.
    store.learnFingerprint(spec("fir", 64), 0);
    EXPECT_EQ(store.admissionKey(spec("fir", 64)),
              fingerprintSpec(spec("fir", 64)));
}

// ----- SimServer: shared cache, dedup, drain -----

TEST(SimServer, SecondIdenticalRequestIsWarm)
{
    SimServer server(tinyServer(2));
    ServeResult first = server.runSync(spec("relu", 512));
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_FALSE(first.cacheHit);
    EXPECT_GT(first.cycles, 0u);

    ServeResult second = server.runSync(spec("relu", 512));
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_TRUE(second.cacheHit);
    EXPECT_TRUE(second.analysisReused);
    EXPECT_EQ(second.cycles, first.cycles);
    EXPECT_EQ(second.insts, first.insts);

    StoreStats stats = server.store().stats();
    EXPECT_EQ(stats.jobsExecuted, 2u);
    EXPECT_GE(stats.cacheHits, 1u);
    EXPECT_GE(stats.cacheInserts, 1u);
}

TEST(SimServer, RejectsInvalidSpecAndDrainingSubmits)
{
    SimServer server(tinyServer(1));
    ServeResult bad = server.runSync(spec("nosuch", 1));
    EXPECT_FALSE(bad.ok);
    EXPECT_NE(bad.error.find("workload"), std::string::npos)
        << bad.error;

    server.drain();
    ServeResult late = server.runSync(spec("relu", 64));
    EXPECT_FALSE(late.ok);
    EXPECT_NE(late.error.find("drain"), std::string::npos) << late.error;
}

TEST(SimServer, PausedAdmissionCollapsesIdenticalRequests)
{
    ServerOptions o = tinyServer(2);
    o.startPaused = true;
    SimServer server(o);

    // Admit while paused: the leader plus three riders share one key.
    std::vector<SimServer::Ticket> tickets;
    for (int i = 0; i < 4; ++i)
        tickets.push_back(server.submit(spec("fir", 256)));
    server.resume();

    std::uint32_t collapsed = 0;
    ServeResult leaderLike;
    for (SimServer::Ticket t : tickets) {
        ServeResult r = server.wait(t);
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_EQ(r.spec, spec("fir", 256));
        if (r.dedupCollapsed)
            ++collapsed;
        else
            leaderLike = r;
        EXPECT_GT(r.cycles, 0u);
    }
    EXPECT_EQ(collapsed, 3u);

    // One detailed run, three fan-outs.
    StoreStats stats = server.store().stats();
    EXPECT_EQ(stats.jobsExecuted, 1u);
    EXPECT_EQ(stats.dedupCollapsed, 3u);

    // Every rider saw the leader's numbers.
    ServeResult again = server.runSync(spec("fir", 256));
    EXPECT_EQ(again.cycles, leaderLike.cycles);
    EXPECT_EQ(again.insts, leaderLike.insts);
}

TEST(SimServer, ConcurrentMixedRequestsMatchSerialResults)
{
    // Serial baselines, each from a cold single-worker server.
    const std::vector<service::JobSpec> distinct = {
        spec("relu", 256), spec("fir", 256), spec("sc", 256),
        spec("aes", 64), spec("relu", 256, "full"),
    };
    std::vector<ServeResult> serial;
    for (const auto &s : distinct) {
        SimServer one(tinyServer(1));
        serial.push_back(one.runSync(s));
        ASSERT_TRUE(serial.back().ok) << serial.back().error;
    }

    // Shared server: every distinct spec plus duplicate relu requests,
    // submitted from concurrent client threads.
    SimServer server(tinyServer(4));
    const std::size_t clients = distinct.size() + 3;
    std::vector<ServeResult> results(clients);
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t i = 0; i < clients; ++i) {
        const service::JobSpec s =
            i < distinct.size() ? distinct[i] : spec("relu", 256);
        threads.emplace_back(
            [&server, &results, i, s] { results[i] = server.runSync(s); });
    }
    for (auto &t : threads)
        t.join();

    for (std::size_t i = 0; i < clients; ++i) {
        const ServeResult &expect =
            i < distinct.size() ? serial[i] : serial[0];
        ASSERT_TRUE(results[i].ok) << results[i].error;
        EXPECT_EQ(results[i].cycles, expect.cycles)
            << results[i].spec.label();
        EXPECT_EQ(results[i].insts, expect.insts)
            << results[i].spec.label();
    }

    // Every request either executed on a worker or collapsed onto an
    // in-flight leader — never both, never neither. (How many relus
    // overlapped is timing-dependent; exact collapse counts are pinned
    // by the paused-admission test above.)
    StoreStats stats = server.store().stats();
    EXPECT_EQ(stats.dedupCollapsed + stats.jobsExecuted, clients);
}

// ----- Checkpoint / restart -----

TEST(SimServer, RestartReloadsCheckpointedStore)
{
    fs::path dir = scratchDir("restart");
    std::string path = (dir / "store.bin").string();

    std::uint64_t coldCycles = 0;
    {
        ServerOptions o = tinyServer(2);
        o.store.path = path;
        SimServer server(o);
        ServeResult r = server.runSync(spec("relu", 512));
        ASSERT_TRUE(r.ok) << r.error;
        EXPECT_FALSE(r.cacheHit);
        coldCycles = r.cycles;
        server.drain(); // flushes the checkpoint
    }
    ASSERT_TRUE(fs::exists(path));

    ServerOptions o = tinyServer(2);
    o.store.path = path;
    SimServer restarted(o);
    EXPECT_GE(restarted.store().numKernelRecords(), 1u);
    ServeResult warm = restarted.runSync(spec("relu", 512));
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_TRUE(warm.cacheHit);
    EXPECT_EQ(warm.cycles, coldCycles);

    restarted.drain(); // flush before the scratch dir disappears
    fs::remove_all(dir);
}

TEST(SimServer, PeriodicCheckpointWritesWithoutDrain)
{
    fs::path dir = scratchDir("periodic");
    std::string path = (dir / "store.bin").string();
    ServerOptions o = tinyServer(1);
    o.store.path = path;
    o.store.checkpointEvery = 1; // every executed job
    SimServer server(o);
    ServeResult r = server.runSync(spec("fir", 128));
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_TRUE(fs::exists(path));
    EXPECT_GE(server.store().stats().checkpoints, 1u);
    fs::remove_all(dir);
}

// ----- Transports -----

TEST(ServeDaemon, FileDropTransportAnswersRequests)
{
    fs::path dir = scratchDir("drop");
    DaemonOptions d;
    d.dropDir = (dir / "drop").string();
    d.server = tinyServer(1);
    d.installSignalHandlers = false;
    d.verbose = false;
    d.pollMs = 20;
    std::atomic<bool> stop{false};
    d.externalStop = &stop;
    std::thread daemon([&d] { EXPECT_EQ(runDaemon(d), 0); });

    Request req;
    req.op = Op::Submit;
    req.id = "drop-1";
    req.spec = spec("relu", 128);
    ClientResult r = requestOverDrop(d.dropDir, req, 120.0);
    ASSERT_TRUE(r.ok) << r.error;
    ASSERT_TRUE(r.response.ok) << r.response.error;
    ASSERT_TRUE(r.response.hasResult);
    EXPECT_GT(r.response.result.cycles, 0u);

    Request st;
    st.op = Op::Status;
    st.id = "drop-2";
    ClientResult sr = requestOverDrop(d.dropDir, st, 30.0);
    ASSERT_TRUE(sr.ok) << sr.error;
    ASSERT_TRUE(sr.response.hasStatus);
    EXPECT_EQ(sr.response.status.completed, 1u);

    stop.store(true);
    daemon.join();
    fs::remove_all(dir);
}

TEST(ServeDaemon, SocketTransportAnswersAndShutsDown)
{
    if (!net::available())
        GTEST_SKIP() << "no Unix-domain sockets on this platform";
    fs::path dir = scratchDir("sock");
    DaemonOptions d;
    d.socketPath = (dir / "pd.sock").string();
    d.server = tinyServer(1);
    d.installSignalHandlers = false;
    d.verbose = false;
    d.pollMs = 20;
    std::atomic<bool> stop{false};
    d.externalStop = &stop;
    std::thread daemon([&d] { EXPECT_EQ(runDaemon(d), 0); });

    // The daemon binds before accepting; retry until the socket is up.
    Request ping;
    ping.op = Op::Ping;
    ping.id = "p";
    ClientResult pr;
    for (int i = 0; i < 100; ++i) {
        pr = requestOverSocket(d.socketPath, ping, 10.0);
        if (pr.ok)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_TRUE(pr.ok) << pr.error;

    Request req;
    req.op = Op::Submit;
    req.id = "s1";
    req.spec = spec("fir", 128);
    ClientResult first = requestOverSocket(d.socketPath, req, 120.0);
    ASSERT_TRUE(first.ok) << first.error;
    ASSERT_TRUE(first.response.hasResult);
    EXPECT_FALSE(first.response.result.cacheHit);

    ClientResult second = requestOverSocket(d.socketPath, req, 120.0);
    ASSERT_TRUE(second.ok) << second.error;
    ASSERT_TRUE(second.response.hasResult);
    EXPECT_TRUE(second.response.result.cacheHit);
    EXPECT_EQ(second.response.result.cycles,
              first.response.result.cycles);

    // A shutdown request drains the daemon without the external flag.
    Request bye;
    bye.op = Op::Shutdown;
    bye.id = "bye";
    ClientResult br = requestOverSocket(d.socketPath, bye, 30.0);
    ASSERT_TRUE(br.ok) << br.error;
    daemon.join();
    fs::remove_all(dir);
}

/** A slow client whose request line straddles the daemon's 0.4 s read
 *  slices must still get exactly one answer to the whole line. */
TEST(ServeDaemon, RequestLineSurvivesTimeoutSlices)
{
    if (!net::available())
        GTEST_SKIP() << "no Unix-domain sockets on this platform";
    fs::path dir = scratchDir("slow");
    DaemonOptions d;
    d.socketPath = (dir / "pd.sock").string();
    d.server = tinyServer(1);
    d.installSignalHandlers = false;
    d.verbose = false;
    d.pollMs = 20;
    std::atomic<bool> stop{false};
    d.externalStop = &stop;
    std::thread daemon([&d] { EXPECT_EQ(runDaemon(d), 0); });

    Request ping;
    ping.op = Op::Ping;
    ping.id = "slow-ping";
    ClientResult pr;
    for (int i = 0; i < 100; ++i) {
        pr = requestOverSocket(d.socketPath, ping, 10.0);
        if (pr.ok)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    ASSERT_TRUE(pr.ok) << pr.error;

    int fd = net::connectUnix(d.socketPath, nullptr);
    ASSERT_GE(fd, 0);
    const std::string line = encodeRequest(ping) + "\n";
    for (std::size_t i = 0; i < line.size(); ++i) {
        ASSERT_EQ(::write(fd, &line[i], 1), 1);
        // Stall mid-line past a whole read slice.
        if (i == line.size() / 2)
            std::this_thread::sleep_for(std::chrono::milliseconds(700));
    }
    std::string reply;
    ASSERT_EQ(net::recvLine(fd, reply, 10.0), 1);
    Response resp;
    std::string err;
    ASSERT_TRUE(decodeResponse(reply, resp, &err)) << err << ": " << reply;
    EXPECT_TRUE(resp.ok) << resp.error;
    EXPECT_EQ(resp.id, "slow-ping");
    // No second (garbage) response follows.
    EXPECT_EQ(net::recvLine(fd, reply, 0.6), -1);
    EXPECT_TRUE(reply.empty()) << reply;
    net::closeFd(fd);

    stop.store(true);
    daemon.join();
    fs::remove_all(dir);
}

// ----- Interval-memo sharing through the GlobalStore -----

TEST(SimServer, WarmJobReusesIntervalMemos)
{
    // fir/32768 on r9nano resolves at BB-sampling level (the golden
    // parity matrix pins this), so the job exercises the interval memo.
    const service::JobSpec bb_job{"fir", 32768, "photon", "r9nano"};
    SimServer server(tinyServer(1));
    ServeResult first = server.runSync(bb_job);
    ASSERT_TRUE(first.ok) << first.error;
    StoreStats cold = server.store().stats();

    // The cold job populated per-kernel interval memos in the store.
    EXPECT_GT(server.status().storeIntervalEntries, 0u);

    // A fresh server sharing no state would recompute every fit; this
    // one seeds the second job's sampler from the store, so if the
    // rerun descends to BB sampling again it hits the memo instead.
    // (When kernel-level sampling short-circuits the rerun entirely,
    // the memo is simply not consulted — either way the result is
    // bit-identical.)
    ServeResult second = server.runSync(bb_job);
    ASSERT_TRUE(second.ok) << second.error;
    EXPECT_EQ(second.cycles, first.cycles);
    EXPECT_EQ(second.insts, first.insts);

    StoreStats warm = server.store().stats();
    EXPECT_GE(warm.intervalMisses, cold.intervalMisses);
    EXPECT_GE(warm.intervalHits, cold.intervalHits);
    // The cold job's own repeated warp BBVs already hit its private
    // memo, and those counters fold into the store totals.
    EXPECT_GT(warm.intervalMisses, 0u);
    server.drain();
}

TEST(SimServer, StatusCarriesIntervalCountersOverTheWire)
{
    SimServer server(tinyServer(1));
    ServeResult r = server.runSync(spec("relu", 256));
    ASSERT_TRUE(r.ok) << r.error;

    ServerStatus s = server.status();
    Response resp;
    resp.ok = true;
    resp.hasStatus = true;
    resp.status = s;
    Response back;
    std::string err;
    ASSERT_TRUE(decodeResponse(encodeResponse(resp), back, &err)) << err;
    ASSERT_TRUE(back.hasStatus);
    EXPECT_EQ(back.status.store.intervalHits, s.store.intervalHits);
    EXPECT_EQ(back.status.store.intervalMisses, s.store.intervalMisses);
    EXPECT_EQ(back.status.storeIntervalEntries, s.storeIntervalEntries);
}

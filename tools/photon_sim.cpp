/**
 * @file
 * photon_sim — command-line front end of the simulator, mirroring how a
 * user drives MGPUSim's standalone runner:
 *
 *   photon_sim --workload mm --size 512 --mode photon --compare
 *   photon_sim --workload resnet18 --mode photon --stats
 *   photon_sim --workload relu --size 16384 --disasm
 *
 * Batch (campaign) mode runs many jobs across a thread pool and can
 * persist the kernel-signature store between invocations:
 *
 *   photon_sim --campaign jobs.txt --jobs 4 --report out.json
 *   photon_sim --workload mm,relu --size 128,256 --jobs 2
 *   photon_sim --workload mm --cache-out store.bin     # cold run
 *   photon_sim --workload mm --cache-in store.bin      # warm rerun
 *
 * Daemon mode (photond) keeps the kernel store resident across requests
 * so every client shares one warm cache:
 *
 *   photon_sim serve --socket /tmp/photond.sock --store store.bin
 *   photon_sim submit --socket /tmp/photond.sock --workload mm --size 64
 *   photon_sim status --socket /tmp/photond.sock
 *   photon_sim cache --socket /tmp/photond.sock     # hit/miss counters
 *   photon_sim shutdown --socket /tmp/photond.sock  # graceful drain
 *
 * Workloads: relu fir sc mm mmtiled aes spmv pagerank vgg16 vgg19
 *            resnet18 resnet34 resnet50 resnet101 resnet152
 * Modes:     full photon pka        GPUs: r9nano mi100 (tiny for tests)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "driver/platform.hpp"
#include "driver/report.hpp"
#include "isa/disasm.hpp"
#include "serve/client.hpp"
#include "serve/daemon.hpp"
#include "service/artifact_store.hpp"
#include "service/campaign.hpp"
#include "service/campaign_runner.hpp"
#include "workloads/workload.hpp"

using namespace photon;

namespace {

struct Options
{
    std::string workload = "mm";
    std::string size; ///< workload-specific default when empty
    std::string mode = "photon";
    std::string gpu = "r9nano";
    std::string backend = "detailed";
    bool compare = false;
    bool stats = false;
    bool disasm = false;
    bool check = false;

    // Telemetry / ablation flags.
    std::string telemetryPath;
    bool noKernelSampling = false;
    bool noWarpSampling = false;
    bool noBbSampling = false;

    // Campaign / persistence flags.
    std::string campaign;
    std::uint32_t jobs = 1;
    std::string share = "ordered";
    std::string cacheIn;
    std::string cacheOut;
    std::string report;

    // Functional-trace reuse (DESIGN.md §15).
    std::string traceCache;
    bool noTraceReuse = false;
};

void
usage()
{
    std::printf(
        "usage: photon_sim [--workload W[,W...]] [--size N[,N...]]\n"
        "                  [--mode M[,M...]] [--gpu G[,G...]]\n"
        "                  [--backend B[,B...]]\n"
        "                  [--compare] [--stats] [--disasm] [--check]\n"
        "                  [--telemetry PATH]\n"
        "                  [--no-kernel-sampling] [--no-warp-sampling]\n"
        "                  [--no-bb-sampling]\n"
        "                  [--campaign FILE] [--jobs N] [--share P]\n"
        "                  [--cache-in PATH] [--cache-out PATH]\n"
        "                  [--report PATH] [--trace-cache PATH]\n"
        "                  [--no-trace-reuse]\n"
        "  W: relu fir sc mm mmtiled aes spmv pagerank vgg16 vgg19\n"
        "     resnet18 resnet34 resnet50 resnet101 resnet152 (default mm)\n"
        "  N: warps for relu/fir/sc/aes/spmv; matrix dim for mm/mmtiled;\n"
        "     nodes for pagerank (0 = workload default)\n"
        "  M: full photon pka                         (default photon)\n"
        "  G: r9nano mi100 tiny                       (default r9nano)\n"
        "  B: detailed interval                       (default detailed)\n"
        "     timing backend; interval needs --mode full\n"
        "  --compare  also run full-detailed and report error/speedup\n"
        "  --stats    dump the memory-system statistics\n"
        "  --disasm   print the first kernel's disassembly\n"
        "  --check    verify results against the host reference\n"
        "  --telemetry PATH  write per-kernel telemetry (schema-versioned\n"
        "                    JSON; '.csv' extension selects CSV)\n"
        "  --no-kernel-sampling / --no-warp-sampling / --no-bb-sampling\n"
        "                  ablate one Photon level (config-only switch;\n"
        "                  the timing model is untouched)\n"
        "batch mode (triggered by --campaign, comma lists, --jobs > 1,\n"
        "or any cache/report flag):\n"
        "  --campaign FILE  job list: '<workload> [size] [mode] [gpu]\n"
        "                   [backend]' per line, '#' comments\n"
        "  --jobs N         worker threads (default 1)\n"
        "  --share P        cross-job signature sharing: none ordered\n"
        "                   live (default ordered, deterministic)\n"
        "  --cache-in PATH  seed the kernel-signature store from a file\n"
        "  --cache-out PATH write the final store for later runs\n"
        "  --report PATH    write the per-job JSON report\n"
        "functional-trace reuse (on by default; works in both modes):\n"
        "  --trace-cache PATH  persist captured launch traces to PATH\n"
        "                      and replay from it on later runs\n"
        "  --no-trace-reuse    cache no launch traces (every launch\n"
        "                      re-executes register semantics)\n");
}

/** Parse a numeric flag value; exits with a usage error on junk. */
std::uint32_t
parseCount(const std::string &flag, const std::string &value)
{
    std::uint32_t out = 0;
    if (!service::parseUint(value, out)) {
        usage();
        fatal(flag, " expects a non-negative integer, got '", value, "'");
    }
    return out;
}

/** SamplingConfig with the CLI's ablation flags applied. */
SamplingConfig
samplingFromOptions(const Options &o)
{
    SamplingConfig cfg;
    cfg.enableKernelSampling = !o.noKernelSampling;
    cfg.enableWarpSampling = !o.noWarpSampling;
    cfg.enableBbSampling = !o.noBbSampling;
    return cfg;
}

/** Write telemetry records to @p path (fatal on I/O failure). */
void
writeTelemetry(const std::vector<sampling::KernelTelemetry> &records,
               const std::string &path)
{
    std::string err;
    if (!sampling::saveTelemetry(records, path, &err))
        fatal("--telemetry: ", err);
    std::printf("telemetry (%zu records, schema v%u) written to %s\n",
                records.size(), sampling::kTelemetrySchemaVersion,
                path.c_str());
}

struct RunResult
{
    Cycle cycles;
    std::uint64_t insts;
    double wall;
};

RunResult
runOnce(const Options &o, std::uint32_t size, driver::SimMode mode,
        bool verify, const std::string &telemetry_path)
{
    GpuConfig gpu;
    std::string err;
    if (!service::parseGpuName(o.gpu, gpu, &err))
        fatal(err);
    timing::BackendKind backend;
    if (!service::parseBackendName(o.backend, backend, &err))
        fatal(err);
    driver::Platform p(gpu, mode, samplingFromOptions(o), backend);
    if (o.noTraceReuse)
        p.setTraceReuse(false);
    else if (!o.traceCache.empty()) {
        std::ifstream probe(o.traceCache, std::ios::binary);
        if (probe) { // a missing file is a cold start
            service::Artifact tc;
            service::LoadStatus st =
                service::loadArtifact(o.traceCache, tc);
            if (!st.ok)
                fatal("--trace-cache: ", st.error);
            p.traceStore().import(tc.traces);
        }
    }
    auto w = service::makeWorkload(o.workload, size, &err);
    if (!w)
        fatal(err);
    w->setup(p);
    if (o.disasm && mode != driver::SimMode::FullDetailed) {
        std::printf("%s\n",
                    isa::disassemble(*w->launches()[0].program).c_str());
    }
    workloads::runWorkload(*w, p);
    std::printf("[%s] %llu cycles, %llu instructions, %.3f s wall, "
                "%zu kernels\n",
                driver::simModeName(mode),
                static_cast<unsigned long long>(p.totalKernelCycles()),
                static_cast<unsigned long long>(p.totalInsts()),
                p.totalWallSeconds(), p.launchLog().size());
    if (verify) {
        std::printf("reference check: %s\n",
                    w->check(p) ? "OK" : "MISMATCH");
    }
    if (o.stats) {
        std::ostringstream os;
        p.stats().print(os, "  ");
        std::printf("%s", os.str().c_str());
    }
    if (!telemetry_path.empty())
        writeTelemetry(p.telemetry(), telemetry_path);
    if (!o.noTraceReuse && !o.traceCache.empty()) {
        // The artifact carries only the trace section here; first-wins
        // merge on load keeps repeated runs idempotent.
        service::Artifact tc;
        tc.traces = p.traceStore().exportAll();
        service::LoadStatus st = service::saveArtifact(tc, o.traceCache);
        if (!st.ok)
            fatal("--trace-cache: ", st.error);
        std::printf("trace cache: %llu hits, %llu captures, %zu traces "
                    "written to %s\n",
                    static_cast<unsigned long long>(p.traceHits()),
                    static_cast<unsigned long long>(p.traceCaptures()),
                    tc.traces.size(), o.traceCache.c_str());
    }
    return {p.totalKernelCycles(), p.totalInsts(),
            p.totalWallSeconds()};
}

/** Single-workload flow: one run, plus the --compare baseline. */
int
runSingle(const Options &o)
{
    driver::SimMode mode;
    std::string err;
    if (!service::parseMode(o.mode, mode, &err))
        fatal(err);
    std::uint32_t size =
        o.size.empty() ? 0 : parseCount("--size", o.size);
    RunResult run = runOnce(o, size, mode, o.check, o.telemetryPath);

    // The --compare baseline is always detailed-backend full-detailed;
    // with a non-detailed backend the flag reports the backend's
    // error/speedup even though the mode is already "full".
    if (o.compare && (mode != driver::SimMode::FullDetailed ||
                      o.backend != "detailed")) {
        Options fo = o;
        fo.disasm = false;
        fo.backend = "detailed";
        RunResult full =
            runOnce(fo, size, driver::SimMode::FullDetailed, false, "");
        std::printf("error %.2f%%, wall-time speedup %.2fx\n",
                    driver::percentError(
                        static_cast<double>(run.cycles),
                        static_cast<double>(full.cycles)),
                    full.wall / run.wall);
    }
    return 0;
}

/** Campaign flow: job list -> thread pool -> table/report/cache-out. */
int
runCampaignMode(const Options &o)
{
    std::vector<service::JobSpec> jobs;
    if (!o.campaign.empty()) {
        if (std::string err = service::parseCampaignFile(o.campaign, jobs);
            !err.empty())
            fatal(err);
    } else {
        std::vector<std::uint32_t> sizes;
        for (const std::string &s : service::splitList(o.size))
            sizes.push_back(parseCount("--size", s));
        jobs = service::expandJobs(service::splitList(o.workload), sizes,
                                   service::splitList(o.mode),
                                   service::splitList(o.gpu),
                                   service::splitList(o.backend));
        for (const service::JobSpec &j : jobs) {
            if (std::string err = service::validateJob(j); !err.empty())
                fatal(err);
        }
    }
    if (jobs.empty())
        fatal("campaign has no jobs");

    service::CampaignOptions opts;
    opts.workers = o.jobs ? o.jobs : 1;
    opts.sampling = samplingFromOptions(o);
    opts.traceReuse = !o.noTraceReuse;
    std::string err;
    if (!service::parseSharePolicy(o.share, opts.share, &err))
        fatal(err);

    service::Artifact seed;
    if (!o.cacheIn.empty()) {
        service::LoadStatus st = service::loadArtifact(o.cacheIn, seed);
        if (!st.ok)
            fatal("--cache-in: ", st.error);
        std::printf("seeded %zu kernel records, %zu analyses from %s\n",
                    seed.numKernelRecords(), seed.numAnalyses(),
                    o.cacheIn.c_str());
    }
    if (!o.noTraceReuse && !o.traceCache.empty()) {
        std::ifstream probe(o.traceCache, std::ios::binary);
        if (probe) {
            service::Artifact tc;
            service::LoadStatus st =
                service::loadArtifact(o.traceCache, tc);
            if (!st.ok)
                fatal("--trace-cache: ", st.error);
            // First-wins: --cache-in traces (if any) take precedence.
            for (const auto &[key, trace] : tc.traces)
                seed.traces.emplace(key, trace);
            std::printf("seeded %zu launch traces from %s\n",
                        tc.traces.size(), o.traceCache.c_str());
        }
    }

    service::CampaignResult result =
        service::runCampaign(jobs, opts, std::move(seed));

    service::printCampaignTable(result, std::cout);
    std::printf("campaign: %zu jobs, %u workers, %.3f s wall, "
                "%u kernel-sampling hits, %zu records in store\n",
                result.jobs.size(), result.workers, result.wallSeconds,
                result.totalKernelHits(),
                result.finalStore.numKernelRecords());

    if (!o.telemetryPath.empty())
        writeTelemetry(result.allTelemetry(), o.telemetryPath);
    if (!o.report.empty()) {
        std::ofstream f(o.report);
        if (!f)
            fatal("cannot open --report file '", o.report, "'");
        service::writeJsonReport(result, f);
        std::printf("report written to %s\n", o.report.c_str());
    }
    if (!o.cacheOut.empty()) {
        service::LoadStatus st =
            service::saveArtifact(result.finalStore, o.cacheOut);
        if (!st.ok)
            fatal("--cache-out: ", st.error);
        std::printf("store written to %s\n", o.cacheOut.c_str());
    }
    if (!o.noTraceReuse && !o.traceCache.empty()) {
        service::Artifact tc;
        tc.traces = result.finalStore.traces;
        service::LoadStatus st = service::saveArtifact(tc, o.traceCache);
        if (!st.ok)
            fatal("--trace-cache: ", st.error);
        std::printf("trace cache: %zu traces written to %s\n",
                    tc.traces.size(), o.traceCache.c_str());
    }
    return 0;
}

// ----- Daemon verbs: serve / submit / status / cache / shutdown -----

struct ServeOptions
{
    std::string socketPath;
    std::string dropDir;
    std::string storePath;
    std::string workload = "mm";
    std::string size;
    std::string mode = "photon";
    std::string gpu = "r9nano";
    std::string backend = "detailed";
    std::string id;
    std::uint32_t serveWorkers = 2;
    std::uint32_t checkpointEvery = 8;
    double timeoutSeconds = 300.0;
    bool json = false;
    bool quiet = false;
    bool noTraceReuse = false;
};

void
serveUsage()
{
    std::printf(
        "usage: photon_sim serve    --socket PATH | --drop DIR\n"
        "                           [--store PATH] [--serve-workers N]\n"
        "                           [--checkpoint-every N] [--quiet]\n"
        "       photon_sim submit   (--socket PATH | --drop DIR)\n"
        "                           --workload W [--size N] [--mode M]\n"
        "                           [--gpu G] [--backend B] [--id ID]\n"
        "                           [--timeout S] [--json]\n"
        "       photon_sim status   (--socket PATH | --drop DIR) [--json]\n"
        "       photon_sim cache    (--socket PATH | --drop DIR) [--json]\n"
        "                           | --store PATH   (offline inspection)\n"
        "       photon_sim shutdown (--socket PATH | --drop DIR)\n"
        "  serve keeps one shared kernel store resident: every client's\n"
        "  detailed runs warm the cache for every later client, identical\n"
        "  concurrent requests collapse onto one in-flight run, and the\n"
        "  store is checkpointed to --store and reloaded on restart.\n");
}

ServeOptions
parseServeArgs(int argc, char **argv, int first)
{
    ServeOptions o;
    for (int i = first; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", a);
            return argv[++i];
        };
        if (a == "--socket") o.socketPath = next();
        else if (a == "--drop") o.dropDir = next();
        else if (a == "--store") o.storePath = next();
        else if (a == "--workload") o.workload = next();
        else if (a == "--size") o.size = next();
        else if (a == "--mode") o.mode = next();
        else if (a == "--gpu") o.gpu = next();
        else if (a == "--backend") o.backend = next();
        else if (a == "--id") o.id = next();
        else if (a == "--serve-workers")
            o.serveWorkers = parseCount(a, next());
        else if (a == "--checkpoint-every")
            o.checkpointEvery = parseCount(a, next());
        else if (a == "--timeout")
            o.timeoutSeconds = parseCount(a, next());
        else if (a == "--json") o.json = true;
        else if (a == "--quiet") o.quiet = true;
        else if (a == "--no-trace-reuse") o.noTraceReuse = true;
        else if (a == "--help" || a == "-h") { serveUsage(); std::exit(0); }
        else { serveUsage(); fatal("unknown flag ", a); }
    }
    return o;
}

int
runServeVerb(const ServeOptions &o)
{
    serve::DaemonOptions d;
    d.socketPath = o.socketPath;
    d.dropDir = o.dropDir;
    d.verbose = !o.quiet;
    d.server.workers = o.serveWorkers ? o.serveWorkers : 1;
    d.server.store.path = o.storePath;
    d.server.store.checkpointEvery = o.checkpointEvery;
    d.server.traceReuse = !o.noTraceReuse;
    return serve::runDaemon(d);
}

/** One request over whichever transport the flags selected. */
serve::ClientResult
sendRequest(const ServeOptions &o, const serve::Request &request)
{
    if (!o.socketPath.empty())
        return serve::requestOverSocket(o.socketPath, request,
                                        o.timeoutSeconds);
    if (!o.dropDir.empty())
        return serve::requestOverDrop(o.dropDir, request,
                                      o.timeoutSeconds);
    serve::ClientResult r;
    r.error = "need --socket PATH or --drop DIR to reach the daemon";
    return r;
}

void
printStatus(const serve::ServerStatus &s)
{
    std::uint64_t lookups = s.store.cacheHits + s.store.cacheMisses;
    std::printf(
        "photond: %u workers, %llu queued, "
        "%llu running%s\n"
        "requests: %llu submitted, %llu completed, %llu executed, "
        "%llu dedup-collapsed\n"
        "kernel cache: %llu hits / %llu misses (%.1f%% hit rate), "
        "%llu inserts, %llu analyses reused\n"
        "interval memo: %llu hits / %llu misses, %zu entries\n"
        "trace cache: %llu hits / %llu misses, %llu captures, "
        "%zu traces resident\n"
        "store: %zu kernel records, %zu analyses, %llu checkpoints\n",
        s.workers,
        static_cast<unsigned long long>(s.queued),
        static_cast<unsigned long long>(s.running),
        s.draining ? " [draining]" : "",
        static_cast<unsigned long long>(s.submitted),
        static_cast<unsigned long long>(s.completed),
        static_cast<unsigned long long>(s.store.jobsExecuted),
        static_cast<unsigned long long>(s.store.dedupCollapsed),
        static_cast<unsigned long long>(s.store.cacheHits),
        static_cast<unsigned long long>(s.store.cacheMisses),
        lookups ? 100.0 * static_cast<double>(s.store.cacheHits) /
                      static_cast<double>(lookups)
                : 0.0,
        static_cast<unsigned long long>(s.store.cacheInserts),
        static_cast<unsigned long long>(s.store.analysesReused),
        static_cast<unsigned long long>(s.store.intervalHits),
        static_cast<unsigned long long>(s.store.intervalMisses),
        s.storeIntervalEntries,
        static_cast<unsigned long long>(s.store.traceHits),
        static_cast<unsigned long long>(s.store.traceMisses),
        static_cast<unsigned long long>(s.store.traceCaptures),
        s.storeTraces,
        s.storeKernelRecords, s.storeAnalyses,
        static_cast<unsigned long long>(s.store.checkpoints));
}

int
runClientVerb(serve::Op op, const ServeOptions &o)
{
    serve::Request request;
    request.op = op;
    request.id = o.id.empty() ? std::string("cli-") + serve::opName(op)
                              : o.id;
    if (op == serve::Op::Submit) {
        request.spec.workload = o.workload;
        if (!o.size.empty())
            request.spec.size = parseCount("--size", o.size);
        request.spec.mode = o.mode;
        request.spec.gpu = o.gpu;
        request.spec.backend = o.backend;
        if (std::string err = service::validateJob(request.spec);
            !err.empty())
            fatal(err);
    }

    serve::ClientResult r = sendRequest(o, request);
    if (!r.ok)
        fatal(serve::opName(op), ": ", r.error);
    if (o.json) {
        std::printf("%s\n", r.rawLine.c_str());
        return r.response.ok ? 0 : 1;
    }
    if (!r.response.ok) {
        std::fprintf(stderr, "%s: daemon error: %s\n",
                     serve::opName(op), r.response.error.c_str());
        return 1;
    }
    if (r.response.hasResult) {
        const serve::ServeResult &res = r.response.result;
        std::printf("[%s] %llu cycles, %llu instructions, %.3f s wall, "
                    "%u kernels (%u kernel-sampling hits)\n",
                    res.spec.mode.c_str(),
                    static_cast<unsigned long long>(res.cycles),
                    static_cast<unsigned long long>(res.insts),
                    res.wallSeconds, res.kernels, res.kernelHits);
        std::printf("cache_hit=%s dedup_collapsed=%s analysis_reused=%s "
                    "fingerprint=%llx\n",
                    res.cacheHit ? "yes" : "no",
                    res.dedupCollapsed ? "yes" : "no",
                    res.analysisReused ? "yes" : "no",
                    static_cast<unsigned long long>(res.fingerprint));
    } else if (r.response.hasStatus) {
        printStatus(r.response.status);
    } else {
        std::printf("%s: ok\n", serve::opName(op));
    }
    return 0;
}

/** `photon_sim cache`: live daemon counters, or offline --store dump. */
int
runCacheVerb(const ServeOptions &o)
{
    if (o.socketPath.empty() && o.dropDir.empty()) {
        if (o.storePath.empty())
            fatal("cache: need --socket/--drop (live counters) or "
                  "--store PATH (offline inspection)");
        service::Artifact artifact;
        service::LoadStatus st =
            service::loadArtifact(o.storePath, artifact);
        if (!st.ok)
            fatal("cache: ", st.error);
        driver::Table table(
            {"gpu", "kernel_records", "analyses", "telemetry"});
        for (const auto &[gpu, group] : artifact.groups) {
            table.addRow({gpu, std::to_string(group.kernels.size()),
                          std::to_string(group.analyses.size()),
                          std::to_string(group.telemetry.size())});
        }
        std::ostringstream os;
        table.print(os);
        std::printf("%s", os.str().c_str());
        std::printf("store %s: %zu kernel records, %zu analyses, "
                    "%zu telemetry records\n",
                    o.storePath.c_str(), artifact.numKernelRecords(),
                    artifact.numAnalyses(),
                    artifact.numTelemetryRecords());
        return 0;
    }
    return runClientVerb(serve::Op::Cache, o);
}

/** argv[1] verb dispatch; returns -1 when argv holds only legacy flags. */
int
dispatchVerb(int argc, char **argv)
{
    std::string verb = argv[1];
    if (verb == "serve")
        return runServeVerb(parseServeArgs(argc, argv, 2));
    if (verb == "submit")
        return runClientVerb(serve::Op::Submit,
                             parseServeArgs(argc, argv, 2));
    if (verb == "status")
        return runClientVerb(serve::Op::Status,
                             parseServeArgs(argc, argv, 2));
    if (verb == "cache")
        return runCacheVerb(parseServeArgs(argc, argv, 2));
    if (verb == "shutdown")
        return runClientVerb(serve::Op::Shutdown,
                             parseServeArgs(argc, argv, 2));
    if (verb == "ping")
        return runClientVerb(serve::Op::Ping,
                             parseServeArgs(argc, argv, 2));
    return -1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 1 && argv[1][0] != '-') {
        int rc = dispatchVerb(argc, argv);
        if (rc >= 0)
            return rc;
        usage();
        serveUsage();
        fatal("unknown verb '", argv[1],
              "' (serve submit status cache shutdown ping)");
    }

    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value for ", a);
            return argv[++i];
        };
        if (a == "--workload") o.workload = next();
        else if (a == "--size") o.size = next();
        else if (a == "--mode") o.mode = next();
        else if (a == "--gpu") o.gpu = next();
        else if (a == "--backend") o.backend = next();
        else if (a == "--compare") o.compare = true;
        else if (a == "--stats") o.stats = true;
        else if (a == "--disasm") o.disasm = true;
        else if (a == "--check") o.check = true;
        else if (a == "--telemetry") o.telemetryPath = next();
        else if (a == "--no-kernel-sampling") o.noKernelSampling = true;
        else if (a == "--no-warp-sampling") o.noWarpSampling = true;
        else if (a == "--no-bb-sampling") o.noBbSampling = true;
        else if (a == "--campaign") o.campaign = next();
        else if (a == "--jobs") o.jobs = parseCount(a, next());
        else if (a == "--share") o.share = next();
        else if (a == "--cache-in") o.cacheIn = next();
        else if (a == "--cache-out") o.cacheOut = next();
        else if (a == "--report") o.report = next();
        else if (a == "--trace-cache") o.traceCache = next();
        else if (a == "--no-trace-reuse") o.noTraceReuse = true;
        else if (a == "--help" || a == "-h") { usage(); return 0; }
        else { usage(); fatal("unknown flag ", a); }
    }

    bool has_list = o.workload.find(',') != std::string::npos ||
                    o.size.find(',') != std::string::npos ||
                    o.mode.find(',') != std::string::npos ||
                    o.gpu.find(',') != std::string::npos ||
                    o.backend.find(',') != std::string::npos;
    bool batch = !o.campaign.empty() || has_list || o.jobs > 1 ||
                 !o.cacheIn.empty() || !o.cacheOut.empty() ||
                 !o.report.empty();
    return batch ? runCampaignMode(o) : runSingle(o);
}

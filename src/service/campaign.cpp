#include "service/campaign.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <ostream>
#include <sstream>

#include "driver/report.hpp"
#include "sim/json.hpp"
#include "workloads/dnn/network.hpp"

namespace photon::service {

std::string
JobSpec::label() const
{
    std::ostringstream os;
    os << workload << '/' << size << '/' << mode << '/' << gpu;
    if (backend != "detailed")
        os << '/' << backend;
    return os.str();
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "relu",     "fir",      "sc",       "mm",       "mmtiled",
        "aes",      "spmv",     "pagerank", "vgg16",    "vgg19",
        "resnet18", "resnet34", "resnet50", "resnet101", "resnet152",
    };
    return names;
}

bool
parseUint(const std::string &text, std::uint32_t &out)
{
    if (text.empty() ||
        !std::all_of(text.begin(), text.end(),
                     [](unsigned char c) { return c >= '0' && c <= '9'; }))
        return false;
    errno = 0;
    char *end = nullptr;
    unsigned long v = std::strtoul(text.c_str(), &end, 10);
    if (errno == ERANGE || *end != '\0' || v > 0xfffffffful)
        return false;
    out = static_cast<std::uint32_t>(v);
    return true;
}

workloads::WorkloadPtr
makeWorkload(const std::string &name, std::uint32_t size,
             std::string *error)
{
    auto fail = [&](std::string why) -> workloads::WorkloadPtr {
        if (error)
            *error = std::move(why);
        return nullptr;
    };
    std::uint32_t n = size;
    auto d = [&](std::uint32_t def) { return n ? n : def; };
    if (name == "relu") return workloads::makeRelu(d(16384));
    if (name == "fir") return workloads::makeFir(d(16384));
    if (name == "sc") return workloads::makeSc(d(16384));
    if (name == "mm") return workloads::makeMm(d(512));
    if (name == "mmtiled") return workloads::makeMmTiled(d(512));
    if (name == "aes") return workloads::makeAes(d(8192));
    if (name == "spmv") return workloads::makeSpmv(d(2048) * 64);
    if (name == "pagerank")
        return workloads::makePagerank(d(65536), 8, 12);
    if (name == "vgg16") return workloads::dnn::makeVgg(16);
    if (name == "vgg19") return workloads::dnn::makeVgg(19);
    if (name.rfind("resnet", 0) == 0) {
        std::uint32_t depth = 0;
        if (!parseUint(name.substr(6), depth) ||
            (depth != 18 && depth != 34 && depth != 50 && depth != 101 &&
             depth != 152))
            return fail("unknown resnet variant '" + name +
                        "' (18/34/50/101/152)");
        return workloads::dnn::makeResnet(static_cast<int>(depth));
    }
    return fail("unknown workload '" + name + "'");
}

bool
parseMode(const std::string &name, driver::SimMode &out,
          std::string *error)
{
    if (name == "full") {
        out = driver::SimMode::FullDetailed;
        return true;
    }
    if (name == "photon") {
        out = driver::SimMode::Photon;
        return true;
    }
    if (name == "pka") {
        out = driver::SimMode::Pka;
        return true;
    }
    if (error)
        *error = "unknown mode '" + name + "' (full photon pka)";
    return false;
}

bool
parseGpuName(const std::string &name, GpuConfig &out, std::string *error)
{
    if (name == "r9nano") {
        out = GpuConfig::r9Nano();
        return true;
    }
    if (name == "mi100") {
        out = GpuConfig::mi100();
        return true;
    }
    if (name == "tiny") {
        out = GpuConfig::testTiny();
        return true;
    }
    if (error)
        *error = "unknown gpu '" + name + "' (r9nano mi100 tiny)";
    return false;
}

bool
parseBackendName(const std::string &name, timing::BackendKind &out,
                 std::string *error)
{
    if (timing::parseBackendKind(name, out))
        return true;
    if (error)
        *error = "unknown backend '" + name + "' (detailed, interval)";
    return false;
}

std::string
validateJob(const JobSpec &spec)
{
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), spec.workload) ==
        names.end())
        return "unknown workload '" + spec.workload + "'";
    std::string err;
    driver::SimMode mode;
    if (!parseMode(spec.mode, mode, &err))
        return err;
    GpuConfig gpu;
    if (!parseGpuName(spec.gpu, gpu, &err))
        return err;
    timing::BackendKind backend;
    if (!parseBackendName(spec.backend, backend, &err))
        return err;
    if (backend != timing::BackendKind::Detailed &&
        mode != driver::SimMode::FullDetailed)
        return "backend '" + spec.backend + "' requires mode 'full' "
               "(the sampled modes' control planes need the detailed "
               "core's monitor hooks)";
    return "";
}

std::string
parseCampaignText(std::istream &in, std::vector<JobSpec> &out)
{
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (std::size_t hash = line.find('#'); hash != std::string::npos)
            line.erase(hash);
        std::istringstream fields(line);
        std::string workload;
        if (!(fields >> workload))
            continue; // blank or comment-only line
        JobSpec spec;
        spec.workload = workload;
        std::string size_text;
        if (fields >> size_text) {
            if (!parseUint(size_text, spec.size))
                return "campaign line " + std::to_string(lineno) +
                       ": size must be a non-negative integer, got '" +
                       size_text + "'";
        }
        fields >> spec.mode >> spec.gpu; // keep defaults when absent
        std::string backend_text;
        if (fields >> backend_text)
            spec.backend = backend_text;
        std::string extra;
        if (fields >> extra)
            return "campaign line " + std::to_string(lineno) +
                   ": unexpected field '" + extra + "'";
        if (std::string err = validateJob(spec); !err.empty())
            return "campaign line " + std::to_string(lineno) + ": " + err;
        out.push_back(std::move(spec));
    }
    return "";
}

std::string
parseCampaignFile(const std::string &path, std::vector<JobSpec> &out)
{
    std::ifstream f(path);
    if (!f)
        return "cannot open campaign file '" + path + "'";
    return parseCampaignText(f, out);
}

std::vector<std::string>
splitList(const std::string &csv)
{
    std::vector<std::string> items;
    std::string item;
    std::istringstream in(csv);
    while (std::getline(in, item, ',')) {
        if (!item.empty())
            items.push_back(item);
    }
    return items;
}

std::vector<JobSpec>
expandJobs(const std::vector<std::string> &workloads,
           const std::vector<std::uint32_t> &sizes,
           const std::vector<std::string> &modes,
           const std::vector<std::string> &gpus,
           const std::vector<std::string> &backends)
{
    std::vector<std::uint32_t> size_list =
        sizes.empty() ? std::vector<std::uint32_t>{0} : sizes;
    std::vector<std::string> backend_list =
        backends.empty() ? std::vector<std::string>{"detailed"}
                         : backends;
    std::vector<JobSpec> jobs;
    for (const auto &w : workloads) {
        for (std::uint32_t s : size_list) {
            for (const auto &m : modes) {
                for (const auto &g : gpus) {
                    for (const auto &b : backend_list)
                        jobs.push_back({w, s, m, g, b});
                }
            }
        }
    }
    return jobs;
}

Cycle
CampaignResult::totalCycles() const
{
    Cycle total = 0;
    for (const auto &j : jobs)
        total += j.cycles;
    return total;
}

std::uint64_t
CampaignResult::totalInsts() const
{
    std::uint64_t total = 0;
    for (const auto &j : jobs)
        total += j.insts;
    return total;
}

std::uint32_t
CampaignResult::totalKernelHits() const
{
    std::uint32_t total = 0;
    for (const auto &j : jobs)
        total += j.kernelHits();
    return total;
}

std::vector<sampling::KernelTelemetry>
CampaignResult::allTelemetry() const
{
    std::vector<sampling::KernelTelemetry> records;
    for (const auto &j : jobs)
        records.insert(records.end(), j.telemetry.begin(),
                       j.telemetry.end());
    return records;
}

namespace {

const char *kLevelNames[kNumSampleLevels] = {"full", "kernel", "warp",
                                             "bb"};

} // namespace

void
writeJsonReport(const CampaignResult &result, std::ostream &os)
{
    os << "{\n";
    os << "  \"telemetry_schema_version\": "
       << sampling::kTelemetrySchemaVersion << ",\n";
    os << "  \"workers\": " << result.workers << ",\n";
    os << "  \"share\": \"" << jsonEscape(result.share) << "\",\n";
    os << "  \"scheduler\": {\"steal_ops\": " << result.stealOps
       << ", \"stolen_tasks\": " << result.stolenTasks << "},\n";
    os << "  \"wall_seconds\": " << result.wallSeconds << ",\n";
    os << "  \"jobs\": [\n";
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
        const JobResult &j = result.jobs[i];
        os << "    {\"workload\": \"" << jsonEscape(j.spec.workload)
           << "\", \"size\": " << j.spec.size << ", \"mode\": \""
           << jsonEscape(j.spec.mode) << "\", \"gpu\": \""
           << jsonEscape(j.spec.gpu) << "\", \"backend\": \""
           << jsonEscape(j.spec.backend) << "\",\n";
        os << "     \"cycles\": " << j.cycles
           << ", \"insts\": " << j.insts
           << ", \"wall_seconds\": " << j.wallSeconds
           << ", \"kernels\": " << j.kernels << ",\n";
        os << "     \"levels\": {";
        for (std::size_t l = 0; l < kNumSampleLevels; ++l) {
            os << (l ? ", " : "") << "\"" << kLevelNames[l]
               << "\": " << j.levelCounts[l];
        }
        os << "},\n";
        double detailed = 0.0;
        for (const auto &t : j.telemetry)
            detailed += t.detailedFraction();
        if (!j.telemetry.empty())
            detailed /= static_cast<double>(j.telemetry.size());
        os << "     \"analysis_insts\": " << j.analysisInsts
           << ", \"seed_records\": " << j.seedRecords
           << ", \"new_records\": " << j.newRecords
           << ", \"cache_hits\": " << j.cacheHits
           << ", \"cache_misses\": " << j.cacheMisses
           << ", \"cache_inserts\": " << j.cacheInserts
           << ", \"trace_hits\": " << j.traceHits
           << ", \"trace_misses\": " << j.traceMisses
           << ", \"trace_captures\": " << j.traceCaptures
           << ", \"telemetry_records\": " << j.telemetry.size()
           << ", \"mean_detailed_fraction\": " << detailed << "}"
           << (i + 1 < result.jobs.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
    std::uint64_t hits = 0, misses = 0, inserts = 0;
    std::uint64_t thits = 0, tmisses = 0, tcaptures = 0;
    for (const JobResult &j : result.jobs) {
        hits += j.cacheHits;
        misses += j.cacheMisses;
        inserts += j.cacheInserts;
        thits += j.traceHits;
        tmisses += j.traceMisses;
        tcaptures += j.traceCaptures;
    }
    os << "  \"cache\": {\"hits\": " << hits << ", \"misses\": " << misses
       << ", \"inserts\": " << inserts << "},\n";
    os << "  \"trace\": {\"hits\": " << thits << ", \"misses\": "
       << tmisses << ", \"captures\": " << tcaptures << "},\n";
    os << "  \"totals\": {\"cycles\": " << result.totalCycles()
       << ", \"insts\": " << result.totalInsts()
       << ", \"kernel_hits\": " << result.totalKernelHits()
       << ", \"store_records\": " << result.finalStore.numKernelRecords()
       << "}\n";
    os << "}\n";
}

void
printCampaignTable(const CampaignResult &result, std::ostream &os,
                   bool csv)
{
    driver::Table table({"job", "workload", "size", "mode", "gpu",
                         "backend", "cycles", "insts", "wall_s",
                         "levels", "khits", "seed", "new"});
    for (std::size_t i = 0; i < result.jobs.size(); ++i) {
        const JobResult &j = result.jobs[i];
        std::string levels;
        for (std::size_t l = 0; l < kNumSampleLevels; ++l) {
            if (!j.levelCounts[l])
                continue;
            if (!levels.empty())
                levels += "+";
            levels += std::to_string(j.levelCounts[l]);
            levels += kLevelNames[l];
        }
        table.addRow({std::to_string(i), j.spec.workload,
                      std::to_string(j.spec.size), j.spec.mode,
                      j.spec.gpu, j.spec.backend,
                      std::to_string(j.cycles),
                      std::to_string(j.insts),
                      driver::Table::num(j.wallSeconds, 3),
                      levels.empty() ? "-" : levels,
                      std::to_string(j.kernelHits()),
                      std::to_string(j.seedRecords),
                      std::to_string(j.newRecords)});
    }
    if (csv)
        table.printCsv(os);
    else
        table.print(os);
}

} // namespace photon::service

#include "service/artifact_store.hpp"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>

#include "sim/hash.hpp"

namespace photon::service {

namespace {

constexpr char kMagic[4] = {'P', 'H', 'A', 'S'};
/** Magic plus the u32 version. */
constexpr std::size_t kHeaderBytes = sizeof(kMagic) + 4;
/** A batch's u64 length prefix plus its u64 checksum. */
constexpr std::size_t kBatchFrameBytes = 16;
/** First version whose body is a sequence of checksummed batches. */
constexpr std::uint32_t kFirstBatchedVersion = 7;

// ----- Little-endian primitive encoding -----

void
putU32(std::string &out, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putDouble(std::string &out, double v)
{
    putU64(out, std::bit_cast<std::uint64_t>(v));
}

void
putString(std::string &out, const std::string &s)
{
    putU32(out, static_cast<std::uint32_t>(s.size()));
    out.append(s);
}

void
putU64Vec(std::string &out, const std::vector<std::uint64_t> &v)
{
    putU32(out, static_cast<std::uint32_t>(v.size()));
    for (std::uint64_t x : v)
        putU64(out, x);
}

void
putDoubleVec(std::string &out, const std::vector<double> &v)
{
    putU32(out, static_cast<std::uint32_t>(v.size()));
    for (double x : v)
        putDouble(out, x);
}

/** Parse error carrying the diagnostic for LoadStatus. */
struct ParseError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Bounds-checked cursor over the serialized bytes. */
class Reader
{
  public:
    explicit Reader(std::string_view bytes) : bytes_(bytes) {}

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    double
    dbl()
    {
        return std::bit_cast<double>(u64());
    }

    std::string
    str()
    {
        std::uint32_t len = u32();
        need(len);
        std::string s(bytes_.substr(pos_, len));
        pos_ += len;
        return s;
    }

    std::vector<std::uint64_t>
    u64Vec()
    {
        std::uint32_t n = u32();
        need(std::size_t{n} * 8);
        std::vector<std::uint64_t> v(n);
        for (std::uint32_t i = 0; i < n; ++i)
            v[i] = u64();
        return v;
    }

    std::vector<double>
    dblVec()
    {
        std::uint32_t n = u32();
        need(std::size_t{n} * 8);
        std::vector<double> v(n);
        for (std::uint32_t i = 0; i < n; ++i)
            v[i] = dbl();
        return v;
    }

    /** A view of @p n raw bytes (the embedded trace blobs). */
    std::string_view
    raw(std::size_t n)
    {
        need(n);
        std::string_view v = bytes_.substr(pos_, n);
        pos_ += n;
        return v;
    }

    bool atEnd() const { return pos_ == bytes_.size(); }

  private:
    void
    need(std::size_t n) const
    {
        if (bytes_.size() - pos_ < n)
            throw ParseError("truncated artifact (need " +
                             std::to_string(n) + " bytes at offset " +
                             std::to_string(pos_) + ")");
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
};

// ----- Composite encoders/decoders -----

void
putGpuBbv(std::string &out, const sampling::GpuBbv &sig)
{
    putDoubleVec(out, sig.vec());
    putU32(out, sig.dims());
    putU32(out, sig.numClusters());
}

sampling::GpuBbv
getGpuBbv(Reader &r)
{
    std::vector<double> vec = r.dblVec();
    std::uint32_t dims = r.u32();
    std::uint32_t clusters = r.u32();
    if (std::size_t{dims} * clusters != vec.size())
        throw ParseError("corrupt GPU BBV: " + std::to_string(vec.size()) +
                         " values for " + std::to_string(clusters) + "x" +
                         std::to_string(dims));
    return sampling::GpuBbv::fromRaw(std::move(vec), dims, clusters);
}

void
putKernelRecord(std::string &out, const sampling::KernelRecord &rec)
{
    putString(out, rec.name);
    putGpuBbv(out, rec.signature);
    putU32(out, rec.numWarps);
    putU64(out, rec.totalInsts);
    putU64(out, rec.sampledInsts);
    putU64(out, rec.cycles);
}

sampling::KernelRecord
getKernelRecord(Reader &r)
{
    sampling::KernelRecord rec;
    rec.name = r.str();
    rec.signature = getGpuBbv(r);
    rec.numWarps = r.u32();
    rec.totalInsts = r.u64();
    rec.sampledInsts = r.u64();
    rec.cycles = r.u64();
    return rec;
}

void
putAnalysis(std::string &out, const sampling::OnlineAnalysis &a)
{
    putU32(out, a.totalWarps);
    putU32(out, a.sampledWarps);
    putU64(out, a.sampledInsts);
    const auto &types = a.classifier.types();
    putU32(out, static_cast<std::uint32_t>(types.size()));
    for (const auto &t : types) {
        putU64Vec(out, t.bbv.counts());
        putU64(out, t.instCount);
        putU64(out, t.numWarps);
    }
    putGpuBbv(out, a.signature);
    putU64Vec(out, a.bbExecCounts);
    putU64Vec(out, a.bbInstCounts);
    putU32(out, a.dominantType);
    putDouble(out, a.dominantRate);
}

sampling::OnlineAnalysis
getAnalysis(Reader &r)
{
    sampling::OnlineAnalysis a;
    a.totalWarps = r.u32();
    a.sampledWarps = r.u32();
    a.sampledInsts = r.u64();
    std::uint32_t num_types = r.u32();
    std::vector<sampling::WarpType> types(num_types);
    for (auto &t : types) {
        t.bbv = sampling::Bbv::fromCounts(r.u64Vec());
        t.instCount = r.u64();
        t.numWarps = r.u64();
    }
    a.classifier = sampling::WarpClassifier::fromTypes(std::move(types));
    a.signature = getGpuBbv(r);
    a.bbExecCounts = r.u64Vec();
    a.bbInstCounts = r.u64Vec();
    a.dominantType = r.u32();
    a.dominantRate = r.dbl();
    return a;
}

void
putTelemetry(std::string &out, const sampling::KernelTelemetry &t)
{
    putString(out, t.kernel);
    putString(out, t.job);
    putU32(out, t.numWorkgroups);
    putU32(out, t.wavesPerWorkgroup);
    putU32(out, static_cast<std::uint32_t>(t.level));
    putU64(out, t.switchCycle);
    putU32(out, t.residentAtSwitch);
    putU64(out, t.warpDetector.points);
    putDouble(out, t.warpDetector.slope);
    putU32(out, t.warpDetector.slopeValid ? 1 : 0);
    putDouble(out, t.warpDetector.drift);
    putDouble(out, t.warpDetector.meanRecent);
    putDouble(out, t.warpDetector.meanPrev);
    putU32(out, t.warpDetector.stable ? 1 : 0);
    putDouble(out, t.bbStableRate);
    putU64(out, t.predictedCycles);
    putU64(out, t.predictedInsts);
    putU64(out, t.detailedCycles);
    putU64(out, t.detailedInsts);
    putU32(out, t.detailedWarps);
    putU32(out, t.totalWarps);
    putU64(out, t.analysisInsts);
    putU32(out, t.analysisReused ? 1 : 0);
    putDouble(out, t.wallSeconds);
    putString(out, t.backend);
    putU64(out, t.backendDetailedCycles);
    putU64(out, t.backendIntervalCycles);
    putString(out, t.noSwitchReason);
    putU64(out, t.hooksReleasedCycle);
}

sampling::KernelTelemetry
getTelemetry(Reader &r, std::uint32_t version)
{
    sampling::KernelTelemetry t;
    t.kernel = r.str();
    t.job = r.str();
    t.numWorkgroups = r.u32();
    t.wavesPerWorkgroup = r.u32();
    std::uint32_t level = r.u32();
    if (level > static_cast<std::uint32_t>(
                    sampling::SampleLevel::BasicBlock))
        throw ParseError("corrupt telemetry record: sample level " +
                         std::to_string(level));
    t.level = static_cast<sampling::SampleLevel>(level);
    t.switchCycle = r.u64();
    t.residentAtSwitch = r.u32();
    t.warpDetector.points = r.u64();
    t.warpDetector.slope = r.dbl();
    t.warpDetector.slopeValid = r.u32() != 0;
    t.warpDetector.drift = r.dbl();
    t.warpDetector.meanRecent = r.dbl();
    t.warpDetector.meanPrev = r.dbl();
    t.warpDetector.stable = r.u32() != 0;
    t.bbStableRate = r.dbl();
    t.predictedCycles = r.u64();
    t.predictedInsts = r.u64();
    t.detailedCycles = r.u64();
    t.detailedInsts = r.u64();
    t.detailedWarps = r.u32();
    t.totalWarps = r.u32();
    t.analysisInsts = r.u64();
    t.analysisReused = r.u32() != 0;
    if (version >= 3)
        t.wallSeconds = r.dbl();
    if (version >= 3 && version <= 5) {
        r.u64(); // epochs
        r.u64(); // epoch cycles
        r.u64(); // barrier crossings
    }
    if (version >= 4) {
        t.backend = r.str();
        t.backendDetailedCycles = r.u64();
        t.backendIntervalCycles = r.u64();
    }
    if (version == 4 || version == 5)
        r.u32(); // hasDetailedStats
    if (version >= 7) {
        t.noSwitchReason = r.str();
        t.hooksReleasedCycle = r.u64();
    }
    return t;
}

/** The section layout every batch carries: groups, then traces. */
void
putBody(std::string &out, const Artifact &artifact)
{
    putU32(out, static_cast<std::uint32_t>(artifact.groups.size()));
    for (const auto &[gpu, g] : artifact.groups) {
        putString(out, gpu);
        putU32(out, static_cast<std::uint32_t>(g.kernels.size()));
        for (const auto &rec : g.kernels)
            putKernelRecord(out, rec);
        // The analysis store is an unordered_map; sort the keys so
        // serialization is byte-deterministic.
        std::vector<const std::string *> keys;
        keys.reserve(g.analyses.size());
        for (const auto &[key, a] : g.analyses) // photon-lint: order-insensitive
            keys.push_back(&key);
        std::sort(keys.begin(), keys.end(),
                  [](const auto *a, const auto *b) { return *a < *b; });
        putU32(out, static_cast<std::uint32_t>(keys.size()));
        for (const std::string *key : keys) {
            putString(out, *key);
            putAnalysis(out, g.analyses.at(*key));
        }
        putU32(out, static_cast<std::uint32_t>(g.telemetry.size()));
        for (const auto &t : g.telemetry)
            putTelemetry(out, t);
    }
    // v5 trace section: std::map iteration is key-sorted, so the
    // section is byte-deterministic. Each trace is its own versioned
    // blob (magic "PHTR") behind a length prefix.
    putU32(out, static_cast<std::uint32_t>(artifact.traces.size()));
    for (const auto &[key, trace] : artifact.traces) {
        putString(out, key);
        std::vector<std::uint8_t> blob;
        func::serializeLaunchTrace(*trace, blob);
        putU64(out, blob.size());
        out.append(reinterpret_cast<const char *>(blob.data()),
                   blob.size());
    }
}

/** Append one batch (length, body, checksum), serializing the body in
 *  place and patching its length afterwards. */
void
putBatch(std::string &out, const Artifact &artifact)
{
    const std::size_t len_at = out.size();
    putU64(out, 0);
    const std::size_t body_at = out.size();
    putBody(out, artifact);
    const std::uint64_t len = out.size() - body_at;
    for (int i = 0; i < 8; ++i)
        out[len_at + i] = static_cast<char>((len >> (8 * i)) & 0xff);
    putU64(out, fnv1a(kFnvBasis, out.data() + body_at, len));
}

Artifact
getBody(Reader &body, std::uint32_t version)
{
    Artifact parsed;
    std::uint32_t num_groups = body.u32();
    for (std::uint32_t gi = 0; gi < num_groups; ++gi) {
        std::string gpu = body.str();
        StoreGroup &g = parsed.groups[gpu];
        std::uint32_t num_kernels = body.u32();
        g.kernels.reserve(num_kernels);
        for (std::uint32_t i = 0; i < num_kernels; ++i)
            g.kernels.push_back(getKernelRecord(body));
        std::uint32_t num_analyses = body.u32();
        for (std::uint32_t i = 0; i < num_analyses; ++i) {
            std::string key = body.str();
            g.analyses.emplace(std::move(key), getAnalysis(body));
        }
        if (version >= 2) {
            std::uint32_t num_tele = body.u32();
            g.telemetry.reserve(num_tele);
            for (std::uint32_t i = 0; i < num_tele; ++i)
                g.telemetry.push_back(getTelemetry(body, version));
        }
    }
    if (version >= 5) {
        std::uint32_t num_traces = body.u32();
        for (std::uint32_t i = 0; i < num_traces; ++i) {
            std::string key = body.str();
            std::uint64_t len = body.u64();
            std::string_view blob = body.raw(static_cast<std::size_t>(len));
            auto trace = std::make_shared<func::LaunchTrace>();
            std::string err;
            if (!func::deserializeLaunchTrace(
                    reinterpret_cast<const std::uint8_t *>(blob.data()),
                    blob.size(), *trace, &err))
                throw ParseError("trace '" + key + "': " + err);
            parsed.traces.emplace(std::move(key), std::move(trace));
        }
    }
    return parsed;
}

/** Merge a later batch into @p into: kernel records and telemetry
 *  append, analyses and traces are first-wins (GlobalStore::publish's
 *  rules, so a batched file loads to the store that wrote it). */
void
mergeArtifact(Artifact &into, Artifact &&from)
{
    for (auto &[gpu, g] : from.groups) {
        auto [it, fresh] = into.groups.try_emplace(gpu);
        StoreGroup &dst = it->second;
        if (fresh) {
            dst = std::move(g);
            continue;
        }
        dst.kernels.insert(dst.kernels.end(),
                           std::make_move_iterator(g.kernels.begin()),
                           std::make_move_iterator(g.kernels.end()));
        for (auto &[key, a] : g.analyses) // photon-lint: order-insensitive
            dst.analyses.emplace(key, std::move(a));
        dst.telemetry.insert(dst.telemetry.end(),
                             std::make_move_iterator(g.telemetry.begin()),
                             std::make_move_iterator(g.telemetry.end()));
    }
    for (auto &[key, trace] : from.traces)
        into.traces.emplace(key, std::move(trace));
}

/**
 * Parse @p bytes into @p out. A bad header or pre-v7 body throws
 * ParseError; a v7 file stops at its first bad batch, with the batches
 * before it merged into @p out and the reason in load.tailError.
 */
void
parseArtifact(std::string_view bytes, Artifact &out, PrefixLoad &load)
{
    load.fileBytes = bytes.size();
    if (bytes.size() < sizeof(kMagic))
        throw ParseError("truncated artifact (no magic)");
    if (!std::equal(kMagic, kMagic + sizeof(kMagic), bytes.begin()))
        throw ParseError("not a Photon artifact (bad magic)");
    load.version = Reader(bytes.substr(sizeof(kMagic))).u32();
    if (load.version < 1 || load.version > kArtifactVersion) {
        std::ostringstream os;
        os << "artifact version mismatch: file has v" << load.version
           << ", this build reads v1..v" << kArtifactVersion;
        throw ParseError(os.str());
    }
    if (load.version < kFirstBatchedVersion) {
        Reader body(bytes.substr(kHeaderBytes));
        out = getBody(body, load.version);
        if (!body.atEnd())
            throw ParseError("trailing bytes after artifact body");
        load.goodBytes = bytes.size();
        load.batches = 1;
        return;
    }
    std::size_t pos = kHeaderBytes;
    load.goodBytes = pos;
    while (pos < bytes.size()) {
        const std::string_view rest = bytes.substr(pos);
        const std::string at = " at offset " + std::to_string(pos);
        if (rest.size() < 8) {
            load.tailError = "trailing bytes after the last artifact "
                             "batch (" + std::to_string(rest.size()) +
                             " bytes" + at + ")";
            return;
        }
        const std::uint64_t len = Reader(rest).u64();
        if (rest.size() < kBatchFrameBytes ||
            len > rest.size() - kBatchFrameBytes) {
            load.tailError = "truncated artifact batch" + at + " (" +
                             std::to_string(len) + "-byte body, " +
                             std::to_string(rest.size()) +
                             " bytes remain)";
            return;
        }
        const std::string_view body = rest.substr(8, len);
        if (fnv1a(kFnvBasis, body.data(), body.size()) !=
            Reader(rest.substr(8 + len)).u64()) {
            load.tailError = "artifact batch" + at + " fails its checksum";
            return;
        }
        try {
            Reader r(body);
            Artifact batch = getBody(r, load.version);
            if (!r.atEnd())
                throw ParseError("trailing bytes inside the batch");
            mergeArtifact(out, std::move(batch));
        } catch (const ParseError &e) {
            load.tailError = "artifact batch" + at + ": " + e.what();
            return;
        }
        pos += kBatchFrameBytes + len;
        load.goodBytes = pos;
        ++load.batches;
    }
}

LoadStatus
readFile(const std::string &path, std::string &bytes)
{
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    if (!f)
        return LoadStatus::fail("cannot open '" + path + "' for reading");
    const std::streamoff size = f.tellg();
    if (size < 0)
        return LoadStatus::fail("read from '" + path + "' failed");
    bytes.resize(static_cast<std::size_t>(size));
    f.seekg(0);
    f.read(bytes.data(), size);
    if (!f)
        return LoadStatus::fail("read from '" + path + "' failed");
    return {};
}

} // namespace

std::size_t
Artifact::numKernelRecords() const
{
    std::size_t n = 0;
    for (const auto &[gpu, g] : groups)
        n += g.kernels.size();
    return n;
}

std::size_t
Artifact::numAnalyses() const
{
    std::size_t n = 0;
    for (const auto &[gpu, g] : groups)
        n += g.analyses.size();
    return n;
}

std::size_t
Artifact::numTelemetryRecords() const
{
    std::size_t n = 0;
    for (const auto &[gpu, g] : groups)
        n += g.telemetry.size();
    return n;
}

std::string
serializeArtifact(const Artifact &artifact)
{
    std::string out;
    out.append(kMagic, sizeof(kMagic));
    putU32(out, kArtifactVersion);
    putBatch(out, artifact);
    return out;
}

LoadStatus
deserializeArtifact(std::string_view bytes, Artifact &out)
{
    out = Artifact{};
    Artifact parsed;
    PrefixLoad load;
    try {
        parseArtifact(bytes, parsed, load);
    } catch (const ParseError &e) {
        return LoadStatus::fail(e.what());
    }
    if (!load.tailError.empty())
        return LoadStatus::fail(load.tailError);
    out = std::move(parsed);
    return {};
}

LoadStatus
saveArtifact(const Artifact &artifact, const std::string &path)
{
    std::string bytes = serializeArtifact(artifact);
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    if (!f)
        return LoadStatus::fail("cannot open '" + path + "' for writing");
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.flush();
    if (!f)
        return LoadStatus::fail("write to '" + path + "' failed");
    return {};
}

LoadStatus
appendArtifact(const Artifact &batch, const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t before = std::filesystem::file_size(path, ec);
    if (ec || before < kHeaderBytes)
        return LoadStatus::fail("cannot append to '" + path +
                                "': no artifact header to append to");
    std::string bytes;
    putBatch(bytes, batch);
    std::ofstream f(path, std::ios::binary | std::ios::app);
    if (!f)
        return LoadStatus::fail("cannot open '" + path + "' for appending");
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    f.close();
    if (!f) {
        std::filesystem::resize_file(path, before, ec);
        return LoadStatus::fail(
            "append to '" + path + "' failed" +
            (ec ? "; truncating it back also failed: " + ec.message()
                : "; file restored to " + std::to_string(before) +
                      " bytes"));
    }
    return {};
}

LoadStatus
loadArtifact(const std::string &path, Artifact &out)
{
    out = Artifact{};
    std::string bytes;
    LoadStatus st = readFile(path, bytes);
    if (!st.ok)
        return st;
    return deserializeArtifact(bytes, out);
}

PrefixLoad
loadArtifactPrefix(const std::string &path, Artifact &out)
{
    out = Artifact{};
    PrefixLoad load;
    std::string bytes;
    load.status = readFile(path, bytes);
    if (!load.status.ok)
        return load;
    try {
        parseArtifact(bytes, out, load);
    } catch (const ParseError &e) {
        out = Artifact{};
        load.status = LoadStatus::fail(e.what());
    }
    return load;
}

} // namespace photon::service

/** @file Tests for the versioned binary artifact store. */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/resource.h>

#include "service/artifact_store.hpp"

using namespace photon;
using namespace photon::sampling;
using namespace photon::service;

namespace {

Bbv
bbvOf(isa::BbId bb, std::uint64_t n)
{
    Bbv v(8);
    v.add(bb, 64, n);
    v.add(bb, 20, 1); // touch a second lane bucket
    return v;
}

GpuBbv
sigOf(isa::BbId bb)
{
    WarpClassifier c;
    for (int i = 0; i < 10; ++i)
        c.classify(bbvOf(bb, 10), 100);
    return GpuBbv::build(c, 16, 8);
}

KernelRecord
record(const char *name, isa::BbId bb, std::uint32_t warps)
{
    KernelRecord r;
    r.name = name;
    r.signature = sigOf(bb);
    r.numWarps = warps;
    r.totalInsts = warps * 100ull;
    r.sampledInsts = warps;
    r.cycles = warps * 5ull;
    return r;
}

OnlineAnalysis
analysisOf(isa::BbId bb)
{
    OnlineAnalysis a;
    a.totalWarps = 1000;
    a.sampledWarps = 10;
    a.sampledInsts = 1000;
    for (int i = 0; i < 7; ++i)
        a.classifier.classify(bbvOf(bb, 10), 100);
    for (int i = 0; i < 3; ++i)
        a.classifier.classify(bbvOf(bb + 1, 4), 40);
    a.signature = GpuBbv::build(a.classifier, 16, 8);
    a.bbExecCounts = {1, 2, 3, 4, 0, 9};
    a.bbInstCounts = {10, 20, 30, 40, 0, 90};
    a.dominantType = a.classifier.dominantType();
    a.dominantRate = a.classifier.dominantRate();
    return a;
}

Artifact
sampleArtifact()
{
    Artifact art;
    StoreGroup &g = art.group("R9Nano");
    g.kernels.push_back(record("mm", 0, 4096));
    g.kernels.push_back(record("relu", 2, 256));
    g.analyses.emplace("mm#64x4", analysisOf(0));
    g.analyses.emplace("relu#4x4", analysisOf(2));
    StoreGroup &g2 = art.group("MI100");
    g2.kernels.push_back(record("fir", 1, 512));
    return art;
}

func::LaunchTracePtr
traceOf(const char *program, std::uint64_t hash)
{
    auto t = std::make_shared<func::LaunchTrace>();
    t->programName = program;
    t->programHash = hash;
    t->numWorkgroups = 2;
    t->wavesPerWorkgroup = 1;
    t->warps.resize(2); // two warps that execute nothing
    return t;
}

KernelTelemetry
telemetryOf(const char *kernel, std::uint64_t predicted)
{
    KernelTelemetry t;
    t.kernel = kernel;
    t.level = SampleLevel::Warp;
    t.predictedCycles = predicted;
    t.noSwitchReason = "";
    t.hooksReleasedCycle = predicted / 2;
    return t;
}

/** Three batches in the shapes a daemon appends: the first creates
 *  the groups, later ones add records to existing and new groups, and
 *  each later one re-publishes an analysis and a trace key that an
 *  earlier batch already holds (first-wins on load). */
std::vector<Artifact>
sampleBatches()
{
    std::vector<Artifact> batches(3);
    batches[0] = sampleArtifact();
    batches[0].group("R9Nano").telemetry.push_back(telemetryOf("mm", 90));
    batches[0].traces["mm#1"] = traceOf("mm", 1);

    StoreGroup &g1 = batches[1].group("R9Nano");
    g1.kernels.push_back(record("spmv", 3, 128));
    g1.analyses.emplace("spmv#8x4", analysisOf(3));
    g1.analyses.emplace("mm#64x4", analysisOf(5)); // duplicate key
    g1.telemetry.push_back(telemetryOf("spmv", 70));
    batches[1].traces["mm#1"] = traceOf("mm-later", 9); // duplicate key
    batches[1].traces["spmv#2"] = traceOf("spmv", 2);

    batches[2].group("tiny").kernels.push_back(record("aes", 4, 64));
    batches[2].group("MI100").telemetry.push_back(telemetryOf("fir", 5));
    return batches;
}

/** The one-shot store the batches merge to. */
Artifact
mergedSample()
{
    Artifact art = sampleArtifact();
    StoreGroup &g = art.group("R9Nano");
    g.kernels.push_back(record("spmv", 3, 128));
    g.analyses.emplace("spmv#8x4", analysisOf(3));
    g.telemetry.push_back(telemetryOf("mm", 90));
    g.telemetry.push_back(telemetryOf("spmv", 70));
    art.traces["mm#1"] = traceOf("mm", 1);
    art.traces["spmv#2"] = traceOf("spmv", 2);
    art.group("tiny").kernels.push_back(record("aes", 4, 64));
    art.group("MI100").telemetry.push_back(telemetryOf("fir", 5));
    return art;
}

/** Save batch 0 to @p path and append the rest; returns each batch's
 *  end offset in the file. */
std::vector<std::uintmax_t>
writeBatches(const std::vector<Artifact> &batches, const std::string &path)
{
    std::vector<std::uintmax_t> ends;
    for (std::size_t i = 0; i < batches.size(); ++i) {
        LoadStatus st = i == 0 ? saveArtifact(batches[i], path)
                               : appendArtifact(batches[i], path);
        EXPECT_TRUE(st.ok) << st.error;
        ends.push_back(std::filesystem::file_size(path));
    }
    return ends;
}

std::string
readAll(const std::string &path)
{
    std::string bytes;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return bytes;
    char buf[4096];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
        bytes.append(buf, n);
    std::fclose(f);
    return bytes;
}

void
writeAll(const std::string &path, const std::string &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
    std::fclose(f);
}

void
expectAnalysisEq(const OnlineAnalysis &a, const OnlineAnalysis &b)
{
    EXPECT_EQ(a.totalWarps, b.totalWarps);
    EXPECT_EQ(a.sampledWarps, b.sampledWarps);
    EXPECT_EQ(a.sampledInsts, b.sampledInsts);
    ASSERT_EQ(a.classifier.numTypes(), b.classifier.numTypes());
    EXPECT_EQ(a.classifier.totalWarps(), b.classifier.totalWarps());
    for (std::uint32_t i = 0; i < a.classifier.numTypes(); ++i) {
        EXPECT_EQ(a.classifier.types()[i].bbv,
                  b.classifier.types()[i].bbv);
        EXPECT_EQ(a.classifier.types()[i].instCount,
                  b.classifier.types()[i].instCount);
        EXPECT_EQ(a.classifier.types()[i].numWarps,
                  b.classifier.types()[i].numWarps);
    }
    EXPECT_EQ(a.signature.vec(), b.signature.vec());
    EXPECT_EQ(a.signature.dims(), b.signature.dims());
    EXPECT_EQ(a.signature.numClusters(), b.signature.numClusters());
    EXPECT_EQ(a.bbExecCounts, b.bbExecCounts);
    EXPECT_EQ(a.bbInstCounts, b.bbInstCounts);
    EXPECT_EQ(a.dominantType, b.dominantType);
    EXPECT_EQ(a.dominantRate, b.dominantRate);
}

} // namespace

TEST(ArtifactStore, RoundTripEmpty)
{
    std::string bytes = serializeArtifact(Artifact{});
    Artifact back;
    LoadStatus st = deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_TRUE(back.groups.empty());
    EXPECT_EQ(back.numKernelRecords(), 0u);
    EXPECT_EQ(back.numAnalyses(), 0u);
}

TEST(ArtifactStore, RoundTripMultiRecord)
{
    Artifact art = sampleArtifact();
    std::string bytes = serializeArtifact(art);
    Artifact back;
    LoadStatus st = deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;

    ASSERT_EQ(back.groups.size(), 2u);
    ASSERT_EQ(back.numKernelRecords(), 3u);
    ASSERT_EQ(back.numAnalyses(), 2u);

    const StoreGroup &g = back.groups.at("R9Nano");
    ASSERT_EQ(g.kernels.size(), 2u);
    EXPECT_EQ(g.kernels[0].name, "mm");
    EXPECT_EQ(g.kernels[0].numWarps, 4096u);
    EXPECT_EQ(g.kernels[0].totalInsts, 409600u);
    EXPECT_EQ(g.kernels[0].sampledInsts, 4096u);
    EXPECT_EQ(g.kernels[0].cycles, 20480u);
    // Signatures survive bit-exactly: distance to the original is 0.
    EXPECT_EQ(g.kernels[0].signature.distance(
                  art.groups.at("R9Nano").kernels[0].signature),
              0.0);
    EXPECT_EQ(g.kernels[0].signature.vec(),
              art.groups.at("R9Nano").kernels[0].signature.vec());

    ASSERT_EQ(g.analyses.count("mm#64x4"), 1u);
    expectAnalysisEq(art.groups.at("R9Nano").analyses.at("mm#64x4"),
                     g.analyses.at("mm#64x4"));
}

TEST(ArtifactStore, SerializationIsDeterministic)
{
    Artifact art = sampleArtifact();
    EXPECT_EQ(serializeArtifact(art), serializeArtifact(art));
    // Round-tripping then re-serializing also yields identical bytes.
    std::string bytes = serializeArtifact(art);
    Artifact back;
    ASSERT_TRUE(deserializeArtifact(bytes, back).ok);
    EXPECT_EQ(serializeArtifact(back), bytes);
}

TEST(ArtifactStore, AnalysisInsertionOrderDoesNotChangeBytes)
{
    // Two stores with equal entries, filled in opposite orders into
    // different bucket counts, so their unordered iteration orders
    // differ. The serialized artifact must not.
    auto analysisFor = [](int i) {
        OnlineAnalysis a;
        a.totalWarps = 64 + static_cast<std::uint32_t>(i);
        a.signature = GpuBbv::fromRaw(
            {static_cast<double>(i), 1.0 / (i + 1)}, 2, 1);
        return a;
    };
    PhotonSampler::AnalysisStore forward, backward;
    forward.reserve(1);
    backward.reserve(1024);
    for (int i = 0; i < 24; ++i)
        forward.emplace("kernel_" + std::to_string(i), analysisFor(i));
    for (int i = 23; i >= 0; --i)
        backward.emplace("kernel_" + std::to_string(i), analysisFor(i));

    auto order = [](const PhotonSampler::AnalysisStore &s) {
        std::vector<std::string> out;
        for (const auto &entry : s)
            out.push_back(entry.first);
        return out;
    };
    ASSERT_NE(order(forward), order(backward))
        << "equal iteration orders: the test would not catch a lost sort";

    auto bytesOf = [](const PhotonSampler::AnalysisStore &s) {
        Artifact art;
        art.group("tiny").analyses = s;
        return serializeArtifact(art);
    };
    EXPECT_TRUE(bytesOf(forward) == bytesOf(backward))
        << "serialized bytes depend on insertion order";
}

TEST(ArtifactStore, RejectsVersionMismatch)
{
    std::string bytes = serializeArtifact(sampleArtifact());
    bytes[4] = static_cast<char>(kArtifactVersion + 1); // version LSB
    Artifact back;
    LoadStatus st = deserializeArtifact(bytes, back);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("version mismatch"), std::string::npos)
        << st.error;
    EXPECT_TRUE(back.groups.empty());
}

TEST(ArtifactStore, RejectsBadMagic)
{
    std::string bytes = serializeArtifact(sampleArtifact());
    bytes[0] = 'X';
    Artifact back;
    LoadStatus st = deserializeArtifact(bytes, back);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("magic"), std::string::npos) << st.error;
}

TEST(ArtifactStore, RejectsTruncation)
{
    std::string bytes = serializeArtifact(sampleArtifact());
    // Every proper prefix must be rejected, never crash.
    for (std::size_t len : {std::size_t{0}, std::size_t{3},
                            std::size_t{7}, bytes.size() / 2,
                            bytes.size() - 1}) {
        Artifact back;
        LoadStatus st =
            deserializeArtifact(std::string_view(bytes).substr(0, len),
                                back);
        EXPECT_FALSE(st.ok) << "prefix of " << len << " bytes accepted";
        EXPECT_TRUE(back.groups.empty());
    }
}

TEST(ArtifactStore, RejectsTrailingBytes)
{
    std::string bytes = serializeArtifact(sampleArtifact());
    bytes.push_back('\0');
    Artifact back;
    LoadStatus st = deserializeArtifact(bytes, back);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("trailing"), std::string::npos) << st.error;
}

TEST(ArtifactStore, FileRoundTrip)
{
    std::string path = testing::TempDir() + "photon_artifact_rt.bin";
    Artifact art = sampleArtifact();
    LoadStatus st = saveArtifact(art, path);
    ASSERT_TRUE(st.ok) << st.error;
    Artifact back;
    st = loadArtifact(path, back);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(serializeArtifact(back), serializeArtifact(art));
    std::remove(path.c_str());
}

TEST(ArtifactStore, LoadReportsMissingFile)
{
    Artifact back;
    LoadStatus st =
        loadArtifact("/nonexistent/photon_store.bin", back);
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("cannot open"), std::string::npos)
        << st.error;
}

TEST(ArtifactStore, ClassifierRestoreRebuildsHashIndex)
{
    // A classifier rebuilt from exported types must keep classifying
    // known BBVs into their original type instead of minting new ones.
    WarpClassifier orig;
    for (int i = 0; i < 5; ++i)
        orig.classify(bbvOf(0, 10), 100);
    orig.classify(bbvOf(3, 2), 20);

    WarpClassifier back = WarpClassifier::fromTypes(
        std::vector<WarpType>(orig.types().begin(), orig.types().end()));
    EXPECT_EQ(back.totalWarps(), orig.totalWarps());
    EXPECT_EQ(back.dominantType(), orig.dominantType());
    EXPECT_EQ(back.dominantRate(), orig.dominantRate());
    WarpTypeId id = back.classify(bbvOf(0, 10), 100);
    EXPECT_EQ(id, orig.dominantType());
    EXPECT_EQ(back.numTypes(), orig.numTypes()); // no new type minted
}

TEST(ArtifactStore, BbvAndGpuBbvRestoreHooks)
{
    Bbv v = bbvOf(2, 7);
    Bbv back = Bbv::fromCounts(v.counts());
    EXPECT_EQ(back, v);
    EXPECT_EQ(back.hash(), v.hash());
    EXPECT_EQ(back.blockHash(), v.blockHash());

    GpuBbv sig = sigOf(1);
    GpuBbv sig_back =
        GpuBbv::fromRaw(sig.vec(), sig.dims(), sig.numClusters());
    EXPECT_EQ(sig_back.distance(sig), 0.0);
}

// ----- v7: checksummed batches -----

TEST(ArtifactStore, SaveThenAppendsLoadAsOneShotSave)
{
    const std::string path =
        testing::TempDir() + "photon_artifact_batches.bin";
    std::vector<Artifact> batches = sampleBatches();
    std::vector<std::uintmax_t> ends = writeBatches(batches, path);
    ASSERT_EQ(ends.size(), 3u);
    EXPECT_LT(ends[0], ends[1]);
    EXPECT_LT(ends[1], ends[2]);

    Artifact back;
    LoadStatus st = loadArtifact(path, back);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(serializeArtifact(back), serializeArtifact(mergedSample()));
    // First-wins: the earlier batch's analysis and trace survive.
    expectAnalysisEq(back.groups.at("R9Nano").analyses.at("mm#64x4"),
                     analysisOf(0));
    EXPECT_EQ(back.traces.at("mm#1")->programName, "mm");

    PrefixLoad load = loadArtifactPrefix(path, back);
    ASSERT_TRUE(load.status.ok) << load.status.error;
    EXPECT_EQ(load.version, kArtifactVersion);
    EXPECT_EQ(load.batches, 3u);
    EXPECT_EQ(load.goodBytes, ends[2]);
    EXPECT_EQ(load.fileBytes, ends[2]);
    EXPECT_TRUE(load.tailError.empty()) << load.tailError;
    std::remove(path.c_str());
}

TEST(ArtifactStore, RejectsFlippedByteInAnyBatch)
{
    const std::string path =
        testing::TempDir() + "photon_artifact_flip.bin";
    std::vector<std::uintmax_t> ends = writeBatches(sampleBatches(), path);
    const std::string good = readAll(path);
    const std::string flipped_path = path + ".flipped";
    std::uintmax_t start = 8; // first batch follows the header
    for (std::size_t b = 0; b < ends.size(); ++b) {
        // The length prefix, a body byte and the checksum of batch b.
        for (std::uintmax_t at :
             {start + 1, (start + ends[b]) / 2, ends[b] - 3}) {
            std::string bytes = good;
            bytes[at] ^= 0x10;
            Artifact back;
            LoadStatus st = deserializeArtifact(bytes, back);
            EXPECT_FALSE(st.ok) << "flip at " << at << " accepted";
            EXPECT_TRUE(back.groups.empty());

            // Strict file loads refuse it too; the prefix loader keeps
            // exactly the batches before the flipped one.
            writeAll(flipped_path, bytes);
            EXPECT_FALSE(loadArtifact(flipped_path, back).ok);
            PrefixLoad load = loadArtifactPrefix(flipped_path, back);
            ASSERT_TRUE(load.status.ok) << load.status.error;
            EXPECT_EQ(load.batches, b) << "flip at " << at;
            EXPECT_EQ(load.goodBytes, start) << "flip at " << at;
            EXPECT_FALSE(load.tailError.empty());
            Artifact expect;
            if (b > 0) {
                ASSERT_TRUE(deserializeArtifact(
                                good.substr(0, start), expect)
                                .ok);
            }
            EXPECT_EQ(serializeArtifact(back), serializeArtifact(expect));
        }
        start = ends[b];
    }
    std::remove(flipped_path.c_str());
    std::remove(path.c_str());
}

TEST(ArtifactStore, PrefixLoadStopsAtATornTail)
{
    const std::string path =
        testing::TempDir() + "photon_artifact_torn.bin";
    std::vector<std::uintmax_t> ends = writeBatches(sampleBatches(), path);
    const std::string good = readAll(path);
    Artifact two;
    ASSERT_TRUE(deserializeArtifact(good.substr(0, ends[1]), two).ok);
    // Every cut inside the last batch (its length, body or checksum)
    // keeps the first two batches.
    for (std::uintmax_t len = ends[1] + 1; len < ends[2]; ++len) {
        Artifact back;
        EXPECT_FALSE(deserializeArtifact(good.substr(0, len), back).ok)
            << len;
        writeAll(path, good.substr(0, len));
        PrefixLoad load = loadArtifactPrefix(path, back);
        ASSERT_TRUE(load.status.ok) << load.status.error;
        ASSERT_EQ(load.batches, 2u) << len;
        EXPECT_EQ(load.goodBytes, ends[1]);
        EXPECT_EQ(load.fileBytes, len);
        if (len == ends[1] + 1 || len == ends[2] - 1) {
            EXPECT_EQ(serializeArtifact(back), serializeArtifact(two));
        }
    }
    // A bad header stays fatal for the prefix loader.
    std::string bad = good;
    bad[0] = 'X';
    writeAll(path, bad);
    Artifact back;
    EXPECT_FALSE(loadArtifactPrefix(path, back).status.ok);
    std::remove(path.c_str());
}

TEST(ArtifactStore, HeaderOnlyFileIsAnEmptyStore)
{
    // What a daemon leaves after cutting away a torn first batch.
    std::string bytes = serializeArtifact(sampleArtifact()).substr(0, 8);
    Artifact back;
    LoadStatus st = deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_TRUE(back.groups.empty());
}

TEST(ArtifactStore, AppendNeedsAnExistingArtifact)
{
    LoadStatus st =
        appendArtifact(sampleArtifact(), "/nonexistent/photon_store.bin");
    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("cannot append"), std::string::npos)
        << st.error;
}

TEST(ArtifactStore, FailedAppendRestoresTheFile)
{
    // A file-size limit just past the current end makes the append a
    // short write: the file must be cut back to its previous bytes.
    const std::string path =
        testing::TempDir() + "photon_artifact_short.bin";
    std::vector<Artifact> batches = sampleBatches();
    ASSERT_TRUE(saveArtifact(batches[0], path).ok);
    const std::string before = readAll(path);

    rlimit old{};
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old), 0);
    rlimit lim = old;
    lim.rlim_cur = before.size() + 10;
    void (*prev)(int) = signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &lim), 0);
    LoadStatus st = appendArtifact(batches[1], path);
    setrlimit(RLIMIT_FSIZE, &old);
    signal(SIGXFSZ, prev);

    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("restored"), std::string::npos) << st.error;
    EXPECT_EQ(readAll(path), before);
    // The file still takes the same batch once the disk has room.
    ASSERT_TRUE(appendArtifact(batches[1], path).ok);
    Artifact back;
    ASSERT_TRUE(loadArtifact(path, back).ok);
    EXPECT_EQ(back.numKernelRecords(), 4u);
    std::remove(path.c_str());
}

TEST(ArtifactStore, FailedSaveKeepsThePreviousFile)
{
    // saveArtifact rewrites through a temporary file that is renamed
    // over the target only once fully written and synced. With a
    // file-size limit too small for the new store, the save must fail
    // and leave the previous file byte-identical, loadable and alone
    // in its directory.
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(testing::TempDir()) / "photon_save_fail";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string path = (dir / "store.bin").string();
    std::vector<Artifact> batches = sampleBatches();
    ASSERT_TRUE(saveArtifact(batches[2], path).ok);
    const std::string before = readAll(path);

    rlimit old{};
    ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &old), 0);
    rlimit lim = old;
    lim.rlim_cur = before.size() + 10;
    void (*prev)(int) = signal(SIGXFSZ, SIG_IGN);
    ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &lim), 0);
    LoadStatus st = saveArtifact(mergedSample(), path);
    setrlimit(RLIMIT_FSIZE, &old);
    signal(SIGXFSZ, prev);

    EXPECT_FALSE(st.ok);
    EXPECT_NE(st.error.find("unchanged"), std::string::npos) << st.error;
    EXPECT_EQ(readAll(path), before);
    Artifact back;
    ASSERT_TRUE(loadArtifact(path, back).ok);
    EXPECT_EQ(serializeArtifact(back), serializeArtifact(batches[2]));
    EXPECT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator()),
              1);

    // With room on disk the same save replaces the file.
    ASSERT_TRUE(saveArtifact(mergedSample(), path).ok);
    ASSERT_TRUE(loadArtifact(path, back).ok);
    EXPECT_EQ(serializeArtifact(back), serializeArtifact(mergedSample()));
    fs::remove_all(dir);
}

TEST(ArtifactStore, LoadsAV6File)
{
    // artifact_v6.bin was written by the v6 saveArtifact from
    // sampleArtifact() plus one telemetry record (see the fixture's
    // README): it must load to the same store, with the v7 telemetry
    // fields at their defaults.
    Artifact back;
    LoadStatus st = loadArtifact(
        std::string(ARTIFACT_FIXTURE_DIR) + "/artifact_v6.bin", back);
    ASSERT_TRUE(st.ok) << st.error;
    Artifact expect = sampleArtifact();
    KernelTelemetry t = telemetryOf("mm", 90);
    t.hooksReleasedCycle = kNoCycle;
    expect.group("R9Nano").telemetry.push_back(t);
    expect.traces["mm#1"] = traceOf("mm", 1);
    EXPECT_EQ(serializeArtifact(back), serializeArtifact(expect));
    PrefixLoad load = loadArtifactPrefix(
        std::string(ARTIFACT_FIXTURE_DIR) + "/artifact_v6.bin", back);
    EXPECT_EQ(load.version, 6u);
    EXPECT_EQ(load.goodBytes, load.fileBytes);
}

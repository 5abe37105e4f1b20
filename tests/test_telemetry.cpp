/** @file Tests for the per-kernel telemetry spine: deterministic JSON /
 *  CSV serialization, the schema-versioned round trip (current schema
 *  plus v1/v3/v4-document compatibility), and telemetry persistence
 *  through the binary artifact store (v7, with v1/v2/v3/v5/v6 load
 *  compatibility). */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <vector>

#include "sampling/telemetry.hpp"
#include "service/artifact_store.hpp"

#include "legacy_artifact.hpp"

using namespace photon;
using namespace photon::sampling;

namespace {

KernelTelemetry
sampleRecord()
{
    KernelTelemetry t;
    t.kernel = "mm_tiled";
    t.job = "mm/256/photon/r9nano";
    t.numWorkgroups = 64;
    t.wavesPerWorkgroup = 4;
    t.level = SampleLevel::Warp;
    t.switchCycle = 31408;
    t.residentAtSwitch = 40;
    t.warpDetector.points = 2048;
    t.warpDetector.slope = 0.98765432109876543;
    t.warpDetector.slopeValid = true;
    t.warpDetector.drift = -0.0123456789;
    t.warpDetector.meanRecent = 512.25;
    t.warpDetector.meanPrev = 518.5;
    t.warpDetector.stable = true;
    t.bbStableRate = 0.875;
    t.predictedCycles = 112303;
    t.predictedInsts = 1195852;
    t.detailedCycles = 31408;
    t.detailedInsts = 245760;
    t.detailedWarps = 96;
    t.totalWarps = 256;
    t.analysisInsts = 4096;
    t.analysisReused = false;
    t.wallSeconds = 1.2345678901234567;
    // Backend fields: every slot non-default so the round-trips
    // exercise them independently. "interval" is 8 chars like the
    // default, keeping the backend tail at kBackendTail bytes (the
    // loader-compat tests below rely on that size).
    t.backend = "interval";
    t.backendDetailedCycles = 31408;
    t.backendIntervalCycles = 80895;
    return t;
}

void
expectEqual(const KernelTelemetry &a, const KernelTelemetry &b)
{
    EXPECT_EQ(a.kernel, b.kernel);
    EXPECT_EQ(a.job, b.job);
    EXPECT_EQ(a.numWorkgroups, b.numWorkgroups);
    EXPECT_EQ(a.wavesPerWorkgroup, b.wavesPerWorkgroup);
    EXPECT_EQ(a.level, b.level);
    EXPECT_EQ(a.switchCycle, b.switchCycle);
    EXPECT_EQ(a.residentAtSwitch, b.residentAtSwitch);
    EXPECT_EQ(a.warpDetector.points, b.warpDetector.points);
    EXPECT_EQ(a.warpDetector.slope, b.warpDetector.slope);
    EXPECT_EQ(a.warpDetector.slopeValid, b.warpDetector.slopeValid);
    EXPECT_EQ(a.warpDetector.drift, b.warpDetector.drift);
    EXPECT_EQ(a.warpDetector.meanRecent, b.warpDetector.meanRecent);
    EXPECT_EQ(a.warpDetector.meanPrev, b.warpDetector.meanPrev);
    EXPECT_EQ(a.warpDetector.stable, b.warpDetector.stable);
    EXPECT_EQ(a.bbStableRate, b.bbStableRate);
    EXPECT_EQ(a.predictedCycles, b.predictedCycles);
    EXPECT_EQ(a.predictedInsts, b.predictedInsts);
    EXPECT_EQ(a.detailedCycles, b.detailedCycles);
    EXPECT_EQ(a.detailedInsts, b.detailedInsts);
    EXPECT_EQ(a.detailedWarps, b.detailedWarps);
    EXPECT_EQ(a.totalWarps, b.totalWarps);
    EXPECT_EQ(a.analysisInsts, b.analysisInsts);
    EXPECT_EQ(a.analysisReused, b.analysisReused);
    EXPECT_EQ(a.wallSeconds, b.wallSeconds);
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.backendDetailedCycles, b.backendDetailedCycles);
    EXPECT_EQ(a.backendIntervalCycles, b.backendIntervalCycles);
}

/** Byte sizes of the tail of a v6 telemetry record and of the
 *  artifact behind it: the backend fields ("interval" string with
 *  its u32 length, two u64 cycle counters) and the trailing v5+
 *  trace-section count. */
constexpr std::size_t kBackendTail = 4 + 8 + 8 + 8;
constexpr std::size_t kTraceCount = 4;

/** Little-endian integer append, the artifact store's encoding. */
void
appendLe(std::string &out, std::uint64_t v, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
}

/**
 * Rewrite the v6 serialization of a one-group, one-record artifact
 * whose record is sampleRecord() as a legacy v3, v4 or v5 file: v3..v5
 * records carry three epoch counters (here non-zero) right after
 * wall_seconds, v4/v5 append a hasDetailedStats flag after the backend
 * fields, and only v5 ends with the trace-section count.
 */
std::string
legacyArtifact(std::uint32_t version)
{
    service::Artifact art;
    art.group("tiny").telemetry.push_back(sampleRecord());
    std::string bytes = testing_support::v6Serialization(art);
    const std::size_t tail = kBackendTail + kTraceCount;
    std::string backend = bytes.substr(bytes.size() - tail, kBackendTail);
    bytes.resize(bytes.size() - tail);
    bytes[4] = static_cast<char>(version);
    appendLe(bytes, 321, 8);  // epochs
    appendLe(bytes, 2568, 8); // epoch cycles
    appendLe(bytes, 642, 8);  // barrier crossings
    if (version >= 4) {
        bytes += backend;
        appendLe(bytes, 1, 4); // hasDetailedStats
    }
    if (version >= 5)
        appendLe(bytes, 0, 4); // empty trace section
    return bytes;
}

} // namespace

TEST(Telemetry, LevelNamesRoundTrip)
{
    EXPECT_STREQ(sampleLevelName(SampleLevel::Full), "full");
    EXPECT_STREQ(sampleLevelName(SampleLevel::Kernel), "kernel");
    EXPECT_STREQ(sampleLevelName(SampleLevel::Warp), "warp");
    EXPECT_STREQ(sampleLevelName(SampleLevel::BasicBlock), "bb");
}

TEST(Telemetry, JsonRoundTripIsBitExact)
{
    std::vector<KernelTelemetry> records = {sampleRecord()};
    KernelTelemetry full;
    full.kernel = "relu";
    full.level = SampleLevel::Full;
    full.totalWarps = 16;
    full.detailedWarps = 16;
    // Control characters, quotes and backslashes in a job label are
    // written as escapes and must decode back to the same bytes.
    full.job = "sweep\t\"a\\b\"\nline2";
    records.push_back(full);

    // v5 switch pay-off fields: a switch released at its stop cycle, a
    // Full launch released at absolute cycle 0 (which must not read
    // back as "never"), and a record that never released (null).
    records[0].hooksReleasedCycle = records[0].switchCycle;
    full.noSwitchReason = "all_dispatched";
    full.hooksReleasedCycle = 0;
    records[1] = full;
    KernelTelemetry unreleased;
    unreleased.kernel = "pka_kernel";
    records.push_back(unreleased);

    std::ostringstream os;
    writeTelemetryJson(records, os);
    std::string doc = os.str();
    EXPECT_NE(doc.find("\"schema_version\": " +
                       std::to_string(kTelemetrySchemaVersion)),
              std::string::npos);
    EXPECT_NE(doc.find("\"wall_seconds\""), std::string::npos);
    EXPECT_EQ(doc.find("\"epochs\""), std::string::npos);
    EXPECT_NE(doc.find("\"no_switch_reason\": \"all_dispatched\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"hooks_released_cycle\": null"),
              std::string::npos);

    std::vector<KernelTelemetry> parsed;
    std::string err;
    ASSERT_TRUE(readTelemetryJson(doc, parsed, &err)) << err;
    ASSERT_EQ(parsed.size(), records.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        expectEqual(records[i], parsed[i]);
        EXPECT_EQ(records[i].noSwitchReason, parsed[i].noSwitchReason);
        EXPECT_EQ(records[i].hooksReleasedCycle,
                  parsed[i].hooksReleasedCycle);
    }
    EXPECT_EQ(parsed[0].hooksReleasedCycle, 31408u);
    EXPECT_EQ(parsed[1].hooksReleasedCycle, 0u);
    EXPECT_EQ(parsed[2].hooksReleasedCycle, kNoCycle);

    // Writers are deterministic: re-serializing the parsed records
    // reproduces the document byte for byte.
    std::ostringstream os2;
    writeTelemetryJson(parsed, os2);
    EXPECT_EQ(doc, os2.str());
}

TEST(Telemetry, EmptyDocumentRoundTrips)
{
    std::ostringstream os;
    writeTelemetryJson({}, os);
    std::vector<KernelTelemetry> parsed;
    ASSERT_TRUE(readTelemetryJson(os.str(), parsed));
    EXPECT_TRUE(parsed.empty());
}

TEST(Telemetry, ReaderRejectsSchemaMismatchAndJunk)
{
    std::vector<KernelTelemetry> out;
    std::string err;
    EXPECT_FALSE(readTelemetryJson(
        "{\"schema_version\": 999, \"kernels\": []}", out, &err));
    EXPECT_NE(err.find("schema version"), std::string::npos);

    EXPECT_FALSE(readTelemetryJson("{\"kernels\": []}", out, &err));
    EXPECT_FALSE(readTelemetryJson("not json", out, &err));
    EXPECT_FALSE(readTelemetryJson(
        "{\"schema_version\": 1, \"kernels\": [{\"level\": \"bogus\"}]}",
        out, &err));
}

TEST(Telemetry, ReaderSkipsUnknownKeysForForwardCompat)
{
    std::string doc =
        "{\"schema_version\": 1, \"future_field\": {\"x\": [1, 2]},\n"
        " \"kernels\": [{\"kernel\": \"k\", \"extra\": \"ignored\","
        " \"total_warps\": 8}]}";
    std::vector<KernelTelemetry> parsed;
    std::string err;
    ASSERT_TRUE(readTelemetryJson(doc, parsed, &err)) << err;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].kernel, "k");
    EXPECT_EQ(parsed[0].totalWarps, 8u);
}

/** Schema v1 documents (no wall_seconds, no backend fields) still
 *  load; the absent fields stay at their defaults. */
TEST(Telemetry, V1DocumentLoadsWithDefaults)
{
    std::string doc =
        "{\"schema_version\": 1, \"kernels\": [{\"kernel\": \"k\","
        " \"total_warps\": 8, \"predicted_cycles\": 100}]}";
    std::vector<KernelTelemetry> parsed;
    std::string err;
    ASSERT_TRUE(readTelemetryJson(doc, parsed, &err)) << err;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].predictedCycles, 100u);
    EXPECT_EQ(parsed[0].wallSeconds, 0.0);
    EXPECT_EQ(parsed[0].backend, "detailed");
}

/** Schema v3 documents carry the dropped epoch statistics, as numbers
 *  or as null; the reader discards them and keeps every other field. */
TEST(Telemetry, V3DocumentLoadsAndDropsEpochStats)
{
    std::string doc =
        "{\"schema_version\": 3, \"kernels\": [\n"
        "  {\"kernel\": \"k\", \"predicted_cycles\": 100,"
        " \"wall_seconds\": 0.5, \"epochs\": 321,"
        " \"epoch_cycles\": 2568, \"barrier_crossings\": 642,"
        " \"backend\": \"detailed\", \"backend_detailed_cycles\": 100,"
        " \"backend_interval_cycles\": 0},\n"
        "  {\"kernel\": \"i\", \"predicted_cycles\": 90,"
        " \"wall_seconds\": 0.25, \"epochs\": null,"
        " \"epoch_cycles\": null, \"barrier_crossings\": null,"
        " \"backend\": \"interval\", \"backend_detailed_cycles\": 0,"
        " \"backend_interval_cycles\": 90}]}";
    std::vector<KernelTelemetry> parsed;
    std::string err;
    ASSERT_TRUE(readTelemetryJson(doc, parsed, &err)) << err;
    ASSERT_EQ(parsed.size(), 2u);
    EXPECT_EQ(parsed[0].predictedCycles, 100u);
    EXPECT_EQ(parsed[0].wallSeconds, 0.5);
    EXPECT_EQ(parsed[0].backendDetailedCycles, 100u);
    EXPECT_EQ(parsed[1].kernel, "i");
    EXPECT_EQ(parsed[1].backend, "interval");
    EXPECT_EQ(parsed[1].backendIntervalCycles, 90u);

    // Re-serialized at the current schema, the epoch keys are gone.
    std::ostringstream os;
    writeTelemetryJson(parsed, os);
    EXPECT_EQ(os.str().find("epoch"), std::string::npos);
    EXPECT_EQ(os.str().find("barrier_crossings"), std::string::npos);
}

/** Schema v4 documents predate the switch pay-off fields; they load
 *  with no reason and no release cycle. */
TEST(Telemetry, V4DocumentLoadsWithoutSwitchPayoff)
{
    std::string doc =
        "{\"schema_version\": 4, \"kernels\": [\n"
        "  {\"kernel\": \"k\", \"level\": \"full\","
        " \"predicted_cycles\": 100, \"wall_seconds\": 0.5,"
        " \"backend\": \"detailed\", \"backend_detailed_cycles\": 100,"
        " \"backend_interval_cycles\": 0}]}";
    std::vector<KernelTelemetry> parsed;
    std::string err;
    ASSERT_TRUE(readTelemetryJson(doc, parsed, &err)) << err;
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].predictedCycles, 100u);
    EXPECT_EQ(parsed[0].noSwitchReason, "");
    EXPECT_EQ(parsed[0].hooksReleasedCycle, kNoCycle);
}

TEST(Telemetry, CsvCarriesSchemaVersionHeader)
{
    std::ostringstream os;
    writeTelemetryCsv({sampleRecord()}, os);
    std::string csv = os.str();
    EXPECT_EQ(csv.rfind("# telemetry_schema_version=" +
                            std::to_string(kTelemetrySchemaVersion),
                        0),
              0u);
    EXPECT_NE(csv.find("kernel,job,workgroups"), std::string::npos);
    EXPECT_NE(csv.find("mm_tiled,"), std::string::npos);
    EXPECT_NE(csv.find(",warp,"), std::string::npos);
}

TEST(Telemetry, DetailedFractionDefinition)
{
    KernelTelemetry t;
    EXPECT_EQ(t.detailedFraction(), 1.0); // no warps: conservatively full
    t.totalWarps = 200;
    t.detailedWarps = 50;
    EXPECT_NEAR(t.detailedFraction(), 0.25, 1e-12);
}

TEST(Telemetry, ArtifactStorePersistsTelemetry)
{
    service::Artifact art;
    service::StoreGroup &g = art.group("r9nano");
    g.telemetry.push_back(sampleRecord());
    ASSERT_EQ(art.numTelemetryRecords(), 1u);

    std::string bytes = service::serializeArtifact(art);
    service::Artifact back;
    service::LoadStatus st = service::deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;
    ASSERT_EQ(back.numTelemetryRecords(), 1u);
    expectEqual(g.telemetry[0], back.groups.at("r9nano").telemetry[0]);
}

TEST(Telemetry, ArtifactLoaderStillAcceptsV1)
{
    // A v1 artifact is the v6 layout minus the per-group telemetry
    // section and the trailing v5 trace section; synthesize one by
    // patching the version field of an empty-group artifact and
    // dropping the trailing trace count + telemetry count.
    service::Artifact art;
    art.group("tiny"); // one empty group
    std::string bytes = testing_support::v6Serialization(art);
    ASSERT_GE(bytes.size(), 8u + 8u);
    bytes[4] = 1;                              // version -> 1
    bytes.resize(bytes.size() - 8);            // drop trace+telemetry counts
    service::Artifact back;
    service::LoadStatus st = service::deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(back.groups.size(), 1u);
    EXPECT_EQ(back.numTelemetryRecords(), 0u);
}

TEST(Telemetry, ArtifactLoaderStillAcceptsV2)
{
    // v2 telemetry records end after the analysis_reused flag. Behind
    // it sit wall_seconds (8 bytes) and the backend fields, then the
    // trace-section count. Synthesize a v2 artifact by patching the
    // version and truncating all of that off the last record.
    service::Artifact art;
    art.group("tiny").telemetry.push_back(sampleRecord());
    std::string bytes = testing_support::v6Serialization(art);
    const std::size_t tail = 8 + kBackendTail + kTraceCount;
    ASSERT_GE(bytes.size(), 8u + tail);
    bytes[4] = 2;                              // version -> 2
    bytes.resize(bytes.size() - tail);
    service::Artifact back;
    service::LoadStatus st = service::deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;
    ASSERT_EQ(back.numTelemetryRecords(), 1u);
    const KernelTelemetry &t = back.groups.at("tiny").telemetry[0];
    EXPECT_EQ(t.kernel, "mm_tiled");
    EXPECT_EQ(t.predictedCycles, 112303u);
    EXPECT_EQ(t.wallSeconds, 0.0);   // v3 fields default to zero
    // v4 fields keep their declared defaults: a pre-backend record is
    // a detailed-core record.
    EXPECT_EQ(t.backend, "detailed");
    EXPECT_EQ(t.backendDetailedCycles, 0u);
    EXPECT_EQ(t.backendIntervalCycles, 0u);
}

TEST(Telemetry, ArtifactLoaderStillAcceptsV3)
{
    // A v3 record ends after its (non-zero) epoch counters, which the
    // loader reads and discards; the backend fields are v4+.
    service::Artifact back;
    service::LoadStatus st =
        service::deserializeArtifact(legacyArtifact(3), back);
    ASSERT_TRUE(st.ok) << st.error;
    ASSERT_EQ(back.numTelemetryRecords(), 1u);
    const KernelTelemetry &t = back.groups.at("tiny").telemetry[0];
    EXPECT_EQ(t.predictedCycles, 112303u);
    EXPECT_EQ(t.wallSeconds, 1.2345678901234567); // v3 fields kept
    EXPECT_EQ(t.backend, "detailed"); // v4 defaults: detailed record
}

TEST(Telemetry, ArtifactLoaderStillAcceptsV5)
{
    // A v5 record carries non-zero epoch counters between wall_seconds
    // and the backend fields, plus the hasDetailedStats flag after
    // them: both are read and discarded, everything else survives.
    service::Artifact back;
    service::LoadStatus st =
        service::deserializeArtifact(legacyArtifact(5), back);
    ASSERT_TRUE(st.ok) << st.error;
    ASSERT_EQ(back.numTelemetryRecords(), 1u);
    expectEqual(sampleRecord(), back.groups.at("tiny").telemetry[0]);
    EXPECT_TRUE(back.traces.empty());
}

TEST(Telemetry, ArtifactLoaderStillAcceptsV6)
{
    // A v6 file is one unframed body whose records end after the
    // backend fields: the v7 switch pay-off fields load at their
    // defaults.
    service::Artifact art;
    KernelTelemetry rec = sampleRecord();
    art.group("tiny").telemetry.push_back(rec);
    service::Artifact back;
    service::LoadStatus st = service::deserializeArtifact(
        testing_support::v6Serialization(art), back);
    ASSERT_TRUE(st.ok) << st.error;
    ASSERT_EQ(back.numTelemetryRecords(), 1u);
    const KernelTelemetry &t = back.groups.at("tiny").telemetry[0];
    expectEqual(rec, t);
    EXPECT_EQ(t.noSwitchReason, "");
    EXPECT_EQ(t.hooksReleasedCycle, kNoCycle);
}

TEST(Telemetry, ArtifactStorePersistsSwitchPayoffFields)
{
    // v7 persists no_switch_reason and hooks_released_cycle through a
    // save, an append and a load: a Full launch that released at cycle
    // 0 (which must not read back as "never"), a switched launch that
    // released at its stop, and one that never released (null).
    KernelTelemetry full = sampleRecord();
    full.level = SampleLevel::Full;
    full.noSwitchReason = "all_dispatched";
    full.hooksReleasedCycle = 0;
    KernelTelemetry released = sampleRecord();
    released.hooksReleasedCycle = released.switchCycle;
    KernelTelemetry unreleased = sampleRecord();
    unreleased.noSwitchReason = "never_stable";
    unreleased.level = SampleLevel::Full;

    const std::string path =
        testing::TempDir() + "photon_telemetry_v7_fields.bin";
    service::Artifact first;
    first.group("tiny").telemetry = {full, released};
    ASSERT_TRUE(service::saveArtifact(first, path).ok);
    service::Artifact second;
    second.group("tiny").telemetry = {unreleased};
    ASSERT_TRUE(service::appendArtifact(second, path).ok);

    service::Artifact back;
    service::LoadStatus st = service::loadArtifact(path, back);
    ASSERT_TRUE(st.ok) << st.error;
    const std::vector<KernelTelemetry> expect = {full, released,
                                                 unreleased};
    const auto &got = back.groups.at("tiny").telemetry;
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
        expectEqual(expect[i], got[i]);
        EXPECT_EQ(got[i].noSwitchReason, expect[i].noSwitchReason) << i;
        EXPECT_EQ(got[i].hooksReleasedCycle, expect[i].hooksReleasedCycle)
            << i;
    }
    EXPECT_EQ(got[0].hooksReleasedCycle, 0u);
    EXPECT_EQ(got[1].hooksReleasedCycle, 31408u);
    EXPECT_EQ(got[2].hooksReleasedCycle, kNoCycle);
    std::remove(path.c_str());
}

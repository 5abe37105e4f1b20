/**
 * @file
 * Test helper: the v6 artifact file of a small Artifact, for tests that
 * synthesize older versions by patching a v6 file. v6 is the v7 layout
 * without the batch framing (a u64 body length after the header and a
 * u64 checksum at the end) and without the two telemetry fields v7
 * appends to each record.
 */

#ifndef PHOTON_TESTS_LEGACY_ARTIFACT_HPP
#define PHOTON_TESTS_LEGACY_ARTIFACT_HPP

#include <cstddef>
#include <string>

#include <gtest/gtest.h>

#include "service/artifact_store.hpp"

namespace photon::testing_support {

/** A v7 record's trailing fields, at their defaults: an empty
 *  no_switch_reason (u32 length) and hooks_released_cycle (u64). */
inline constexpr std::size_t kV7TelemetryTail = 4 + 8;

/**
 * The v6 serialization of @p art, an artifact without traces whose
 * groups carry no telemetry, or one group carrying one record with the
 * v7 fields at their defaults (the shapes the legacy-layout tests use).
 */
inline std::string
v6Serialization(const service::Artifact &art)
{
    EXPECT_TRUE(art.traces.empty());
    EXPECT_LE(art.numTelemetryRecords(), 1u);
    const std::string v7 = service::serializeArtifact(art);
    // Header, then the one batch's body between its length and checksum.
    std::string bytes = v7.substr(0, 8) + v7.substr(16, v7.size() - 24);
    bytes[4] = 6;
    // The record ends the last group, right before the trace count.
    if (art.numTelemetryRecords() == 1)
        bytes.erase(bytes.size() - 4 - kV7TelemetryTail, kV7TelemetryTail);
    return bytes;
}

} // namespace photon::testing_support

#endif // PHOTON_TESTS_LEGACY_ARTIFACT_HPP

/**
 * @file
 * The per-kernel telemetry spine: one structured KernelTelemetry record
 * per launch, capturing the control plane's decision (level, switch
 * cycle, detector state at decision time) alongside the data plane's
 * measurements (detailed vs predicted cycles and instructions). Records
 * flow Platform -> campaign runner -> artifact store and serialize to a
 * schema-versioned JSON document (or CSV) via `photon_sim --telemetry`.
 *
 * The JSON format is intentionally flat and self-describing:
 *
 *   {"schema_version": 1, "kernels": [ {<one object per launch>} ]}
 *
 * Writers are deterministic (fixed key order, %.17g doubles) so records
 * round-trip bit-identically through readTelemetryJson and diff cleanly
 * across runs.
 */

#ifndef PHOTON_SAMPLING_TELEMETRY_HPP
#define PHOTON_SAMPLING_TELEMETRY_HPP

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "sampling/stability.hpp"
#include "sim/phase_annotations.hpp"
#include "sim/types.hpp"

namespace photon::sampling {

/** Which mechanism produced a kernel's predicted time (paper §4). */
enum class SampleLevel
{
    Full,       ///< complete detailed simulation (fallback)
    Kernel,     ///< skipped via kernel-sampling
    Warp,       ///< switched to warp-sampling
    BasicBlock, ///< switched to basic-block-sampling
};

/** Human-readable level name. */
const char *sampleLevelName(SampleLevel level);

/** Version of the emitted telemetry document layout; bumped whenever a
 *  field is added, removed or re-interpreted. Consumers (dashboards,
 *  bench trajectories) key on this to stay comparable across refactors.
 *  The reader accepts any version from 1 up to this: older documents
 *  load with newer fields at their defaults, and fields a later
 *  version dropped are read and discarded.
 *  v2: per-kernel wall_seconds + epoch-synchronization statistics
 *  (epochs, epoch_cycles, barrier_crossings).
 *  v3: per-launch timing-backend identity (backend) and per-backend
 *  cycle split (backend_detailed_cycles / backend_interval_cycles);
 *  the epoch statistics become nullable.
 *  v4: the epoch statistics are gone (the detailed core is serial).
 *  v5: why a Photon launch did not switch (no_switch_reason) and the
 *  cycle its controller released the issue hooks
 *  (hooks_released_cycle, null when it never did). */
inline constexpr std::uint32_t kTelemetrySchemaVersion = 5;

/** Everything Photon can report about one kernel launch. */
struct KernelTelemetry
{
    std::string kernel;    ///< program name
    std::string job;       ///< campaign job label ("" outside campaigns)
    std::uint32_t numWorkgroups = 0;
    std::uint32_t wavesPerWorkgroup = 0;

    // Decision.
    SampleLevel level = SampleLevel::Full;
    Cycle switchCycle = 0;    ///< absolute cycle of the switch; 0 if none
    std::uint32_t residentAtSwitch = 0; ///< wavefronts draining at stop
    /** Warp-level detector state frozen at decision time. */
    StabilitySnapshot warpDetector;
    /** Instruction-weighted share of stable blocks at decision time. */
    double bbStableRate = 0.0;

    // Measurements: predicted (the reported result) vs detailed (the
    // portion actually simulated cycle-level).
    Cycle predictedCycles = 0;
    std::uint64_t predictedInsts = 0;
    Cycle detailedCycles = 0;
    std::uint64_t detailedInsts = 0;
    std::uint32_t detailedWarps = 0;
    std::uint32_t totalWarps = 0;
    std::uint64_t analysisInsts = 0; ///< online-analysis instructions
    bool analysisReused = false;     ///< offline mode hit (Section 6.3)

    double wallSeconds = 0.0; ///< host wall time of the launch (v2)

    // Fidelity (schema v3): which timing backend produced this
    // launch's prediction and how the cycles split between the
    // detailed core and the analytical interval model.
    //   "detailed" — the cycle-level core ran the whole kernel
    //   "interval" — the analytical model ran the whole kernel
    std::string backend = "detailed";
    Cycle backendDetailedCycles = 0; ///< cycles from the detailed core
    Cycle backendIntervalCycles = 0; ///< cycles from the interval model

    // Switch pay-off (schema v5), deterministic like the decision.
    /** Why a Photon launch stayed at level Full: "all_dispatched",
     *  "never_stable" or "levels_disabled" (see
     *  SwitchDecision::noSwitchReason); "" for every other launch. */
    std::string noSwitchReason;
    /** Absolute cycle at which Photon's controller released its issue
     *  hooks (at the stop, or once every workgroup was dispatched);
     *  kNoCycle when no controller ran or it never released. */
    Cycle hooksReleasedCycle = kNoCycle;

    /** Share of warps that ran through the detailed model. */
    double
    detailedFraction() const
    {
        return totalWarps
                   ? static_cast<double>(detailedWarps) / totalWarps
                   : 1.0;
    }

    /** The level as the canonical short name ("full"/"kernel"/...). */
    const char *levelName() const { return sampleLevelName(level); }
};

/** Write records as the schema-versioned JSON document. Telemetry
 *  must diff cleanly across reruns, so anything nondeterministic
 *  reaching a writer is a bug (determinism sink). */
PHOTON_DET_SINK
void writeTelemetryJson(const std::vector<KernelTelemetry> &records,
                        std::ostream &os);

/** Write records as CSV (header row carries the schema version). */
PHOTON_DET_SINK
void writeTelemetryCsv(const std::vector<KernelTelemetry> &records,
                       std::ostream &os);

/**
 * Parse a document produced by writeTelemetryJson. Returns false (and
 * sets @p error) on malformed input or a schema-version mismatch; @p out
 * is left untouched on failure.
 */
bool readTelemetryJson(std::string_view text,
                       std::vector<KernelTelemetry> &out,
                       std::string *error = nullptr);

/** Write records to @p path, JSON or CSV by extension (".csv" -> CSV).
 *  Returns false + @p error on I/O failure. */
PHOTON_DET_SINK
bool saveTelemetry(const std::vector<KernelTelemetry> &records,
                   const std::string &path, std::string *error = nullptr);

} // namespace photon::sampling

#endif // PHOTON_SAMPLING_TELEMETRY_HPP

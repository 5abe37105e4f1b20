/**
 * @file
 * Functional trace capture/replay (DESIGN.md §15): the emulator runs a
 * launch once and records, per warp, exactly the dynamic side streams a
 * timing model cannot re-derive statically —
 *
 *  - one bit per *conditional* branch (taken / fall-through; s_branch
 *    is statically taken and costs nothing),
 *  - the 64-bit EXEC value after every mask op whose destination is
 *    EXEC (statically identifiable from the operand encoding),
 *  - the coalesced cache-line set of every memory instruction
 *    (delta-encoded varints; the contiguous/uniform shapes the fast
 *    emulator paths produce collapse to two or three bytes), and
 *  - a store log: a post-write snapshot of every line a flat store
 *    touched, so a replayed launch evolves global memory bit-for-bit
 *    like an emulated one without executing register semantics.
 *
 * Everything else in a StepResult is a pure function of the program
 * text and the replayed EXEC/PC evolution (opcode, unit, barrier/done
 * flags, active-lane popcount, LDS access count), so a WarpReplayCursor
 * reproduces Emulator::step's observable effects exactly — the
 * golden-parity tests pin replayed detailed runs bit-identical to
 * emulated ones. Traces are keyed on (program hash, launch geometry,
 * input fingerprint) and are micro-architecture independent: one
 * capture serves every backend and GPU config of a campaign sweep.
 *
 * Soundness rests on one invariant: functional semantics never depend
 * on the order in which a kernel's workgroups, or a workgroup's waves
 * between two barriers, execute. So waves are captured one at a time,
 * except in programs with LDS ops: there a workgroup's waves share one
 * LDS and run phase by phase (each wave steps to its next s_barrier or
 * s_endpgm in wave order, until all are done), and the workgroup's
 * store log snapshots its lines once the workgroup has finished, so
 * applying the log in warp order reproduces its final memory. Replay
 * never needs LDS values: registers are not replayed.
 */

#ifndef PHOTON_FUNC_WARP_TRACE_HPP
#define PHOTON_FUNC_WARP_TRACE_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "func/emulator.hpp"
#include "func/memory.hpp"
#include "func/wave_state.hpp"
#include "isa/program.hpp"
#include "sim/phase_annotations.hpp"
#include "sim/types.hpp"

namespace photon::func {

/** Serialized trace-blob format version (inside artifact store v5). */
inline constexpr std::uint32_t kTraceFormatVersion = 1;

/**
 * One launch's captured functional behaviour: per-warp slices into four
 * shared arenas. Immutable after capture; shared between consumers via
 * shared_ptr<const LaunchTrace>.
 */
struct LaunchTrace
{
    /** Per-warp offsets/extents into the arenas, indexed by warp id. */
    struct WarpSlice
    {
        std::uint64_t branchBase = 0; ///< absolute bit index
        std::uint64_t execBase = 0;   ///< absolute word index
        std::uint64_t memBase = 0;    ///< absolute byte offset
        std::uint64_t storeBase = 0;  ///< absolute byte offset
        std::uint64_t instCount = 0;  ///< instructions the warp executes
        std::uint32_t branchBits = 0;
        std::uint32_t execCount = 0;
        std::uint32_t memLen = 0;
        std::uint32_t storeLen = 0;
    };

    // Identity (the key fields, kept for diagnostics and validation).
    std::string programName;
    std::uint64_t programHash = 0;
    std::uint32_t numWorkgroups = 0;
    std::uint32_t wavesPerWorkgroup = 0;
    std::uint64_t kernargBase = 0;
    /** GlobalMemory::contentHash() at capture time (pre-launch). */
    std::uint64_t memFingerprint = 0;

    std::uint64_t totalInsts = 0;
    std::vector<WarpSlice> warps;

    /** Taken bits of conditional branches, packed LSB-first. */
    std::vector<std::uint64_t> branchWords;
    /** EXEC value after each mask op writing EXEC. */
    std::vector<std::uint64_t> execWords;
    /** Varint-delta-encoded line sets, one record per memory op. */
    std::vector<std::uint8_t> memBytes;
    /** Store log: (line delta varint, kLineBytes raw bytes) entries. */
    std::vector<std::uint8_t> storeBytes;

    /** Approximate in-memory footprint in bytes. */
    std::uint64_t byteSize() const;
};

using LaunchTracePtr = std::shared_ptr<const LaunchTrace>;

/** Cache key for one launch: program identity (content hash), launch
 *  geometry and the pre-launch memory fingerprint
 *  (GlobalMemory::contentHash()), tagged with its scheme version so
 *  keys made under an older fingerprint never match. Micro-architecture
 *  independent by construction. */
std::string traceKey(const isa::Program &program, const LaunchDims &dims,
                     std::uint64_t mem_fingerprint);

/**
 * The capture engine: runs workgroups functionally to completion and
 * appends their warps' side streams to a LaunchTrace's arenas, for
 * captureLaunchTrace and for the detailed core's dispatch-time capture
 * (timing/cu.hpp). It owns the emulation scratch (register files, LDS,
 * step result), so back-to-back captures reuse cache-warm state.
 */
class WarpCapturer
{
  public:
    /**
     * Emulate workgroup @p wg to completion against @p mem (its stores
     * land) and record wave i as slice @p first + i of @p trace, after
     * slice @p first - 1. With @p log_stores the slices also carry the
     * store log that replay re-applies; a dispatch capture skips it,
     * because its own emulation already wrote the stores.
     */
    void captureWorkgroup(const isa::Program &program,
                          const LaunchDims &dims, GlobalMemory &mem,
                          WorkgroupId wg, LaunchTrace &trace,
                          std::size_t first, bool log_stores);

    /** Capture workgroup @p wg alone into @p buf, reusing its arena
     *  capacity: @p buf becomes a trace of the workgroup's waves (slice
     *  i = wave i) with no store log. */
    void captureAlone(const isa::Program &program, const LaunchDims &dims,
                      GlobalMemory &mem, WorkgroupId wg, LaunchTrace &buf);

  private:
    /** One wave of a workgroup captured phase by phase: its own
     *  one-slice trace, appended to the target once the workgroup is
     *  done, and the lines its stores touched. */
    struct PhaseWave
    {
        WaveState ws;
        LaunchTrace buf;
        std::vector<Addr> storeLines;
    };

    void capturePhases(const isa::Program &program,
                       const LaunchDims &dims, GlobalMemory &mem,
                       WorkgroupId wg, LaunchTrace &trace,
                       std::size_t first, bool log_stores);

    Emulator emu_;
    WaveState ws_;
    std::vector<PhaseWave> waves_;
    std::vector<std::uint8_t> lds_;
    StepResult res_;
};

/**
 * Capture a launch's trace by running every workgroup functionally to
 * completion, in workgroup order. Stores are applied to @p mem exactly
 * as a cold functional pass would — after a capture the memory state
 * equals a fully emulated launch's. @p mem_fingerprint is
 * @p mem.contentHash() before the launch, which the caller has already
 * computed for the key.
 */
LaunchTracePtr captureLaunchTrace(const isa::Program &program,
                                  const LaunchDims &dims,
                                  GlobalMemory &mem,
                                  std::uint64_t mem_fingerprint);

/** As above, for a caller that has no key: fingerprints @p mem itself. */
inline LaunchTracePtr
captureLaunchTrace(const isa::Program &program, const LaunchDims &dims,
                   GlobalMemory &mem)
{
    return captureLaunchTrace(program, dims, mem, mem.contentHash());
}

/** Re-apply one warp's store log to @p mem (replay of its writes). */
void applyWarpStores(const LaunchTrace &trace, WarpId warp,
                     GlobalMemory &mem);

/** Re-apply every warp's store log in warp order: after this, @p mem
 *  matches the post-launch memory of a captured (= emulated) run. */
void applyAllStores(const LaunchTrace &trace, GlobalMemory &mem);

/**
 * Replays one warp's instruction stream from a LaunchTrace: advances
 * pc/exec/done in the WaveState and fills StepResult bit-identically
 * to Emulator::step, without touching registers, LDS or memory.
 */
class WarpReplayCursor
{
  public:
    WarpReplayCursor() = default;

    /** Point the cursor at @p warp's slice of @p trace (restartable).
     *  The arenas' data pointers are cached here, so a step reads only
     *  the cursor and its stream bytes, never the trace object; the
     *  trace must not change while the cursor is in use. */
    void
    bind(const LaunchTrace *trace, WarpId warp)
    {
        const LaunchTrace::WarpSlice &s = trace->warps[warp];
        branchWords_ = trace->branchWords.data();
        execWords_ = trace->execWords.data();
        memBytes_ = trace->memBytes.data();
        memSize_ = trace->memBytes.size();
        branchBit_ = s.branchBase;
        execIdx_ = s.execBase;
        memPos_ = s.memBase;
        prevLine_ = 0;
    }

    /** Mirror of Emulator::step's observable effects (see file
     *  comment). @p ws must be at the same (pc, exec, done) state the
     *  emulator would be at this point of the warp's execution. */
    void step(const isa::Program &program, WaveState &ws,
              StepResult &out);

  private:
    const std::uint64_t *branchWords_ = nullptr;
    const std::uint64_t *execWords_ = nullptr;
    const std::uint8_t *memBytes_ = nullptr;
    std::uint64_t memSize_ = 0;
    std::uint64_t branchBit_ = 0;
    std::uint64_t execIdx_ = 0;
    std::uint64_t memPos_ = 0;
    Addr prevLine_ = 0;
};

/** Serialize @p trace into the versioned binary blob embedded in
 *  artifact store v5 (little-endian, magic "PHTR"). */
PHOTON_DET_SINK
void serializeLaunchTrace(const LaunchTrace &trace,
                          std::vector<std::uint8_t> &out);

/** Parse a trace blob; returns false (and sets @p err when non-null)
 *  on malformed, truncated or version-incompatible input. */
bool deserializeLaunchTrace(const std::uint8_t *data, std::size_t len,
                            LaunchTrace &out, std::string *err = nullptr);

/** Lookup/insert statistics of one TraceStore. */
struct TraceStoreCounters
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
};

/**
 * Shared, internally synchronized trace cache: campaign workers and
 * photond workers of one process share a single instance, so a launch
 * captured by any job is replayed by every later job with the same
 * key. Inserts are first-wins — a trace is a pure function of its key,
 * so concurrent capturers race benignly toward identical content and
 * results stay independent of worker scheduling.
 */
class TraceStore
{
  public:
    /** Find @p key; counts a hit or miss. */
    PHOTON_PHASE_EXEMPT
    LaunchTracePtr
    lookup(const std::string &key)
    {
        std::lock_guard<std::mutex> lock(mu_);
        auto it = traces_.find(key);
        if (it == traces_.end()) {
            ++counters_.misses;
            return nullptr;
        }
        ++counters_.hits;
        return it->second;
    }

    /** First-wins insert; returns whether @p trace was stored. */
    PHOTON_PHASE_EXEMPT
    bool
    insert(const std::string &key, LaunchTracePtr trace)
    {
        std::lock_guard<std::mutex> lock(mu_);
        bool inserted = traces_.emplace(key, std::move(trace)).second;
        if (inserted)
            ++counters_.inserts;
        return inserted;
    }

    /** Snapshot of every entry (cheap: shared_ptr copies). Feeds the
     *  artifact-store serialization, so it is a determinism sink. */
    PHOTON_PHASE_EXEMPT
    PHOTON_DET_SINK
    std::map<std::string, LaunchTracePtr>
    exportAll() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return traces_;
    }

    /** First-wins merge of a prior snapshot (warm seeding). */
    PHOTON_PHASE_EXEMPT
    void
    import(const std::map<std::string, LaunchTracePtr> &traces)
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &kv : traces)
            traces_.emplace(kv.first, kv.second);
    }

    PHOTON_PHASE_EXEMPT
    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return traces_.size();
    }

    PHOTON_PHASE_EXEMPT
    TraceStoreCounters
    counters() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return counters_;
    }

  private:
    mutable std::mutex mu_;
    /** Ordered so exports iterate deterministically. */
    std::map<std::string, LaunchTracePtr> traces_ PHOTON_GUARDED_BY(mu_);
    TraceStoreCounters counters_ PHOTON_GUARDED_BY(mu_);
};

} // namespace photon::func

#endif // PHOTON_FUNC_WARP_TRACE_HPP

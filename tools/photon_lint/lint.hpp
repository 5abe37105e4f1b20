/**
 * @file
 * Public API of photon_lint, the in-tree concurrency and determinism
 * static-analysis pass (DESIGN.md §9).
 *
 * Four checks run over the given sources:
 *
 *  1. Determinism: flags wall-clock / libc randomness in simulation
 *     code (rand, srand, drand48, time, clock, gettimeofday,
 *     std::random_device), range-for iteration over unordered
 *     containers (result-affecting order), pointer-keyed ordered
 *     containers, and uninitialized scalar members that no constructor
 *     initializes. Waivers: `// photon-lint: nondeterminism-ok`,
 *     `order-insensitive`, `pointer-key-ok`, `uninit-ok`.
 *
 *  2. Data layout: in files that opt into the structure-of-arrays
 *     contract with a `// photon-lint: soa-hot-path` marker comment,
 *     flags any field that stores an aggregate class (two or more
 *     data members anywhere in the analyzed program) element-wise in
 *     a sequence container (`std::vector<Wave> waves_;`-style
 *     array-of-structures, DESIGN.md §13). Waive a reviewed cold-path
 *     aggregate with `// photon-lint: aos-ok` on the declaration line.
 *
 *  3. Lock-set (flow-sensitive, per-function CFG + must-hold
 *     dataflow): every write to a PHOTON_GUARDED_BY(m) field must
 *     hold `m` on every control-flow path; every write to a plain
 *     PHOTON_SHARED_STATE field must hold some tracked lock — unless
 *     the writer is itself tagged shared/exempt. Calls to
 *     PHOTON_REQUIRES_LOCK(m) functions must hold `m`. Waiver:
 *     `// photon-lint: lockset-ok`.
 *
 *  4. Determinism taint (flow-sensitive, may-taint dataflow with
 *     cross-function return summaries): values born from rand/time/
 *     std::random_device, std::this_thread::get_id, pointer→integer
 *     reinterpret_casts, or unordered-container iteration propagate
 *     through assignments, returns, and call arguments; reaching a
 *     PHOTON_DET_SINK function argument or field write reports the
 *     full source-to-sink chain. Waivers: `// photon-lint: taint-ok`
 *     at the sink, PHOTON_DET_SOURCE_OK on a reviewed function.
 */

#ifndef PHOTON_LINT_LINT_HPP
#define PHOTON_LINT_LINT_HPP

#include <string>
#include <vector>

namespace photon::lint {

enum class Kind
{
    NondeterministicCall,///< rand/time/random_device in simulation code
    UnorderedIteration,  ///< range-for over unordered_map/unordered_set
    PointerKeyedOrder,   ///< std::map/set keyed by pointer value
    UninitializedMember, ///< scalar member no constructor initializes
    AosInHotPath,        ///< aggregate vector in a soa-hot-path file
    UnguardedSharedWrite,///< guarded/shared field written lock-free
    RequiresLockCall,    ///< REQUIRES_LOCK callee entered lock-free
    TaintedSink,         ///< nondeterministic value reaches a sink
};

const char *kindName(Kind kind);

struct Diagnostic
{
    Kind kind = Kind::NondeterministicCall;
    std::string file;
    int line = 0;
    std::string message;
    /** Root-first trace to the finding: the CFG path of a lock-set
     *  finding or the source-to-sink chain of a taint finding. */
    std::vector<std::string> chain;
};

struct Options
{
    bool determinismCheck = true;
    bool aosCheck = true;
    bool locksetCheck = true; ///< flow-sensitive lock-set analysis
    bool taintCheck = true;   ///< flow-sensitive determinism taint
};

/** Analyze the given source files as one program. Results are sorted
 *  by (file, line, message) and deduplicated. */
std::vector<Diagnostic> analyzeFiles(const std::vector<std::string> &files,
                                     const Options &options = {});

/** Render one diagnostic as "file:line: [kind] message" plus an
 *  indented call-chain trace when present. */
std::string formatDiagnostic(const Diagnostic &diag);

/** Render all diagnostics as a JSON array of
 *  {"file","line","kind","message","chain"} objects (machine-readable
 *  `--json` output, consumed by CI). */
std::string formatDiagnosticsJson(const std::vector<Diagnostic> &diags);

} // namespace photon::lint

#endif // PHOTON_LINT_LINT_HPP

/**
 * @file
 * Concurrency- and determinism-contract annotations for state that
 * job-level workers really share (campaign workers, photond workers;
 * see DESIGN.md §9). The simulator core itself is single-threaded per
 * Platform and carries none of these.
 *
 * The macros expand to nothing for the compiler; they are contract
 * *markers* consumed by `tools/photon_lint`:
 *
 *  - PHOTON_SHARED_STATE  — a field backing state shared across worker
 *    threads. The lock-set pass requires some tracked lock to be held
 *    on every path to a write, unless the writer is itself tagged
 *    shared or exempt.
 *  - PHOTON_PHASE_EXEMPT  — internally synchronized (owns a mutex);
 *    callable from any thread. The linter treats it as opaque-safe.
 *  - PHOTON_GUARDED_BY(m)     — field annotation: writes require mutex
 *    member `m` to be held (must-hold over all CFG paths).
 *  - PHOTON_REQUIRES_LOCK(m)  — function annotation for the
 *    locked-helper idiom (`...Locked()` methods): the body is analyzed
 *    as if `m` were already held, and every call site is checked to
 *    actually hold `m`.
 *  - PHOTON_DET_SINK          — function or field annotation: a
 *    determinism sink (telemetry/report JSON writers, artifact-store
 *    serialization, stat accumulators). The taint pass reports any
 *    value derived from a nondeterministic source (rand/time/
 *    random_device, this_thread::get_id, pointer->integer casts,
 *    unordered-container iteration) that reaches a sink argument or a
 *    sink field, with the full source-to-sink taint chain.
 *  - PHOTON_DET_SOURCE_OK     — function annotation: nondeterministic
 *    sources inside are reviewed-acceptable (e.g. wall-clock probes
 *    whose results never feed simulated state); the taint pass
 *    neither seeds taint inside the body nor treats its return value
 *    as tainted.
 */

#ifndef PHOTON_SIM_PHASE_ANNOTATIONS_HPP
#define PHOTON_SIM_PHASE_ANNOTATIONS_HPP

#define PHOTON_SHARED_STATE
#define PHOTON_PHASE_EXEMPT
#define PHOTON_GUARDED_BY(mutex)
#define PHOTON_REQUIRES_LOCK(mutex)
#define PHOTON_DET_SINK
#define PHOTON_DET_SOURCE_OK

#endif // PHOTON_SIM_PHASE_ANNOTATIONS_HPP

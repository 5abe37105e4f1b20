#include "timing/interval_backend.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "func/warp_trace.hpp"
#include "func/wave_state.hpp"
#include "sampling/interval_model.hpp"
#include "timing/cache.hpp"
#include "timing/scheduler_model.hpp"

// The sanctioned seam crossing: timing headers stay sampling-free (the
// CI hygiene grep pins that), but this translation unit reuses the
// sampling layer's interval-model latency table behind the pimpl.

namespace photon::timing {

struct IntervalBackend::Impl
{
    explicit Impl(const GpuConfig &cfg)
        : cfg(cfg),
          opLat(opcodeLatencies(cfg)),
          l1(cfg.numCus, SetAssocCache(cfg.l1v)),
          l2(cfg.l2Banks, SetAssocCache(cfg.l2))
    {}

    /**
     * Per-opcode latencies: the interval-model table's config-derived
     * defaults (paper Figure 9), refined with static opcode identity
     * (the detailed core retires vector stores at issue-occupancy cost
     * and scalar loads out of a hot L1K, while the shared default
     * prices both as L2 walks). Looked up once per traced instruction,
     * so they are flattened into one array up front.
     */
    static std::array<double, isa::kNumOpcodes>
    opcodeLatencies(const GpuConfig &cfg)
    {
        const sampling::InstLatencyTable table(cfg);
        std::array<double, isa::kNumOpcodes> lat{};
        for (unsigned i = 0; i < isa::kNumOpcodes; ++i) {
            auto op = static_cast<isa::Opcode>(i);
            switch (op) {
              case isa::Opcode::FLAT_STORE_DWORD:
                lat[i] = static_cast<double>(cfg.vectorIssueCycles);
                break;
              case isa::Opcode::S_LOAD_DWORD:
                lat[i] = static_cast<double>(cfg.l1k.hitLatency);
                break;
              default:
                lat[i] = table.latency(op);
                break;
            }
        }
        return lat;
    }

    /** L2 probe through the detailed model's bank interleave (the
     *  bank count is a power of two). */
    bool
    l2Access(Addr line)
    {
        return l2[line & (l2.size() - 1)].probe(line);
    }

    /**
     * Price one executed instruction and charge its memory traffic to
     * the cache proxies. Mirrors the detailed core's latency shape:
     * a wavefront's next issue waits for the previous instruction's
     * completion, vector stores retire at issue cost, vector loads
     * wait for their slowest line.
     */
    double
    priceStep(const func::StepResult &step, std::uint32_t cu)
    {
        using isa::FuncUnit;
        if (step.unit == FuncUnit::VMEM) {
            double lat = static_cast<double>(cfg.vectorIssueCycles);
            for (std::uint32_t i = 0; i < step.numLines; ++i) {
                Addr line = step.lines[i];
                double line_lat;
                if (l1[cu].probe(line)) {
                    ++l1Hits;
                    line_lat = static_cast<double>(cfg.l1v.hitLatency);
                } else if (++l1Misses, l2Access(line)) {
                    ++l2Hits;
                    line_lat = static_cast<double>(cfg.l1v.hitLatency +
                                                   cfg.l2.hitLatency);
                } else {
                    ++l2Misses;
                    ++dramLines;
                    // The duration view prices a DRAM line at L2-fill
                    // cost: co-resident warps overlap DRAM fills on
                    // the machine, so charging the full access latency
                    // to whichever warp the trace happens to order
                    // first would serialize cold misses the machine
                    // overlaps. The full DRAM cost surfaces through
                    // the launch-level bandwidth and MSHR bounds.
                    line_lat = static_cast<double>(
                        cfg.l1v.hitLatency + cfg.l2.hitLatency);
                }
                if (!step.linesWrite)
                    lat = std::max(lat, line_lat);
            }
            issueCycles += cfg.vectorIssueCycles;
            return lat;
        }
        issueCycles += step.unit == FuncUnit::SALU ||
                               step.unit == FuncUnit::BRANCH ||
                               step.unit == FuncUnit::SMEM
                           ? cfg.scalarIssueCycles
                           : cfg.vectorIssueCycles;
        double lat = opLat[static_cast<std::size_t>(step.op)];
        if (step.unit == FuncUnit::LDS)
            lat += static_cast<double>(step.ldsAccesses / 16);
        return lat;
    }

    /**
     * Trace a whole launch, interleaving the warps that would be
     * co-resident on each CU. The detailed core round-robins issue
     * across a CU's resident wavefronts, so its caches see their
     * access streams interleaved — lockstep warps share lines, and
     * many-warp CUs thrash. Tracing warps to completion one at a time
     * would give the proxies temporal locality the machine never has,
     * so the tracer steps each resident warp one instruction per round
     * instead.
     *
     * Warps step through @p trace's replay cursors; its stores are
     * already in memory.
     *
     * @return per-warp predicted durations, indexed by warp id;
     *         @p insts accumulates instructions executed.
     */
    std::vector<Cycle>
    traceLaunch(const isa::Program &program,
                const func::LaunchDims &dims, std::uint64_t &insts,
                const func::LaunchTrace &trace)
    {
        std::uint32_t wpw = std::max<std::uint32_t>(
            1, dims.wavesPerWorkgroup);
        std::uint32_t slotsPerCu = std::max<std::uint32_t>(
            1,
            SchedulerModel::effectiveSlots(cfg, wpw,
                                           program.ldsBytes()) /
                cfg.numCus);
        std::uint64_t total = dims.totalWaves();
        std::vector<Cycle> dur(total, 1);
        // Home CU per warp: the dispatcher hands workgroups to CUs
        // round-robin.
        std::vector<std::vector<WarpId>> queue(cfg.numCus);
        for (WarpId w = 0; w < total; ++w)
            queue[(w / wpw) % cfg.numCus].push_back(w);

        struct Active
        {
            func::WaveState ws;
            func::WarpReplayCursor cursor;
            WarpId warp = 0;
            double d = 0.0;
            std::uint64_t n = 0;
        };
        struct CuSet
        {
            std::vector<std::unique_ptr<Active>> run;
            std::size_t next = 0;
        };
        // Instructions each warp executes per turn. Fine enough that
        // co-resident warps stay approximately in lockstep (shared
        // lines are still resident when the sharing group catches up),
        // coarse enough that the tracer is not dominated by switching
        // between wave states.
        constexpr std::uint32_t kChunk = 16;
        // Pricing sample: one CU in four carries the cache proxies.
        constexpr std::uint32_t kCuSampleStride = 4;

        func::StepResult res;

        // CU-level pricing sample. Warps repeat across CUs (the
        // paper's sampling premise), so only every strideth CU is
        // priced through the cache proxies; the others' durations
        // extrapolated from the matching warp slot of their sample
        // CU, scaled by instruction count. The aggregate counters
        // feeding the launch-level bounds are rescaled below so they
        // stay machine-equivalent.
        std::uint32_t stride = cfg.numCus <= 4 ? 1 : kCuSampleStride;
        std::uint64_t l1h0 = l1Hits, l1m0 = l1Misses;
        std::uint64_t l2h0 = l2Hits, l2m0 = l2Misses;
        std::uint64_t dram0 = dramLines, issue0 = issueCycles;
        std::uint64_t pricedInsts = 0;
        // Per-warp instruction counts back the extrapolation ratios.
        std::vector<std::uint64_t> nInsts(total, 0);

        // Priced CUs trace sequentially (the live set stays one CU's
        // resident waves — small and cache-friendly); within a CU the
        // resident waves round-robin. The stepping order rotates each
        // round: with a fixed order the same warp would probe every
        // shared line first and eat every miss for its whole sharing
        // group, while on the machine the first toucher varies with
        // timing and the cost spreads.
        CuSet cs;
        for (std::uint32_t cu = 0; cu < cfg.numCus; ++cu) {
            if (cu % stride != 0) {
                // Unpriced CU: extrapolate each warp's duration from
                // the same queue position on its sample CU (processed
                // earlier), scaled by the instruction counts the trace
                // records.
                std::uint32_t ref_cu = cu - cu % stride;
                const auto &ref_q = queue[ref_cu];
                for (std::size_t p = 0; p < queue[cu].size(); ++p) {
                    WarpId w = queue[cu][p];
                    std::uint64_t n = trace.warps[w].instCount;
                    nInsts[w] = n;
                    insts += n;
                    WarpId ref = ref_q.empty()
                                     ? w
                                     : ref_q[std::min(p, ref_q.size() - 1)];
                    double scale =
                        nInsts[ref]
                            ? static_cast<double>(n) /
                                  static_cast<double>(nInsts[ref])
                            : 1.0;
                    dur[w] = std::max<Cycle>(
                        1, static_cast<Cycle>(std::llround(
                               static_cast<double>(dur[ref]) * scale)));
                }
                continue;
            }
            cs.run.clear();
            cs.next = 0;
            auto activate = [&] {
                while (cs.run.size() < slotsPerCu &&
                       cs.next < queue[cu].size()) {
                    auto a = std::make_unique<Active>();
                    a->warp = queue[cu][cs.next++];
                    a->ws.initControl(dims, a->warp);
                    a->cursor.bind(&trace, a->warp);
                    cs.run.push_back(std::move(a));
                }
            };
            activate();
            std::uint64_t round = 0;
            while (!cs.run.empty()) {
                std::size_t width = cs.run.size();
                for (std::size_t i = 0; i < width; ++i) {
                    Active &a = *cs.run[(i + round) % width];
                    for (std::uint32_t k = 0;
                         k < kChunk && !a.ws.done; ++k) {
                        a.cursor.step(program, a.ws, res);
                        ++a.n;
                        a.d += priceStep(res, cu);
                    }
                    if (a.ws.done) {
                        dur[a.warp] = std::max<Cycle>(
                            1,
                            static_cast<Cycle>(std::llround(a.d)));
                        nInsts[a.warp] = a.n;
                        insts += a.n;
                        pricedInsts += a.n;
                    }
                }
                std::erase_if(cs.run,
                              [](const std::unique_ptr<Active> &a) {
                                  return a->ws.done;
                              });
                activate();
                ++round;
            }
        }

        // Rescale the sampled aggregate counters to machine
        // equivalents (deterministic: pure function of the trace).
        if (stride > 1 && pricedInsts) {
            double scale = static_cast<double>(insts0Total(nInsts)) /
                           static_cast<double>(pricedInsts);
            auto grow = [scale](std::uint64_t &c, std::uint64_t before) {
                c = before + static_cast<std::uint64_t>(std::llround(
                                 static_cast<double>(c - before) * scale));
            };
            grow(l1Hits, l1h0);
            grow(l1Misses, l1m0);
            grow(l2Hits, l2h0);
            grow(l2Misses, l2m0);
            grow(dramLines, dram0);
            grow(issueCycles, issue0);
        }
        return dur;
    }

    /** Total instructions across a launch's warps. */
    static std::uint64_t
    insts0Total(const std::vector<std::uint64_t> &n)
    {
        std::uint64_t t = 0;
        for (std::uint64_t v : n)
            t += v;
        return t;
    }

    GpuConfig cfg;
    /** Per-opcode latency (see opcodeLatencies). */
    std::array<double, isa::kNumOpcodes> opLat;
    /** Hit/miss classifiers in the detailed model's geometry; only
     *  their tag state is used (no ports, no timing). Deterministic:
     *  state evolves in trace order. */
    std::vector<SetAssocCache> l1; ///< one per CU L1V
    std::vector<SetAssocCache> l2; ///< one per L2 bank
    std::uint64_t kernels = 0;
    std::uint64_t warps = 0;
    std::uint64_t insts = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    /** Lines serviced by DRAM (per-launch deltas drive the bandwidth
     *  bound). */
    std::uint64_t dramLines = 0;
    /** Issue-port occupancy accumulated over all priced instructions
     *  (per-launch deltas drive the issue-throughput bound). */
    std::uint64_t issueCycles = 0;
};

IntervalBackend::IntervalBackend(Gpu &gpu)
    : gpu_(gpu), impl_(std::make_unique<Impl>(gpu.config()))
{}

IntervalBackend::~IntervalBackend() = default;

// Sole writer of the impl_ store (one backend per job, see the header
// field comment), so it needs no lock.
RunOutcome
IntervalBackend::runKernel(const isa::Program &program,
                           const func::LaunchDims &dims,
                           func::GlobalMemory &mem, KernelMonitor *monitor,
                           const RunOptions &opts)
{
    (void)monitor; // no monitorHooks capability
    // Of opts, only replay matters here; the cycle-level knobs have
    // nothing to steer. Handed no trace, the backend captures the
    // launch itself, which lands its stores as emulation would.
    func::LaunchTracePtr captured;
    const func::LaunchTrace *trace = opts.replay;
    if (!trace) {
        captured = func::captureLaunchTrace(program, dims, mem);
        trace = captured.get();
    }

    const GpuConfig &cfg = impl_->cfg;

    RunOutcome out;
    out.startCycle = gpu_.now();

    std::uint32_t slots = SchedulerModel::effectiveSlots(
        cfg, dims.wavesPerWorkgroup, program.ldsBytes());
    SchedulerModel sched(slots, out.startCycle);

    std::uint64_t dram0 = impl_->dramLines;
    std::uint64_t issue0 = impl_->issueCycles;
    std::uint64_t l2h0 = impl_->l2Hits;
    std::vector<Cycle> durations =
        impl_->traceLaunch(program, dims, out.instsIssued, *trace);
    for (Cycle d : durations)
        sched.scheduleWarp(d);

    // Latency view (slot-occupancy makespan of per-warp durations)
    // bounded below by the machine's throughput limits: DRAM line
    // bandwidth, SIMD issue ports and per-CU MSHR miss service.
    // Whichever is largest decides.
    Cycle end = std::max(out.startCycle, sched.endCycle());
    std::uint64_t lines = impl_->dramLines - dram0;
    Cycle bw = static_cast<Cycle>((lines * cfg.dram.cyclesPerLine +
                                   cfg.dram.numBanks - 1) /
                                  cfg.dram.numBanks);
    std::uint64_t ports = std::uint64_t{cfg.numCus} * kSimdsPerCu;
    Cycle issue = static_cast<Cycle>(
        (impl_->issueCycles - issue0 + ports - 1) / ports);
    // Little's law on the per-CU MSHR file: every missed line occupies
    // an MSHR for its fill latency, so a launch's aggregate fill time
    // divided by total MSHR capacity bounds the makespan.
    Cycle l2Fill = cfg.l1v.hitLatency + cfg.l2.hitLatency;
    Cycle dramFill = l2Fill + cfg.dram.accessLatency;
    std::uint64_t fill = (impl_->l2Hits - l2h0) * l2Fill +
                         lines * dramFill;
    Cycle mshr = static_cast<Cycle>(
        fill / (std::uint64_t{cfg.mshrsPerCu} * cfg.numCus));
    end = std::max(end, out.startCycle +
                            std::max({bw, issue, mshr}));

    out.endCycle = end;
    out.wavesCompleted = dims.totalWaves();
    out.firstUndispatchedWg = dims.numWorkgroups;
    // Occupancy integrals stay 0: this backend does not measure them
    // (caps() says so).

    gpu_.skipTime(out.endCycle - out.startCycle);

    ++impl_->kernels;
    impl_->warps += dims.totalWaves();
    impl_->insts += out.instsIssued;
    return out;
}

void
IntervalBackend::skipTime(Cycle cycles)
{
    gpu_.skipTime(cycles);
}

Cycle
IntervalBackend::now() const
{
    return gpu_.now();
}

const GpuConfig &
IntervalBackend::config() const
{
    return gpu_.config();
}

void
IntervalBackend::exportStats(StatRegistry &stats) const
{
    stats.set("interval.kernels", static_cast<double>(impl_->kernels));
    stats.set("interval.warps", static_cast<double>(impl_->warps));
    stats.set("interval.insts", static_cast<double>(impl_->insts));
    stats.set("interval.l1_hits", static_cast<double>(impl_->l1Hits));
    stats.set("interval.l1_misses",
              static_cast<double>(impl_->l1Misses));
    stats.set("interval.l2_hits", static_cast<double>(impl_->l2Hits));
    stats.set("interval.l2_misses",
              static_cast<double>(impl_->l2Misses));
    stats.set("interval.dram_lines",
              static_cast<double>(impl_->dramLines));
}

} // namespace photon::timing

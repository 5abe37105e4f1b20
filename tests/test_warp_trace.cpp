/** @file Tests for functional trace capture/replay (DESIGN.md §15):
 *  step-by-step replay fidelity against the emulator, blob and
 *  artifact-store-v5 round trips, corrupt-input rejection, replayed
 *  platform runs bit-identical to emulated ones, and a photond warm
 *  restart that answers a full-detailed job without a single emulator
 *  invocation. */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "driver/platform.hpp"
#include "func/emulator.hpp"
#include "func/warp_trace.hpp"
#include "isa/builder.hpp"
#include "serve/server.hpp"
#include "service/artifact_store.hpp"
#include "service/campaign.hpp"
#include "workloads/workload.hpp"

#include "legacy_artifact.hpp"

using namespace photon;
using namespace photon::isa;
using namespace photon::func;

namespace {

namespace fs = std::filesystem;

/** A kernel exercising all four side streams: lane divergence via an
 *  EXEC-writing mask op, a conditional (SCC) loop branch, flat loads
 *  and flat stores. */
ProgramPtr
buildLoopStoreKernel()
{
    KernelBuilder b("trace_unit");
    b.sLoad(3, kSgprKernargBase, 0); // out buffer base
    // Mask off odd lanes: exec &= (localid & 1) == 0.
    b.emit(Opcode::V_AND_B32, vreg(1), vreg(kVgprLocalId), imm(1));
    b.emit(Opcode::V_CMP_EQ_U32, {}, vreg(1), imm(0));
    b.emit(Opcode::S_AND_MASK, mreg(kMaskExec), mreg(kMaskExec),
           mreg(kMaskVcc));
    // addr = out + localid * 4.
    b.vMad(2, vreg(kVgprLocalId), imm(4), sreg(3));
    b.sMov(5, imm(0));
    Label loop = b.label();
    b.bind(loop);
    b.flatLoad(3, 2);
    b.waitcnt();
    b.vAddU32(3, vreg(3), imm(7));
    b.flatStore(2, vreg(3));
    b.waitcnt();
    b.sAdd(5, sreg(5), imm(1));
    b.emit(Opcode::S_CMP_LT_U32, {}, sreg(5), imm(3));
    b.branch(Opcode::S_CBRANCH_SCC1, loop);
    b.endProgram();
    return b.finish();
}

/** Deterministic memory image: kernarg block + output buffer for
 *  @p waves wavefronts. Identical calls produce identical contents
 *  (and so identical contentHash). Returns the kernarg base. */
Addr
setupMem(GlobalMemory &mem, std::uint32_t waves)
{
    Addr kernarg = mem.allocate(16);
    Addr out = mem.allocate(waves * 64ull * 4ull);
    mem.write32(kernarg, static_cast<std::uint32_t>(out));
    mem.write32(kernarg + 4, static_cast<std::uint32_t>(out >> 32));
    for (std::uint32_t i = 0; i < waves * 64u; ++i)
        mem.write32(out + i * 4ull, i * 3u + 1u);
    return kernarg;
}

/** Capture a trace of the unit kernel on a fresh memory image. */
LaunchTracePtr
captureUnitTrace(ProgramPtr &prog_out, LaunchDims &dims_out,
                 GlobalMemory &mem)
{
    prog_out = buildLoopStoreKernel();
    Addr kernarg = setupMem(mem, 4);
    dims_out = LaunchDims{2, 2, kernarg};
    return captureLaunchTrace(*prog_out, dims_out, mem);
}

} // namespace

// ----- Capture / replay fidelity -----

TEST(WarpTrace, ReplayMatchesEmulatorStepByStep)
{
    ProgramPtr prog;
    LaunchDims dims;
    GlobalMemory cap_mem(1 << 20);
    LaunchTracePtr trace = captureUnitTrace(prog, dims, cap_mem);
    ASSERT_NE(trace, nullptr);
    ASSERT_EQ(trace->warps.size(), dims.totalWaves());
    EXPECT_GT(trace->totalInsts, 0u);

    // Emulate the launch warp by warp (the capture order) against a
    // pristine memory image, stepping a replay cursor in lockstep:
    // every observable StepResult field and the wave's pc/exec/done
    // evolution must match exactly.
    GlobalMemory emu_mem(1 << 20);
    setupMem(emu_mem, 4);
    Emulator emu;
    std::vector<std::uint8_t> lds(prog->ldsBytes(), 0);
    for (WarpId w = 0; w < dims.totalWaves(); ++w) {
        WaveState es, rs;
        es.init(*prog, dims, w);
        rs.init(*prog, dims, w);
        WarpReplayCursor cursor;
        cursor.bind(trace.get(), w);
        std::uint64_t steps = 0;
        std::fill(lds.begin(), lds.end(), 0);
        while (!es.done) {
            StepResult er, rr;
            emu.step(*prog, es, emu_mem, lds, er);
            cursor.step(*prog, rs, rr);
            ASSERT_EQ(er.op, rr.op) << "warp " << w << " step " << steps;
            EXPECT_EQ(er.unit, rr.unit);
            EXPECT_EQ(er.done, rr.done);
            EXPECT_EQ(er.barrier, rr.barrier);
            EXPECT_EQ(er.branchTaken, rr.branchTaken);
            EXPECT_EQ(er.activeLanes, rr.activeLanes);
            EXPECT_EQ(er.ldsAccesses, rr.ldsAccesses);
            EXPECT_EQ(er.linesWrite, rr.linesWrite);
            ASSERT_EQ(er.numLines, rr.numLines);
            for (std::uint32_t i = 0; i < er.numLines; ++i)
                EXPECT_EQ(er.lines[i], rr.lines[i])
                    << "warp " << w << " step " << steps << " line "
                    << i;
            EXPECT_EQ(es.pc, rs.pc);
            EXPECT_EQ(es.exec, rs.exec);
            EXPECT_EQ(es.done, rs.done);
            ++steps;
        }
        EXPECT_EQ(steps, trace->warps[w].instCount);
    }
    // The capture applied the same stores emulation did.
    EXPECT_EQ(emu_mem.contentHash(), cap_mem.contentHash());
}

TEST(WarpTrace, ApplyAllStoresReproducesEmulatedMemory)
{
    ProgramPtr prog;
    LaunchDims dims;
    GlobalMemory cap_mem(1 << 20);
    LaunchTracePtr trace = captureUnitTrace(prog, dims, cap_mem);

    GlobalMemory replay_mem(1 << 20);
    setupMem(replay_mem, 4);
    EXPECT_NE(replay_mem.contentHash(), cap_mem.contentHash());
    applyAllStores(*trace, replay_mem);
    EXPECT_EQ(replay_mem.contentHash(), cap_mem.contentHash());
}

TEST(WarpTrace, CaptureAloneMatchesLaunchSlices)
{
    // Dispatch-time capture records one workgroup at a time into a
    // reused buffer, one slice per wave. Each slice must carry exactly
    // the side streams of that warp's slice in a whole-launch capture,
    // minus the store log, while its emulation lands the same stores in
    // memory.
    ProgramPtr prog;
    LaunchDims dims;
    GlobalMemory launch_mem(1 << 20);
    LaunchTracePtr trace = captureUnitTrace(prog, dims, launch_mem);

    GlobalMemory mem(1 << 20);
    setupMem(mem, 4);
    WarpCapturer capturer;
    LaunchTrace buf;
    auto bit = [](const LaunchTrace &t, std::uint64_t i) {
        return (t.branchWords[i >> 6] >> (i & 63)) & 1;
    };
    for (WarpId w = 0; w < dims.totalWaves(); ++w) {
        const std::uint32_t wave = w % dims.wavesPerWorkgroup;
        if (wave == 0) {
            capturer.captureAlone(*prog, dims, mem,
                                  w / dims.wavesPerWorkgroup, buf);
            ASSERT_EQ(buf.warps.size(), dims.wavesPerWorkgroup);
            std::uint64_t insts = 0;
            for (std::uint32_t i = 0; i < dims.wavesPerWorkgroup; ++i)
                insts += trace->warps[w + i].instCount;
            EXPECT_EQ(buf.totalInsts, insts) << "warp " << w;
        }
        const LaunchTrace::WarpSlice &a = trace->warps[w];
        const LaunchTrace::WarpSlice &b = buf.warps[wave];
        EXPECT_EQ(b.instCount, a.instCount) << "warp " << w;
        ASSERT_EQ(b.branchBits, a.branchBits) << "warp " << w;
        for (std::uint32_t i = 0; i < a.branchBits; ++i)
            EXPECT_EQ(bit(buf, b.branchBase + i),
                      bit(*trace, a.branchBase + i));
        ASSERT_EQ(b.execCount, a.execCount);
        for (std::uint32_t i = 0; i < a.execCount; ++i)
            EXPECT_EQ(buf.execWords[b.execBase + i],
                      trace->execWords[a.execBase + i]);
        ASSERT_EQ(b.memLen, a.memLen);
        EXPECT_TRUE(std::equal(
            buf.memBytes.begin() + b.memBase,
            buf.memBytes.begin() + b.memBase + b.memLen,
            trace->memBytes.begin() + a.memBase));
        EXPECT_GT(a.storeLen, 0u);
        EXPECT_EQ(b.storeLen, 0u);
        EXPECT_TRUE(buf.storeBytes.empty());
    }
    EXPECT_EQ(mem.contentHash(), launch_mem.contentHash());
}

TEST(WarpTrace, LdsWorkgroupStoreLogReplaysInWarpOrder)
{
    // Two waves per workgroup exchange values through LDS across one
    // barrier and write disjoint bytes of their workgroup's output
    // line in opposite phases: wave 1 before the barrier, wave 0 after
    // it (storing the value wave 1 left in LDS). Post-write snapshots
    // taken at each store would let wave 1's stale copy of the line
    // undo wave 0's bytes when the log is applied in warp order; the
    // snapshots a workgroup capture takes once the workgroup is done
    // must not.
    KernelBuilder b("lds_phases");
    b.setLdsBytes(8);
    b.sLoad(3, kSgprKernargBase, 0); // out buffer base
    // LDS[4 * wave] = wave + 7.
    b.emit(Opcode::V_LSHL_B32, vreg(1), sreg(kSgprWaveInGroup), imm(2));
    b.emit(Opcode::S_ADD_U32, sreg(4), sreg(kSgprWaveInGroup), imm(7));
    b.dsWrite(1, sreg(4));
    // v2 = out + 64 * workgroup + 4 * wave: one line per workgroup.
    b.emit(Opcode::S_LSHL_B32, sreg(5), sreg(kSgprWorkgroupId), imm(6));
    b.emit(Opcode::S_ADD_U32, sreg(5), sreg(5), sreg(3));
    b.vMad(2, sreg(kSgprWaveInGroup), imm(4), sreg(5));
    b.emit(Opcode::S_CMP_EQ_U32, {}, sreg(kSgprWaveInGroup), imm(0));
    Label sync = b.label();
    b.branch(Opcode::S_CBRANCH_SCC1, sync);
    b.vMov(3, imm(0xB1));
    b.flatStore(2, vreg(3)); // wave 1, before the barrier
    b.bind(sync);
    b.barrier();
    b.emit(Opcode::S_CMP_EQ_U32, {}, sreg(kSgprWaveInGroup), imm(0));
    Label end = b.label();
    b.branch(Opcode::S_CBRANCH_SCC0, end);
    b.vMov(4, imm(4));
    b.dsRead(5, 4);          // wave 1's LDS value
    b.flatStore(2, vreg(5)); // wave 0, after the barrier
    b.bind(end);
    b.endProgram();
    ProgramPtr prog = b.finish();

    auto setup = [](GlobalMemory &mem) {
        Addr kernarg = mem.allocate(16);
        Addr out = mem.allocate(2 * kLineBytes);
        mem.write32(kernarg, static_cast<std::uint32_t>(out));
        for (std::uint32_t i = 0; i < 2 * kLineBytes / 4; ++i)
            mem.write32(out + i * 4ull, 0xEEEEEEEEu);
        return LaunchDims{2, 2, kernarg};
    };

    GlobalMemory seed_mem(1 << 20);
    LaunchDims dims = setup(seed_mem);
    timing::Gpu gpu(GpuConfig::testTiny());
    timing::RunOptions opts;
    opts.useSeedLoop = true;
    gpu.runKernel(*prog, dims, seed_mem, nullptr, opts);
    const Addr out = seed_mem.read32(dims.kernargBase);
    for (Addr line = out; line < out + 2 * kLineBytes; line += kLineBytes) {
        EXPECT_EQ(seed_mem.read32(line), 8u);        // wave 1's LDS value
        EXPECT_EQ(seed_mem.read32(line + 4), 0xB1u); // wave 1's constant
    }

    GlobalMemory cap_mem(1 << 20);
    setup(cap_mem);
    LaunchTracePtr trace = captureLaunchTrace(*prog, dims, cap_mem);
    EXPECT_EQ(cap_mem.contentHash(), seed_mem.contentHash());

    GlobalMemory all_mem(1 << 20);
    setup(all_mem);
    applyAllStores(*trace, all_mem);
    EXPECT_EQ(all_mem.contentHash(), seed_mem.contentHash());

    GlobalMemory wg_mem(1 << 20);
    setup(wg_mem);
    for (WorkgroupId wg = 0; wg < dims.numWorkgroups; ++wg) {
        for (std::uint32_t i = 0; i < dims.wavesPerWorkgroup; ++i)
            applyWarpStores(*trace, wg * dims.wavesPerWorkgroup + i,
                            wg_mem);
        // Each workgroup's log alone completes its own line.
        const Addr line = out + wg * kLineBytes;
        EXPECT_EQ(wg_mem.read32(line), 8u) << "workgroup " << wg;
        EXPECT_EQ(wg_mem.read32(line + 4), 0xB1u) << "workgroup " << wg;
    }
    EXPECT_EQ(wg_mem.contentHash(), seed_mem.contentHash());
}

TEST(WarpTrace, KeyCoversProgramGeometryAndInput)
{
    ProgramPtr prog = buildLoopStoreKernel();
    GlobalMemory mem(1 << 20);
    Addr kernarg = setupMem(mem, 4);
    LaunchDims dims{2, 2, kernarg};
    std::string base = traceKey(*prog, dims, mem.contentHash());
    EXPECT_EQ(base, traceKey(*prog, dims, mem.contentHash())); // stable

    LaunchDims other_dims{4, 2, kernarg};
    EXPECT_NE(base, traceKey(*prog, other_dims, mem.contentHash()));

    mem.write32(kernarg + 8, 0xdeadbeef); // different input contents
    EXPECT_NE(base, traceKey(*prog, dims, mem.contentHash()));
}

// ----- Blob serialization -----

TEST(WarpTrace, BlobRoundTripPreservesEveryField)
{
    ProgramPtr prog;
    LaunchDims dims;
    GlobalMemory mem(1 << 20);
    LaunchTracePtr trace = captureUnitTrace(prog, dims, mem);

    std::vector<std::uint8_t> blob;
    serializeLaunchTrace(*trace, blob);
    ASSERT_GT(blob.size(), 8u);

    LaunchTrace back;
    std::string err;
    ASSERT_TRUE(deserializeLaunchTrace(blob.data(), blob.size(), back,
                                       &err))
        << err;
    EXPECT_EQ(back.programName, trace->programName);
    EXPECT_EQ(back.programHash, trace->programHash);
    EXPECT_EQ(back.numWorkgroups, trace->numWorkgroups);
    EXPECT_EQ(back.wavesPerWorkgroup, trace->wavesPerWorkgroup);
    EXPECT_EQ(back.kernargBase, trace->kernargBase);
    EXPECT_EQ(back.memFingerprint, trace->memFingerprint);
    EXPECT_EQ(back.totalInsts, trace->totalInsts);
    ASSERT_EQ(back.warps.size(), trace->warps.size());
    for (std::size_t w = 0; w < back.warps.size(); ++w) {
        EXPECT_EQ(back.warps[w].instCount, trace->warps[w].instCount);
        EXPECT_EQ(back.warps[w].branchBits, trace->warps[w].branchBits);
        EXPECT_EQ(back.warps[w].execCount, trace->warps[w].execCount);
        EXPECT_EQ(back.warps[w].memLen, trace->warps[w].memLen);
        EXPECT_EQ(back.warps[w].storeLen, trace->warps[w].storeLen);
    }
    EXPECT_EQ(back.branchWords, trace->branchWords);
    EXPECT_EQ(back.execWords, trace->execWords);
    EXPECT_EQ(back.memBytes, trace->memBytes);
    EXPECT_EQ(back.storeBytes, trace->storeBytes);
}

TEST(WarpTrace, RejectsCorruptAndTruncatedBlobs)
{
    ProgramPtr prog;
    LaunchDims dims;
    GlobalMemory mem(1 << 20);
    LaunchTracePtr trace = captureUnitTrace(prog, dims, mem);
    std::vector<std::uint8_t> blob;
    serializeLaunchTrace(*trace, blob);

    LaunchTrace out;
    std::string err;

    std::vector<std::uint8_t> bad_magic = blob;
    bad_magic[0] ^= 0xff;
    EXPECT_FALSE(deserializeLaunchTrace(bad_magic.data(),
                                        bad_magic.size(), out, &err));
    EXPECT_FALSE(err.empty());

    std::vector<std::uint8_t> bad_version = blob;
    bad_version[4] ^= 0xff;
    EXPECT_FALSE(deserializeLaunchTrace(
        bad_version.data(), bad_version.size(), out, &err));

    for (std::size_t len : {std::size_t{0}, std::size_t{7},
                            blob.size() / 2, blob.size() - 1}) {
        EXPECT_FALSE(deserializeLaunchTrace(blob.data(), len, out, &err))
            << "accepted a " << len << "-byte prefix";
    }
}

// ----- Artifact store v5 -----

TEST(WarpTrace, ArtifactV5RoundTripsTraces)
{
    ProgramPtr prog;
    LaunchDims dims;
    GlobalMemory mem(1 << 20);
    LaunchTracePtr trace = captureUnitTrace(prog, dims, mem);
    std::string key = traceKey(*prog, dims, mem.contentHash());

    service::Artifact art;
    art.traces[key] = trace;
    std::string bytes = service::serializeArtifact(art);
    EXPECT_EQ(bytes, service::serializeArtifact(art)); // deterministic

    service::Artifact back;
    service::LoadStatus st = service::deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;
    ASSERT_EQ(back.traces.size(), 1u);
    ASSERT_EQ(back.traces.count(key), 1u);
    const LaunchTrace &t = *back.traces.at(key);
    EXPECT_EQ(t.programHash, trace->programHash);
    EXPECT_EQ(t.totalInsts, trace->totalInsts);
    EXPECT_EQ(t.storeBytes, trace->storeBytes);
}

TEST(WarpTrace, ArtifactV4WithoutTraceSectionStillLoads)
{
    // A v4 artifact simply ends after the per-GPU groups; synthesize
    // one by patching the version and dropping the (empty) v5 trace
    // count off a v6 serialization.
    service::Artifact art;
    art.group("tiny");
    std::string bytes = testing_support::v6Serialization(art);
    ASSERT_GE(bytes.size(), 8u + 4u);
    bytes[4] = 4;
    bytes.resize(bytes.size() - 4);
    service::Artifact back;
    service::LoadStatus st = service::deserializeArtifact(bytes, back);
    ASSERT_TRUE(st.ok) << st.error;
    EXPECT_EQ(back.groups.size(), 1u);
    EXPECT_TRUE(back.traces.empty());
}

TEST(WarpTrace, ArtifactRejectsCorruptEmbeddedTrace)
{
    ProgramPtr prog;
    LaunchDims dims;
    GlobalMemory mem(1 << 20);
    LaunchTracePtr trace = captureUnitTrace(prog, dims, mem);
    service::Artifact art;
    art.traces[traceKey(*prog, dims, mem.contentHash())] = trace;
    std::string bytes = service::serializeArtifact(art);

    // Corrupt the embedded blob's "PHTR" magic.
    std::size_t at = bytes.find("PHTR");
    ASSERT_NE(at, std::string::npos);
    std::string corrupt = bytes;
    corrupt[at] ^= 0x7f;
    service::Artifact back;
    EXPECT_FALSE(service::deserializeArtifact(corrupt, back).ok);

    // Truncating inside the blob must fail too, not parse partially.
    std::string truncated = bytes.substr(0, bytes.size() - 3);
    EXPECT_FALSE(service::deserializeArtifact(truncated, back).ok);
}

// ----- TraceStore -----

TEST(WarpTrace, StoreIsFirstWinsAndCounts)
{
    ProgramPtr prog;
    LaunchDims dims;
    GlobalMemory mem(1 << 20);
    LaunchTracePtr first = captureUnitTrace(prog, dims, mem);
    auto second = std::make_shared<LaunchTrace>(*first);

    TraceStore store;
    EXPECT_EQ(store.lookup("k"), nullptr);
    EXPECT_TRUE(store.insert("k", first));
    EXPECT_FALSE(store.insert("k", second)); // first wins
    EXPECT_EQ(store.lookup("k").get(), first.get());
    EXPECT_EQ(store.size(), 1u);

    TraceStoreCounters c = store.counters();
    EXPECT_EQ(c.hits, 1u);
    EXPECT_EQ(c.misses, 1u);
    EXPECT_EQ(c.inserts, 1u);

    // export/import round trip seeds another store.
    TraceStore other;
    other.import(store.exportAll());
    EXPECT_EQ(other.size(), 1u);
    EXPECT_EQ(other.lookup("k").get(), first.get());
}

// ----- Platform: replay vs. emulation, serial and threaded -----

namespace {

struct PlatformRun
{
    Cycle cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t captures = 0;
};

PlatformRun
runFullDetailed(const char *workload, std::uint32_t size,
                TraceStore *shared, bool reuse)
{
    GpuConfig gpu;
    driver::SimMode mode;
    std::string err;
    EXPECT_TRUE(service::parseGpuName("tiny", gpu, &err)) << err;
    EXPECT_TRUE(service::parseMode("full", mode, &err)) << err;
    driver::Platform p(gpu, mode, SamplingConfig{});
    p.setTraceReuse(reuse);
    if (shared)
        p.setTraceStore(shared);
    workloads::WorkloadPtr w = service::makeWorkload(workload, size, &err);
    EXPECT_NE(w, nullptr) << err;
    w->setup(p);
    workloads::runWorkload(*w, p);
    PlatformRun r;
    r.cycles = p.totalKernelCycles();
    r.insts = p.totalInsts();
    r.hits = p.traceHits();
    r.misses = p.traceMisses();
    r.captures = p.traceCaptures();
    return r;
}

} // namespace

TEST(WarpTraceReplay, BitIdenticalToEmulationAcrossWorkloads)
{
    struct Case
    {
        const char *workload;
        std::uint32_t size;
    };
    // All eight core workloads: sc diverges per lane, aes is
    // branch-heavy, relu/fir stream memory, mm/spmv/pagerank cover
    // indirect addressing and multi-launch chains, and mmtiled stages
    // through LDS across barriers (captured phase by phase).
    for (const Case &c : std::initializer_list<Case>{
             {"relu", 256},
             {"fir", 256},
             {"sc", 256},
             {"mm", 64},
             {"mmtiled", 64},
             {"aes", 64},
             {"spmv", 128},
             {"pagerank", 64}}) {
        PlatformRun emulated =
            runFullDetailed(c.workload, c.size, nullptr, false);
        EXPECT_EQ(emulated.captures, 0u) << c.workload;

        TraceStore shared;
        PlatformRun captured =
            runFullDetailed(c.workload, c.size, &shared, true);
        EXPECT_GT(captured.captures, 0u) << c.workload;
        EXPECT_EQ(captured.cycles, emulated.cycles) << c.workload;
        EXPECT_EQ(captured.insts, emulated.insts) << c.workload;

        PlatformRun replayed =
            runFullDetailed(c.workload, c.size, &shared, true);
        EXPECT_GT(replayed.hits, 0u) << c.workload;
        EXPECT_EQ(replayed.misses, 0u) << c.workload;
        EXPECT_EQ(replayed.captures, 0u) << c.workload;
        EXPECT_EQ(replayed.cycles, emulated.cycles) << c.workload;
        EXPECT_EQ(replayed.insts, emulated.insts) << c.workload;
    }
}

// ----- photond warm restart -----

TEST(WarpTraceServe, WarmRestartRepliesWithoutEmulation)
{
    fs::path dir =
        fs::temp_directory_path() / "photon_trace_restart";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string path = (dir / "store.bin").string();
    service::JobSpec spec{"relu", 256, "full", "tiny"};

    std::uint64_t cold_cycles = 0;
    {
        serve::ServerOptions o;
        o.workers = 1;
        o.store.path = path;
        serve::SimServer server(o);
        serve::ServeResult r = server.runSync(spec);
        ASSERT_TRUE(r.ok) << r.error;
        cold_cycles = r.cycles;
        serve::StoreStats s = server.store().stats();
        EXPECT_GT(s.traceCaptures, 0u);
        server.drain(); // checkpoint carries the trace section
    }

    serve::ServerOptions o;
    o.workers = 1;
    o.store.path = path;
    serve::SimServer restarted(o);
    EXPECT_GT(restarted.store().numTraces(), 0u);
    serve::ServeResult warm = restarted.runSync(spec);
    ASSERT_TRUE(warm.ok) << warm.error;
    EXPECT_EQ(warm.cycles, cold_cycles);
    // Every launch replayed from the checkpointed traces: the restarted
    // daemon never invoked the emulator (a miss or a capture would be
    // the only ways it could).
    serve::StoreStats s = restarted.store().stats();
    EXPECT_GT(s.traceHits, 0u);
    EXPECT_EQ(s.traceMisses, 0u);
    EXPECT_EQ(s.traceCaptures, 0u);

    restarted.drain();
    fs::remove_all(dir);
}

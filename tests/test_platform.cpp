/** @file Tests for the Platform public API. */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "driver/platform.hpp"
#include "isa/builder.hpp"

using namespace photon;
using namespace photon::isa;

namespace {

ProgramPtr
storeTid(std::uint32_t wg_size)
{
    KernelBuilder b("store_tid");
    b.sLoad(3, kSgprKernargBase, 0);
    b.vMad(1, sreg(kSgprWorkgroupId), imm(wg_size), vreg(kVgprLocalId));
    b.vMad(2, vreg(1), imm(4), sreg(3));
    b.flatStore(2, vreg(1));
    b.endProgram();
    return b.finish();
}

/** The trace key as it was before the chunked fingerprint: a bare hex
 *  field holding FNV-1a over the break and every byte of [0, brk). */
std::string
oldSchemeKey(const Program &prog, const func::LaunchDims &dims,
             const func::GlobalMemory &mem)
{
    // Byte 0 is the null address: never readable, always zero.
    const std::uint8_t *bytes = mem.span(1, mem.allocated() - 1);
    std::vector<std::uint8_t> image(1, 0);
    image.insert(image.end(), bytes, bytes + mem.allocated() - 1);
    std::uint64_t h = 1469598103934665603ull;
    h = (h ^ mem.allocated()) * 1099511628211ull;
    std::size_t i = 0;
    for (; i + 8 <= image.size(); i += 8) {
        std::uint64_t w;
        std::memcpy(&w, image.data() + i, 8);
        h = (h ^ w) * 1099511628211ull;
    }
    for (; i < image.size(); ++i)
        h = (h ^ image[i]) * 1099511628211ull;
    char buf[80];
    std::snprintf(buf, sizeof buf, "@%016llx@%ux%u@%016llx@%016llx",
                  static_cast<unsigned long long>(prog.codeHash()),
                  dims.numWorkgroups, dims.wavesPerWorkgroup,
                  static_cast<unsigned long long>(dims.kernargBase),
                  static_cast<unsigned long long>(h));
    return prog.name() + buf;
}

} // namespace

TEST(Platform, MemoryRoundTrip)
{
    driver::Platform p(GpuConfig::testTiny(),
                       driver::SimMode::FullDetailed);
    Addr a = p.alloc(1024);
    std::vector<std::uint32_t> data(256);
    for (std::uint32_t i = 0; i < 256; ++i)
        data[i] = i * i;
    p.memWrite(a, data.data(), 1024);
    std::vector<std::uint32_t> back(256);
    p.memRead(a, back.data(), 1024);
    EXPECT_EQ(data, back);
}

TEST(Platform, PackArgsLaysOutWords)
{
    driver::Platform p(GpuConfig::testTiny(),
                       driver::SimMode::FullDetailed);
    Addr a = p.packArgs({10, 20, 30});
    EXPECT_EQ(p.mem().read32(a), 10u);
    EXPECT_EQ(p.mem().read32(a + 4), 20u);
    EXPECT_EQ(p.mem().read32(a + 8), 30u);
}

TEST(Platform, LaunchExecutesKernel)
{
    driver::Platform p(GpuConfig::testTiny(),
                       driver::SimMode::FullDetailed);
    const std::uint32_t n = 1024;
    Addr out = p.alloc(n * 4);
    Addr args = p.packArgs({static_cast<std::uint32_t>(out)});
    auto r = p.launch(storeTid(256), n / 256, 4, args, "tid");
    EXPECT_GT(r.sample.cycles, 0u);
    EXPECT_EQ(r.label, "tid");
    for (std::uint32_t i = 0; i < n; i += 97)
        EXPECT_EQ(p.mem().read32(out + i * 4), i);
}

TEST(Platform, AccumulatesTotalsAndLog)
{
    driver::Platform p(GpuConfig::testTiny(),
                       driver::SimMode::FullDetailed);
    Addr out = p.alloc(1024 * 4);
    Addr args = p.packArgs({static_cast<std::uint32_t>(out)});
    ProgramPtr prog = storeTid(256);
    auto r1 = p.launch(prog, 4, 4, args);
    auto r2 = p.launch(prog, 4, 4, args);
    EXPECT_EQ(p.launchLog().size(), 2u);
    EXPECT_EQ(p.totalKernelCycles(),
              r1.sample.cycles + r2.sample.cycles);
    EXPECT_EQ(p.totalInsts(), r1.sample.insts + r2.sample.insts);
}

TEST(Platform, StatsExposeRunCounters)
{
    driver::Platform p(GpuConfig::testTiny(),
                       driver::SimMode::FullDetailed);
    Addr out = p.alloc(1024 * 4);
    Addr args = p.packArgs({static_cast<std::uint32_t>(out)});
    p.launch(storeTid(256), 4, 4, args);
    StatRegistry stats = p.stats();
    EXPECT_EQ(stats.get("platform.kernels"), 1.0);
    EXPECT_GT(stats.get("platform.total_cycles"), 0.0);
    EXPECT_GT(stats.get("mem.l1v.misses"), 0.0);
}

TEST(Platform, ModeAccessorsMatchConstruction)
{
    driver::Platform full(GpuConfig::testTiny(),
                          driver::SimMode::FullDetailed);
    EXPECT_EQ(full.photon(), nullptr);
    EXPECT_EQ(full.pka(), nullptr);
    driver::Platform ph(GpuConfig::testTiny(), driver::SimMode::Photon);
    EXPECT_NE(ph.photon(), nullptr);
    driver::Platform pk(GpuConfig::testTiny(), driver::SimMode::Pka);
    EXPECT_NE(pk.pka(), nullptr);
    EXPECT_STREQ(driver::simModeName(driver::SimMode::Photon), "photon");
}

TEST(Platform, SecondTraceKeyRehashesOnlyTheFirstLaunchsStores)
{
    driver::Platform p(GpuConfig::testTiny(),
                       driver::SimMode::FullDetailed);
    // A 4 MB input no kernel touches makes the arena large.
    const std::vector<std::uint8_t> input(4 << 20, 0x5a);
    Addr in = p.alloc(input.size());
    p.memWrite(in, input.data(), input.size());
    const std::uint32_t n = 1024;
    Addr out = p.alloc(n * 4);
    Addr args = p.packArgs({static_cast<std::uint32_t>(out)});
    ProgramPtr prog = storeTid(256);

    p.launch(prog, n / 256, 4, args);
    const double first = p.stats().get("platform.fingerprint_bytes");
    EXPECT_GE(first, static_cast<double>(input.size()));
    p.launch(prog, n / 256, 4, args);
    const double second =
        p.stats().get("platform.fingerprint_bytes") - first;

    // Launch 1 stored [out, out + 4n): the second key rehashes those
    // chunks and nothing else.
    const std::uint64_t chunk = func::GlobalMemory::kChunkBytes;
    const std::uint64_t stored_chunks =
        (out + n * 4 - 1) / chunk - out / chunk + 1;
    EXPECT_GT(second, 0.0);
    EXPECT_LE(second, static_cast<double>(stored_chunks * chunk));
    EXPECT_EQ(p.traceCaptures(), 2u);
}

TEST(Platform, PhotonLooksTracesUpOnlyForLaunchesItAnalyses)
{
    // A Photon launch reads a trace only to build its online analysis.
    // A repeat of a launch whose analysis is stored skips the trace key
    // and the store lookup: it rehashes no memory and counts neither a
    // hit nor a miss.
    driver::Platform p(GpuConfig::testTiny(), driver::SimMode::Photon);
    Addr out = p.alloc(1024 * 4);
    Addr args = p.packArgs({static_cast<std::uint32_t>(out)});
    ProgramPtr prog = storeTid(256);

    p.launch(prog, 4, 4, args);
    const double hashed = p.stats().get("platform.fingerprint_bytes");
    p.launch(prog, 4, 4, args);
    p.launch(prog, 4, 4, args);
    EXPECT_EQ(p.stats().get("platform.fingerprint_bytes"), hashed);
    p.launch(prog, 2, 4, args); // new dims: a new analysis

    std::uint64_t analysed = 0;
    for (const driver::LaunchResult &l : p.launchLog())
        analysed += !l.sample.telemetry.analysisReused;
    EXPECT_EQ(analysed, 2u);
    EXPECT_EQ(p.traceHits() + p.traceMisses(), analysed);
    EXPECT_EQ(p.traceCaptures(), 0u);
}

TEST(Platform, TraceUnderAnOldSchemeKeyIsNeverReturned)
{
    const std::uint32_t n = 1024;
    ProgramPtr prog = storeTid(256);
    auto setup = [&](driver::Platform &p) {
        Addr out = p.alloc(n * 4);
        return p.packArgs({static_cast<std::uint32_t>(out)});
    };

    driver::Platform ref(GpuConfig::testTiny(),
                         driver::SimMode::FullDetailed);
    const driver::LaunchResult expect =
        ref.launch(prog, n / 256, 4, setup(ref));

    // The launch's own trace, filed under the key the old scheme gave
    // this very pre-launch memory.
    driver::Platform donor(GpuConfig::testTiny(),
                           driver::SimMode::FullDetailed);
    const func::LaunchDims dims{n / 256, 4, setup(donor)};
    const std::string old_key = oldSchemeKey(*prog, dims, donor.mem());
    EXPECT_NE(old_key,
              func::traceKey(*prog, dims, donor.mem().contentHash()));
    func::LaunchTracePtr trace =
        func::captureLaunchTrace(*prog, dims, donor.mem());

    driver::Platform p(GpuConfig::testTiny(),
                       driver::SimMode::FullDetailed);
    ASSERT_EQ(setup(p), dims.kernargBase);
    ASSERT_EQ(oldSchemeKey(*prog, dims, p.mem()), old_key);
    p.traceStore().insert(old_key, trace);
    const driver::LaunchResult got =
        p.launch(prog, dims.numWorkgroups, dims.wavesPerWorkgroup,
                 dims.kernargBase);
    EXPECT_EQ(p.traceHits(), 0u);
    EXPECT_EQ(p.traceCaptures(), 1u);
    EXPECT_EQ(p.traceStore().size(), 2u);
    EXPECT_EQ(got.sample.cycles, expect.sample.cycles);
    EXPECT_EQ(got.sample.insts, expect.sample.insts);
}

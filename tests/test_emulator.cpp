/** @file Functional-emulator semantics tests. */

#include <array>
#include <bit>
#include <cmath>
#include <type_traits>

#include <gtest/gtest.h>

#include "func/emulator.hpp"
#include "isa/builder.hpp"

using namespace photon;
using namespace photon::isa;
using func::Emulator;
using func::GlobalMemory;
using func::LaunchDims;
using func::StepResult;
using func::WaveState;

namespace {

/** Fixture: builds programs and runs one wavefront. */
class EmulatorTest : public ::testing::Test
{
  protected:
    WaveState
    run(const ProgramPtr &prog, WarpId warp = 0)
    {
        WaveState ws;
        ws.init(*prog, dims_, warp);
        lds_.assign(prog->ldsBytes(), 0);
        emu_.runWave(*prog, ws, mem_, lds_);
        return ws;
    }

    Emulator emu_;
    GlobalMemory mem_{1 << 20};
    LaunchDims dims_{2, 2, 0};
    std::vector<std::uint8_t> lds_;
};

float
asF(std::uint32_t bits)
{
    return std::bit_cast<float>(bits);
}

} // namespace

TEST_F(EmulatorTest, DispatcherPreloadsIdentity)
{
    KernelBuilder b("k");
    b.endProgram();
    // Warp 3 = workgroup 1, wave 1 (2 waves per workgroup).
    WaveState ws = run(b.finish(), 3);
    EXPECT_EQ(ws.sgpr[kSgprWorkgroupId], 1u);
    EXPECT_EQ(ws.sgpr[kSgprWaveInGroup], 1u);
    EXPECT_EQ(ws.v(kVgprLocalId, 0), 64u);  // wave 1 starts at local 64
    EXPECT_EQ(ws.v(kVgprLocalId, 63), 127u);
}

TEST_F(EmulatorTest, ScalarAluBasics)
{
    KernelBuilder b("k");
    b.sMov(3, imm(10));
    b.sAdd(4, sreg(3), imm(5));
    b.emit(Opcode::S_SUB_U32, sreg(5), sreg(4), imm(3));
    b.sMul(6, sreg(5), imm(7));
    b.emit(Opcode::S_LSHL_B32, sreg(7), imm(1), imm(4));
    b.emit(Opcode::S_LSHR_B32, sreg(8), sreg(7), imm(2));
    b.emit(Opcode::S_AND_B32, sreg(9), imm(0xff), imm(0x0f));
    b.emit(Opcode::S_OR_B32, sreg(10), imm(0xf0), imm(0x0f));
    b.emit(Opcode::S_XOR_B32, sreg(11), imm(0xff), imm(0x0f));
    b.emit(Opcode::S_MIN_U32, sreg(12), imm(3), imm(9));
    b.emit(Opcode::S_MAX_U32, sreg(13), imm(3), imm(9));
    b.endProgram();
    WaveState ws = run(b.finish());
    EXPECT_EQ(ws.sgpr[4], 15u);
    EXPECT_EQ(ws.sgpr[5], 12u);
    EXPECT_EQ(ws.sgpr[6], 84u);
    EXPECT_EQ(ws.sgpr[7], 16u);
    EXPECT_EQ(ws.sgpr[8], 4u);
    EXPECT_EQ(ws.sgpr[9], 0x0fu);
    EXPECT_EQ(ws.sgpr[10], 0xffu);
    EXPECT_EQ(ws.sgpr[11], 0xf0u);
    EXPECT_EQ(ws.sgpr[12], 3u);
    EXPECT_EQ(ws.sgpr[13], 9u);
}

TEST_F(EmulatorTest, VectorAluPerLane)
{
    KernelBuilder b("k");
    b.vMulU32(1, vreg(0), imm(3));          // 3 * localId
    b.vAddU32(2, vreg(1), imm(100));
    b.vMad(3, vreg(0), imm(2), vreg(2));    // 2*localId + v2
    b.endProgram();
    WaveState ws = run(b.finish());
    for (unsigned lane = 0; lane < 64; ++lane) {
        EXPECT_EQ(ws.v(1, lane), 3 * lane);
        EXPECT_EQ(ws.v(2, lane), 3 * lane + 100);
        EXPECT_EQ(ws.v(3, lane), 2 * lane + 3 * lane + 100);
    }
}

TEST_F(EmulatorTest, FloatOps)
{
    KernelBuilder b("k");
    b.vMov(1, immF(1.5f));
    b.vAddF32(2, vreg(1), immF(2.0f));     // 3.5
    b.vMulF32(3, vreg(2), immF(2.0f));     // 7.0
    b.emit(Opcode::V_SUB_F32, vreg(4), vreg(3), immF(1.0f)); // 6.0
    b.vMov(5, immF(10.0f));
    b.vMacF32(5, vreg(1), vreg(2));        // 10 + 1.5*3.5 = 15.25
    b.emit(Opcode::V_FMA_F32, vreg(6), vreg(1), vreg(2), vreg(3));
    b.emit(Opcode::V_MAX_F32, vreg(7), vreg(4), immF(100.0f));
    b.emit(Opcode::V_MIN_F32, vreg(8), vreg(4), immF(-1.0f));
    b.emit(Opcode::V_RCP_F32, vreg(9), immF(4.0f));
    b.emit(Opcode::V_SQRT_F32, vreg(10), immF(16.0f));
    b.endProgram();
    WaveState ws = run(b.finish());
    EXPECT_FLOAT_EQ(asF(ws.v(2, 0)), 3.5f);
    EXPECT_FLOAT_EQ(asF(ws.v(3, 0)), 7.0f);
    EXPECT_FLOAT_EQ(asF(ws.v(4, 0)), 6.0f);
    EXPECT_FLOAT_EQ(asF(ws.v(5, 0)), 15.25f);
    EXPECT_FLOAT_EQ(asF(ws.v(6, 0)), std::fma(1.5f, 3.5f, 7.0f));
    EXPECT_FLOAT_EQ(asF(ws.v(7, 0)), 100.0f);
    EXPECT_FLOAT_EQ(asF(ws.v(8, 0)), -1.0f);
    EXPECT_FLOAT_EQ(asF(ws.v(9, 0)), 0.25f);
    EXPECT_FLOAT_EQ(asF(ws.v(10, 0)), 4.0f);
}

TEST_F(EmulatorTest, Conversions)
{
    KernelBuilder b("k");
    b.emit(Opcode::V_CVT_F32_U32, vreg(1), vreg(0));
    b.emit(Opcode::V_CVT_U32_F32, vreg(2), immF(9.7f));
    b.emit(Opcode::V_CVT_F32_I32, vreg(3), imm(-3));
    b.endProgram();
    WaveState ws = run(b.finish());
    EXPECT_FLOAT_EQ(asF(ws.v(1, 5)), 5.0f);
    EXPECT_EQ(ws.v(2, 0), 9u);
    EXPECT_FLOAT_EQ(asF(ws.v(3, 0)), -3.0f);
}

TEST_F(EmulatorTest, ScalarCompareAndBranch)
{
    KernelBuilder b("k");
    b.sMov(3, imm(0));
    Label skip = b.label();
    b.emit(Opcode::S_CMP_LT_U32, {}, imm(5), imm(3));
    b.branch(Opcode::S_CBRANCH_SCC1, skip); // not taken: 5 < 3 false
    b.sMov(3, imm(1));
    b.bind(skip);
    b.endProgram();
    WaveState ws = run(b.finish());
    EXPECT_EQ(ws.sgpr[3], 1u);
}

TEST_F(EmulatorTest, ScalarLoop)
{
    KernelBuilder b("k");
    b.sMov(3, imm(0));
    b.sMov(4, imm(0));
    Label loop = b.label();
    b.bind(loop);
    b.sAdd(4, sreg(4), sreg(3));
    b.sAdd(3, sreg(3), imm(1));
    b.emit(Opcode::S_CMP_LT_U32, {}, sreg(3), imm(10));
    b.branch(Opcode::S_CBRANCH_SCC1, loop);
    b.endProgram();
    WaveState ws = run(b.finish());
    EXPECT_EQ(ws.sgpr[3], 10u);
    EXPECT_EQ(ws.sgpr[4], 45u); // 0+1+...+9
}

TEST_F(EmulatorTest, VectorCompareWritesVcc)
{
    KernelBuilder b("k");
    b.emit(Opcode::V_CMP_LT_U32, {}, vreg(0), imm(4));
    b.endProgram();
    WaveState ws = run(b.finish());
    EXPECT_EQ(ws.vcc, 0xfull); // lanes 0..3
}

TEST_F(EmulatorTest, CndmaskSelectsPerLane)
{
    KernelBuilder b("k");
    b.emit(Opcode::V_CMP_GE_U32, {}, vreg(0), imm(32));
    b.emit(Opcode::V_CNDMASK_B32, vreg(1), imm(7), imm(9));
    b.endProgram();
    WaveState ws = run(b.finish());
    EXPECT_EQ(ws.v(1, 0), 7u);  // vcc clear -> src0
    EXPECT_EQ(ws.v(1, 40), 9u); // vcc set -> src1
}

TEST_F(EmulatorTest, ExecMaskDisablesLanes)
{
    KernelBuilder b("k");
    b.vMov(1, imm(1));
    b.emit(Opcode::V_CMP_LT_U32, {}, vreg(0), imm(8));
    b.emit(Opcode::S_AND_MASK, mreg(kMaskExec), mreg(kMaskExec),
           mreg(kMaskVcc));
    b.vMov(1, imm(2)); // only lanes 0..7 active
    b.endProgram();
    WaveState ws = run(b.finish());
    EXPECT_EQ(ws.v(1, 3), 2u);
    EXPECT_EQ(ws.v(1, 20), 1u); // untouched by masked write
}

TEST_F(EmulatorTest, DivergentLoopPerLaneTripCounts)
{
    // Each lane iterates localId & 7 times (saved/restored exec).
    KernelBuilder b("k");
    b.emit(Opcode::V_AND_B32, vreg(1), vreg(0), imm(7)); // bound
    b.vMov(2, imm(0));                                   // counter
    b.vMov(3, imm(0));                                   // accumulator
    b.emit(Opcode::S_MOV_MASK, mreg(kMask0), mreg(kMaskExec));
    Label loop = b.label(), done = b.label();
    b.bind(loop);
    b.emit(Opcode::V_CMP_LT_U32, {}, vreg(2), vreg(1));
    b.emit(Opcode::S_AND_MASK, mreg(kMaskExec), mreg(kMaskExec),
           mreg(kMaskVcc));
    b.branch(Opcode::S_CBRANCH_EXECZ, done);
    b.vAddU32(3, vreg(3), imm(10));
    b.vAddU32(2, vreg(2), imm(1));
    b.branch(Opcode::S_BRANCH, loop);
    b.bind(done);
    b.emit(Opcode::S_MOV_MASK, mreg(kMaskExec), mreg(kMask0));
    b.endProgram();
    WaveState ws = run(b.finish());
    for (unsigned lane = 0; lane < 64; ++lane)
        EXPECT_EQ(ws.v(3, lane), 10u * (lane & 7)) << lane;
    EXPECT_EQ(ws.exec, ~std::uint64_t{0}); // restored
}

TEST_F(EmulatorTest, MaskRegisterOps)
{
    KernelBuilder b("k");
    b.emit(Opcode::V_CMP_LT_U32, {}, vreg(0), imm(2)); // vcc = 0b11
    b.emit(Opcode::S_MOV_MASK, mreg(kMask1), mreg(kMaskVcc));
    b.emit(Opcode::S_OR_MASK, mreg(kMask2), mreg(kMask1),
           mreg(kMaskVcc));
    b.emit(Opcode::S_ANDN2_MASK, mreg(kMask3), mreg(kMaskAllOnes),
           mreg(kMask1));
    b.endProgram();
    WaveState ws = run(b.finish());
    EXPECT_EQ(ws.maskRegs[1], 0x3ull);
    EXPECT_EQ(ws.maskRegs[2], 0x3ull);
    EXPECT_EQ(ws.maskRegs[3], ~0x3ull);
}

TEST_F(EmulatorTest, FlatLoadStoreRoundTrip)
{
    Addr buf = mem_.allocate(64 * 4);
    for (unsigned i = 0; i < 64; ++i)
        mem_.write32(buf + i * 4, 1000 + i);

    KernelBuilder b("k");
    b.vMad(1, vreg(0), imm(4), imm(static_cast<std::int64_t>(buf)));
    b.flatLoad(2, 1);
    b.waitcnt();
    b.vAddU32(2, vreg(2), imm(1));
    b.flatStore(1, vreg(2));
    b.endProgram();
    run(b.finish());
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(mem_.read32(buf + i * 4), 1001 + i);
}

TEST_F(EmulatorTest, CoalescingConsecutiveLanes)
{
    Addr buf = mem_.allocate(64 * 4);
    KernelBuilder b("k");
    b.vMad(1, vreg(0), imm(4), imm(static_cast<std::int64_t>(buf)));
    b.flatLoad(2, 1);
    b.endProgram();
    ProgramPtr prog = b.finish();

    WaveState ws;
    ws.init(*prog, dims_, 0);
    StepResult res;
    std::vector<std::uint8_t> lds;
    emu_.step(*prog, ws, mem_, lds, res); // vMad
    emu_.step(*prog, ws, mem_, lds, res); // load
    // 64 lanes x 4B consecutive = 256B = 4 lines.
    EXPECT_EQ(res.numLines, 4u);
    EXPECT_FALSE(res.linesWrite);
}

TEST_F(EmulatorTest, CoalescingUniformAddress)
{
    Addr buf = mem_.allocate(64);
    KernelBuilder b("k");
    b.vMov(1, imm(static_cast<std::int64_t>(buf)));
    b.flatLoad(2, 1);
    b.endProgram();
    ProgramPtr prog = b.finish();
    WaveState ws;
    ws.init(*prog, dims_, 0);
    StepResult res;
    std::vector<std::uint8_t> lds;
    emu_.step(*prog, ws, mem_, lds, res);
    emu_.step(*prog, ws, mem_, lds, res);
    EXPECT_EQ(res.numLines, 1u);
}

TEST_F(EmulatorTest, CoalescingScatteredAddresses)
{
    Addr buf = mem_.allocate(64 * 1024);
    KernelBuilder b("k");
    // addr = buf + localId * 1024: one line per lane.
    b.vMad(1, vreg(0), imm(1024), imm(static_cast<std::int64_t>(buf)));
    b.flatLoad(2, 1);
    b.endProgram();
    ProgramPtr prog = b.finish();
    WaveState ws;
    ws.init(*prog, dims_, 0);
    StepResult res;
    std::vector<std::uint8_t> lds;
    emu_.step(*prog, ws, mem_, lds, res);
    emu_.step(*prog, ws, mem_, lds, res);
    EXPECT_EQ(res.numLines, 64u);
}

TEST_F(EmulatorTest, ScalarLoadReadsKernarg)
{
    Addr args = mem_.allocate(16);
    mem_.write32(args + 8, 12345);
    dims_.kernargBase = args;
    KernelBuilder b("k");
    b.sLoad(3, kSgprKernargBase, 8);
    b.endProgram();
    WaveState ws = run(b.finish());
    EXPECT_EQ(ws.sgpr[3], 12345u);
}

TEST_F(EmulatorTest, LdsReadWrite)
{
    KernelBuilder b("k");
    b.setLdsBytes(1024);
    b.vMad(1, vreg(0), imm(4), imm(0)); // per-lane LDS address
    b.vMulU32(2, vreg(0), imm(3));
    b.dsWrite(1, vreg(2));
    b.dsRead(3, 1);
    b.endProgram();
    WaveState ws = run(b.finish());
    for (unsigned lane = 0; lane < 64; ++lane)
        EXPECT_EQ(ws.v(3, lane), 3 * lane);
}

TEST_F(EmulatorTest, BarrierAndDoneFlags)
{
    KernelBuilder b("k");
    b.barrier();
    b.endProgram();
    ProgramPtr prog = b.finish();
    WaveState ws;
    ws.init(*prog, dims_, 0);
    StepResult res;
    std::vector<std::uint8_t> lds;
    emu_.step(*prog, ws, mem_, lds, res);
    EXPECT_TRUE(res.barrier);
    EXPECT_FALSE(res.done);
    emu_.step(*prog, ws, mem_, lds, res);
    EXPECT_TRUE(res.done);
    EXPECT_TRUE(ws.done);
}

TEST_F(EmulatorTest, RunWaveCountsInstructions)
{
    KernelBuilder b("k");
    b.sMov(3, imm(0));
    Label loop = b.label();
    b.bind(loop);
    b.sAdd(3, sreg(3), imm(1));
    b.emit(Opcode::S_CMP_LT_U32, {}, sreg(3), imm(5));
    b.branch(Opcode::S_CBRANCH_SCC1, loop);
    b.endProgram();
    ProgramPtr prog = b.finish();
    WaveState ws;
    ws.init(*prog, dims_, 0);
    std::vector<std::uint8_t> lds;
    // 1 (mov) + 5 * 3 (loop body) + 1 (endpgm).
    EXPECT_EQ(emu_.runWave(*prog, ws, mem_, lds), 17u);
}

/**
 * Parameterised semantics check over the integer compare family.
 *
 * gtest has no printer for this struct, so each case is named after its
 * raw bytes. The bytes a compiler would leave as padding are spelled out
 * as members, so every run registers the same case names instead of
 * whatever the stack held; `fill` keeps the names the cases have always
 * been listed under.
 */
struct CmpCase
{
    using Fill = std::array<std::uint8_t, 3>;

    CmpCase(Opcode op_, std::uint32_t a_, std::uint32_t b_, bool expect_,
            Fill fill_ = {})
        : op(op_), fill(fill_), a(a_), b(b_), expect(expect_)
    {}

    Opcode op;
    Fill fill;
    std::uint32_t a, b;
    bool expect;
    Fill tail{};
};
static_assert(std::has_unique_object_representations_v<CmpCase>,
              "CmpCase must have no implicit padding");

class ScalarCompare : public ::testing::TestWithParam<CmpCase>
{};

TEST_P(ScalarCompare, SetsSccCorrectly)
{
    const CmpCase &c = GetParam();
    KernelBuilder b("k");
    b.emit(c.op, {}, imm(c.a), imm(c.b));
    b.endProgram();
    ProgramPtr prog = b.finish();
    Emulator emu;
    GlobalMemory mem(4096 + 64);
    WaveState ws;
    ws.init(*prog, LaunchDims{1, 1, 0}, 0);
    std::vector<std::uint8_t> lds;
    emu.runWave(*prog, ws, mem, lds);
    EXPECT_EQ(ws.scc, c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllCompares, ScalarCompare,
    ::testing::Values(CmpCase{Opcode::S_CMP_LT_U32, 1, 2, true,
                              {0x00, 0x01, 0x1b}},
                      CmpCase{Opcode::S_CMP_LT_U32, 2, 2, false,
                              {0xff, 0x48, 0x00}},
                      CmpCase{Opcode::S_CMP_LE_U32, 2, 2, true},
                      CmpCase{Opcode::S_CMP_GT_U32, 3, 2, true},
                      CmpCase{Opcode::S_CMP_GT_U32, 2, 3, false,
                              {0x00, 0x01, 0x1b}},
                      CmpCase{Opcode::S_CMP_GE_U32, 2, 2, true,
                              {0xda, 0x48, 0x00}},
                      CmpCase{Opcode::S_CMP_EQ_U32, 5, 5, true},
                      CmpCase{Opcode::S_CMP_EQ_U32, 5, 6, false},
                      CmpCase{Opcode::S_CMP_NE_U32, 5, 6, true}));

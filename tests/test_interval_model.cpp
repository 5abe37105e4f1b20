/** @file Tests for the instruction latency table and interval model. */

#include <gtest/gtest.h>

#include "isa/builder.hpp"
#include "sampling/interval_model.hpp"

using namespace photon;
using namespace photon::isa;
using namespace photon::sampling;

TEST(InstLatencyTable, DefaultsFollowConfig)
{
    GpuConfig cfg = GpuConfig::testTiny();
    InstLatencyTable t(cfg);
    EXPECT_DOUBLE_EQ(t.latency(Opcode::S_ADD_U32),
                     static_cast<double>(cfg.saluLatency));
    EXPECT_DOUBLE_EQ(t.latency(Opcode::V_ADD_F32),
                     static_cast<double>(cfg.valuLatency));
    EXPECT_DOUBLE_EQ(t.latency(Opcode::V_RCP_F32),
                     static_cast<double>(4 * cfg.valuLatency));
    EXPECT_DOUBLE_EQ(t.latency(Opcode::DS_READ_B32),
                     static_cast<double>(cfg.ldsLatency));
    EXPECT_DOUBLE_EQ(t.latency(Opcode::FLAT_LOAD_DWORD),
                     static_cast<double>(cfg.l1v.hitLatency +
                                         cfg.l2.hitLatency));
}

TEST(InstLatencyTable, ObservationsOverrideDefaults)
{
    InstLatencyTable t(GpuConfig::testTiny());
    t.record(Opcode::FLAT_LOAD_DWORD, 100);
    t.record(Opcode::FLAT_LOAD_DWORD, 300);
    EXPECT_DOUBLE_EQ(t.latency(Opcode::FLAT_LOAD_DWORD), 200.0);
    EXPECT_EQ(t.observations(Opcode::FLAT_LOAD_DWORD), 2u);
    EXPECT_EQ(t.observations(Opcode::V_ADD_F32), 0u);
}

TEST(IntervalModel, SumsPerOpcodeLatencies)
{
    GpuConfig cfg = GpuConfig::testTiny();
    KernelBuilder b("k");
    b.vAddF32(1, vreg(0), immF(1.0f));
    b.vAddF32(2, vreg(1), immF(1.0f));
    b.sAdd(3, sreg(3), imm(1));
    b.endProgram();
    ProgramPtr prog = b.finish();
    BasicBlock block{0, 3}; // the three ALU instructions

    InstLatencyTable t(cfg);
    Cycle predicted = IntervalModel::predictBb(*prog, block, t);
    EXPECT_EQ(predicted, 2 * cfg.valuLatency + cfg.saluLatency);
}

TEST(IntervalModel, UsesObservedLatencies)
{
    GpuConfig cfg = GpuConfig::testTiny();
    KernelBuilder b("k");
    b.flatLoad(1, 0);
    b.endProgram();
    ProgramPtr prog = b.finish();
    BasicBlock block{0, 1};

    InstLatencyTable t(cfg);
    t.record(Opcode::FLAT_LOAD_DWORD, 500);
    EXPECT_EQ(IntervalModel::predictBb(*prog, block, t), 500u);
}

/**
 * @file
 * The functional emulator: executes one instruction of one wavefront
 * against its architectural state and simulated memory. Used by trace
 * capture (func/warp_trace.hpp, whose traces the timing backends
 * replay), by the frozen reference engine (inline at issue) and by the
 * online-analysis path (functional only).
 */

#ifndef PHOTON_FUNC_EMULATOR_HPP
#define PHOTON_FUNC_EMULATOR_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "func/memory.hpp"
#include "func/wave_state.hpp"
#include "isa/basic_block.hpp"
#include "isa/program.hpp"

namespace photon::func {

/** Everything the timing model needs to know about one executed
 *  instruction. The line buffer is fixed-size to avoid per-step heap
 *  allocation (64 lanes touch at most 64 distinct lines). */
struct StepResult
{
    isa::Opcode op = isa::Opcode::S_NOP;
    isa::FuncUnit unit = isa::FuncUnit::SALU;
    bool done = false;        ///< s_endpgm executed
    bool barrier = false;     ///< s_barrier executed
    bool branchTaken = false;
    std::uint32_t activeLanes = 0;
    std::uint32_t ldsAccesses = 0;
    bool linesWrite = false;
    std::uint32_t numLines = 0;
    std::array<Addr, kWavefrontLanes> lines{};
};

/**
 * Stateless instruction interpreter. One instance can serve any number of
 * wavefronts; all mutable state lives in WaveState / GlobalMemory / LDS.
 */
class Emulator
{
  public:
    /**
     * Execute the instruction at ws.pc and advance the PC.
     *
     * @param program the kernel being executed
     * @param ws wavefront architectural state (mutated)
     * @param mem simulated global memory
     * @param lds the wavefront's workgroup LDS arena (may be empty when
     *            the program declares no LDS usage)
     * @param out filled with the timing-relevant effects
     */
    void step(const isa::Program &program, WaveState &ws, GlobalMemory &mem,
              std::vector<std::uint8_t> &lds, StepResult &out) const;

    /**
     * Run one wavefront functionally to completion (fast-forward mode).
     * Barriers are ignored: the wave runs alone, so LDS holds only what
     * it wrote. Waves that exchange data through LDS must be
     * interleaved at their barriers, as trace capture does.
     *
     * @return the number of instructions executed.
     */
    std::uint64_t runWave(const isa::Program &program, WaveState &ws,
                          GlobalMemory &mem,
                          std::vector<std::uint8_t> &lds) const;

  private:
    std::uint32_t readScalar(const WaveState &ws,
                             const isa::Operand &o) const;
    std::uint64_t readMaskOperand(const WaveState &ws,
                                  std::int32_t idx) const;
    void writeMaskOperand(WaveState &ws, std::int32_t idx,
                          std::uint64_t value) const;
};

} // namespace photon::func

#endif // PHOTON_FUNC_EMULATOR_HPP

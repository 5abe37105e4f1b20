#include "isa/program.hpp"

#include "sim/log.hpp"

namespace photon::isa {

Program::Program(std::string name, std::vector<Instruction> code,
                 std::uint32_t num_sgprs, std::uint32_t num_vgprs,
                 std::uint32_t lds_bytes)
    : name_(std::move(name)), code_(std::move(code)), numSgprs_(num_sgprs),
      numVgprs_(num_vgprs), ldsBytes_(lds_bytes)
{
    validate();
    decode();

    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    auto mix_operand = [&](const Operand &o) {
        mix(static_cast<std::uint64_t>(o.kind));
        mix(static_cast<std::uint64_t>(static_cast<std::uint32_t>(o.value)));
    };
    mix(code_.size());
    mix(ldsBytes_);
    for (const Instruction &inst : code_) {
        mix(static_cast<std::uint64_t>(inst.op));
        mix_operand(inst.dst);
        mix_operand(inst.src0);
        mix_operand(inst.src1);
        mix_operand(inst.src2);
        mix(static_cast<std::uint64_t>(
            static_cast<std::uint32_t>(inst.target)));
    }
    codeHash_ = h;
}

void
Program::decode()
{
    const std::uint32_t n = static_cast<std::uint32_t>(code_.size());
    decoded_.resize(n);
    for (std::uint32_t pc = 0; pc < n; ++pc) {
        decoded_[pc].inst = code_[pc];
        decoded_[pc].unit = opcodeInfo(code_[pc].op).unit;
        usesLds_ |= decoded_[pc].unit == FuncUnit::LDS;
    }
}

namespace {

void
checkOperand(const Operand &o, std::uint32_t num_sgprs,
             std::uint32_t num_vgprs, const std::string &name,
             std::uint32_t pc)
{
    switch (o.kind) {
      case OperandKind::SReg:
        if (o.value < 0 || o.value >= static_cast<std::int32_t>(num_sgprs))
            panic("program ", name, " pc ", pc, ": sgpr ", o.value,
                  " out of range");
        break;
      case OperandKind::VReg:
        if (o.value < 0 || o.value >= static_cast<std::int32_t>(num_vgprs))
            panic("program ", name, " pc ", pc, ": vgpr ", o.value,
                  " out of range");
        break;
      case OperandKind::Mask:
        if (o.value < 0 || o.value > kMaskAllOnes)
            panic("program ", name, " pc ", pc, ": mask reg ", o.value,
                  " out of range");
        break;
      case OperandKind::Imm:
      case OperandKind::None:
        break;
    }
}

} // namespace

void
Program::validate() const
{
    if (code_.empty())
        panic("program ", name_, " has no instructions");
    if (code_.back().op != Opcode::S_ENDPGM)
        panic("program ", name_, " does not end with s_endpgm");
    if (numSgprs_ > kMaxSgprs || numVgprs_ > kMaxVgprs)
        panic("program ", name_, " exceeds register limits");

    for (std::uint32_t pc = 0; pc < code_.size(); ++pc) {
        const Instruction &inst = code_[pc];
        checkOperand(inst.dst, numSgprs_, numVgprs_, name_, pc);
        checkOperand(inst.src0, numSgprs_, numVgprs_, name_, pc);
        checkOperand(inst.src1, numSgprs_, numVgprs_, name_, pc);
        checkOperand(inst.src2, numSgprs_, numVgprs_, name_, pc);
        if (isBranch(inst.op)) {
            if (inst.target < 0 ||
                inst.target >= static_cast<std::int32_t>(code_.size())) {
                panic("program ", name_, " pc ", pc,
                      ": unresolved branch target ", inst.target);
            }
        }
    }
}

} // namespace photon::isa

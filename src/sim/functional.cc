#include "sim/functional.hh"

#include "casm/program.hh"
#include "common/log.hh"

namespace dmt
{

u32
aluCompute(const Instruction &inst, u32 rs_val, u32 rt_val)
{
    const u32 a = rs_val;
    const u32 b = rt_val;
    const i32 sa = static_cast<i32>(a);
    const i32 sb = static_cast<i32>(b);
    const u32 imm = static_cast<u32>(inst.imm);
    const i32 simm = inst.imm;

    switch (inst.op) {
      case Opcode::ADD: return a + b;
      case Opcode::SUB: return a - b;
      case Opcode::AND: return a & b;
      case Opcode::OR: return a | b;
      case Opcode::XOR: return a ^ b;
      case Opcode::NOR: return ~(a | b);
      case Opcode::SLL: return a << (imm & 31);
      case Opcode::SRL: return a >> (imm & 31);
      case Opcode::SRA: return static_cast<u32>(sa >> (imm & 31));
      case Opcode::SLLV: return a << (b & 31);
      case Opcode::SRLV: return a >> (b & 31);
      case Opcode::SRAV: return static_cast<u32>(sa >> (b & 31));
      case Opcode::SLT: return sa < sb ? 1 : 0;
      case Opcode::SLTU: return a < b ? 1 : 0;
      case Opcode::MUL:
        return static_cast<u32>(static_cast<i64>(sa)
                                * static_cast<i64>(sb));
      case Opcode::MULH:
        return static_cast<u32>((static_cast<i64>(sa)
                                 * static_cast<i64>(sb)) >> 32);
      case Opcode::DIV:
        if (b == 0)
            return 0xFFFFFFFFu;
        if (a == 0x80000000u && b == 0xFFFFFFFFu)
            return 0x80000000u;
        return static_cast<u32>(sa / sb);
      case Opcode::DIVU:
        return b == 0 ? 0xFFFFFFFFu : a / b;
      case Opcode::REM:
        if (b == 0)
            return a;
        if (a == 0x80000000u && b == 0xFFFFFFFFu)
            return 0;
        return static_cast<u32>(sa % sb);
      case Opcode::REMU:
        return b == 0 ? a : a % b;
      case Opcode::ADDI: return a + imm;
      case Opcode::ANDI: return a & imm;
      case Opcode::ORI: return a | imm;
      case Opcode::XORI: return a ^ imm;
      case Opcode::SLTI: return sa < simm ? 1 : 0;
      case Opcode::SLTIU: return a < imm ? 1 : 0;
      case Opcode::LUI: return imm << 16;
      default:
        panic("aluCompute on non-ALU opcode %s", mnemonic(inst.op));
    }
}

bool
branchTaken(const Instruction &inst, u32 rs_val, u32 rt_val)
{
    const i32 sa = static_cast<i32>(rs_val);
    const i32 sb = static_cast<i32>(rt_val);
    switch (inst.op) {
      case Opcode::BEQ: return rs_val == rt_val;
      case Opcode::BNE: return rs_val != rt_val;
      case Opcode::BLT: return sa < sb;
      case Opcode::BGE: return sa >= sb;
      case Opcode::BLTU: return rs_val < rt_val;
      case Opcode::BGEU: return rs_val >= rt_val;
      default:
        panic("branchTaken on non-branch opcode %s", mnemonic(inst.op));
    }
}

Addr
memEffectiveAddr(const Instruction &inst, u32 rs_val)
{
    const Addr raw = rs_val + static_cast<u32>(inst.imm);
    return raw & ~static_cast<Addr>(inst.memBytes() - 1);
}

StepResult
functionalStep(ArchState &state, MainMemory &mem, const Program &prog)
{
    StepResult r;
    r.pc = state.pc;

    if (!prog.validTextAddr(state.pc)) {
        r.inst = makeHalt();
        r.halted = true;
        state.halted = true;
        r.next_pc = state.pc;
        return r;
    }

    const Instruction &inst = prog.fetch(state.pc);
    r.inst = inst;
    Addr next_pc = state.pc + 4;

    const u32 rs_val = state.reg(inst.rs);
    const u32 rt_val = state.reg(inst.rt);

    switch (opInfo(inst.op).opClass) {
      case OpClass::IntAlu:
      case OpClass::IntMul:
      case OpClass::IntDiv: {
          const u32 v = aluCompute(inst, rs_val, rt_val);
          state.setReg(inst.rd, v);
          if (inst.effectiveDest() >= 0) {
              r.dest = inst.effectiveDest();
              r.dest_val = v;
          }
          break;
      }
      case OpClass::MemRead: {
          r.is_load = true;
          r.mem_addr = memEffectiveAddr(inst, rs_val);
          r.mem_bytes = inst.memBytes();
          const u32 v = mem.read(r.mem_addr, r.mem_bytes,
                                 inst.memSigned());
          state.setReg(inst.rd, v);
          if (inst.effectiveDest() >= 0) {
              r.dest = inst.effectiveDest();
              r.dest_val = v;
          }
          break;
      }
      case OpClass::MemWrite: {
          r.is_store = true;
          r.mem_addr = memEffectiveAddr(inst, rs_val);
          r.mem_bytes = inst.memBytes();
          r.store_val = rt_val;
          mem.write(r.mem_addr, r.mem_bytes, rt_val);
          break;
      }
      case OpClass::Control: {
          switch (inst.op) {
            case Opcode::J:
              next_pc = inst.jumpTarget();
              break;
            case Opcode::JAL:
              state.setReg(inst.rd, state.pc + 4);
              r.dest = inst.effectiveDest();
              r.dest_val = state.pc + 4;
              next_pc = inst.jumpTarget();
              break;
            case Opcode::JR:
              next_pc = rs_val;
              break;
            case Opcode::JALR:
              // Read rs before the (possibly aliasing) link write.
              next_pc = rs_val;
              state.setReg(inst.rd, state.pc + 4);
              if (inst.effectiveDest() >= 0) {
                  r.dest = inst.effectiveDest();
                  r.dest_val = state.pc + 4;
              }
              break;
            default:
              if (branchTaken(inst, rs_val, rt_val))
                  next_pc = inst.branchTarget(state.pc);
              break;
          }
          break;
      }
      case OpClass::Other:
        if (inst.op == Opcode::HALT) {
            r.halted = true;
            state.halted = true;
            next_pc = state.pc;
        } else if (inst.op == Opcode::OUT) {
            r.emitted_out = true;
            r.out_val = rs_val;
            state.emitOut(rs_val);
        }
        break;
    }

    r.next_pc = next_pc;
    state.pc = next_pc;
    return r;
}

u64
runFunctional(ArchState &state, MainMemory &mem, const Program &prog,
              u64 max_steps)
{
    u64 steps = 0;
    while (!state.halted) {
        // A fetch off the text segment halts without executing an
        // instruction, so it is neither counted nor budgeted.
        const bool fetches = prog.validTextAddr(state.pc);
        if (fetches && steps == max_steps) {
            // Throwing (not exiting) lets sweeps treat a runaway
            // functional prefix as one failed cell, like any other
            // contained SimError.
            panic("functional run exceeded %llu steps",
                  static_cast<unsigned long long>(max_steps));
        }
        functionalStep(state, mem, prog);
        steps += fetches;
    }
    return steps;
}

} // namespace dmt

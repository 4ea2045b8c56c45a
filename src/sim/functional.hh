/**
 * @file
 * Functional (untimed) execution semantics.  The single source of truth
 * for instruction behaviour: the DMT engine's execute stage calls the
 * same aluCompute()/branchTaken() helpers so that timing simulation and
 * the golden reference can never disagree on semantics.
 */

#ifndef DMT_SIM_FUNCTIONAL_HH
#define DMT_SIM_FUNCTIONAL_HH

#include "isa/inst.hh"
#include "sim/arch_state.hh"
#include "sim/mainmem.hh"

namespace dmt
{

class Program;

/**
 * Compute an ALU result from source values.  For immediate forms the
 * second operand is ignored and inst.imm is used.  Valid only for
 * IntAlu/IntMul/IntDiv class instructions; callers handle loads
 * (memory), JAL/JALR (return address = pc + 4) and branches separately.
 */
u32 aluCompute(const Instruction &inst, u32 rs_val, u32 rt_val);

/** Evaluate a conditional branch. */
bool branchTaken(const Instruction &inst, u32 rs_val, u32 rt_val);

/** Effective memory address (size-aligned) for a load/store. */
Addr memEffectiveAddr(const Instruction &inst, u32 rs_val);

/** Everything a single functional step did (for checking/tracing). */
struct StepResult
{
    Addr pc = 0;
    Instruction inst;
    Addr next_pc = 0;
    bool halted = false;

    int dest = -1;       ///< logical destination (post r0-filter)
    u32 dest_val = 0;

    bool is_load = false;
    bool is_store = false;
    Addr mem_addr = 0;
    int mem_bytes = 0;
    u32 store_val = 0;

    bool emitted_out = false;
    u32 out_val = 0;
};

/**
 * Execute one instruction at state.pc, updating @p state and @p mem.
 * HALT (or a fetch outside the text segment) sets state.halted.
 */
StepResult functionalStep(ArchState &state, MainMemory &mem,
                          const Program &prog);

/**
 * Run the whole program functionally.
 *
 * @param max_steps safety bound; throws SimError when the program
 *        needs more than this many instructions, so sweep cells with
 *        runaway prefixes fail as cells, not as process exits.
 * @return executed instruction count.  A HALT counts; the fetch off
 *         the text segment that halts a program without one does not.
 */
u64 runFunctional(ArchState &state, MainMemory &mem, const Program &prog,
                  u64 max_steps = 500'000'000);

} // namespace dmt

#endif // DMT_SIM_FUNCTIONAL_HH

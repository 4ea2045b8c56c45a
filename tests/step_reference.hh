/**
 * @file
 * Test-side fast-forward reference: FunctionalCore's run()/state
 * surface, advanced one functionalStep() at a time.  functionalStep()
 * is the one ISA oracle — the golden checker replays it at every final
 * retirement — so holding the translated engine to this reference ties
 * fast-forward, checkpoints and BBV profiles to the same architectural
 * stream the detailed engine is checked against.
 *
 * Counting and BBV reporting follow the engine contract exactly: HALT
 * executes (and counts); a fetch off the text segment halts without
 * consuming budget; every taken control transfer ends a BBV region
 * (sim/bbv.hh), the transfer itself counting in the region it ends.
 */

#ifndef DMT_TESTS_STEP_REFERENCE_HH
#define DMT_TESTS_STEP_REFERENCE_HH

#include "casm/program.hh"
#include "sim/arch_state.hh"
#include "sim/bbv.hh"
#include "sim/functional.hh"
#include "sim/mainmem.hh"

namespace dmt
{

class StepReference
{
  public:
    /** Entry conditions of @p prog (kept by reference).  Unlike
     *  FunctionalCore, the exact OUT vector is kept by default. */
    explicit StepReference(const Program &prog,
                           bool stream_output = false)
        : prog_(prog)
    {
        state_.reset(prog);
        state_.stream_output = stream_output;
        mem_.loadProgram(prog);
    }

    /**
     * Execute up to @p max_instr instructions; stops early at HALT.
     * With @p bbv, report taken transfers and flush the trailing run,
     * like FunctionalCore::run() with a collector attached.
     * @return instructions executed in this call.
     */
    u64
    run(u64 max_instr, BbvCollector *bbv = nullptr)
    {
        u64 done = 0;
        u64 bbv_last = 0; // `done` at the last region boundary
        while (done < max_instr && !state_.halted) {
            if (!prog_.validTextAddr(state_.pc)) {
                functionalStep(state_, mem_, prog_); // halts only
                break;
            }
            // Branches write no register, so their outcome can be read
            // off the pre-step state.
            const Instruction &inst = prog_.fetch(state_.pc);
            const bool taken = inst.isJump()
                || (inst.isCondBranch()
                    && branchTaken(inst, state_.reg(inst.rs),
                                   state_.reg(inst.rt)));
            const StepResult r = functionalStep(state_, mem_, prog_);
            ++done;
            if (bbv && taken) {
                bbv->transfer(r.next_pc, done - bbv_last);
                bbv_last = done;
            }
        }
        if (bbv)
            bbv->flush(done - bbv_last);
        instr_count_ += done;
        return done;
    }

    /** Instructions executed since construction. */
    u64 instrCount() const { return instr_count_; }
    bool halted() const { return state_.halted; }
    const ArchState &state() const { return state_; }
    const MainMemory &memory() const { return mem_; }

  private:
    const Program &prog_;
    ArchState state_;
    MainMemory mem_;
    u64 instr_count_ = 0;
};

} // namespace dmt

#endif // DMT_TESTS_STEP_REFERENCE_HH

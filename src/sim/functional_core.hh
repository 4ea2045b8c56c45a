/**
 * @file
 * Functional (untimed) core for checkpointed fast-forward.
 *
 * functionalStep() is built for lock-step golden checking: it
 * materializes a full StepResult and re-derives the opcode class and
 * memory-access shape of every instruction on every step.  Skipping a
 * multi-hundred-million-instruction prefix needs none of that, so
 * FunctionalCore owns the architectural state, memory image and
 * instruction count of a fast-forward and advances them through the
 * superblock-translated threaded-code engine (sim/translated_core.hh).
 * That engine is bit-identical to stepping functionalStep() the same
 * distance, so every consumer of this API — checkpoint generation,
 * sampled runs, phase profiling — sees exactly the architectural
 * stream the golden checker replays.
 */

#ifndef DMT_SIM_FUNCTIONAL_CORE_HH
#define DMT_SIM_FUNCTIONAL_CORE_HH

#include <memory>

#include "casm/program.hh"
#include "sim/arch_state.hh"
#include "sim/mainmem.hh"
#include "sim/translated_core.hh"

namespace dmt
{

class BbvCollector;

/** Fast-forward state owner over one translated engine. */
class FunctionalCore
{
  public:
    /**
     * Bind to @p prog (kept by reference — it must outlive the core)
     * and reset to its initial conditions.  Fast-forward runs stream
     * OUT values (running hash + count) by default so architectural
     * state stays bounded; pass @p stream_output = false when a caller
     * needs the exact OUT vector (e.g. equivalence tests).
     */
    explicit FunctionalCore(const Program &prog,
                            bool stream_output = true);

    /** Re-initialize to the program's entry conditions. */
    void reset();

    /**
     * Execute up to @p max_instr instructions; stops early at HALT.
     * @return instructions actually executed in this call.
     */
    u64 run(u64 max_instr);

    /** Total instructions executed since reset() (checkpoint index). */
    u64 instrCount() const { return instr_count_; }

    bool halted() const { return state_.halted; }

    const ArchState &state() const { return state_; }
    const MainMemory &memory() const { return mem_; }
    const Program &program() const { return prog_; }

    /** Overwrite the architectural state (checkpoint resume). */
    void restore(const ArchState &state, const MainMemory &mem,
                 u64 instr_count);

    /** Rebind the translation-cache bound (drops cached blocks). */
    void setCacheBound(u32 max_blocks);

    /**
     * Attach (or detach, with nullptr) a BBV collector: subsequent
     * run() calls report every taken control transfer to it under the
     * contract in sim/bbv.hh.  The collector is not owned and must
     * outlive the attachment; collection state spans run() calls, so
     * interval vectors are invariant to chunking.
     */
    void setBbv(BbvCollector *bbv) { bbv_ = bbv; }

    /** Translation telemetry accumulated since the last cache rebind. */
    TranslationStats translationStats() const { return xlat_->stats(); }

  private:
    const Program &prog_;
    ArchState state_;
    MainMemory mem_;
    u64 instr_count_ = 0;
    BbvCollector *bbv_ = nullptr;
    std::unique_ptr<TranslatedCore> xlat_;
};

} // namespace dmt

#endif // DMT_SIM_FUNCTIONAL_CORE_HH

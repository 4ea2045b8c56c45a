/**
 * @file
 * Batched functional (untimed) core for checkpointed fast-forward.
 *
 * functionalStep() is built for lock-step golden checking: it
 * materializes a full StepResult and re-derives the opcode class and
 * memory-access shape of every instruction on every step.  Skipping a
 * multi-hundred-million-instruction prefix needs none of that, so
 * FunctionalCore pre-decodes the whole text segment once into a flat
 * side table (opcode class, access size, sign-extension, effective
 * destination) and executes in batches with no per-step result object.
 * Semantics stay anchored to the shared aluCompute()/branchTaken()
 * helpers — the same single source of truth the timing engine and the
 * golden checker use — so a fast-forwarded architectural state is
 * bit-identical to stepping functionalStep() the same distance.
 *
 * Since PR 9 the batched interpreter is only one of two engines behind
 * run(): DMT_FF_MODE selects between it ("interp") and the
 * superblock-translated threaded-code core ("translated", the default;
 * see sim/translated_core.hh).  Both produce bit-identical
 * architectural state, so every consumer of this API — checkpoint
 * generation, sampled runs, conformance — picks up the fast engine
 * with no code changes.
 */

#ifndef DMT_SIM_FUNCTIONAL_CORE_HH
#define DMT_SIM_FUNCTIONAL_CORE_HH

#include <memory>
#include <vector>

#include "casm/program.hh"
#include "sim/arch_state.hh"
#include "sim/mainmem.hh"
#include "sim/translated_core.hh"

namespace dmt
{

class BbvCollector;

/** Batched functional interpreter over a pre-decoded program. */
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

    /** Fast-forward engine in use (DMT_FF_MODE at construction). */
    FfMode mode() const { return mode_; }

    /** Switch engines; cached translations are kept across switches
     *  (they hold no architectural state). */
    void setMode(FfMode mode) { mode_ = mode; }

    /** Rebind the translation-cache bound (drops cached blocks). */
    void setCacheBound(u32 max_blocks);

    /**
     * Attach (or detach, with nullptr) a BBV collector: subsequent
     * run() calls report every taken control transfer to it under the
     * engine-independent contract in sim/bbv.hh.  The collector is not
     * owned and must outlive the attachment; collection state spans
     * run() calls, so interval vectors are invariant to chunking.
     */
    void setBbv(BbvCollector *bbv) { bbv_ = bbv; }

    /** Translation telemetry (zeros while no translated run happened). */
    TranslationStats translationStats() const;

  private:
    /** Pre-decoded per-instruction execution recipe. */
    struct DecodedOp
    {
        OpClass cls;
        u8 mem_bytes;     ///< 1/2/4 for loads+stores, 0 otherwise
        bool mem_signed;  ///< sign-extending load
        bool has_dest;    ///< writes rd
    };

    u64 runInterp(u64 max_instr);
    template <bool kBbv> u64 runInterpImpl(u64 max_instr);

    const Program &prog_;
    std::vector<DecodedOp> decoded_;
    ArchState state_;
    MainMemory mem_;
    u64 instr_count_ = 0;
    FfMode mode_;
    u32 cache_blocks_;
    BbvCollector *bbv_ = nullptr;
    /** Lazily built on the first translated-mode run(). */
    std::unique_ptr<TranslatedCore> translated_;
};

} // namespace dmt

#endif // DMT_SIM_FUNCTIONAL_CORE_HH

#include "sim/functional_core.hh"

namespace dmt
{

FunctionalCore::FunctionalCore(const Program &prog, bool stream_output)
    : prog_(prog), xlat_(std::make_unique<TranslatedCore>(prog))
{
    state_.stream_output = stream_output;
    reset();
}

void
FunctionalCore::setCacheBound(u32 max_blocks)
{
    xlat_ = std::make_unique<TranslatedCore>(prog_, max_blocks);
}

void
FunctionalCore::reset()
{
    const bool stream = state_.stream_output;
    state_.reset(prog_);
    state_.stream_output = stream;
    mem_.clear();
    mem_.loadProgram(prog_);
    instr_count_ = 0;
}

void
FunctionalCore::restore(const ArchState &state, const MainMemory &mem,
                        u64 instr_count)
{
    const bool stream = state_.stream_output;
    state_ = state;
    state_.stream_output = stream;
    mem_ = mem;
    instr_count_ = instr_count;
}

u64
FunctionalCore::run(u64 max_instr)
{
    const u64 done = xlat_->run(state_, mem_, max_instr, bbv_);
    instr_count_ += done;
    return done;
}

} // namespace dmt

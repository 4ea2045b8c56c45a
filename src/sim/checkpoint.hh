/**
 * @file
 * Architectural checkpoints: a snapshot of functional machine state —
 * registers, PC, OUT-stream digest, sparse memory pages — plus the
 * retired-instruction position it corresponds to.  A checkpoint is
 * everything a detailed DmtEngine (or another FunctionalCore) needs to
 * resume mid-stream, so the fast-forward cost of a paper-scale prefix
 * is paid once per workload and shared, in memory, across every sweep
 * cell of a process (exp/sampled.hh).
 *
 * Each checkpoint carries a hash of the program image (text, data,
 * entry): resuming one against a different program is an assertion
 * failure rather than silently resumed nonsense state.
 */

#ifndef DMT_SIM_CHECKPOINT_HH
#define DMT_SIM_CHECKPOINT_HH

#include "sim/arch_state.hh"
#include "sim/mainmem.hh"

namespace dmt
{

class FunctionalCore;
class Program;

/** Resumable architectural snapshot at a retired-instruction count. */
struct Checkpoint
{
    ArchState state;
    MainMemory mem;
    /** Instructions retired before this state (the resume position). */
    u64 instr_count = 0;
    /** programHash() of the image this snapshot belongs to. */
    u64 prog_hash = 0;

    /** FNV-1a digest of a program image (text + data + entry). */
    static u64 programHash(const Program &prog);

    /** Snapshot a functional core's current architectural state. */
    static Checkpoint capture(const FunctionalCore &core);
};

} // namespace dmt

#endif // DMT_SIM_CHECKPOINT_HH

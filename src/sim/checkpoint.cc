#include "sim/checkpoint.hh"

#include "casm/program.hh"
#include "sim/functional_core.hh"

namespace dmt
{

namespace
{

u64
fnv1a(u64 h, const void *data, size_t n)
{
    const u8 *p = static_cast<const u8 *>(data);
    for (size_t i = 0; i < n; ++i)
        h = (h ^ p[i]) * 0x100000001b3ull;
    return h;
}

} // namespace

u64
Checkpoint::programHash(const Program &prog)
{
    u64 h = ArchState::kOutHashInit;
    for (const Instruction &inst : prog.text) {
        const u8 fields[4] = {static_cast<u8>(inst.op), inst.rd, inst.rs,
                              inst.rt};
        h = fnv1a(h, fields, sizeof(fields));
        const u32 imm = static_cast<u32>(inst.imm);
        h = fnv1a(h, &imm, sizeof(imm));
    }
    if (!prog.data.empty())
        h = fnv1a(h, prog.data.data(), prog.data.size());
    const u32 entry = prog.entry;
    return fnv1a(h, &entry, sizeof(entry));
}

Checkpoint
Checkpoint::capture(const FunctionalCore &core)
{
    Checkpoint ck;
    ck.state = core.state();
    ck.mem = core.memory();
    ck.instr_count = core.instrCount();
    ck.prog_hash = programHash(core.program());
    return ck;
}

} // namespace dmt

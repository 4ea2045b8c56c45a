/**
 * @file
 * TranslatedCore implementation.  Layout of the hot loop:
 *
 *   enter_target  — validate a PC, look up / translate its superblock
 *   handlers      — one per opcode, plus a synthetic GOTO that closes
 *                   capped / text-end blocks with a budget-free
 *                   fall-through transfer
 *   TAKE          — chained block→block transfer straight through
 *                   pre-resolved pointers (eviction severs stale
 *                   links, so no liveness check runs here), expanded
 *                   per handler for per-site branch-target history
 *   chain_miss    — out-of-line cache lookup that installs the chain
 *                   link for next time
 *
 * Dispatch is direct-threaded via computed goto (a GNU extension that
 * GCC and Clang implement); other compilers are rejected at build time.
 *
 * Exactness notes, mirrored from functionalStep():
 *  - the instruction budget is retired per instruction, so a run can
 *    stop mid-block with the precise next PC (checkpoint positions);
 *  - an invalid fetch PC (off text / misaligned) halts without
 *    consuming budget, *after* the budget check: the off-text fetch
 *    is not an executed instruction;
 *  - HALT consumes budget and leaves PC on itself;
 *  - JALR reads rs before the (possibly aliasing) link write;
 *  - loads of unallocated pages read zero and never allocate;
 *  - writes to r0 are routed to a dump slot at translation time.
 */

#include "sim/translated_core.hh"

#include <algorithm>
#include <cstring>

#include "common/log.hh"
#include "sim/bbv.hh"

namespace dmt
{

TranslationStats &
TranslationStats::operator+=(const TranslationStats &o)
{
    blocks_translated += o.blocks_translated;
    retranslations += o.retranslations;
    evictions += o.evictions;
    chain_hits += o.chain_hits;
    chain_misses += o.chain_misses;
    indirect_hits += o.indirect_hits;
    indirect_misses += o.indirect_misses;
    blocks_executed += o.blocks_executed;
    instrs_executed += o.instrs_executed;
    return *this;
}

TranslationStats
TranslationStats::operator-(const TranslationStats &o) const
{
    TranslationStats d;
    d.blocks_translated = blocks_translated - o.blocks_translated;
    d.retranslations = retranslations - o.retranslations;
    d.evictions = evictions - o.evictions;
    d.chain_hits = chain_hits - o.chain_hits;
    d.chain_misses = chain_misses - o.chain_misses;
    d.indirect_hits = indirect_hits - o.indirect_hits;
    d.indirect_misses = indirect_misses - o.indirect_misses;
    d.blocks_executed = blocks_executed - o.blocks_executed;
    d.instrs_executed = instrs_executed - o.instrs_executed;
    return d;
}

// ---- translation -------------------------------------------------------

namespace
{

/** Handler kinds (indices into the label table) are raw Opcode
 *  values, plus synthetic kinds: kGotoKind closes capped / text-end
 *  blocks with a budget-free transfer, and the inline-jump kinds are
 *  J/JAL whose direct target was followed during translation
 *  (superblock extension), so they execute as sequential micro-ops
 *  whose next PC is the target. */
constexpr u8 kGotoKind = static_cast<u8>(kNumOpcodes);
constexpr u8 kJInlineKind = static_cast<u8>(kNumOpcodes) + 1;
constexpr u8 kJalInlineKind = static_cast<u8>(kNumOpcodes) + 2;
constexpr u32 kNumKinds = static_cast<u32>(kNumOpcodes) + 3;

/** Exit-table bound per block: conditional branches index their taken
 *  exit through the u8 MicroOp.rd field. */
constexpr size_t kMaxBlockExits = 254;

constexpr u8
opKind(Opcode op)
{
    return static_cast<u8>(op);
}

// The dispatch table below is written in Opcode declaration order;
// these anchors turn any enum reshuffle into a compile error instead
// of silently wrong threaded code.
static_assert(opKind(Opcode::ADD) == 0);
static_assert(opKind(Opcode::SLT) == 12);
static_assert(opKind(Opcode::ADDI) == 20);
static_assert(opKind(Opcode::LUI) == 26);
static_assert(opKind(Opcode::LW) == 27);
static_assert(opKind(Opcode::SW) == 32);
static_assert(opKind(Opcode::BEQ) == 35);
static_assert(opKind(Opcode::J) == 41);
static_assert(opKind(Opcode::NOP) == 45);
static_assert(opKind(Opcode::HALT) == 46);
static_assert(opKind(Opcode::OUT) == 47);
static_assert(kNumOpcodes == 48);

/** Little-endian composes/decomposes; single loads/stores after the
 *  optimizer on LE hosts, correct everywhere. */
inline u32
ld32(const u8 *p)
{
    return static_cast<u32>(p[0]) | static_cast<u32>(p[1]) << 8
        | static_cast<u32>(p[2]) << 16 | static_cast<u32>(p[3]) << 24;
}

inline u16
ld16(const u8 *p)
{
    return static_cast<u16>(p[0] | p[1] << 8);
}

inline void
st32(u8 *p, u32 v)
{
    p[0] = static_cast<u8>(v);
    p[1] = static_cast<u8>(v >> 8);
    p[2] = static_cast<u8>(v >> 16);
    p[3] = static_cast<u8>(v >> 24);
}

inline void
st16(u8 *p, u16 v)
{
    p[0] = static_cast<u8>(v);
    p[1] = static_cast<u8>(v >> 8);
}

} // namespace

TranslatedCore::TranslatedCore(const Program &prog, u32 max_blocks)
    : prog_(prog), max_blocks_(max_blocks < 1 ? 1 : max_blocks),
      idx2block_(prog.text.size()),
      ever_translated_(prog.text.size(), 0)
{
}

void
TranslatedCore::invalidateAll()
{
    for (u32 i = 0; i < slots_.size(); ++i) {
        if (!slots_[i].live)
            continue;
        Block &b = slots_[i];
        b.live = false;
        ++b.gen;
        b.code.clear();
        b.code.shrink_to_fit();
        b.exits.clear();
        b.exits.shrink_to_fit();
        free_slots_.push_back(i);
    }
    std::fill(idx2block_.begin(), idx2block_.end(), TargetRef{});
    live_blocks_ = 0;
}

u32
TranslatedCore::addExit(Block *b, Addr target)
{
    Exit e;
    e.target_pc = target;
    b->exits.push_back(e);
    return static_cast<u32>(b->exits.size() - 1);
}

void
TranslatedCore::evictOne()
{
    // Least-recently-entered block.  The linear scan is acceptable:
    // evictions happen only at the cache bound, and the bound is tiny
    // exactly when someone (a test) wants eviction churn.
    u32 victim = kNoBlock;
    u64 oldest = ~u64{0};
    for (u32 i = 0; i < slots_.size(); ++i) {
        if (slots_[i].live && slots_[i].last_used < oldest) {
            oldest = slots_[i].last_used;
            victim = i;
        }
    }
    DMT_ASSERT(victim != kNoBlock,
               "translation cache eviction with no live blocks");
    Block &b = slots_[victim];
    idx2block_[(b.start_pc - Program::kTextBase) >> 2] = TargetRef{};
    b.live = false;
    ++b.gen;
    b.code.clear();
    b.code.shrink_to_fit();
    b.exits.clear();
    b.exits.shrink_to_fit();
    // Sever every chain link into the victim.  Paying a full exit walk
    // here (rare: only at the cache bound) is what lets chained
    // transfers in the dispatch loop jump through raw pointers with no
    // liveness check at all.
    for (Block &s : slots_) {
        if (!s.live)
            continue;
        for (Exit &e : s.exits) {
            if (e.slot == victim) {
                e.code = nullptr;
                e.exits = nullptr;
                e.entry = nullptr;
                e.slot = kNoBlock;
            }
        }
    }
    free_slots_.push_back(victim);
    --live_blocks_;
    ++stats_.evictions;
}

u32
TranslatedCore::lookupOrTranslate(u32 start_idx)
{
    const u32 slot = idx2block_[start_idx].slot;
    if (slot != kNoBlock) {
        slots_[slot].last_used = ++use_clock_;
        return slot;
    }
    return translate(start_idx);
}

u32
TranslatedCore::translate(u32 start_idx)
{
    if (live_blocks_ >= max_blocks_)
        evictOne();

    u32 slot;
    if (!free_slots_.empty()) {
        slot = free_slots_.back();
        free_slots_.pop_back();
    } else {
        slot = static_cast<u32>(slots_.size());
        slots_.emplace_back();
    }

    Block &b = slots_[slot];
    b.live = true;
    b.start_pc = Program::kTextBase + static_cast<Addr>(start_idx) * 4;
    b.last_used = ++use_clock_;

    const size_t text_size = prog_.text.size();
    u32 idx = start_idx;
    bool open = true;
    while (open) {
        const Instruction &inst = prog_.text[idx];
        const Addr pc = Program::kTextBase + static_cast<Addr>(idx) * 4;
        MicroOp u{};
        u8 kind = opKind(inst.op);
        u.rd = inst.effectiveDest() >= 0
            ? inst.rd
            : static_cast<u8>(kNumLogRegs); // r0 / no-dest write dump
        u.rs = inst.rs;
        u.rt = inst.rt;
        u.imm = static_cast<u32>(inst.imm);
        u.aux = pc + 4; // sequential-op next PC (exact budget stops)
        u32 next_idx = idx + 1;

        switch (opInfo(inst.op).opClass) {
          case OpClass::IntAlu:
          case OpClass::IntMul:
          case OpClass::IntDiv:
            // Fold translation-time constants so handlers are pure
            // data moves: shift amounts pre-masked, LUI pre-shifted.
            if (inst.op == Opcode::SLL || inst.op == Opcode::SRL
                || inst.op == Opcode::SRA) {
                u.imm &= 31;
            } else if (inst.op == Opcode::LUI) {
                u.imm <<= 16;
            }
            break;
          case OpClass::MemRead:
          case OpClass::MemWrite:
            break;
          case OpClass::Control:
            switch (inst.op) {
              case Opcode::J:
              case Opcode::JAL: {
                  // Direct jumps with an in-text target are followed
                  // inline (superblock extension with tail
                  // duplication): the jump becomes a sequential
                  // micro-op whose next PC is the target, and decoding
                  // continues there.  Only an off-text target ends the
                  // block with an Exit, so block entry re-checks it.
                  const Addr t = inst.jumpTarget();
                  if (inst.op == Opcode::JAL)
                      u.imm = pc + 4; // link value, folded
                  if (prog_.validTextAddr(t)) {
                      kind = inst.op == Opcode::J ? kJInlineKind
                                                  : kJalInlineKind;
                      u.aux = t;
                      next_idx = (t - Program::kTextBase) >> 2;
                  } else {
                      u.aux = addExit(&b, t);
                      open = false;
                  }
                  break;
              }
              case Opcode::JR:
              case Opcode::JALR:
                u.imm = pc + 4; // link value (unused by JR)
                // Indirect site: the Exit doubles as a one-entry
                // next-block predictor (target_pc = last seen).
                u.aux = addExit(&b, 0);
                open = false;
                break;
              default:
                // Conditional branch: taken-edge side exit, indexed
                // through rd (branches write no register); aux keeps
                // the fall-through PC for exact budget stops.
                u.rd = static_cast<u8>(
                    addExit(&b, inst.branchTarget(pc)));
                break;
            }
            break;
          case OpClass::Other:
            if (inst.op == Opcode::HALT) {
                u.aux = pc; // HALT leaves the PC on itself
                open = false;
            }
            break;
        }

        u.handler = labels_[kind];
        b.code.push_back(u);
        idx = next_idx;
        if (open
            && (idx >= text_size || b.code.size() >= kMaxBlockLen
                || b.exits.size() >= kMaxBlockExits)) {
            // Close capped / text-end blocks with a budget-free
            // transfer to wherever decoding would continue.  An
            // off-text fall-through target halts at entry, exactly
            // like functionalStep()'s fetch check.
            MicroOp g{};
            g.rd = static_cast<u8>(kNumLogRegs);
            g.aux = addExit(
                &b, Program::kTextBase + static_cast<Addr>(idx) * 4);
            g.handler = labels_[kGotoKind];
            b.code.push_back(g);
            open = false;
        }
    }

    idx2block_[start_idx] = TargetRef{b.code.data(), b.exits.data(),
                                      b.code.front().handler, slot};
    ++live_blocks_;
    ++stats_.blocks_translated;
    if (ever_translated_[start_idx])
        ++stats_.retranslations;
    ever_translated_[start_idx] = 1;
    return slot;
}

// ---- memory fast path --------------------------------------------------

inline const u8 *
TranslatedCore::readPage(const MainMemory &mem, Addr ea)
{
    const u32 page = ea >> MainMemory::kPageBits;
    TlbR &t = rtlb_[page & (kTlbEntries - 1)];
    if (t.page == page)
        return t.base;
    const u8 *base = mem.pageData(ea);
    if (base) {
        // Absent pages read as zero and must never be cached: a later
        // store may allocate them.
        t.page = page;
        t.base = base;
    }
    return base;
}

inline u8 *
TranslatedCore::writePage(MainMemory &mem, Addr ea)
{
    const u32 page = ea >> MainMemory::kPageBits;
    TlbW &t = wtlb_[page & (kTlbEntries - 1)];
    if (t.page == page)
        return t.base;
    u8 *base = mem.pageDataWritable(ea);
    t.page = page;
    t.base = base;
    return base;
}

// ---- execution ---------------------------------------------------------

#if !defined(__GNUC__) && !defined(__clang__)
#error "translated_core.cc needs computed goto (labels as values)"
#endif

#define OP(name) L_##name:
#define OP_SYNTH_GOTO L_GOTO:
#define OP_SYNTH_J_INLINE L_J_INLINE:
#define OP_SYNTH_JAL_INLINE L_JAL_INLINE:
#define DISPATCH() goto *up->handler

/** Enter a cached block by slot index (lookup / resolve paths).  LRU
 *  touches happen only in lookupOrTranslate, keeping transfers free of
 *  member read-modify-writes. */
#define ENTER_SLOT(slot_expr)                                          \
    do {                                                               \
        cur_slot = (slot_expr);                                        \
        const Block &b_ = slots[cur_slot];                             \
        ++n_blocks;                                                    \
        up = b_.code.data();                                           \
        exits = b_.exits.data();                                       \
    } while (0)

/** Dispatch into a block whose first-handler label was cached at
 *  chain-install time: the indirect jump's target comes from one load
 *  of `e` instead of the dependent pair code → code->handler, so a
 *  host-mispredicted transfer redirects one load-latency sooner. */
#define DISPATCH_ENTRY(e) goto *(e)

/** Enter a block through a chained exit and dispatch: four loads off
 *  one Exit and an indirect jump, no table indexing and no liveness
 *  check (eviction severed any stale link). */
#define ENTER_CHAIN()                                                  \
    do {                                                               \
        const void *entry_ = ex->entry;                                \
        cur_slot = ex->slot;                                           \
        ++n_blocks;                                                    \
        up = ex->code;                                                 \
        exits = ex->exits;                                             \
        DISPATCH_ENTRY(entry_);                                        \
    } while (0)

/** Retire one sequential instruction; stop exactly on the budget
 *  (every sequential micro-op carries its next PC in aux). */
#define NEXT()                                                         \
    do {                                                               \
        if (--remaining == 0) {                                        \
            final_pc = up->aux;                                        \
            goto done;                                                 \
        }                                                              \
        ++up;                                                          \
        DISPATCH();                                                    \
    } while (0)

namespace
{

/** Cold tail of the BBV fast path: write back the engine's cursor,
 *  run the exact scalar transfer (interval close / first touch) and
 *  return the refreshed interval room.  Out of line so the expansion
 *  at every transfer site stays a few instructions. */
__attribute__((noinline)) u64
bbvSlowTransfer(BbvCollector *bbv, u64 room, u32 cur_key, u32 key,
                u64 n)
{
    bbv->syncHot(room, cur_key);
    bbv->transferKey(key, n);
    return bbv->hotRoom();
}

} // namespace

/** Report a taken transfer to the BBV collector: the instructions
 *  retired since the previous boundary fall out of the budget counter
 *  as a delta, and the region key is computed here, where the ALU
 *  work hides in the dispatch loop's latency shadow.  A transfer that
 *  re-enters the current region's key (a loop back to its own head —
 *  a large share of all transfers) is not reported at all: merging
 *  contiguous same-key regions is exact, because their histogram
 *  contributions add and the slow path splits a merged delta at the
 *  identical boundary position.  The rest run the collector's
 *  documented hot-path bump (see BbvCollector::hotCounts) on engine
 *  locals — with the collector off this is one predictable branch per
 *  transfer, and with it on the dispatch loop only makes a call at
 *  interval boundaries and first block touches. */
#define BBV_NOTE(target_expr)                                          \
    do {                                                               \
        if (bbv_on) {                                                  \
            const u32 bkey_ =                                          \
                BbvCollector::keyForPc((target_expr), bbv_text_size);  \
            if (bkey_ != bbv_cur_key) {                                \
                const u64 bn_ = bbv_rem - remaining;                   \
                const u64 bc_ = bbv_counts[bbv_cur_key];               \
                if (bn_ < bbv_room && bc_ != 0) {                      \
                    bbv_counts[bbv_cur_key] = bc_ + bn_;               \
                    bbv_room -= bn_;                                   \
                } else {                                               \
                    bbv_room = bbvSlowTransfer(                        \
                        bbv, bbv_room, bbv_cur_key, bkey_, bn_);       \
                }                                                      \
                bbv_rem = remaining;                                   \
                bbv_cur_key = bkey_;                                   \
            }                                                          \
        }                                                              \
    } while (0)

/** Retire a taken control transfer through exit `ex`.  The chained
 *  fast path is expanded inline so every handler owns a distinct
 *  indirect-jump site (per-site branch-target history), exactly like
 *  the per-handler DISPATCH in NEXT; only unchained exits share the
 *  out-of-line resolve path. */
#define TAKE()                                                         \
    do {                                                               \
        --remaining;                                                   \
        BBV_NOTE(ex->target_pc);                                       \
        if (remaining == 0) {                                          \
            final_pc = ex->target_pc;                                  \
            goto done;                                                 \
        }                                                              \
        if (ex->code) {                                                \
            ++n_chain_hits;                                            \
            ENTER_CHAIN();                                             \
        }                                                              \
        goto chain_miss;                                               \
    } while (0)

/** Retire an inlined J/JAL (superblock tail duplication): sequential
 *  in the translation but an architectural taken transfer, so it is a
 *  BBV region boundary, with the target PC already folded into aux. */
#define NEXT_JUMP()                                                    \
    do {                                                               \
        --remaining;                                                   \
        BBV_NOTE(up->aux);                                             \
        if (remaining == 0) {                                          \
            final_pc = up->aux;                                        \
            goto done;                                                 \
        }                                                              \
        ++up;                                                          \
        DISPATCH();                                                    \
    } while (0)

/** Retire an indirect transfer (JR/JALR) to `target`.  The flat
 *  PC→block table is the predictor: one subtract, one bounds/align
 *  check, one 16-byte TargetRef load — the same cost monomorphic or
 *  megamorphic, where a cached-last-target compare would mispredict
 *  on every polymorphic dispatch.  Expanded inline per handler for
 *  the same per-site branch-target-history reason as TAKE.  Only an
 *  untranslated or invalid target drops to the resolve path, through
 *  this site's exit slot (which exists solely for that hand-off). */
#define INDIRECT_TAKE()                                                \
    do {                                                               \
        --remaining;                                                   \
        BBV_NOTE(target);                                              \
        if (remaining == 0) {                                          \
            final_pc = target;                                         \
            goto done;                                                 \
        }                                                              \
        const u32 ioff_ = target - text_base;                          \
        if (ioff_ < text_bytes && (ioff_ & 3) == 0) {                  \
            const TargetRef &tr_ = i2b[ioff_ >> 2];                    \
            if (tr_.code) {                                            \
                ++n_ind_hits;                                          \
                cur_slot = tr_.slot;                                   \
                ++n_blocks;                                            \
                up = tr_.code;                                         \
                exits = tr_.exits;                                     \
                DISPATCH_ENTRY(tr_.entry);                             \
            }                                                          \
        }                                                              \
        ++n_ind_misses;                                                \
        ex = const_cast<Exit *>(&exits[up->aux]);                      \
        ex->target_pc = target;                                        \
        ex->code = nullptr;                                            \
        goto resolve_exit;                                             \
    } while (0)

u64
TranslatedCore::run(ArchState &state, MainMemory &mem, u64 max_instr,
                    BbvCollector *bbv)
{
    if (max_instr == 0 || state.halted)
        return 0;

    // BBV collection state: bbv_rem trails `remaining` at the last
    // region boundary, so the instruction count of a region falls out
    // as a subtraction instead of a second hot-loop counter.  The
    // histogram pointer, interval room and open-region key live in
    // locals (see BbvCollector::hotCounts) and are written back via
    // syncHot before any other collector call.
    const bool bbv_on = bbv != nullptr;
    u64 bbv_rem = max_instr;
    const u32 bbv_text_size = static_cast<u32>(prog_.text.size());
    u64 *const bbv_counts = bbv_on ? bbv->hotCounts() : nullptr;
    u64 bbv_room = bbv_on ? bbv->hotRoom() : 0;
    u32 bbv_cur_key = bbv_on ? bbv->currentKey() : 0;

    // Architectural registers staged into a flat local array; index
    // kNumLogRegs is a write-only dump standing in for r0
    // destinations, so the hot loop needs no r0 checks (reads are safe
    // because regs[0] is invariantly zero in ArchState).
    u32 regs[kNumLogRegs + 1];
    std::memcpy(regs, state.regs.data(), sizeof(u32) * kNumLogRegs);
    regs[kNumLogRegs] = 0;

    for (u32 i = 0; i < kTlbEntries; ++i) {
        rtlb_[i] = TlbR{};
        wtlb_[i] = TlbW{};
    }

    u64 remaining = max_instr;
    Addr final_pc = 0;
    bool halted = false;

    const MicroOp *up = nullptr;
    const Exit *exits = nullptr;
    Exit *ex = nullptr;
    u32 cur_slot = kNoBlock;
    Addr target = state.pc;

    // Hot-path state staged in locals so the dispatch loop performs no
    // member read-modify-writes; flushed at `done`.  The slot array
    // pointer must be re-read after any lookupOrTranslate() call
    // (translation may grow the vector); the idx2block_ table never
    // resizes, so its pointer is stable.
    const Block *slots = slots_.data();
    const TargetRef *i2b = idx2block_.data();
    const Addr text_base = Program::kTextBase;
    const u32 text_bytes = static_cast<u32>(prog_.text.size()) * 4;
    u64 n_blocks = 0;
    u64 n_chain_hits = 0, n_chain_misses = 0;
    u64 n_ind_hits = 0, n_ind_misses = 0;

    // One entry per Opcode in declaration order (anchored by the
    // static_asserts above) plus the synthetic kinds.  Exported to
    // translate() through labels_: micro-ops carry their handler
    // address directly, so dispatch needs no table load.
    static const void *kLabels[] = {
        &&L_ADD, &&L_SUB, &&L_AND, &&L_OR, &&L_XOR, &&L_NOR,
        &&L_SLL, &&L_SRL, &&L_SRA, &&L_SLLV, &&L_SRLV, &&L_SRAV,
        &&L_SLT, &&L_SLTU,
        &&L_MUL, &&L_MULH, &&L_DIV, &&L_DIVU, &&L_REM, &&L_REMU,
        &&L_ADDI, &&L_ANDI, &&L_ORI, &&L_XORI, &&L_SLTI, &&L_SLTIU,
        &&L_LUI,
        &&L_LW, &&L_LH, &&L_LHU, &&L_LB, &&L_LBU,
        &&L_SW, &&L_SH, &&L_SB,
        &&L_BEQ, &&L_BNE, &&L_BLT, &&L_BGE, &&L_BLTU, &&L_BGEU,
        &&L_J, &&L_JAL, &&L_JR, &&L_JALR,
        &&L_NOP, &&L_HALT, &&L_OUT,
        &&L_GOTO, &&L_J_INLINE, &&L_JAL_INLINE,
    };
    static_assert(sizeof(kLabels) / sizeof(kLabels[0]) == kNumKinds);
    labels_ = kLabels;

    // Loop-top fetch check, after the budget check by construction:
    // every path here either has budget left or exited already.
    if (!prog_.validTextAddr(target)) {
        final_pc = target;
        halted = true;
        goto done;
    }
    {
        const u32 slot =
            lookupOrTranslate((target - Program::kTextBase) >> 2);
        slots = slots_.data();
        ENTER_SLOT(slot);
    }
    DISPATCH();

    OP(ADD) regs[up->rd] = regs[up->rs] + regs[up->rt]; NEXT();
    OP(SUB) regs[up->rd] = regs[up->rs] - regs[up->rt]; NEXT();
    OP(AND) regs[up->rd] = regs[up->rs] & regs[up->rt]; NEXT();
    OP(OR) regs[up->rd] = regs[up->rs] | regs[up->rt]; NEXT();
    OP(XOR) regs[up->rd] = regs[up->rs] ^ regs[up->rt]; NEXT();
    OP(NOR) regs[up->rd] = ~(regs[up->rs] | regs[up->rt]); NEXT();
    OP(SLL) regs[up->rd] = regs[up->rs] << up->imm; NEXT();
    OP(SRL) regs[up->rd] = regs[up->rs] >> up->imm; NEXT();
    OP(SRA)
    regs[up->rd] = static_cast<u32>(
        static_cast<i32>(regs[up->rs]) >> up->imm);
    NEXT();
    OP(SLLV) regs[up->rd] = regs[up->rs] << (regs[up->rt] & 31); NEXT();
    OP(SRLV) regs[up->rd] = regs[up->rs] >> (regs[up->rt] & 31); NEXT();
    OP(SRAV)
    regs[up->rd] = static_cast<u32>(
        static_cast<i32>(regs[up->rs]) >> (regs[up->rt] & 31));
    NEXT();
    OP(SLT)
    regs[up->rd] = static_cast<i32>(regs[up->rs])
                       < static_cast<i32>(regs[up->rt])
                     ? 1 : 0;
    NEXT();
    OP(SLTU) regs[up->rd] = regs[up->rs] < regs[up->rt] ? 1 : 0; NEXT();
    OP(MUL)
    regs[up->rd] = static_cast<u32>(
        static_cast<i64>(static_cast<i32>(regs[up->rs]))
        * static_cast<i64>(static_cast<i32>(regs[up->rt])));
    NEXT();
    OP(MULH)
    regs[up->rd] = static_cast<u32>(
        (static_cast<i64>(static_cast<i32>(regs[up->rs]))
         * static_cast<i64>(static_cast<i32>(regs[up->rt])))
        >> 32);
    NEXT();
    OP(DIV)
    {
        const u32 a = regs[up->rs], b = regs[up->rt];
        regs[up->rd] = b == 0 ? 0xFFFFFFFFu
            : (a == 0x80000000u && b == 0xFFFFFFFFu)
            ? 0x80000000u
            : static_cast<u32>(static_cast<i32>(a)
                               / static_cast<i32>(b));
        NEXT();
    }
    OP(DIVU)
    {
        const u32 b = regs[up->rt];
        regs[up->rd] = b == 0 ? 0xFFFFFFFFu : regs[up->rs] / b;
        NEXT();
    }
    OP(REM)
    {
        const u32 a = regs[up->rs], b = regs[up->rt];
        regs[up->rd] = b == 0 ? a
            : (a == 0x80000000u && b == 0xFFFFFFFFu)
            ? 0
            : static_cast<u32>(static_cast<i32>(a)
                               % static_cast<i32>(b));
        NEXT();
    }
    OP(REMU)
    {
        const u32 b = regs[up->rt];
        regs[up->rd] = b == 0 ? regs[up->rs] : regs[up->rs] % b;
        NEXT();
    }
    OP(ADDI) regs[up->rd] = regs[up->rs] + up->imm; NEXT();
    OP(ANDI) regs[up->rd] = regs[up->rs] & up->imm; NEXT();
    OP(ORI) regs[up->rd] = regs[up->rs] | up->imm; NEXT();
    OP(XORI) regs[up->rd] = regs[up->rs] ^ up->imm; NEXT();
    OP(SLTI)
    regs[up->rd] = static_cast<i32>(regs[up->rs])
                       < static_cast<i32>(up->imm)
                     ? 1 : 0;
    NEXT();
    OP(SLTIU) regs[up->rd] = regs[up->rs] < up->imm ? 1 : 0; NEXT();
    OP(LUI) regs[up->rd] = up->imm; NEXT();

    OP(LW)
    {
        const Addr ea = (regs[up->rs] + up->imm) & ~Addr{3};
        const u8 *p = readPage(mem, ea);
        regs[up->rd] = p ? ld32(p + (ea & kPageMask)) : 0;
        NEXT();
    }
    OP(LH)
    {
        const Addr ea = (regs[up->rs] + up->imm) & ~Addr{1};
        const u8 *p = readPage(mem, ea);
        const u16 v = p ? ld16(p + (ea & kPageMask)) : 0;
        regs[up->rd] =
            static_cast<u32>(static_cast<i32>(static_cast<i16>(v)));
        NEXT();
    }
    OP(LHU)
    {
        const Addr ea = (regs[up->rs] + up->imm) & ~Addr{1};
        const u8 *p = readPage(mem, ea);
        regs[up->rd] = p ? ld16(p + (ea & kPageMask)) : 0;
        NEXT();
    }
    OP(LB)
    {
        const Addr ea = regs[up->rs] + up->imm;
        const u8 *p = readPage(mem, ea);
        const u8 v = p ? p[ea & kPageMask] : 0;
        regs[up->rd] =
            static_cast<u32>(static_cast<i32>(static_cast<i8>(v)));
        NEXT();
    }
    OP(LBU)
    {
        const Addr ea = regs[up->rs] + up->imm;
        const u8 *p = readPage(mem, ea);
        regs[up->rd] = p ? p[ea & kPageMask] : 0;
        NEXT();
    }
    OP(SW)
    {
        const Addr ea = (regs[up->rs] + up->imm) & ~Addr{3};
        st32(writePage(mem, ea) + (ea & kPageMask), regs[up->rt]);
        NEXT();
    }
    OP(SH)
    {
        const Addr ea = (regs[up->rs] + up->imm) & ~Addr{1};
        st16(writePage(mem, ea) + (ea & kPageMask),
             static_cast<u16>(regs[up->rt]));
        NEXT();
    }
    OP(SB)
    {
        const Addr ea = regs[up->rs] + up->imm;
        writePage(mem, ea)[ea & kPageMask] =
            static_cast<u8>(regs[up->rt]);
        NEXT();
    }

    OP(BEQ)
    if (regs[up->rs] == regs[up->rt]) {
        ex = const_cast<Exit *>(&exits[up->rd]);
        TAKE();
    }
    NEXT();
    OP(BNE)
    if (regs[up->rs] != regs[up->rt]) {
        ex = const_cast<Exit *>(&exits[up->rd]);
        TAKE();
    }
    NEXT();
    OP(BLT)
    if (static_cast<i32>(regs[up->rs])
        < static_cast<i32>(regs[up->rt])) {
        ex = const_cast<Exit *>(&exits[up->rd]);
        TAKE();
    }
    NEXT();
    OP(BGE)
    if (static_cast<i32>(regs[up->rs])
        >= static_cast<i32>(regs[up->rt])) {
        ex = const_cast<Exit *>(&exits[up->rd]);
        TAKE();
    }
    NEXT();
    OP(BLTU)
    if (regs[up->rs] < regs[up->rt]) {
        ex = const_cast<Exit *>(&exits[up->rd]);
        TAKE();
    }
    NEXT();
    OP(BGEU)
    if (regs[up->rs] >= regs[up->rt]) {
        ex = const_cast<Exit *>(&exits[up->rd]);
        TAKE();
    }
    NEXT();

    OP(J)
    ex = const_cast<Exit *>(&exits[up->aux]);
    TAKE();
    OP(JAL)
    regs[up->rd] = up->imm;
    ex = const_cast<Exit *>(&exits[up->aux]);
    TAKE();
    OP(JR)
    {
        target = regs[up->rs];
        INDIRECT_TAKE();
    }
    OP(JALR)
    {
        target = regs[up->rs]; // read rs before the aliasing link write
        regs[up->rd] = up->imm;
        INDIRECT_TAKE();
    }

    OP(NOP) NEXT();
    OP(HALT)
    --remaining; // HALT consumes budget, like functionalStep()
    halted = true;
    final_pc = up->aux; // aux = the HALT's own pc (pc does not advance)
    goto done;
    OP(OUT)
    state.emitOut(regs[up->rs]);
    NEXT();

    OP_SYNTH_GOTO
    // Budget-free fall-through closing a capped / text-end block.
    ex = const_cast<Exit *>(&exits[up->aux]);
    if (ex->code) {
        ++n_chain_hits;
        ENTER_CHAIN();
    }
    goto chain_miss;

    OP_SYNTH_J_INLINE
    // Direct jump inlined into the superblock (tail duplication):
    // consumes budget like any instruction, aux = target PC.
    NEXT_JUMP();

    OP_SYNTH_JAL_INLINE
    // Inlined call: write the link value, keep decoding sequentially.
    regs[up->rd] = up->imm;
    NEXT_JUMP();

chain_miss:
    ++n_chain_misses;
resolve_exit:
    target = ex->target_pc;
    if (!prog_.validTextAddr(target)) {
        final_pc = target;
        halted = true;
        goto done;
    }
    {
        // Translation below may evict the very block `ex` lives in;
        // re-reach the exit through its slot generation before
        // installing the chain link.
        const u32 src_slot = cur_slot;
        const u32 src_gen = slots_[src_slot].gen;
        const u32 exit_idx = static_cast<u32>(ex - exits);
        const u32 slot =
            lookupOrTranslate((target - Program::kTextBase) >> 2);
        slots = slots_.data();
        if (slots_[src_slot].gen == src_gen) {
            Exit &live_exit = slots_[src_slot].exits[exit_idx];
            live_exit.code = slots_[slot].code.data();
            live_exit.exits = slots_[slot].exits.data();
            live_exit.entry = slots_[slot].code.front().handler;
            live_exit.slot = slot;
        }
        ENTER_SLOT(slot);
    }
    DISPATCH();

done:
    if (bbv_on) {
        bbv->syncHot(bbv_room, bbv_cur_key);
        bbv->flush(bbv_rem - remaining);
    }
    std::memcpy(state.regs.data(), regs, sizeof(u32) * kNumLogRegs);
    state.pc = final_pc;
    if (halted)
        state.halted = true;
    const u64 executed = max_instr - remaining;
    stats_.blocks_executed += n_blocks;
    stats_.chain_hits += n_chain_hits;
    stats_.chain_misses += n_chain_misses;
    stats_.indirect_hits += n_ind_hits;
    stats_.indirect_misses += n_ind_misses;
    stats_.instrs_executed += executed;
    return executed;
}

#undef OP
#undef OP_SYNTH_GOTO
#undef OP_SYNTH_J_INLINE
#undef OP_SYNTH_JAL_INLINE
#undef DISPATCH
#undef DISPATCH_ENTRY
#undef ENTER_SLOT
#undef ENTER_CHAIN
#undef NEXT
#undef NEXT_JUMP
#undef BBV_NOTE
#undef TAKE
#undef INDIRECT_TAKE

} // namespace dmt

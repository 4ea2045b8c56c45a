/**
 * @file
 * Functional-semantics tests: exhaustive ALU behaviour, branch
 * conditions, memory access sizes/sign extension, control flow, and
 * the golden checker's mismatch detection.
 */

#include <gtest/gtest.h>

#include "casm/builder.hh"
#include "common/log.hh"
#include "sim/checker.hh"
#include "sim/functional.hh"
#include "workloads/workloads.hh"

namespace dmt
{
namespace
{

using namespace reg;

u32
alu(Opcode op, u32 a, u32 b, i32 imm = 0)
{
    Instruction inst;
    inst.op = op;
    inst.imm = imm;
    return aluCompute(inst, a, b);
}

TEST(Alu, Arithmetic)
{
    EXPECT_EQ(alu(Opcode::ADD, 2, 3), 5u);
    EXPECT_EQ(alu(Opcode::ADD, 0xFFFFFFFF, 1), 0u) << "wraps";
    EXPECT_EQ(alu(Opcode::SUB, 2, 3), 0xFFFFFFFFu);
    EXPECT_EQ(alu(Opcode::MUL, 0x10000, 0x10000), 0u) << "low 32 bits";
    EXPECT_EQ(alu(Opcode::MULH, 0x80000000, 2),
              0xFFFFFFFFu) << "signed high";
}

TEST(Alu, Logic)
{
    EXPECT_EQ(alu(Opcode::AND, 0xF0F0, 0xFF00), 0xF000u);
    EXPECT_EQ(alu(Opcode::OR, 0xF0F0, 0x0F0F), 0xFFFFu);
    EXPECT_EQ(alu(Opcode::XOR, 0xFFFF, 0x00FF), 0xFF00u);
    EXPECT_EQ(alu(Opcode::NOR, 0, 0), 0xFFFFFFFFu);
}

TEST(Alu, Shifts)
{
    EXPECT_EQ(alu(Opcode::SLL, 1, 0, 31), 0x80000000u);
    EXPECT_EQ(alu(Opcode::SRL, 0x80000000, 0, 31), 1u);
    EXPECT_EQ(alu(Opcode::SRA, 0x80000000, 0, 31), 0xFFFFFFFFu);
    EXPECT_EQ(alu(Opcode::SLLV, 1, 35), 8u) << "shift amount mod 32";
    EXPECT_EQ(alu(Opcode::SRAV, 0xFFFF0000, 8), 0xFFFFFF00u);
}

TEST(Alu, Comparisons)
{
    EXPECT_EQ(alu(Opcode::SLT, 0xFFFFFFFF, 0), 1u) << "-1 < 0 signed";
    EXPECT_EQ(alu(Opcode::SLTU, 0xFFFFFFFF, 0), 0u);
    EXPECT_EQ(alu(Opcode::SLTI, 5, 0, 6), 1u);
    EXPECT_EQ(alu(Opcode::SLTIU, 5, 0, 4), 0u);
}

TEST(Alu, DivisionEdgeCases)
{
    EXPECT_EQ(alu(Opcode::DIV, 7, 2), 3u);
    EXPECT_EQ(alu(Opcode::DIV, static_cast<u32>(-7), 2),
              static_cast<u32>(-3));
    EXPECT_EQ(alu(Opcode::DIV, 5, 0), 0xFFFFFFFFu) << "div by zero";
    EXPECT_EQ(alu(Opcode::DIV, 0x80000000, 0xFFFFFFFF), 0x80000000u)
        << "INT_MIN / -1 overflow";
    EXPECT_EQ(alu(Opcode::REM, 7, 2), 1u);
    EXPECT_EQ(alu(Opcode::REM, 5, 0), 5u);
    EXPECT_EQ(alu(Opcode::REM, 0x80000000, 0xFFFFFFFF), 0u);
    EXPECT_EQ(alu(Opcode::DIVU, 0xFFFFFFFE, 2), 0x7FFFFFFFu);
    EXPECT_EQ(alu(Opcode::REMU, 10, 3), 1u);
}

TEST(Alu, Immediates)
{
    EXPECT_EQ(alu(Opcode::ADDI, 10, 0, -3), 7u);
    EXPECT_EQ(alu(Opcode::ANDI, 0xFFFF, 0, 0x00F0), 0xF0u);
    EXPECT_EQ(alu(Opcode::LUI, 0, 0, 0x1234), 0x12340000u);
}

TEST(Branches, Conditions)
{
    auto taken = [](Opcode op, u32 a, u32 b) {
        Instruction i;
        i.op = op;
        return branchTaken(i, a, b);
    };
    EXPECT_TRUE(taken(Opcode::BEQ, 4, 4));
    EXPECT_FALSE(taken(Opcode::BEQ, 4, 5));
    EXPECT_TRUE(taken(Opcode::BNE, 4, 5));
    EXPECT_TRUE(taken(Opcode::BLT, static_cast<u32>(-1), 0));
    EXPECT_FALSE(taken(Opcode::BLTU, static_cast<u32>(-1), 0));
    EXPECT_TRUE(taken(Opcode::BGE, 3, 3));
    EXPECT_TRUE(taken(Opcode::BGEU, static_cast<u32>(-1), 5));
}

TEST(Memory, EffectiveAddressAlignment)
{
    Instruction lw{Opcode::LW, 1, 2, 0, 3};
    EXPECT_EQ(memEffectiveAddr(lw, 0x1000), 0x1000u)
        << "word access aligns down";
    Instruction lb{Opcode::LB, 1, 2, 0, 3};
    EXPECT_EQ(memEffectiveAddr(lb, 0x1000), 0x1003u);
    Instruction lh{Opcode::LH, 1, 2, 0, 3};
    EXPECT_EQ(memEffectiveAddr(lh, 0x1000), 0x1002u);
}

TEST(Functional, LoadStoreSignExtension)
{
    AsmBuilder b;
    const auto buf = b.newLabel();
    b.bindData(buf);
    b.dataWords({0});
    b.la(t0, buf);
    b.li(t1, 0xFFFFFF85); // -123 as a byte: 0x85
    b.sb(t1, 0, t0);
    b.lb(t2, 0, t0);
    b.out(t2);
    b.lbu(t3, 0, t0);
    b.out(t3);
    b.li(t4, 0xFFFF8001);
    b.sh(t4, 2, t0);
    b.lh(t5, 2, t0);
    b.out(t5);
    b.lhu(t6, 2, t0);
    b.out(t6);
    b.lw(t7, 0, t0);
    b.out(t7);
    b.halt();

    const Program p = b.finish();
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    runFunctional(st, mem, p);
    ASSERT_EQ(st.output.size(), 5u);
    EXPECT_EQ(st.output[0], 0xFFFFFF85u);
    EXPECT_EQ(st.output[1], 0x85u);
    EXPECT_EQ(st.output[2], 0xFFFF8001u);
    EXPECT_EQ(st.output[3], 0x8001u);
    EXPECT_EQ(st.output[4], 0x80010085u) << "little-endian layout";
}

TEST(Functional, LinkRegisterSemantics)
{
    AsmBuilder b;
    const auto fn = b.newLabel();
    b.jal(fn);      // at kTextBase: links kTextBase + 4
    b.out(v0);
    b.halt();
    b.bind(fn);
    b.move(v0, ra);
    b.ret();
    const Program p = b.finish();
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    runFunctional(st, mem, p);
    ASSERT_EQ(st.output.size(), 1u);
    EXPECT_EQ(st.output[0], Program::kTextBase + 4);
}

TEST(Functional, R0IsHardwiredZero)
{
    AsmBuilder b;
    b.addi(zero, zero, 55);
    b.out(zero);
    b.halt();
    const Program p = b.finish();
    ArchState st;
    MainMemory mem;
    st.reset(p);
    runFunctional(st, mem, p);
    EXPECT_EQ(st.output[0], 0u);
}

TEST(Functional, FibMatchesClosedForm)
{
    const Program p = mkFibRecursive(15);
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    runFunctional(st, mem, p);
    ASSERT_EQ(st.output.size(), 1u);
    EXPECT_EQ(st.output[0], 610u);
}

TEST(Functional, SumLoopClosedForm)
{
    const Program p = mkSumLoop(100);
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    runFunctional(st, mem, p);
    EXPECT_EQ(st.output[0], 4950u);
}

/** runFunctional() from @p p's entry under @p max_steps. */
u64
runFresh(const Program &p, u64 max_steps)
{
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    return runFunctional(st, mem, p, max_steps);
}

TEST(Functional, StepCountBound)
{
    // Overrunning the step budget throws (PR 2 containment policy): a
    // sweep cell with a runaway prefix fails as a cell, not a process.
    EXPECT_THROW(runFresh(mkSumLoop(10), 5), SimError);

    // The bound is inclusive: a program that halts on exactly its
    // max_steps-th instruction completes, one step less throws.
    AsmBuilder b;
    b.addi(t0, zero, 1);
    b.addi(t1, zero, 2);
    b.add(t2, t0, t1);
    b.halt();
    const Program p = b.finish();
    EXPECT_EQ(runFresh(p, 100), 4u);
    EXPECT_EQ(runFresh(p, 4), 4u);
    EXPECT_THROW(runFresh(p, 3), SimError);

    // Falling off the text segment halts without executing anything:
    // the fetch that halts is neither counted nor held to the bound.
    AsmBuilder f;
    f.addi(t0, zero, 1);
    f.addi(t1, zero, 2);
    const Program off = f.finish();
    EXPECT_EQ(runFresh(off, 100), 2u);
    EXPECT_EQ(runFresh(off, 2), 2u);
    EXPECT_THROW(runFresh(off, 1), SimError);
}

TEST(Checker, AcceptsCorrectStream)
{
    const Program p = mkSumLoop(5);
    ArchState st;
    MainMemory mem;
    st.reset(p);
    mem.loadProgram(p);
    GoldenChecker chk(p);
    while (!st.halted) {
        const StepResult s = functionalStep(st, mem, p);
        RetireRecord rec;
        rec.pc = s.pc;
        rec.dest = s.dest;
        rec.dest_val = s.dest_val;
        rec.is_store = s.is_store;
        rec.mem_addr = s.mem_addr;
        rec.store_val = s.store_val;
        rec.emitted_out = s.emitted_out;
        rec.out_val = s.out_val;
        ASSERT_TRUE(chk.onRetire(rec)) << chk.error();
    }
    EXPECT_TRUE(chk.ok());
    EXPECT_TRUE(chk.goldenHalted());
}

TEST(Checker, DetectsWrongValue)
{
    const Program p = mkSumLoop(5);
    GoldenChecker chk(p);
    RetireRecord rec;
    rec.pc = p.entry;
    rec.dest = 8; // $t0 = li 0
    rec.dest_val = 42; // wrong
    EXPECT_FALSE(chk.onRetire(rec));
    EXPECT_FALSE(chk.ok());
    EXPECT_NE(chk.error().find("result value"), std::string::npos);
}

TEST(Checker, DetectsWrongPc)
{
    const Program p = mkSumLoop(5);
    GoldenChecker chk(p);
    RetireRecord rec;
    rec.pc = p.entry + 8;
    EXPECT_FALSE(chk.onRetire(rec));
    EXPECT_NE(chk.error().find("control flow"), std::string::npos);
}

TEST(MainMemoryTest, SparsePagesAndCopy)
{
    MainMemory m;
    EXPECT_EQ(m.read32(0x12345678), 0u) << "unallocated reads as zero";
    EXPECT_EQ(m.numPages(), 0u);
    m.write32(0x12345678, 0xCAFEBABE);
    EXPECT_EQ(m.read32(0x12345678), 0xCAFEBABEu);
    EXPECT_EQ(m.numPages(), 1u);

    MainMemory copy = m;
    copy.write32(0x12345678, 1);
    EXPECT_EQ(m.read32(0x12345678), 0xCAFEBABEu)
        << "copies are independent";
}

} // namespace
} // namespace dmt

/** Tests of the compiler backend passes: register allocation (min/max,
 *  spilling), memory-order enforcement, and instruction reordering. */
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>

#include "common/logging.h"
#include "compiler/passes.h"

namespace ipim {
namespace {

HardwareConfig
cfg()
{
    return HardwareConfig::tiny();
}

u32
mask(const HardwareConfig &c)
{
    return (1u << c.pesPerVault()) - 1;
}

/** A small straight-line program over virtual DRF registers. */
BuilderProgram
chainProgram(const HardwareConfig &c, int n)
{
    BuilderProgram p;
    u32 m = mask(c);
    p.insts.push_back(Instruction::reset(0, m));
    for (int i = 1; i <= n; ++i)
        p.insts.push_back(Instruction::comp(
            AluOp::kAdd, DType::kF32, CompMode::kVecVec, u16(i),
            u16(i - 1), u16(i - 1), kFullVecMask, m));
    p.insts.push_back(Instruction::halt());
    return p;
}

TEST(RegAlloc, MinPolicyReusesRegisters)
{
    // Independent short-lived values: min policy packs them tightly.
    BuilderProgram p;
    u32 m = mask(cfg());
    for (int i = 0; i < 10; ++i) {
        p.insts.push_back(Instruction::reset(u16(100 + i), m));
        p.insts.push_back(Instruction::memRf(
            true, MemOperand::direct(u32(i) * 16), u16(100 + i), m));
    }
    p.insts.push_back(Instruction::halt());
    BackendStats stats;
    auto out = runBackend(cfg(), p, CompilerOptions::baseline1(), 1 << 16,
                          &stats);
    EXPECT_LE(stats.physicalDrfUsed, 2u);
    EXPECT_EQ(stats.spilledRegs, 0u);
}

TEST(RegAlloc, MaxPolicyScattersRegisters)
{
    BuilderProgram p;
    u32 m = mask(cfg());
    for (int i = 0; i < 10; ++i) {
        p.insts.push_back(Instruction::reset(u16(100 + i), m));
        p.insts.push_back(Instruction::memRf(
            true, MemOperand::direct(u32(i) * 16), u16(100 + i), m));
    }
    p.insts.push_back(Instruction::halt());
    BackendStats stats;
    auto out = runBackend(cfg(), p, CompilerOptions::opt(), 1 << 16,
                          &stats);
    EXPECT_GE(stats.physicalDrfUsed, 8u);
}

TEST(RegAlloc, LiveValuesNeverShareARegister)
{
    // d0..d9 all live simultaneously, then all consumed.
    BuilderProgram p;
    u32 m = mask(cfg());
    for (int i = 0; i < 10; ++i)
        p.insts.push_back(Instruction::reset(u16(200 + i), m));
    for (int i = 0; i + 1 < 10; i += 2)
        p.insts.push_back(Instruction::comp(
            AluOp::kAdd, DType::kF32, CompMode::kVecVec, u16(300 + i),
            u16(200 + i), u16(201 + i), kFullVecMask, m));
    p.insts.push_back(Instruction::halt());
    for (bool maxPolicy : {false, true}) {
        CompilerOptions o;
        o.maxRegAlloc = maxPolicy;
        auto out = runBackend(cfg(), p, o, 1 << 16);
        // Re-derive physical lifetime overlap: between a def of r and
        // its consuming read no other instruction may write r.
        std::map<u16, int> lastDef;
        for (size_t i = 0; i < out.size(); ++i) {
            const Instruction &inst = out[i];
            AccessSet a = inst.accessSet();
            for (u8 k = 0; k < a.numReads; ++k)
                if (a.reads[k].file == RegFile::kDrf)
                    EXPECT_TRUE(lastDef.count(a.reads[k].idx))
                        << "read of a never-written register";
            for (u8 k = 0; k < a.numWrites; ++k)
                if (a.writes[k].file == RegFile::kDrf)
                    lastDef[a.writes[k].idx] = int(i);
        }
    }
}

TEST(RegAlloc, SpillsWhenDataRfTooSmall)
{
    HardwareConfig c = cfg();
    c.dataRfBytes = 8 * kVectorBytes; // only 8 physical registers
    // 16 simultaneously-live values.
    BuilderProgram p;
    u32 m = mask(c);
    for (int i = 0; i < 16; ++i)
        p.insts.push_back(Instruction::reset(u16(100 + i), m));
    for (int i = 0; i < 16; ++i)
        p.insts.push_back(Instruction::comp(
            AluOp::kAdd, DType::kF32, CompMode::kVecVec, u16(200 + i),
            u16(100 + i), u16(100 + (i + 1) % 16), kFullVecMask, m));
    p.insts.push_back(Instruction::halt());
    BackendStats stats;
    auto out = runBackend(c, p, CompilerOptions::opt(), 1 << 16, &stats);
    EXPECT_GT(stats.spilledRegs, 0u);
    // Spill code references the spill area via ld/st.
    bool sawSpillStore = false;
    for (const Instruction &inst : out)
        if (inst.op == Opcode::kStRf && !inst.dramAddr.indirect &&
            inst.dramAddr.value >= (1u << 16))
            sawSpillStore = true;
    EXPECT_TRUE(sawSpillStore);
}

TEST(Reorder, PreservesDependences)
{
    BuilderProgram p = chainProgram(cfg(), 12);
    auto out = runBackend(cfg(), p, CompilerOptions::opt(), 1 << 16);
    // A pure dependence chain cannot be reordered: verify def-before-use
    // for the physical registers in the final order.
    std::set<u16> defined;
    for (const Instruction &inst : out) {
        AccessSet a = inst.accessSet();
        for (u8 k = 0; k < a.numReads; ++k)
            if (a.reads[k].file == RegFile::kDrf)
                EXPECT_TRUE(defined.count(a.reads[k].idx));
        for (u8 k = 0; k < a.numWrites; ++k)
            if (a.writes[k].file == RegFile::kDrf)
                defined.insert(a.writes[k].idx);
    }
}

TEST(Reorder, HoistsIndependentLoadsAboveCompute)
{
    // load A; 5 dependent comps on B; the final consumer uses A.
    BuilderProgram p;
    u32 m = mask(cfg());
    p.insts.push_back(Instruction::reset(50, m));
    for (int i = 0; i < 5; ++i)
        p.insts.push_back(Instruction::comp(
            AluOp::kAdd, DType::kF32, CompMode::kVecVec, u16(51 + i),
            u16(50 + i), u16(50 + i), kFullVecMask, m));
    p.insts.push_back(
        Instruction::memRf(false, MemOperand::direct(0), 60, m));
    p.insts.push_back(Instruction::comp(AluOp::kAdd, DType::kF32,
                                        CompMode::kVecVec, 61, 60, 55,
                                        kFullVecMask, m));
    p.insts.push_back(Instruction::halt());

    auto reordered =
        runBackend(cfg(), p, CompilerOptions::opt(), 1 << 16);
    auto inOrder =
        runBackend(cfg(), p, CompilerOptions::baseline3(), 1 << 16);

    auto loadPos = [](const std::vector<Instruction> &prog) {
        for (size_t i = 0; i < prog.size(); ++i)
            if (prog[i].op == Opcode::kLdRf)
                return i;
        return size_t(0);
    };
    EXPECT_LT(loadPos(reordered), loadPos(inOrder));
}

TEST(MemOrder, KeepsDramAccessesInProgramOrder)
{
    // Independent loads into distinct registers: without memory-order
    // edges the scheduler may permute them; with the option on, their
    // relative order must match the source.
    BuilderProgram p;
    u32 m = mask(cfg());
    for (int i = 0; i < 6; ++i)
        p.insts.push_back(Instruction::memRf(
            false, MemOperand::direct(u32(5 - i) * 2048), u16(10 + i),
            m));
    p.insts.push_back(Instruction::halt());
    auto out = runBackend(cfg(), p, CompilerOptions::opt(), 1 << 16);
    std::vector<u32> addrs;
    for (const Instruction &inst : out)
        if (inst.op == Opcode::kLdRf)
            addrs.push_back(inst.dramAddr.value);
    ASSERT_EQ(addrs.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(addrs[i], u32(5 - i) * 2048);
}

TEST(MemOrder, RmwChainsStayOrderedEvenWithoutTheOption)
{
    // Indirect load-add-store chains must never be reordered relative to
    // each other (correctness edges, not the performance option).
    BuilderProgram p;
    u32 m = mask(cfg());
    for (int i = 0; i < 3; ++i) {
        p.insts.push_back(Instruction::memRf(
            false, MemOperand::viaArf(8), u16(20 + i), m));
        p.insts.push_back(Instruction::memRf(
            true, MemOperand::viaArf(8), u16(20 + i), m));
    }
    p.insts.push_back(Instruction::halt());
    auto out =
        runBackend(cfg(), p, CompilerOptions::baseline4(), 1 << 16);
    // Expect strict ld/st alternation.
    std::vector<Opcode> ops;
    for (const Instruction &inst : out)
        if (accessesBank(inst.op))
            ops.push_back(inst.op);
    ASSERT_EQ(ops.size(), 6u);
    for (int i = 0; i < 6; ++i)
        EXPECT_EQ(ops[i], i % 2 == 0 ? Opcode::kLdRf : Opcode::kStRf);
}

TEST(Backend, LabelsResolveAfterReordering)
{
    // A loop: the backward branch target must point at the loop head.
    HardwareConfig c = cfg();
    u32 m = mask(c);
    BuilderProgram p;
    p.insts.push_back(Instruction::setiCrf(100, 3)); // counter
    Instruction tgt = Instruction::setiCrf(101, 0);
    tgt.label = 7;
    p.insts.push_back(tgt);
    p.labelPos[7] = p.insts.size(); // loop head
    p.insts.push_back(Instruction::reset(5, m));
    p.insts.push_back(
        Instruction::calcCrfImm(AluOp::kAdd, 100, 100, -1));
    p.insts.push_back(Instruction::cjump(100, 101));
    p.insts.push_back(Instruction::halt());
    auto out = runBackend(c, p, CompilerOptions::opt(), 1 << 16);

    // Find the seti with the resolved label and the cjump.
    int setiIdx = -1;
    for (size_t i = 0; i < out.size(); ++i)
        if (out[i].op == Opcode::kSetiCrf && out[i].imm > 0 &&
            out[i].dst != out[0].dst)
            setiIdx = int(i);
    ASSERT_GE(setiIdx, 0);
    u32 target = u32(out[size_t(setiIdx)].imm);
    ASSERT_LT(target, out.size());
    // The loop body (reset) must be at or after the target, and the
    // cjump strictly after it.
    size_t cjumpAt = 0;
    for (size_t i = 0; i < out.size(); ++i)
        if (out[i].op == Opcode::kCjump)
            cjumpAt = i;
    EXPECT_LE(target, cjumpAt);
}

TEST(Backend, ArfExhaustionIsFatal)
{
    BuilderProgram p;
    u32 m = mask(cfg());
    // More simultaneously-live ARF virtuals than the file holds.
    u32 n = cfg().addrRfEntries() + 8;
    for (u32 i = 0; i < n; ++i)
        p.insts.push_back(Instruction::calcArfImm(
            AluOp::kAdd, u16(100 + i), CodeBuilder::peId(), i32(i), m));
    for (u32 i = 0; i < n; ++i)
        p.insts.push_back(Instruction::memRf(
            false, MemOperand::viaArf(u16(100 + i)), u16(i % 60), m));
    p.insts.push_back(Instruction::halt());
    EXPECT_THROW(runBackend(cfg(), p, CompilerOptions::opt(), 1 << 16),
                 FatalError);
}

/**
 * Scratchpad ordering property: after scheduling, every scratchpad
 * reader follows every earlier writer it may observe, and every writer
 * follows every earlier reader it may clobber — VSM always, PGSM when
 * the partition masks (scratchBank hints) overlap.  Random blocks mix
 * the four scratchpad instructions with independent compute so the
 * list scheduler has room to move them.
 */
TEST(Reorder, ScratchpadOrderingHoldsOnRandomBlocks)
{
    HardwareConfig c = cfg();
    u32 m = mask(c);
    enum Kind { kRdVsm, kWrVsm, kRdPgsm, kWrPgsm, kCompute };
    std::mt19937 rng(20240611);
    int reorderedBlocks = 0;
    for (int trial = 0; trial < 200; ++trial) {
        BuilderProgram p;
        std::vector<Kind> kinds;
        std::vector<u8> pgsmMask;
        int n = 8 + int(rng() % 56);
        u16 nextDrf = 16; // d0-d3 are read-only sources
        for (int i = 0; i < n; ++i) {
            Kind k = Kind(rng() % 5);
            // A unique address identifies the instruction afterwards.
            MemOperand addr = MemOperand::direct(u32(i) * kVectorBytes);
            u16 src = u16(rng() % 4);
            Instruction inst;
            switch (k) {
              case kRdVsm:
                inst = Instruction::vsmRf(true, addr, nextDrf++, m);
                break;
              case kWrVsm:
                inst = Instruction::vsmRf(false, addr, src, m);
                break;
              case kRdPgsm:
              case kWrPgsm:
                inst = Instruction::pgsmRf(k == kRdPgsm, addr,
                                           k == kRdPgsm ? nextDrf++ : src,
                                           m);
                inst.scratchBank = u8(rng() % 3);
                break;
              case kCompute:
                inst = Instruction::comp(AluOp::kMul, DType::kF32,
                                         CompMode::kVecVec, nextDrf++, src,
                                         src, kFullVecMask, m);
                inst.imm = i; // identifies the instruction afterwards
                break;
            }
            kinds.push_back(k);
            pgsmMask.push_back(inst.scratchBank == 0
                                   ? 0x3
                                   : u8(1u << (inst.scratchBank - 1)));
            p.insts.push_back(inst);
        }
        p.insts.push_back(Instruction::halt());

        for (const CompilerOptions &o :
             {CompilerOptions::opt(), CompilerOptions::baseline2(),
              CompilerOptions::baseline4()}) {
            auto out = runBackend(c, p, o, 1 << 16);
            ASSERT_EQ(out.size(), p.insts.size());
            std::vector<int> pos(size_t(n), -1);
            for (size_t q = 0; q + 1 < out.size(); ++q) {
                const Instruction &inst = out[q];
                int id = inst.op == Opcode::kComp
                             ? inst.imm
                         : inst.op == Opcode::kRdVsm ||
                                 inst.op == Opcode::kWrVsm
                             ? int(inst.vsmAddr.value / kVectorBytes)
                             : int(inst.pgsmAddr.value / kVectorBytes);
                ASSERT_GE(id, 0);
                ASSERT_LT(id, n);
                ASSERT_EQ(pos[size_t(id)], -1) << "instruction emitted twice";
                pos[size_t(id)] = int(q);
            }
            bool moved = false;
            for (int j = 0; j < n; ++j) {
                moved |= pos[size_t(j)] != j;
                for (int i = 0; i < j; ++i) {
                    Kind a = kinds[size_t(i)], b = kinds[size_t(j)];
                    bool vsm = (a == kWrVsm && b == kRdVsm) ||
                               (a == kRdVsm && b == kWrVsm);
                    bool pgsm = ((a == kWrPgsm && b == kRdPgsm) ||
                                 (a == kRdPgsm && b == kWrPgsm)) &&
                                (pgsmMask[size_t(i)] & pgsmMask[size_t(j)]);
                    if (vsm || pgsm) {
                        EXPECT_LT(pos[size_t(i)], pos[size_t(j)])
                            << "trial " << trial << ": " << i
                            << " must precede " << j;
                    }
                }
            }
            reorderedBlocks += moved;
        }
    }
    // The property is only meaningful if the scheduler moved things.
    EXPECT_GT(reorderedBlocks, 300);
}

TEST(VirtualRegisters, BuilderOverflowIsFatal)
{
    CodeBuilder b(cfg(), "Huge vault 3");
    for (u32 i = 0; i < 65536; ++i)
        ASSERT_EQ(b.newDrf(), u16(i));
    try {
        b.newDrf();
        FAIL() << "the 65537th DRF virtual must not wrap to d0";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("Huge vault 3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("DRF"), std::string::npos) << msg;
    }
}

TEST(VirtualRegisters, SpillTemporaryOverflowIsFatal)
{
    // 16 simultaneously-live values at the top of the DRF virtual space
    // on an 8-register DataRF: the reload/store temporaries would have
    // to be numbered past 65535.
    HardwareConfig c = cfg();
    c.dataRfBytes = 8 * kVectorBytes;
    u32 m = mask(c);
    BuilderProgram p;
    p.name = "Top vault 0";
    for (int i = 0; i < 16; ++i)
        p.insts.push_back(Instruction::reset(u16(0xFFF0 + i), m));
    for (int i = 0; i < 16; ++i)
        p.insts.push_back(Instruction::memRf(
            true, MemOperand::direct(u32(i) * kVectorBytes),
            u16(0xFFF0 + i), m));
    p.insts.push_back(Instruction::halt());
    try {
        runBackend(c, p, CompilerOptions::opt(), 1 << 16);
        FAIL() << "spill temporaries must not wrap to d0";
    } catch (const FatalError &e) {
        std::string msg = e.what();
        EXPECT_NE(msg.find("Top vault 0"), std::string::npos) << msg;
        EXPECT_NE(msg.find("DRF"), std::string::npos) << msg;
    }
}

} // namespace
} // namespace ipim

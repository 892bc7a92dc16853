/**
 * Unit tests for the SIMB program analysis framework (src/analysis/):
 * CFG construction, the worklist dataflow engine and its concrete
 * analyses, loop trip counts, value ranges and access extents, the
 * cross-vault conflict checks (V14-V18), and the static cost model —
 * including the cross-validation bound against measured simulator
 * cycles on the ten Table II benchmarks.
 */
#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "analysis/analysis.h"
#include "analysis/conflict.h"
#include "analysis/cost.h"
#include "apps/benchmarks.h"
#include "compiler/codegen.h"
#include "isa/assembler.h"
#include "runtime/runtime.h"
#include "verify/verifier.h"

namespace ipim {
namespace {

HardwareConfig
tinyCfg()
{
    return HardwareConfig::tiny(); // 4 vaults, 2 PGs x 2 PEs
}

/** Counted loop: 8 iterations of the builder's loop idiom. */
std::vector<Instruction>
countedLoop()
{
    return assemble(R"(
        seti_crf c0, #8
        seti_crf c1, #2
        reset d0 sm=15
        comp add.i32 vv d0, d0, d0 vm=15 sm=15
        calc_crf sub c0, c0, #1
        cjump c0, c1
        halt
    )");
}

// ========================= CFG structure ===========================

TEST(Cfg, StraightLineIsOneBlock)
{
    std::vector<Instruction> prog = assemble(R"(
        reset d0 sm=15
        comp add.i32 vv d1, d0, d0 vm=15 sm=15
        halt
    )");
    Cfg cfg = Cfg::build(prog);
    ASSERT_EQ(cfg.numBlocks(), 1);
    EXPECT_EQ(cfg.block(0).first, 0u);
    EXPECT_EQ(cfg.block(0).last, 2u);
    EXPECT_TRUE(cfg.block(0).reachable);
    EXPECT_TRUE(cfg.targetsResolved());
    EXPECT_TRUE(cfg.loops().empty());
}

TEST(Cfg, CountedLoopStructure)
{
    std::vector<Instruction> prog = countedLoop();
    Cfg cfg = Cfg::build(prog);
    // Preamble [0,1], body [2,5] (branch target 2), exit [6,6].
    ASSERT_EQ(cfg.numBlocks(), 3);
    EXPECT_EQ(cfg.block(1).first, 2u);
    EXPECT_EQ(cfg.block(1).last, 5u);
    EXPECT_TRUE(cfg.targetsResolved());
    // Edges: 0->1, 1->1 (back edge), 1->2.
    EXPECT_EQ(cfg.block(0).succs, std::vector<int>{1});
    EXPECT_EQ(cfg.block(1).succs.size(), 2u);
    // Dominators: the entry dominates everything, the body dominates
    // the exit.
    EXPECT_TRUE(cfg.dominates(0, 1));
    EXPECT_TRUE(cfg.dominates(0, 2));
    EXPECT_TRUE(cfg.dominates(1, 2));
    EXPECT_FALSE(cfg.dominates(2, 1));
    // One natural loop: header = latch = block 1.
    ASSERT_EQ(cfg.loops().size(), 1u);
    const NaturalLoop &loop = cfg.loops()[0];
    EXPECT_EQ(loop.header, 1);
    EXPECT_EQ(loop.latches, std::vector<int>{1});
    EXPECT_EQ(loop.depth, 1);
    EXPECT_EQ(loop.parent, -1);
}

TEST(Cfg, UnresolvedTargetIsFlagged)
{
    // The jump target is defined by calc_crf, which the linear
    // reaching-def scan refuses to fold.
    std::vector<Instruction> prog = assemble(R"(
        seti_crf c0, #4
        calc_crf add c0, c0, #1
        jump c0
        nop
        halt
    )");
    Cfg cfg = Cfg::build(prog);
    EXPECT_FALSE(cfg.targetsResolved());
}

TEST(Cfg, DotRenderingNamesBlocks)
{
    Cfg cfg = Cfg::build(countedLoop());
    std::string dot = cfg.toDot("loop");
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("b0"), std::string::npos);
    EXPECT_NE(dot.find("b1"), std::string::npos);
}

// ===================== per-block loop table ========================

/** Innermost loop by scanning every loop: fewest blocks, then index. */
int
bruteInnermost(const Cfg &cfg, int b)
{
    int best = -1;
    for (size_t i = 0; i < cfg.loops().size(); ++i) {
        const NaturalLoop &l = cfg.loops()[i];
        if (l.contains(b) &&
            (best < 0 ||
             l.blocks.size() < cfg.loops()[size_t(best)].blocks.size()))
            best = int(i);
    }
    return best;
}

/** Checks every table-backed loop query against a scan of all loops. */
void
expectLoopTableMatchesScan(const std::vector<Instruction> &prog)
{
    ProgramAnalysis pa = analyzeProgram(tinyCfg(), prog);
    const Cfg &cfg = *pa.cfg;
    const std::vector<NaturalLoop> &loops = cfg.loops();
    for (int b = 0; b < cfg.numBlocks(); ++b) {
        int depth = 0;
        f64 freq = 1.0;
        for (const NaturalLoop &l : loops) {
            if (!l.contains(b))
                continue;
            ++depth;
            if (l.tripCount > 0)
                freq *= f64(l.tripCount);
        }
        EXPECT_EQ(cfg.innermostLoop(b), bruteInnermost(cfg, b))
            << "block " << b;
        EXPECT_EQ(cfg.loopDepth(b), depth) << "block " << b;
        EXPECT_EQ(cfg.frequency(b), freq) << "block " << b;
    }
    // Nesting: the smallest strictly larger loop holding the header.
    for (size_t i = 0; i < loops.size(); ++i) {
        int parent = -1;
        for (size_t j = 0; j < loops.size(); ++j) {
            if (j == i || !loops[j].contains(loops[i].header) ||
                loops[j].blocks.size() <= loops[i].blocks.size())
                continue;
            if (parent < 0 || loops[j].blocks.size() <
                                  loops[size_t(parent)].blocks.size())
                parent = int(j);
        }
        EXPECT_EQ(loops[i].parent, parent) << "loop " << i;
    }
}

TEST(LoopTable, NestedLoops)
{
    // Outer loop [2..8] (3 trips) around inner loop [4..6] (4 trips).
    std::vector<Instruction> prog = assemble(R"(
        seti_crf c0, #3
        seti_crf c2, #2
        seti_crf c1, #4
        seti_crf c3, #4
        nop
        calc_crf sub c1, c1, #1
        cjump c1, c3
        calc_crf sub c0, c0, #1
        cjump c0, c2
        halt
    )");
    expectLoopTableMatchesScan(prog);
    ProgramAnalysis pa = analyzeProgram(tinyCfg(), prog);
    const Cfg &cfg = *pa.cfg;
    int inner = cfg.blockOf(4), outer = cfg.blockOf(2);
    EXPECT_EQ(cfg.loopDepth(inner), 2);
    EXPECT_EQ(cfg.loopDepth(outer), 1);
    EXPECT_EQ(cfg.frequency(inner), 12.0);
    EXPECT_EQ(cfg.frequency(outer), 3.0);
    EXPECT_EQ(cfg.loopDepth(cfg.blockOf(9)), 0);
    EXPECT_EQ(cfg.innermostLoop(cfg.blockOf(9)), -1);
}

TEST(LoopTable, SiblingLoops)
{
    std::vector<Instruction> prog = assemble(R"(
        seti_crf c0, #2
        seti_crf c1, #2
        calc_crf sub c0, c0, #1
        cjump c0, c1
        seti_crf c2, #5
        seti_crf c3, #5
        calc_crf sub c2, c2, #1
        cjump c2, c3
        halt
    )");
    expectLoopTableMatchesScan(prog);
    ProgramAnalysis pa = analyzeProgram(tinyCfg(), prog);
    const Cfg &cfg = *pa.cfg;
    ASSERT_EQ(cfg.loops().size(), 2u);
    EXPECT_NE(cfg.innermostLoop(cfg.blockOf(2)),
              cfg.innermostLoop(cfg.blockOf(6)));
    EXPECT_EQ(cfg.frequency(cfg.blockOf(2)), 2.0);
    EXPECT_EQ(cfg.frequency(cfg.blockOf(6)), 5.0);
}

TEST(LoopTable, SharedHeaderMergesIntoOneLoop)
{
    // Two back edges to the header at 2 form one loop with two latches.
    std::vector<Instruction> prog = assemble(R"(
        seti_crf c0, #5
        seti_crf c1, #2
        nop
        calc_crf sub c0, c0, #1
        cjump c0, c1
        nop
        cjump c0, c1
        halt
    )");
    expectLoopTableMatchesScan(prog);
    Cfg cfg = Cfg::build(prog);
    ASSERT_EQ(cfg.loops().size(), 1u);
    EXPECT_EQ(cfg.loops()[0].latches.size(), 2u);
    EXPECT_EQ(cfg.loopDepth(cfg.blockOf(5)), 1);
}

TEST(LoopTable, UnreachableBlocks)
{
    // The jump skips a self-loop that nothing reaches.
    std::vector<Instruction> prog = assemble(R"(
        seti_crf c0, #5
        jump c0
        seti_crf c1, #3
        nop
        cjump c1, c1
        halt
    )");
    expectLoopTableMatchesScan(prog);
    Cfg cfg = Cfg::build(prog);
    EXPECT_FALSE(cfg.block(cfg.blockOf(3)).reachable);
    EXPECT_EQ(cfg.loopDepth(cfg.blockOf(3)), 0);
}

TEST(LoopTable, MatchesScanOnFuzzedControlFlow)
{
    // Random branchy programs over four CRF registers: targets land
    // anywhere, so the graphs include irreducible regions, shared
    // headers, unresolved branches and unreachable code.
    std::mt19937 rng(20260);
    for (int round = 0; round < 300; ++round) {
        int n = 8 + int(rng() % 40);
        std::string text;
        for (int i = 0; i < n - 1; ++i) {
            std::string c = "c" + std::to_string(rng() % 4);
            std::string d = "c" + std::to_string(rng() % 4);
            switch (rng() % 8) {
              case 0:
              case 1:
                text += "seti_crf " + c + ", #" +
                        std::to_string(rng() % u32(n)) + "\n";
                break;
              case 2: text += "calc_crf sub " + c + ", " + c + ", #1\n"; break;
              case 3: text += "cjump " + c + ", " + d + "\n"; break;
              case 4: text += "jump " + c + "\n"; break;
              case 5: text += "halt\n"; break;
              default: text += "nop\n"; break;
            }
        }
        text += "halt\n";
        SCOPED_TRACE(text);
        expectLoopTableMatchesScan(assemble(text));
    }
}

// ================ dataflow: const prop + trip counts ===============

TEST(Dataflow, ConstPropFoldsStraightLine)
{
    std::vector<Instruction> prog = assemble(R"(
        seti_crf c0, #5
        calc_crf add c1, c0, #2
        halt
    )");
    Cfg cfg = Cfg::build(prog);
    CrfConstProp cp = runCrfConstProp(tinyCfg(), cfg);
    std::vector<ConstVal> atHalt = cp.atInst(2);
    ASSERT_TRUE(atHalt[1].isConst());
    EXPECT_EQ(atHalt[1].value, 7);
}

TEST(Dataflow, BranchJoinLosesConstness)
{
    // c0 is 5 on the taken path and 9 on the fallthrough: the meet at
    // the join must be NonConst, not either constant.
    std::vector<Instruction> prog = assemble(R"(
        seti_crf c0, #5
        seti_crf c1, #4
        cjump c0, c1
        seti_crf c0, #9
        halt
    )");
    Cfg cfg = Cfg::build(prog);
    CrfConstProp cp = runCrfConstProp(tinyCfg(), cfg);
    std::vector<ConstVal> atHalt = cp.atInst(4);
    EXPECT_EQ(atHalt[0].kind, ConstVal::kNonConst);
}

TEST(Dataflow, CountedLoopTripCount)
{
    std::vector<Instruction> prog = countedLoop();
    Cfg cfg = Cfg::build(prog);
    CrfConstProp cp = runCrfConstProp(tinyCfg(), cfg);
    deriveTripCounts(tinyCfg(), cfg, cp);
    ASSERT_EQ(cfg.loops().size(), 1u);
    EXPECT_EQ(cfg.loops()[0].tripCount, 8);
    EXPECT_EQ(cfg.loops()[0].counterCrf, 0);
    EXPECT_EQ(cfg.loops()[0].counterStep, -1);
    // Block frequency reflects the trip count.
    EXPECT_DOUBLE_EQ(cfg.frequency(1), 8.0);
    EXPECT_DOUBLE_EQ(cfg.frequency(2), 1.0);
}

// =================== ranges and access extents =====================

TEST(Ranges, LoopSteppedVsmExtent)
{
    // The per-PE VSM pointer (ARF a4, zeroed by masking an identity
    // register) advances 16 bytes per iteration over 4 iterations: the
    // union extent must cover all four writes.
    std::vector<Instruction> prog = assemble(R"(
        seti_crf c0, #4
        seti_crf c1, #4
        calc_arf and a4, a0, #0 sm=15
        reset d0 sm=15
        wr_vsm vsm[a4], d0 sm=15
        calc_arf add a4, a4, #16 sm=15
        calc_crf sub c0, c0, #1
        cjump c0, c1
        halt
    )");
    ProgramAnalysis pa = analyzeProgram(tinyCfg(), prog, 0, 0);
    const Extent &wr = pa.extents[4].vsmWrite;
    ASSERT_EQ(wr.kind, Extent::kKnown);
    EXPECT_EQ(wr.lo, 0u);
    EXPECT_GE(wr.hi, 64u); // 4 iterations x 16B stride
    // The per-iteration address step is the induction step.
    EXPECT_EQ(pa.extents[4].vsmWriteStep, 16);
}

TEST(Ranges, SegmentationAroundSyncs)
{
    std::vector<Instruction> prog = assemble(R"(
        reset d0 sm=15
        sync phase=1
        reset d1 sm=15
        sync phase=2
        halt
    )");
    ProgramAnalysis pa = analyzeProgram(tinyCfg(), prog, 0, 0);
    ASSERT_TRUE(pa.segmentable);
    EXPECT_EQ(pa.numSegments(), 3);
    EXPECT_EQ(pa.segmentOf(0), 0);
    EXPECT_EQ(pa.segmentOf(2), 1);
    EXPECT_EQ(pa.segmentOf(4), 2);
}

// ================= conflict analysis (V14-V18) =====================

TEST(Conflict, AdjacentDuplicatePhaseIdIsV17)
{
    // Barrier arrival counting keys on the phase id, so two adjacent
    // syncs reusing one id can merge into a single rendezvous.
    std::vector<Instruction> prog = assemble(R"(
        sync phase=1
        sync phase=1
        halt
    )");
    ProgramAnalysis pa = analyzeProgram(tinyCfg(), prog, 0, 0);
    std::vector<ConflictFinding> f = checkSyncStructure(pa, 0);
    ASSERT_EQ(f.size(), 1u);
    EXPECT_EQ(f[0].kind, ConflictFinding::Kind::kSyncStructure);
}

TEST(Conflict, NonAdjacentPhaseReuseIsFine)
{
    std::vector<Instruction> prog = assemble(R"(
        sync phase=1
        sync phase=2
        sync phase=1
        halt
    )");
    ProgramAnalysis pa = analyzeProgram(tinyCfg(), prog, 0, 0);
    EXPECT_TRUE(checkSyncStructure(pa, 0).empty());
}

TEST(Conflict, SelfTargetedReqIsV18)
{
    HardwareConfig cfg = tinyCfg();
    // Vault 0 reqs its own bank: the remote-read path bypasses the
    // local scoreboard.
    std::vector<std::vector<Instruction>> progs(
        cfg.cubes * cfg.vaultsPerCube, {Instruction::halt()});
    progs[0] = {Instruction::req(0, 0, 0, 0, MemOperand::direct(0), 0),
                Instruction::halt()};
    std::vector<ProgramAnalysis> pas;
    std::vector<const ProgramAnalysis *> ptrs;
    for (size_t v = 0; v < progs.size(); ++v)
        pas.push_back(analyzeProgram(cfg, progs[v],
                                     int(v / cfg.vaultsPerCube),
                                     int(v % cfg.vaultsPerCube)));
    for (const ProgramAnalysis &pa : pas)
        ptrs.push_back(&pa);
    ConflictReport rep = analyzeDeviceConflicts(cfg, ptrs);
    ASSERT_EQ(rep.findings.size(), 1u);
    EXPECT_EQ(rep.findings[0].kind, ConflictFinding::Kind::kReqSelf);
    EXPECT_EQ(rep.findings[0].vault, 0);
}

TEST(Conflict, RemoteReadOverlappingOwnerWriteIsV14)
{
    HardwareConfig cfg = tinyCfg();
    std::vector<std::vector<Instruction>> progs(
        cfg.cubes * cfg.vaultsPerCube, {Instruction::halt()});
    // Vault 0 reads vault 1's bank bytes [0,16) remotely while vault 1
    // writes the same bytes in the same (only) sync segment.
    progs[0] = {Instruction::req(0, 1, 0, 0, MemOperand::direct(0), 0),
                Instruction::halt()};
    progs[1] = {Instruction::reset(0, 0x1),
                Instruction::memRf(true, MemOperand::direct(0), 0, 0x1),
                Instruction::halt()};
    std::vector<ProgramAnalysis> pas;
    std::vector<const ProgramAnalysis *> ptrs;
    for (size_t v = 0; v < progs.size(); ++v)
        pas.push_back(analyzeProgram(cfg, progs[v],
                                     int(v / cfg.vaultsPerCube),
                                     int(v % cfg.vaultsPerCube)));
    for (const ProgramAnalysis &pa : pas)
        ptrs.push_back(&pa);
    ConflictReport rep = analyzeDeviceConflicts(cfg, ptrs);
    bool sawV14 = false;
    for (const ConflictFinding &f : rep.findings)
        sawV14 |= f.kind == ConflictFinding::Kind::kBankOverlap;
    EXPECT_TRUE(sawV14);
    EXPECT_FALSE(rep.independent());
}

TEST(Conflict, DisjointRemoteReadIsProvenIndependent)
{
    HardwareConfig cfg = tinyCfg();
    std::vector<std::vector<Instruction>> progs(
        cfg.cubes * cfg.vaultsPerCube, {Instruction::halt()});
    progs[0] = {Instruction::req(0, 1, 0, 0, MemOperand::direct(256), 0),
                Instruction::halt()};
    progs[1] = {Instruction::reset(0, 0x1),
                Instruction::memRf(true, MemOperand::direct(0), 0, 0x1),
                Instruction::halt()};
    std::vector<ProgramAnalysis> pas;
    std::vector<const ProgramAnalysis *> ptrs;
    for (size_t v = 0; v < progs.size(); ++v)
        pas.push_back(analyzeProgram(cfg, progs[v],
                                     int(v / cfg.vaultsPerCube),
                                     int(v % cfg.vaultsPerCube)));
    for (const ProgramAnalysis &pa : pas)
        ptrs.push_back(&pa);
    ConflictReport rep = analyzeDeviceConflicts(cfg, ptrs);
    EXPECT_TRUE(rep.findings.empty());
    EXPECT_GT(rep.stats.provenDisjoint, 0u);
    EXPECT_EQ(rep.stats.unproved, 0u);
}

TEST(Conflict, OverlappingStagingWritesAreV16)
{
    // Two reqs stage into the same VSM bytes with no ordering read in
    // between: last-arrival-wins nondeterminism.
    std::vector<Instruction> prog = {
        Instruction::req(0, 1, 0, 0, MemOperand::direct(0), 0),
        Instruction::req(0, 1, 0, 0, MemOperand::direct(64), 0),
        Instruction::halt()};
    ProgramAnalysis pa = analyzeProgram(tinyCfg(), prog, 0, 0);
    ConflictReport rep = checkProgramConflicts(pa, 0);
    bool sawV16 = false;
    for (const ConflictFinding &f : rep.findings)
        sawV16 |= f.kind == ConflictFinding::Kind::kStagingOverlap;
    EXPECT_TRUE(sawV16);
}

TEST(Conflict, AllBenchmarksProgramsAreConflictFree)
{
    // The acceptance bar of the analysis PR: every Table II benchmark
    // compiles to programs with zero V14-V18 findings.
    HardwareConfig cfg = tinyCfg();
    for (const std::string &name : allBenchmarkNames()) {
        BenchmarkApp app = makeBenchmark(name, 64, 32);
        CompiledPipeline cp = compilePipeline(app.def, cfg, {});
        for (const CompiledKernel &k : cp.kernels) {
            std::vector<ProgramAnalysis> pas;
            std::vector<const ProgramAnalysis *> ptrs;
            for (size_t v = 0; v < k.perVault.size(); ++v)
                pas.push_back(
                    analyzeProgram(cfg, k.perVault[v],
                                   int(v / cfg.vaultsPerCube),
                                   int(v % cfg.vaultsPerCube)));
            for (const ProgramAnalysis &pa : pas)
                ptrs.push_back(&pa);
            ConflictReport rep = analyzeDeviceConflicts(cfg, ptrs);
            EXPECT_TRUE(rep.findings.empty())
                << name << ": " << rep.findings.size()
                << " conflict findings, first: "
                << (rep.findings.empty() ? ""
                                         : rep.findings[0].message);
        }
    }
}

// ======================== static cost model ========================

TEST(Cost, EstimateIsPositiveAndComplete)
{
    ProgramAnalysis pa = analyzeProgram(tinyCfg(), countedLoop(), 0, 0);
    CostEstimate est = estimateProgramCost(tinyCfg(), pa);
    EXPECT_GT(est.cycles, 0.0);
    EXPECT_TRUE(est.complete);
    // 7 static instructions, loop body of 4 executed 8 times.
    EXPECT_GE(est.dynamicInsts, 7u + 7u * 4u);
}

TEST(Cost, UnknownTripCountMarksIncomplete)
{
    // The loop counter comes from a non-constant source, so the trip
    // count is unknown and the estimate is a flagged lower bound.
    std::vector<Instruction> prog = assemble(R"(
        calc_crf add c0, c0, #0
        seti_crf c1, #2
        reset d0 sm=15
        calc_crf sub c0, c0, #1
        cjump c0, c1
        halt
    )");
    ProgramAnalysis pa = analyzeProgram(tinyCfg(), prog, 0, 0);
    CostEstimate est = estimateProgramCost(tinyCfg(), pa);
    EXPECT_FALSE(est.complete);
}

TEST(Cost, LoopScalingGrowsWithTripCount)
{
    auto loopProg = [](int n) {
        return assemble(
            "seti_crf c0, #" + std::to_string(n) + R"(
            seti_crf c1, #2
            comp add.f32 vv d0, d0, d0 vm=15 sm=15
            calc_crf sub c0, c0, #1
            cjump c0, c1
            halt
        )");
    };
    HardwareConfig cfg = tinyCfg();
    ProgramAnalysis paSmall = analyzeProgram(cfg, loopProg(4), 0, 0);
    ProgramAnalysis paBig = analyzeProgram(cfg, loopProg(64), 0, 0);
    f64 small = estimateProgramCost(cfg, paSmall).cycles;
    f64 big = estimateProgramCost(cfg, paBig).cycles;
    EXPECT_GT(big, small * 8); // 16x the iterations, at least 8x cost
}

TEST(Cost, KernelEstimateCoversSlowestVault)
{
    HardwareConfig cfg = tinyCfg();
    std::vector<std::vector<Instruction>> perVault(
        cfg.cubes * cfg.vaultsPerCube, {Instruction::halt()});
    perVault[2] = countedLoop();
    f64 kernel = estimateKernelCycles(cfg, perVault);
    ProgramAnalysis pa = analyzeProgram(cfg, perVault[2], 0, 2);
    EXPECT_GE(kernel, estimateProgramCost(cfg, pa).cycles);
}

TEST(Cost, WithinThirtyPercentOnMostBenchmarks)
{
    // Cross-validation of the static model against measured simulator
    // cycles: at least 8 of the 10 Table II benchmarks must land
    // within +-30% (ISSUE acceptance bound; currently 10/10).
    HardwareConfig cfg = tinyCfg();
    int inBand = 0;
    std::string report;
    for (const std::string &name : allBenchmarkNames()) {
        BenchmarkApp app = makeBenchmark(name, 64, 32);
        CompiledPipeline cp = compilePipeline(app.def, cfg, {});
        Device dev(cfg);
        Runtime rt(dev, cp);
        for (const auto &[n, img] : app.inputs)
            rt.bindInput(n, img);
        LaunchResult res = rt.run();
        f64 est = 0;
        for (const CompiledKernel &k : cp.kernels)
            est += estimateKernelCycles(cfg, k.perVault);
        f64 ratio = est / f64(res.cycles);
        bool ok = ratio >= 0.7 && ratio <= 1.3;
        inBand += ok ? 1 : 0;
        report += name + ": est/measured = " +
                  std::to_string(ratio) + (ok ? "\n" : "  <-- OUT\n");
    }
    EXPECT_GE(inBand, 8) << report;
}

// ===================== golden report digests =======================

/** 64-bit FNV-1a, fed field by field. */
struct Fnv
{
    u64 h = 0xcbf29ce484222325ull;

    void
    bytes(const void *p, size_t n)
    {
        for (size_t i = 0; i < n; ++i) {
            h ^= static_cast<const u8 *>(p)[i];
            h *= 0x100000001b3ull;
        }
    }
    void str(const std::string &s) { bytes(s.data(), s.size() + 1); }
    void num(u64 v) { bytes(&v, sizeof(v)); }
};

/** Per-pipeline digests of the three analysis-layer reports. */
struct ReportDigests
{
    u64 verify = 0;   ///< verifyDevice + per-vault verifyProgram text
    u64 conflict = 0; ///< analyzeDeviceConflicts findings + stats
    u64 estimate = 0; ///< estimateKernelCycles bit patterns

    bool operator==(const ReportDigests &o) const = default;
};

ReportDigests
reportDigests(const HardwareConfig &cfg, const CompiledPipeline &cp)
{
    Fnv verify, conflict, estimate;
    for (const CompiledKernel &k : cp.kernels) {
        verify.str(verifyDevice(cfg, k.perVault).toString());
        for (size_t v = 0; v < k.perVault.size(); ++v)
            verify.str(
                verifyProgram(cfg, k.perVault[v], {}, int(v)).toString());

        std::vector<ProgramAnalysis> pas;
        pas.reserve(k.perVault.size());
        std::vector<const ProgramAnalysis *> ptrs;
        for (size_t v = 0; v < k.perVault.size(); ++v) {
            pas.push_back(analyzeProgram(cfg, k.perVault[v],
                                         int(v / cfg.vaultsPerCube),
                                         int(v % cfg.vaultsPerCube)));
            ptrs.push_back(&pas.back());
        }
        ConflictReport rep = analyzeDeviceConflicts(cfg, ptrs);
        for (const ConflictFinding &f : rep.findings) {
            conflict.num(u64(f.kind));
            for (int x : {f.vault, f.index, f.otherVault, f.otherIndex,
                          f.segment})
                conflict.num(u64(i64(x)));
            conflict.str(f.message);
        }
        conflict.num(rep.stats.pairsChecked);
        conflict.num(rep.stats.provenDisjoint);
        conflict.num(rep.stats.unproved);
        conflict.num(rep.stats.segments);
        conflict.num(rep.complete ? 1 : 0);

        f64 cycles = estimateKernelCycles(cfg, k.perVault);
        estimate.bytes(&cycles, sizeof(cycles));
    }
    return {verify.h, conflict.h, estimate.h};
}

void
expectGoldenReports(const HardwareConfig &cfg,
                    const std::vector<std::string> &names, int width,
                    int height, const std::vector<ReportDigests> &golden)
{
    EXPECT_EQ(names.size(), golden.size());
    for (size_t i = 0; i < names.size(); ++i) {
        BenchmarkApp app = makeBenchmark(names[i], width, height);
        CompiledPipeline cp = compilePipeline(app.def, cfg);
        ReportDigests d = reportDigests(cfg, cp);
        EXPECT_TRUE(i < golden.size() && d == golden[i])
            << names[i] << ": {0x" << std::hex << d.verify << "ull, 0x"
            << d.conflict << "ull, 0x" << d.estimate << "ull}";
    }
}

/**
 * Golden analysis-layer reports: the verifier's diagnostics (order and
 * warning caps included), the conflict analysis' findings and proof
 * statistics, and the static cost estimates must stay byte-identical
 * for the ten benchmarks at 64x32 on the tiny configuration.  A speed
 * change to src/analysis or src/verify must not move any of them; an
 * intended change re-pins the table and explains the drift.
 */
TEST(AnalysisDeterminism, GoldenReportDigestsTiny)
{
    expectGoldenReports(
        HardwareConfig::tiny(), allBenchmarkNames(), 64, 32,
        {{0xe4bc4fd9252be94full, 0xbfd802940c3142a6ull, 0x8bc8cfada7213b12ull},
         {0xe4bc4fd9252be94full, 0x744d890a6d3a26c4ull, 0xb4bc216754f586f3ull},
         {0xe4bc4fd9252be94full, 0xde59558ab33c4a18ull, 0xab7afd94ed83215dull},
         {0xc6f6183a0ac9f355ull, 0x86d25fa9aef58e1eull, 0x864e01546af5197dull},
         {0xe4bc4fd9252be94full, 0xbfd802940c3142a6ull, 0xa7a52dc3658afb98ull},
         {0x4dbaeefabaf2da67ull, 0x7c48cf166f420a67ull, 0xe4f474e2317d90beull},
         {0x23f572d6ebca52efull, 0x51f49359947c3f20ull, 0xbf7fbb4db015958full},
         {0xa94cc2ee5c74a16full, 0xe3a7dc00ebb2b15bull, 0xf5ace93196fc88d2ull},
         {0xc9094da30d611c23ull, 0xb4d9c6a6d9da8db9ull, 0xfb21535c77981b8bull},
         {0x690229d31f699f79ull, 0x7f852d564a447a65ull,
          0xc287df80bd605ec5ull}});
}

/** The same on one full cube with the four multi-stage apps at 96x48. */
TEST(AnalysisDeterminism, GoldenReportDigestsFullCube)
{
    expectGoldenReports(HardwareConfig::benchCube(),
                        {"Interpolate", "LocalLaplacian", "StencilChain",
                         "BilateralGrid"},
                        96, 48,
                        {{0xcb96aac18c20759bull, 0x6faa9c4301e7b243ull,
                          0x03d21134f4e93c33ull},
                         {0x1a7008b5c37f0731ull, 0x592abe922d62efb4ull,
                          0x0252a1e03ab43612ull},
                         {0x9986ba9af2021da5ull, 0x4d0daeeba605e2a8ull,
                          0xf0f25d607cac6ae8ull},
                         {0x775dc835003650cfull, 0x255fa6b20e59bf76ull,
                          0xcad1de04c602f775ull}});
}

} // namespace
} // namespace ipim

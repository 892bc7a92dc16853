/**
 * Dense-vs-fast-forward bit-exactness regressions (DESIGN.md Sec. 13).
 *
 * Fast-forward must be an invisible optimization: every stats counter,
 * every trace byte, and every cycle count has to match a dense
 * per-cycle run exactly.  These tests run identical workloads in both
 * modes and byte-compare the observable outputs.
 */
#include <gtest/gtest.h>

#include <sstream>

#include "apps/benchmarks.h"
#include "fleet/fleet.h"
#include "fleet/observer.h"
#include "runtime/runtime.h"
#include "trace/trace.h"

namespace ipim {
namespace {

/**
 * One full launch in the given mode; stats/cycles land in the outs.
 * compile() is deterministic (DESIGN.md Sec. 13; regression in
 * tests/test_func.cc), so each mode may compile its own pipeline.
 */
Image
launchMode(const BenchmarkApp &app, const CompiledPipeline &cp,
           const HardwareConfig &cfg, bool fastForward, Cycle *cyclesOut,
           std::string *statsOut, Tracer *tracer = nullptr)
{
    Device dev(cfg, tracer);
    dev.setFastForward(fastForward);
    LaunchResult res = launchOnDevice(dev, cp, app.inputs);
    *cyclesOut = res.cycles;
    *statsOut = dev.stats().toString();
    return res.output;
}

TEST(FastForward, AllBenchmarksBitExact)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    for (const std::string &name : allBenchmarkNames()) {
        SCOPED_TRACE(name);
        BenchmarkApp app = makeBenchmark(name, 64, 32);
        // Each mode compiles independently: dense == fast-forward must
        // hold across separate compile() calls now that compilation is
        // deterministic.
        CompiledPipeline cp = compilePipeline(app.def, cfg);
        CompiledPipeline cp2 = compilePipeline(app.def, cfg);
        Cycle cDense = 0, cFf = 0;
        std::string sDense, sFf;
        Image dense = launchMode(app, cp, cfg, false, &cDense, &sDense);
        Image ff = launchMode(app, cp2, cfg, true, &cFf, &sFf);
        EXPECT_EQ(cDense, cFf);
        EXPECT_EQ(sDense, sFf);
        ASSERT_EQ(dense.width(), ff.width());
        ASSERT_EQ(dense.height(), ff.height());
        for (int y = 0; y < dense.height(); ++y)
            for (int x = 0; x < dense.width(); ++x)
                ASSERT_EQ(f32AsLane(dense.at(x, y)),
                          f32AsLane(ff.at(x, y)))
                    << "pixel (" << x << "," << y << ")";
    }
}

TEST(FastForward, TraceBytesBitExact)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    BenchmarkApp app = makeBenchmark("Blur", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);
    std::string chrome[2];
    for (int mode = 0; mode < 2; ++mode) {
        Tracer tr;
        tr.setEnabled(true);
        Cycle c = 0;
        std::string s;
        launchMode(app, cp, cfg, mode == 1, &c, &s, &tr);
        std::ostringstream os;
        tr.exportChromeJson(os);
        chrome[mode] = os.str();
    }
    EXPECT_FALSE(chrome[0].empty());
    EXPECT_EQ(chrome[0], chrome[1]);
}

TEST(FastForward, SkipsCyclesAndReportsTelemetry)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    BenchmarkApp app = makeBenchmark("Blur", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);

    Device dense(cfg);
    dense.setFastForward(false);
    launchOnDevice(dense, cp, app.inputs);
    EXPECT_EQ(dense.ffwdSkippedCycles(), 0u);
    EXPECT_EQ(dense.ffwdJumps(), 0u);

    Device ff(cfg);
    launchOnDevice(ff, cp, app.inputs); // fast-forward is the default
    EXPECT_GT(ff.ffwdSkippedCycles(), 0u);
    EXPECT_GT(ff.ffwdJumps(), 0u);
    EXPECT_GE(ff.ffwdSkippedCycles(), ff.ffwdJumps());
}

TEST(FastForward, ServeBitExact)
{
    std::string stats[2];
    std::string chrome[2];
    for (int mode = 0; mode < 2; ++mode) {
        FleetObserverConfig oc;
        oc.tracing = true;
        FleetObserver obs(oc);
        FleetConfig cfg;
        cfg.hw = HardwareConfig::tiny();
        cfg.hw.cubes = 2;
        cfg.devices = 1;
        cfg.width = 64;
        cfg.height = 32;
        cfg.fastForward = mode == 1;
        cfg.observer = &obs;

        WorkloadSpec spec;
        spec.pipelines = {"Blur", "Brighten"};
        spec.ratePerSec = 50000;
        spec.requests = 6;
        spec.seed = 7;

        FleetReport rep =
            FleetServer(cfg).run(generatePoissonWorkload(spec));
        stats[mode] = rep.stats.toString();
        std::ostringstream os;
        obs.exportChromeJson(os);
        chrome[mode] = os.str();
    }
    EXPECT_EQ(stats[0], stats[1]);
    EXPECT_EQ(chrome[0], chrome[1]);
}

/**
 * Refresh-dominated workload: dependent DRAM loads under a shrunken
 * tREFI park the whole device inside tRFC windows where the only
 * pending event is the refresh completing (MemoryController's
 * nextRefreshAt_), so the skip logic must wake up for it.
 */
TEST(FastForward, RefreshOnlyWakeupBitExact)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.timing.tREFI = 400;
    u32 mask = (1u << cfg.pesPerVault()) - 1;

    std::vector<Instruction> prog;
    prog.push_back(Instruction::setiCrf(0, 100));
    prog.push_back(Instruction::setiCrf(1, 2)); // loop head
    prog.push_back(
        Instruction::memRf(false, MemOperand::direct(128), 1, mask));
    prog.push_back(Instruction::comp(AluOp::kAdd, DType::kF32,
                                     CompMode::kVecVec, 2, 1, 1,
                                     kFullVecMask, mask));
    prog.push_back(Instruction::calcCrfImm(AluOp::kAdd, 0, 0, -1));
    prog.push_back(Instruction::cjump(0, 1));
    prog.push_back(Instruction::halt());

    Cycle cycles[2];
    std::string stats[2];
    for (int mode = 0; mode < 2; ++mode) {
        Device dev(cfg);
        dev.setFastForward(mode == 1);
        dev.loadProgramAll(prog);
        cycles[mode] = dev.run();
        stats[mode] = dev.stats().toString();
        if (mode == 1) {
            EXPECT_GT(dev.ffwdSkippedCycles(), 0u);
        }
        EXPECT_GE(dev.stats().get("dram.ref"), 2.0);
    }
    EXPECT_EQ(cycles[0], cycles[1]);
    EXPECT_EQ(stats[0], stats[1]);
}

constexpr u32 kSeededBytes = 96 * 1024;
constexpr u16 kDumpedDrfs = 8;

/** Flat index of PE (@p c, @p v, @p g, @p pe) on a device of @p cfg. */
u32
peIndex(const HardwareConfig &cfg, u32 c, u32 v, u32 g, u32 pe)
{
    return ((c * cfg.vaultsPerCube + v) * cfg.pgsPerVault + g) *
               cfg.pesPerPg +
           pe;
}

/** The word runPrograms seeds at @p bankAddr, lane @p lane of a PE. */
u32
seededWord(const HardwareConfig &cfg, u32 c, u32 v, u32 g, u32 pe,
           u32 bankAddr, u32 lane)
{
    u32 vec = peIndex(cfg, c, v, g, pe) * (kSeededBytes / kVectorBytes) +
              bankAddr / kVectorBytes;
    return vec * kSimdLanes + lane + 1;
}

/**
 * Every observable of one run() of @p progs: cycles, stats text, issue
 * accounting, Chrome trace bytes (when traced), and the first DRF
 * entries of every PE (the data the program loaded and computed).
 */
struct ModeRun
{
    Cycle cycles = 0;
    std::string stats;
    std::vector<IssueAccounting> acct; ///< per vault, chip-major
    f64 refreshes = 0;
    u64 jumps = 0;
    std::string trace;
    std::vector<u32> drf;

    /** Lane @p lane of DRF entry @p d of one PE after the run. */
    u32
    drfLane(const HardwareConfig &cfg, u32 c, u32 v, u32 g, u32 pe, u16 d,
            u32 lane) const
    {
        return drf.at((peIndex(cfg, c, v, g, pe) * kDumpedDrfs + d) *
                          kSimdLanes +
                      lane);
    }
};

/** Runs @p progs over banks seeded with distinct words (seededWord). */
ModeRun
runPrograms(const HardwareConfig &cfg,
            const std::vector<std::vector<Instruction>> &progs,
            bool fastForward, u32 threads, bool traced = false)
{
    Tracer tr;
    tr.setEnabled(traced);
    Device dev(cfg, traced ? &tr : nullptr);
    dev.setFastForward(fastForward);
    dev.setThreads(threads);
    dev.loadPrograms(progs);
    u32 word = 1;
    for (u32 c = 0; c < cfg.cubes; ++c)
        for (u32 v = 0; v < cfg.vaultsPerCube; ++v)
            for (u32 g = 0; g < cfg.pgsPerVault; ++g)
                for (u32 pe = 0; pe < cfg.pesPerPg; ++pe)
                    for (u32 a = 0; a < kSeededBytes; a += kVectorBytes) {
                        VecWord w;
                        for (u32 &lane : w.lanes)
                            lane = word++;
                        dev.vault(c, v).pg(g).mc().storage(pe).writeVec(a, w);
                    }

    ModeRun r;
    r.cycles = dev.run();
    r.stats = dev.stats().toString();
    for (u32 c = 0; c < cfg.cubes; ++c) {
        for (u32 v = 0; v < cfg.vaultsPerCube; ++v) {
            Vault &vault = dev.vault(c, v);
            r.acct.push_back(vault.accounting());
            for (u32 g = 0; g < cfg.pgsPerVault; ++g)
                for (u32 pe = 0; pe < cfg.pesPerPg; ++pe)
                    for (u16 d = 0; d < kDumpedDrfs; ++d)
                        for (u32 lane : vault.pg(g).pe(pe).drf(d).lanes)
                            r.drf.push_back(lane);
        }
    }
    r.refreshes = dev.stats().get("dram.ref");
    r.jumps = dev.ffwdJumps();
    if (traced) {
        std::ostringstream os;
        tr.exportChromeJson(os);
        r.trace = os.str();
    }
    return r;
}

void
expectSameAccounting(const std::vector<IssueAccounting> &a,
                     const std::vector<IssueAccounting> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("vault " + std::to_string(i));
        EXPECT_EQ(a[i].cycles, b[i].cycles);
        EXPECT_EQ(a[i].issued, b[i].issued);
        EXPECT_EQ(a[i].bubble, b[i].bubble);
        EXPECT_EQ(a[i].barrier, b[i].barrier);
        EXPECT_EQ(a[i].drain, b[i].drain);
        EXPECT_EQ(a[i].structStall, b[i].structStall);
        EXPECT_EQ(a[i].hazard, b[i].hazard);
    }
}

/** A @p iters-iteration CRF countdown loop around @p body. */
void
emitLoop(std::vector<Instruction> &p, i32 iters,
         const std::vector<Instruction> &body)
{
    p.push_back(Instruction::setiCrf(0, iters));
    p.push_back(Instruction::setiCrf(1, i32(p.size() + 1)));
    p.insert(p.end(), body.begin(), body.end());
    p.push_back(Instruction::calcCrfImm(AluOp::kAdd, 0, 0, -1));
    p.push_back(Instruction::cjump(0, 1));
}

/** d2 += d1 * d1: each MAC waits out the previous one (RAW on d2). */
Instruction
rawMac(u32 mask)
{
    return Instruction::comp(AluOp::kMac, DType::kF32, CompMode::kVecVec,
                             2, 1, 1, kFullVecMask, mask);
}

/**
 * A cube that goes fully idle inside a quantum is caught up to the
 * barrier by Device::catchUpIdleCube.  Its halted vaults still refresh
 * their banks, so fast-forward must wake them at their refresh
 * deadlines there too; crediting the idle stretch in bulk used to drop
 * every refresh due inside it (dram.ref 424 instead of dense's 848).
 */
TEST(FastForward, IdleCubeRefreshBitExact)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.cubes = 2;
    cfg.timing.tREFI = 400;
    u32 mask = (1u << cfg.pesPerVault()) - 1;

    std::vector<Instruction> busy;
    emitLoop(busy, 300,
             {rawMac(mask), rawMac(mask), rawMac(mask), rawMac(mask)});
    busy.push_back(Instruction::halt());
    std::vector<std::vector<Instruction>> progs(
        cfg.cubes * cfg.vaultsPerCube, {Instruction::halt()});
    progs[0] = busy;

    ModeRun dense = runPrograms(cfg, progs, false, 1);
    EXPECT_EQ(dense.cycles, 10803u);
    EXPECT_EQ(dense.refreshes, 848.0);
    for (u32 threads : {1u, 2u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ModeRun ff = runPrograms(cfg, progs, true, threads);
        EXPECT_EQ(ff.cycles, dense.cycles);
        EXPECT_EQ(ff.refreshes, dense.refreshes);
        EXPECT_EQ(ff.stats, dense.stats);
        expectSameAccounting(ff.acct, dense.acct);
        EXPECT_GT(ff.jumps, 0u);
    }
}

/**
 * Lazy wake (DESIGN.md Sec. 13) at a paper-width device: 2 cubes x 16
 * vaults, so most vaults sit in skip windows while one works, and are
 * woken mid-window by a packet rather than by their own wake cycle.
 * Phase 1: c0.v3 runs a MAC chain, then reads remote banks through a
 * parked vault in the other cube (SERDES) and one in its own cube
 * (mesh) before it syncs; every other vault parks at the sync until
 * the master's kSyncProceed wakes it.  Phase 2: c1.v2 does the same
 * against a parked vault in cube 0, then everyone syncs again.
 */
TEST(FastForward, LazyWakeRemoteReqAndSyncBitExact)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.cubes = 2;
    cfg.vaultsPerCube = 16;
    cfg.meshCols = 4;
    u32 mask = (1u << cfg.pesPerVault()) - 1;

    std::vector<Instruction> parked = {Instruction::sync(1),
                                       Instruction::sync(2),
                                       Instruction::halt()};
    std::vector<std::vector<Instruction>> progs(
        cfg.cubes * cfg.vaultsPerCube, parked);

    std::vector<Instruction> first;
    emitLoop(first, 120, {rawMac(mask), rawMac(mask)});
    first.push_back(Instruction::req(1, 7, 0, 0, MemOperand::direct(0), 0));
    first.push_back(
        Instruction::req(0, 9, 1, 1, MemOperand::direct(128), 64));
    first.push_back(Instruction::sync(1));
    first.push_back(Instruction::sync(2));
    first.push_back(Instruction::halt());
    progs[3] = first;

    std::vector<Instruction> second = {Instruction::sync(1)};
    emitLoop(second, 80, {rawMac(mask)});
    second.push_back(
        Instruction::req(0, 12, 1, 0, MemOperand::direct(256), 32));
    second.push_back(Instruction::sync(2));
    second.push_back(Instruction::halt());
    progs[cfg.vaultsPerCube + 2] = second;

    ModeRun dense = runPrograms(cfg, progs, false, 1);
    for (u32 threads : {1u, 2u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        ModeRun ff = runPrograms(cfg, progs, true, threads);
        EXPECT_EQ(ff.cycles, dense.cycles);
        EXPECT_EQ(ff.stats, dense.stats);
        expectSameAccounting(ff.acct, dense.acct);
        EXPECT_GT(ff.jumps, 0u);
    }
}

/** Histogram's device-wide reduction on the same 2 x 16-vault device. */
TEST(FastForward, LazyWakeHistogramBitExact)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.cubes = 2;
    cfg.vaultsPerCube = 16;
    cfg.meshCols = 4;
    BenchmarkApp app = makeBenchmark("Histogram", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);

    auto launch = [&](bool fastForward, u32 threads, std::string *stats) {
        Device dev(cfg);
        dev.setFastForward(fastForward);
        dev.setThreads(threads);
        LaunchResult res = launchOnDevice(dev, cp, app.inputs);
        *stats = dev.stats().toString();
        return res;
    };
    std::string denseStats;
    LaunchResult dense = launch(false, 1, &denseStats);
    for (u32 threads : {1u, 2u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        std::string ffStats;
        LaunchResult ff = launch(true, threads, &ffStats);
        EXPECT_EQ(ff.cycles, dense.cycles);
        EXPECT_EQ(ffStats, denseStats);
        expectSameAccounting(ff.vaultAccounting, dense.vaultAccounting);
        ASSERT_EQ(ff.output.width(), dense.output.width());
        ASSERT_EQ(ff.output.height(), dense.output.height());
        for (int y = 0; y < dense.output.height(); ++y)
            for (int x = 0; x < dense.output.width(); ++x)
                ASSERT_EQ(f32AsLane(dense.output.at(x, y)),
                          f32AsLane(ff.output.at(x, y)))
                    << "pixel (" << x << "," << y << ")";
    }
}

/**
 * Dense, fast-forward, and fast-forward on two threads agree on every
 * observable, untraced (where PGs with no event due are skipped) and
 * traced (where every PG ticks).  Returns the untraced dense run.
 */
ModeRun
expectAllModesBitExact(const HardwareConfig &cfg,
                       const std::vector<std::vector<Instruction>> &progs)
{
    ModeRun untracedDense;
    for (bool traced : {false, true}) {
        SCOPED_TRACE(traced ? "traced" : "untraced");
        ModeRun dense = runPrograms(cfg, progs, false, 1, traced);
        for (u32 threads : {1u, 2u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            ModeRun ff = runPrograms(cfg, progs, true, threads, traced);
            EXPECT_EQ(ff.cycles, dense.cycles);
            EXPECT_EQ(ff.stats, dense.stats);
            EXPECT_EQ(ff.trace, dense.trace);
            EXPECT_EQ(ff.drf, dense.drf);
            expectSameAccounting(ff.acct, dense.acct);
        }
        if (traced)
            EXPECT_FALSE(dense.trace.empty());
        else
            untracedDense = dense;
    }
    return untracedDense;
}

/** SIMB mask of every PE in process group @p g. */
u32
pgMask(const HardwareConfig &cfg, u32 g)
{
    return ((1u << cfg.pesPerPg) - 1) << (g * cfg.pesPerPg);
}

/**
 * A loop body that loads one vector per PE of @p mask from a new row
 * each iteration (A<4+r> walks the bank a row plus a column at a time)
 * and accumulates it: d<r+1> += d<r>.  Bodies with different @p r share
 * no register, so the core issues them without hazards between them.
 */
std::vector<Instruction>
streamRows(const HardwareConfig &cfg, u32 mask, u16 r = 1)
{
    u16 arf = u16(4 + r);
    return {Instruction::memRf(false, MemOperand::viaArf(arf), r, mask),
            Instruction::comp(AluOp::kAdd, DType::kI32, CompMode::kVecVec,
                              u16(r + 1), u16(r + 1), r, kFullVecMask,
                              mask),
            Instruction::calcArfImm(AluOp::kAdd, arf, arf,
                                    i32(cfg.dramRowBytes + kVectorBytes),
                                    mask)};
}

/** A 2-cube device with 4 PGs per vault, so most PGs of a vault idle. */
HardwareConfig
fourPgConfig()
{
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.cubes = 2;
    cfg.pgsPerVault = 4;
    return cfg;
}

/**
 * Per-PG skipping (DESIGN.md Sec. 13): PG 0 streams row-missing bank
 * loads while its three siblings idle with nothing due.  Mid-stream the
 * siblings receive a broadcast (a load into d3 and an add), which must
 * make them due again while PG 0's loads are still in flight.
 */
TEST(FastForward, PgSkipSiblingsWokenByBroadcastBitExact)
{
    HardwareConfig cfg = fourPgConfig();
    u32 siblings = pgMask(cfg, 1) | pgMask(cfg, 2) | pgMask(cfg, 3);

    std::vector<Instruction> p;
    emitLoop(p, 20, streamRows(cfg, pgMask(cfg, 0)));
    p.push_back(Instruction::memRf(false, MemOperand::direct(512), 3,
                                   siblings));
    p.push_back(Instruction::comp(AluOp::kAdd, DType::kI32,
                                  CompMode::kVecVec, 3, 3, 3, kFullVecMask,
                                  siblings));
    emitLoop(p, 20, streamRows(cfg, pgMask(cfg, 0)));
    p.push_back(Instruction::halt());
    std::vector<std::vector<Instruction>> progs(
        cfg.cubes * cfg.vaultsPerCube, {Instruction::halt()});
    progs[1] = p;
    progs[cfg.vaultsPerCube + 2] = p;

    ModeRun dense = expectAllModesBitExact(cfg, progs);
    for (u32 g = 1; g < cfg.pgsPerVault; ++g)
        for (u32 pe = 0; pe < cfg.pesPerPg; ++pe)
            for (u32 l = 0; l < kSimdLanes; ++l)
                EXPECT_EQ(dense.drfLane(cfg, 0, 1, g, pe, 3, l),
                          2 * seededWord(cfg, 0, 1, g, pe, 512, l));
}

/**
 * Two PGs of one vault share the vault's ActivationLimiter: each loop
 * iteration opens a new row in all four banks of PGs 0 and 1, whose
 * streams share no register and so run side by side, and a widened
 * tFAW lets only four of those ACTs into a window.  A PG whose cached
 * wake was computed before a sibling's ACT wakes early, finds the ACT
 * still illegal, and re-caches a later wake; the run must still match
 * dense ticking.
 */
TEST(FastForward, PgSkipSharedActivationWindowBitExact)
{
    HardwareConfig cfg = fourPgConfig();
    cfg.timing.tFAW = 64;
    u32 both = pgMask(cfg, 0) | pgMask(cfg, 1);

    // Interleaved, so the in-order core has both PGs' loads in flight
    // before either accumulate blocks it.
    std::vector<Instruction> pg0 = streamRows(cfg, pgMask(cfg, 0), 1);
    std::vector<Instruction> pg1 = streamRows(cfg, pgMask(cfg, 1), 5);
    std::vector<Instruction> body;
    for (size_t i = 0; i < pg0.size(); ++i) {
        body.push_back(pg0[i]);
        body.push_back(pg1[i]);
    }
    std::vector<Instruction> p;
    emitLoop(p, 16, body);
    p.push_back(Instruction::comp(AluOp::kAdd, DType::kI32,
                                  CompMode::kVecVec, 2, 2, 6, kFullVecMask,
                                  both));
    p.push_back(Instruction::halt());
    std::vector<std::vector<Instruction>> progs(
        cfg.cubes * cfg.vaultsPerCube, {Instruction::halt()});
    progs[0] = p;
    progs[cfg.vaultsPerCube + 3] = p;

    ModeRun dense = expectAllModesBitExact(cfg, progs);
    for (u32 g = 0; g < 2; ++g) {
        for (u32 pe = 0; pe < cfg.pesPerPg; ++pe) {
            for (u32 l = 0; l < kSimdLanes; ++l) {
                u32 sum = 0;
                for (u32 i = 0; i < 16; ++i)
                    sum += seededWord(cfg, 0, 0, g, pe,
                                      i * (cfg.dramRowBytes + kVectorBytes),
                                      l);
                EXPECT_EQ(dense.drfLane(cfg, 0, 0, g, pe, 2, l), sum);
            }
        }
    }
    // Each vault opens 16 x 4 rows, at most four per tFAW window.
    const u64 actsPerVault = 16 * 4;
    EXPECT_NE(dense.stats.find("dram.act = 128\n"), std::string::npos)
        << dense.stats;
    EXPECT_GE(dense.cycles, (actsPerVault / 4 - 1) * cfg.timing.tFAW);
}

/**
 * A remote read lands on an otherwise idle PG: while vault 1.2 streams
 * on PG 0 only, vault 0.1 reads a word of PG 3 PE 1 there (over SERDES)
 * and vault 1.0 reads one of PG 2 PE 0 (over the mesh).  Each requester
 * then moves the staged word into a DRF, so the data is compared too.
 */
TEST(FastForward, PgSkipRemoteReqWakesIdlePgBitExact)
{
    HardwareConfig cfg = fourPgConfig();
    u32 all = (1u << cfg.pesPerVault()) - 1;

    std::vector<Instruction> target;
    emitLoop(target, 24, streamRows(cfg, pgMask(cfg, 0)));
    target.push_back(Instruction::halt());

    auto requester = [&](u16 pg, u16 pe, u32 bankAddr) {
        std::vector<Instruction> p;
        emitLoop(p, 6, {rawMac(all)});
        p.push_back(Instruction::req(1, 2, pg, pe,
                                     MemOperand::direct(bankAddr), 64));
        p.push_back(Instruction::vsmRf(true, MemOperand::direct(64), 5, all));
        p.push_back(Instruction::halt());
        return p;
    };

    std::vector<std::vector<Instruction>> progs(
        cfg.cubes * cfg.vaultsPerCube, {Instruction::halt()});
    progs[cfg.vaultsPerCube + 2] = target;
    progs[1] = requester(3, 1, 4096);
    progs[cfg.vaultsPerCube + 0] = requester(2, 0, 8192 + 32);

    ModeRun dense = expectAllModesBitExact(cfg, progs);
    for (u32 l = 0; l < kSimdLanes; ++l) {
        EXPECT_EQ(dense.drfLane(cfg, 0, 1, 1, 1, 5, l),
                  seededWord(cfg, 1, 2, 3, 1, 4096, l));
        EXPECT_EQ(dense.drfLane(cfg, 1, 0, 2, 0, 5, l),
                  seededWord(cfg, 1, 2, 2, 0, 8192 + 32, l));
    }
}

/**
 * The deadlock watchdog must trip at the same logical point in both
 * modes: a budget one cycle short of the program's natural length
 * throws, the exact length does not (fast-forward caps its jumps at
 * the budget so it can never sail past the trip point).
 */
TEST(FastForward, WatchdogParityAtBoundary)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    BenchmarkApp app = makeBenchmark("Shift", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);

    // Natural length of the first kernel on an unscattered device
    // (SIMB control flow never depends on bank contents, so the length
    // is identical with or without input data).
    Device probe(cfg);
    probe.loadPrograms(cp.kernels[0].perVault);
    Cycle natural = probe.run();
    ASSERT_GT(natural, 1u);

    for (int mode = 0; mode < 2; ++mode) {
        SCOPED_TRACE(mode == 1 ? "fast-forward" : "dense");
        Device dev(cfg);
        dev.setFastForward(mode == 1);
        dev.loadPrograms(cp.kernels[0].perVault);
        EXPECT_THROW(dev.run(natural - 1), FatalError);

        Device ok(cfg);
        ok.setFastForward(mode == 1);
        ok.loadPrograms(cp.kernels[0].perVault);
        EXPECT_EQ(ok.run(natural), natural);
    }
}

} // namespace
} // namespace ipim

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

/** Dense and fast-forward observables of one run() of @p progs. */
struct ModeRun
{
    Cycle cycles = 0;
    std::string stats;
    std::vector<IssueAccounting> acct; ///< per vault, chip-major
    f64 refreshes = 0;
    u64 jumps = 0;
};

ModeRun
runPrograms(const HardwareConfig &cfg,
            const std::vector<std::vector<Instruction>> &progs,
            bool fastForward, u32 threads)
{
    Device dev(cfg);
    dev.setFastForward(fastForward);
    dev.setThreads(threads);
    dev.loadPrograms(progs);
    ModeRun r;
    r.cycles = dev.run();
    r.stats = dev.stats().toString();
    for (u32 c = 0; c < cfg.cubes; ++c)
        for (u32 v = 0; v < cfg.vaultsPerCube; ++v)
            r.acct.push_back(dev.vault(c, v).accounting());
    r.refreshes = dev.stats().get("dram.ref");
    r.jumps = dev.ffwdJumps();
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

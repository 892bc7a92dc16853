/**
 * Parallel-simulation determinism regressions (DESIGN.md Sec. 18).
 *
 * Device::setThreads(N) is a wall-clock knob only: cycles, stats,
 * pixels, and Chrome trace bytes must be bit-identical for every
 * thread count, in both dense and fast-forward mode.  These tests
 * byte-compare full runs across 1/2/4/8 threads, and pin down the
 * SERDES gateway ordering fixes that the quantum engine depends on
 * (per-link FIFO ingress, O(moved) retry drain, and nextEventAt
 * under gateway backpressure).
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

/** One full launch; returns the output image, fills the observables. */
Image
launchThreaded(const BenchmarkApp &app, const CompiledPipeline &cp,
               const HardwareConfig &cfg, u32 threads, bool fastForward,
               Cycle *cyclesOut, std::string *statsOut,
               std::string *traceOut)
{
    Tracer tracer;
    tracer.setEnabled(traceOut != nullptr);
    Device dev(cfg, traceOut ? &tracer : nullptr);
    dev.setThreads(threads);
    dev.setFastForward(fastForward);
    LaunchResult res = launchOnDevice(dev, cp, app.inputs);
    *cyclesOut = res.cycles;
    *statsOut = dev.stats().toString();
    if (traceOut) {
        std::ostringstream os;
        tracer.exportChromeJson(os);
        *traceOut = os.str();
    }
    return res.output;
}

TEST(Parallel, AllBenchmarksBitExactAcrossThreads)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.cubes = 8; // one cube per worker at the widest setting
    for (const std::string &name : allBenchmarkNames()) {
        SCOPED_TRACE(name);
        BenchmarkApp app = makeBenchmark(name, 64, 32);
        CompiledPipeline cp = compilePipeline(app.def, cfg);
        Cycle refCycles = 0;
        std::string refStats;
        Image ref = launchThreaded(app, cp, cfg, 1, true, &refCycles,
                                   &refStats, nullptr);
        for (u32 threads : {2u, 4u, 8u}) {
            SCOPED_TRACE("threads=" + std::to_string(threads));
            Cycle cycles = 0;
            std::string stats;
            Image out = launchThreaded(app, cp, cfg, threads, true,
                                       &cycles, &stats, nullptr);
            EXPECT_EQ(cycles, refCycles);
            EXPECT_EQ(stats, refStats);
            ASSERT_EQ(out.width(), ref.width());
            ASSERT_EQ(out.height(), ref.height());
            for (int y = 0; y < ref.height(); ++y)
                for (int x = 0; x < ref.width(); ++x)
                    ASSERT_EQ(f32AsLane(ref.at(x, y)),
                              f32AsLane(out.at(x, y)))
                        << "pixel (" << x << "," << y << ")";
        }
    }
}

TEST(Parallel, TraceBytesBitExactAcrossThreadsAndModes)
{
    // The full cross product on one benchmark: every (threads, ffwd)
    // combination must produce the same Chrome trace byte stream —
    // the strictest observable, since it encodes per-cycle event
    // order across all cubes.
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.cubes = 8;
    BenchmarkApp app = makeBenchmark("Blur", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);
    Cycle refCycles = 0;
    std::string refStats, refTrace;
    launchThreaded(app, cp, cfg, 1, false, &refCycles, &refStats,
                   &refTrace);
    EXPECT_FALSE(refTrace.empty());
    for (u32 threads : {1u, 2u, 4u, 8u}) {
        for (bool ffwd : {false, true}) {
            if (threads == 1 && !ffwd)
                continue; // the reference itself
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " ffwd=" + std::to_string(ffwd));
            Cycle cycles = 0;
            std::string stats, trace;
            launchThreaded(app, cp, cfg, threads, ffwd, &cycles, &stats,
                           &trace);
            EXPECT_EQ(cycles, refCycles);
            EXPECT_EQ(stats, refStats);
            EXPECT_EQ(trace, refTrace);
        }
    }
}

TEST(Parallel, ThreadCountClampsToCubes)
{
    HardwareConfig cfg = HardwareConfig::tiny(); // 1 cube
    Device dev(cfg);
    dev.setThreads(8);
    EXPECT_EQ(dev.threads(), 1u);
    dev.setThreads(0);
    EXPECT_EQ(dev.threads(), 1u);

    HardwareConfig four = cfg;
    four.cubes = 4;
    Device dev4(four);
    dev4.setThreads(8);
    EXPECT_EQ(dev4.threads(), 4u);
    dev4.setThreads(2);
    EXPECT_EQ(dev4.threads(), 2u);
}

TEST(Parallel, ServeBitExactAcrossThreads)
{
    // Serving on one device must byte-match regardless of slot-device
    // thread count: same report stats, same trace stream.
    std::string refStats, refTrace;
    for (u32 threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("threads=" + std::to_string(threads));
        FleetObserverConfig oc;
        oc.tracing = true;
        FleetObserver obs(oc);
        FleetConfig cfg;
        cfg.hw = HardwareConfig::tiny();
        cfg.hw.cubes = 2;
        cfg.devices = 1;
        cfg.width = 64;
        cfg.height = 32;
        cfg.threads = threads;
        cfg.observer = &obs;

        WorkloadSpec spec;
        spec.pipelines = {"Blur", "Brighten"};
        spec.ratePerSec = 50000;
        spec.requests = 6;
        spec.seed = 7;

        FleetReport rep =
            FleetServer(cfg).run(generatePoissonWorkload(spec));
        std::ostringstream os;
        obs.exportChromeJson(os);
        if (threads == 1) {
            refStats = rep.stats.toString();
            refTrace = os.str();
            EXPECT_FALSE(refTrace.empty());
        } else {
            EXPECT_EQ(rep.stats.toString(), refStats);
            EXPECT_EQ(os.str(), refTrace);
        }
    }
}

/** A kReqRead packet addressed at cube 0's gateway vault. */
Packet
ingressReq(u64 tag)
{
    Packet p;
    p.kind = PacketKind::kReqRead;
    p.srcChip = 1;
    p.dstChip = 0;
    p.srcVault = 0;
    p.dstVault = 1; // one mesh hop past the gateway router
    p.pg = 0;
    p.pe = 0;
    p.dramAddr = 0;
    p.vsmAddr = 0;
    p.tag = tag;
    return p;
}

/** Tick @p cube until idle, collecting SERDES egress tags in order. */
std::vector<u64>
drainToEgress(Cube &cube, size_t expect)
{
    std::vector<u64> tags;
    for (Cycle t = 0; tags.size() < expect && t < 100000; ++t) {
        cube.tick(t);
        for (const Packet &p : cube.serdesEgress())
            tags.push_back(p.tag);
        cube.serdesEgress().clear();
    }
    return tags;
}

TEST(Parallel, GatewayFifoPreservesArrivalOrder)
{
    // Regression: a packet arriving while earlier arrivals still wait
    // in the ingress-retry queue must line up behind them, even when
    // the gateway router has space again by then — otherwise per-link
    // SERDES delivery order inverts.  Each request's response egresses
    // in service order, so the egress tag sequence exposes the
    // delivery order end to end.
    HardwareConfig cfg = HardwareConfig::tiny();
    StatsRegistry stats;
    Cube cube(cfg, 0, &stats);

    // Overfill the gateway input queue (capacity 8) in one burst...
    for (u64 tag = 0; tag < 12; ++tag)
        cube.deliverFromSerdes(ingressReq(tag));
    ASSERT_GT(cube.serdesIngressBacklog(), 0u);
    // ...free gateway space, then deliver a late packet that would
    // overtake the queued ones if ingress were not FIFO.
    cube.tick(0);
    cube.deliverFromSerdes(ingressReq(12));

    std::vector<u64> tags = drainToEgress(cube, 13);
    ASSERT_EQ(tags.size(), 13u);
    for (u64 i = 0; i < tags.size(); ++i)
        EXPECT_EQ(tags[i], i) << "response " << i << " out of order";
    EXPECT_EQ(cube.serdesIngressBacklog(), 0u);
    EXPECT_GT(stats.get("serdes.ingressRetryQueued"), 0.0);
}

TEST(Parallel, GatewayRetryBacklogDrainsUnderFlood)
{
    // Stress the previously-quadratic retry path: hundreds of arrivals
    // in one cycle, far beyond gateway capacity.  All must eventually
    // deliver, in order, with the backlog strictly front-drained.
    HardwareConfig cfg = HardwareConfig::tiny();
    StatsRegistry stats;
    Cube cube(cfg, 0, &stats);

    constexpr u64 kFlood = 500;
    for (u64 tag = 0; tag < kFlood; ++tag)
        cube.deliverFromSerdes(ingressReq(tag));
    EXPECT_GT(cube.serdesIngressBacklog(), 400u);

    std::vector<u64> tags = drainToEgress(cube, kFlood);
    ASSERT_EQ(tags.size(), kFlood);
    for (u64 i = 0; i < kFlood; ++i)
        ASSERT_EQ(tags[i], i) << "response " << i << " out of order";
    EXPECT_EQ(cube.serdesIngressBacklog(), 0u);
    EXPECT_EQ(stats.get("serdes.ingressRetryQueued"),
              f64(kFlood - 8)); // all but the first gateway queue fill
}

/** Program builder (same idiom as tests/test_sim.cc). */
struct Prog
{
    std::vector<Instruction> v;

    Prog &
    operator<<(Instruction i)
    {
        v.push_back(i);
        return *this;
    }

    std::vector<Instruction>
    done()
    {
        v.push_back(Instruction::halt());
        return v;
    }
};

TEST(Parallel, BackpressuredFastForwardBitExact)
{
    // Every vault of cubes 1..3 fires a burst of REQs at cube 0's
    // gateway, flooding its input queue so arrivals spill into the
    // ingress-retry backlog mid-run.  nextEventAt must keep reporting
    // the true next-injection opportunity through the backpressure:
    // dense, fast-forward, and every thread count have to agree on all
    // counters and the cycle total.
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.cubes = 4;

    auto runOnce = [&](bool ffwd, u32 threads, std::string *statsOut) {
        Device d(cfg);
        d.setFastForward(ffwd);
        d.setThreads(threads);
        for (u32 chip = 1; chip < cfg.cubes; ++chip)
            d.bank(0, 0, 0, 0).writeVec(512, VecWord::splatF32(1.5f));
        std::vector<std::vector<Instruction>> progs(
            d.totalVaults(), {Instruction::halt()});
        for (u32 chip = 1; chip < cfg.cubes; ++chip) {
            for (u32 v = 0; v < cfg.vaultsPerCube; ++v) {
                Prog p;
                for (u32 r = 0; r < 8; ++r)
                    p << Instruction::req(0, 0, 0, 0,
                                          MemOperand::direct(512),
                                          1024 + 64 * r);
                progs[chip * cfg.vaultsPerCube + v] = p.done();
            }
        }
        d.loadPrograms(progs);
        Cycle cycles = d.run();
        *statsOut = d.stats().toString();
        EXPECT_GT(d.stats().get("serdes.ingressRetryQueued"), 0.0)
            << "flood did not backpressure the gateway; test is vacuous";
        return cycles;
    };

    std::string refStats;
    Cycle refCycles = runOnce(false, 1, &refStats);
    for (bool ffwd : {false, true}) {
        for (u32 threads : {1u, 2u, 4u}) {
            if (!ffwd && threads == 1)
                continue; // the reference itself
            SCOPED_TRACE("ffwd=" + std::to_string(ffwd) +
                         " threads=" + std::to_string(threads));
            std::string stats;
            EXPECT_EQ(runOnce(ffwd, threads, &stats), refCycles);
            EXPECT_EQ(stats, refStats);
        }
    }
}

TEST(Parallel, EqualDeliverAtMergesDeterministically)
{
    // Cubes 1 and 3 are both one SERDES hop from cube 2; identical
    // programs issue their REQs on the same cycle, so both packets
    // arrive at cube 2 with the same deliverAt from different source
    // cubes.  The barrier merge breaks the tie by (egress cycle,
    // source cube, per-source order), so repeated runs at any thread
    // count must agree counter for counter.
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.cubes = 4;

    auto runOnce = [&](u32 threads) {
        Device d(cfg);
        d.setThreads(threads);
        d.bank(2, 0, 0, 0).writeVec(512, VecWord::splatF32(2.5f));
        Prog p;
        p << Instruction::req(2, 0, 0, 0, MemOperand::direct(512),
                              1024);
        std::vector<std::vector<Instruction>> progs(
            d.totalVaults(), {Instruction::halt()});
        progs[1 * cfg.vaultsPerCube] = p.done();
        progs[3 * cfg.vaultsPerCube] = p.done();
        d.loadPrograms(progs);
        d.run();
        return d.stats().toString();
    };

    std::string ref = runOnce(1);
    EXPECT_EQ(runOnce(1), ref); // repeat: stable
    EXPECT_EQ(runOnce(2), ref);
    EXPECT_EQ(runOnce(4), ref);
}

} // namespace
} // namespace ipim

/** Tests for the cycle-level tracing subsystem (src/trace). */
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>

#include "apps/benchmarks.h"
#include "fleet/fleet.h"
#include "fleet/observer.h"
#include "runtime/runtime.h"
#include "trace/report.h"
#include "trace/trace.h"

namespace ipim {
namespace {

/** Count events of @p kind (optionally restricted to @p name). */
u64
countEvents(const Tracer &tr, TraceKind kind,
            TraceEv name = TraceEv::kNumEvents)
{
    u64 n = 0;
    for (const TraceEvent &ev : tr.sortedEvents())
        if (ev.kind == kind &&
            (name == TraceEv::kNumEvents || ev.name == name))
            ++n;
    return n;
}

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer tr;
    EXPECT_FALSE(Tracer::active(&tr));
    EXPECT_FALSE(Tracer::active(nullptr));
    u32 t = tr.track("t");
    tr.instant(t, TraceEv::kDramAct, 10);
    tr.span(t, TraceEv::kVaultRun, 0, 100);
    tr.counter(t, TraceEv::kIiqOccupancy, 5, 3.0);
    EXPECT_EQ(tr.recorded(), 0u);
    EXPECT_TRUE(tr.sortedEvents().empty());
}

TEST(Tracer, RingBufferWrapsAndCountsDrops)
{
    Tracer tr(8);
    tr.setEnabled(true);
    u32 t = tr.track("t");
    for (u64 i = 0; i < 20; ++i)
        tr.instant(t, TraceEv::kDramAct, i);
    EXPECT_EQ(tr.recorded(), 20u);
    EXPECT_EQ(tr.dropped(), 12u);
    std::vector<TraceEvent> evs = tr.sortedEvents();
    ASSERT_EQ(evs.size(), 8u);
    // Oldest events were overwritten; the newest eight survive.
    EXPECT_EQ(evs.front().ts, 12u);
    EXPECT_EQ(evs.back().ts, 19u);
}

TEST(Tracer, TracksAndLabelsIntern)
{
    Tracer tr;
    u32 a = tr.track("alpha");
    u32 b = tr.track("beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(tr.track("alpha"), a);
    EXPECT_EQ(tr.trackNames()[a], "alpha");
    u16 l = tr.label("blurx");
    EXPECT_EQ(tr.label("blurx"), l);
    EXPECT_NE(l, 0u); // 0 is reserved for "no label"
    EXPECT_EQ(tr.labelNames()[l], "blurx");
}

TEST(Tracer, SampleDueHonorsInterval)
{
    Tracer tr;
    tr.setEnabled(true);
    tr.setSampleInterval(64);
    EXPECT_TRUE(Tracer::sampleDue(&tr, 0));
    EXPECT_FALSE(Tracer::sampleDue(&tr, 63));
    EXPECT_TRUE(Tracer::sampleDue(&tr, 128));
    EXPECT_FALSE(Tracer::sampleDue(nullptr, 0));
    tr.setEnabled(false);
    EXPECT_FALSE(Tracer::sampleDue(&tr, 0));
}

TEST(Tracer, TimeOffsetShiftsRecordedTimestamps)
{
    Tracer tr;
    tr.setEnabled(true);
    u32 t = tr.track("t");
    tr.setTimeOffset(1000);
    tr.instant(t, TraceEv::kDramAct, 5);
    tr.span(t, TraceEv::kVaultRun, 0, 10);
    tr.setTimeOffset(0);
    std::vector<TraceEvent> evs = tr.sortedEvents();
    ASSERT_EQ(evs.size(), 2u);
    EXPECT_EQ(evs[0].ts, 1000u);
    EXPECT_EQ(evs[0].dur, 10u);
    EXPECT_EQ(evs[1].ts, 1005u);
}

TEST(Tracer, ChromeExportIsWellFormedAndNamesTracks)
{
    Tracer tr;
    tr.setEnabled(true);
    u32 core = tr.track("cube0/v0/core");
    tr.span(core, TraceEv::kVaultRun, 0, 1000);
    tr.span(core, TraceEv::kStallHazard, 10, 20);
    tr.instant(core, TraceEv::kDramAct, 15);
    tr.counter(core, TraceEv::kIiqOccupancy, 64, 3.0);
    tr.asyncBegin(core, TraceEv::kRequest, 0, 7, tr.label("Blur"));
    tr.asyncEnd(core, TraceEv::kRequest, 500, 7);

    std::ostringstream os;
    tr.exportChromeJson(os);
    std::string j = os.str();
    EXPECT_EQ(j.front(), '{');
    EXPECT_EQ(j.back(), '\n');
    EXPECT_NE(j.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(j.find("\"cube0/v0/core\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"b\""), std::string::npos);
    EXPECT_NE(j.find("\"ph\":\"e\""), std::string::npos);
    EXPECT_NE(j.find("\"Blur\""), std::string::npos); // async label
    // A span of 1000 cycles is 1 us at the 1 GHz core clock.
    EXPECT_NE(j.find("\"dur\":1.000"), std::string::npos);
}

/** A traced end-to-end run on the tiny device. */
struct TracedRun
{
    Tracer tracer;
    LaunchResult res;
    StatsRegistry stats;
};

TracedRun
runTraced(bool enabled)
{
    TracedRun r;
    r.tracer.setEnabled(enabled);
    BenchmarkApp app = makeBenchmark("Blur", 64, 32);
    HardwareConfig cfg = HardwareConfig::tiny();
    CompiledPipeline cp = compilePipeline(app.def, cfg);
    Device dev(cfg, &r.tracer);
    Runtime rt(dev, cp);
    for (const auto &[name, img] : app.inputs)
        rt.bindInput(name, img);
    r.res = rt.run();
    r.stats = dev.stats();
    return r;
}

TEST(TraceE2E, IdenticalRunsProduceByteIdenticalTraces)
{
#ifdef IPIM_NO_TRACING
    GTEST_SKIP() << "tracing instrumentation compiled out";
#endif
    TracedRun a = runTraced(true);
    TracedRun b = runTraced(true);
    EXPECT_GT(a.tracer.recorded(), 0u);
    std::ostringstream ja, jb, ca, cb;
    a.tracer.exportChromeJson(ja);
    b.tracer.exportChromeJson(jb);
    EXPECT_EQ(ja.str(), jb.str());
    a.tracer.exportCsv(ca);
    b.tracer.exportCsv(cb);
    EXPECT_EQ(ca.str(), cb.str());
}

TEST(TraceE2E, TracingIsInvisibleToSimulationResults)
{
    TracedRun on = runTraced(true);
    TracedRun off = runTraced(false);
    EXPECT_EQ(off.tracer.recorded(), 0u);
    EXPECT_EQ(on.res.cycles, off.res.cycles);
    EXPECT_EQ(on.res.output.maxAbsDiff(off.res.output), 0.0f);
    // Bit-exact stats: tracing must not perturb the simulation.
    EXPECT_EQ(on.stats.toString(), off.stats.toString());
}

TEST(TraceE2E, RunEmitsExpectedTrackFamilies)
{
#ifdef IPIM_NO_TRACING
    GTEST_SKIP() << "tracing instrumentation compiled out";
#endif
    TracedRun r = runTraced(true);
    const std::vector<std::string> &tracks = r.tracer.trackNames();
    auto hasTrack = [&](const std::string &n) {
        for (const std::string &t : tracks)
            if (t == n)
                return true;
        return false;
    };
    EXPECT_TRUE(hasTrack("host"));
    EXPECT_TRUE(hasTrack("cube0/noc"));
    EXPECT_TRUE(hasTrack("cube0/v0/core"));
    EXPECT_TRUE(hasTrack("cube0/v0/pe"));
    EXPECT_TRUE(hasTrack("cube0/v0/pg0/dram"));

    // One kernel span per compiled stage, one run span per vault per
    // kernel, and DRAM activity.
    EXPECT_GT(countEvents(r.tracer, TraceKind::kSpan, TraceEv::kKernel),
              0u);
    EXPECT_GT(countEvents(r.tracer, TraceKind::kSpan, TraceEv::kVaultRun),
              0u);
    EXPECT_GT(countEvents(r.tracer, TraceKind::kInstant,
                          TraceEv::kDramAct),
              0u);
    EXPECT_GT(countEvents(r.tracer, TraceKind::kCounter,
                          TraceEv::kCoreIssued),
              0u);
}

TEST(TraceE2E, SortedEventsHaveMonotonicTimestampsPerTrack)
{
    TracedRun r = runTraced(true);
    std::map<u32, Cycle> last;
    for (const TraceEvent &ev : r.tracer.sortedEvents()) {
        auto it = last.find(ev.track);
        if (it != last.end()) {
            EXPECT_GE(ev.ts, it->second);
        }
        last[ev.track] = ev.ts;
    }
}

TEST(TraceReportTest, WindowTotalsMatchDeviceStats)
{
#ifdef IPIM_NO_TRACING
    GTEST_SKIP() << "tracing instrumentation compiled out";
#endif
    TracedRun r = runTraced(true);
    TraceReport rep = buildTraceReport(r.tracer, r.res.cycles, 8);
    ASSERT_EQ(rep.windows.size(), 8u);
    EXPECT_EQ(rep.totalCycles, r.res.cycles);
    // The issued counter is sampled, so the derived total matches the
    // exact stats count only to within the final sample interval; the
    // last sample lands at most sampleInterval-1 cycles before the end.
    f64 exact = r.stats.get("core.issued");
    EXPECT_GT(f64(rep.totalIssued), 0.0);
    EXPECT_LE(f64(rep.totalIssued), exact);
    EXPECT_GT(rep.avgVaultIpc, 0.0);
    EXPECT_GE(rep.rowHitRate, 0.0);
    EXPECT_LE(rep.rowHitRate, 1.0);
    u64 winIssued = 0;
    for (const TraceWindow &w : rep.windows) {
        EXPECT_LT(w.begin, w.end);
        winIssued += w.issued;
    }
    EXPECT_EQ(winIssued, rep.totalIssued);
    EXPECT_FALSE(rep.toString().empty());
}

TEST(TraceServe, RequestSpansArePairedAndOnVirtualTimeline)
{
#ifdef IPIM_NO_TRACING
    GTEST_SKIP() << "tracing instrumentation compiled out";
#endif
    FleetObserverConfig oc;
    oc.tracing = true;
    FleetObserver obs(oc);

    FleetConfig cfg;
    cfg.hw = HardwareConfig::tiny();
    cfg.hw.cubes = 2;
    cfg.devices = 1;
    cfg.width = 64;
    cfg.height = 32;
    cfg.observer = &obs;

    WorkloadSpec spec;
    spec.pipelines = {"Brighten", "Shift"};
    spec.ratePerSec = 50000.0;
    spec.requests = 8;
    spec.seed = 3;
    FleetReport rep = FleetServer(cfg).run(generatePoissonWorkload(spec));
    ASSERT_EQ(rep.records.size(), 8u);

    // Request lifetimes live on the fleet tracer; queue/compile/execute
    // spans, cache instants, and the slot devices' own tracks on the
    // device tracer.
    const Tracer &fleet = *obs.fleetTracer();
    const Tracer &dev = *obs.deviceTracer(0);
    for (const Tracer *tr : {&fleet, &dev})
        EXPECT_EQ(countEvents(*tr, TraceKind::kAsyncBegin),
                  countEvents(*tr, TraceKind::kAsyncEnd));
    EXPECT_EQ(countEvents(fleet, TraceKind::kAsyncBegin,
                          TraceEv::kRequest),
              8u);
    EXPECT_EQ(countEvents(fleet, TraceKind::kAsyncEnd,
                          TraceEv::kRequest),
              8u);
    // Two distinct pipelines -> exactly two compile (cache-miss) spans.
    EXPECT_EQ(countEvents(dev, TraceKind::kAsyncBegin,
                          TraceEv::kReqCompile),
              2u);
    EXPECT_EQ(countEvents(dev, TraceKind::kInstant, TraceEv::kCacheMiss),
              2u);
    EXPECT_EQ(countEvents(dev, TraceKind::kInstant, TraceEv::kCacheHit),
              6u);

    // Request-end timestamps sit on the fleet's virtual timeline: the
    // latest one is exactly the makespan, and device events (mapped via
    // the per-kernel time offset) never run past it.
    Cycle lastEnd = 0;
    for (const TraceEvent &ev : fleet.sortedEvents())
        if (ev.kind == TraceKind::kAsyncEnd &&
            ev.name == TraceEv::kRequest)
            lastEnd = std::max(lastEnd, ev.ts);
    EXPECT_EQ(lastEnd, rep.makespan);
    for (const Tracer *tr : {&fleet, &dev})
        for (const TraceEvent &ev : tr->sortedEvents())
            EXPECT_LE(ev.ts, rep.makespan);

    // Slot devices registered their tracks under slot prefixes.
    bool sawSlot = false;
    for (const std::string &t : dev.trackNames())
        if (t.rfind("slot", 0) == 0)
            sawSlot = true;
    EXPECT_TRUE(sawSlot);
}

TEST(TraceServe, ServeTraceIsDeterministic)
{
    auto serveOnce = [](std::string *json) {
        FleetObserverConfig oc;
        oc.tracing = true;
        FleetObserver obs(oc);
        FleetConfig cfg;
        cfg.hw = HardwareConfig::tiny();
        cfg.hw.cubes = 2;
        cfg.devices = 1;
        cfg.width = 64;
        cfg.height = 32;
        cfg.observer = &obs;
        WorkloadSpec spec;
        spec.pipelines = {"Brighten"};
        spec.ratePerSec = 50000.0;
        spec.requests = 6;
        spec.seed = 11;
        FleetServer(cfg).run(generatePoissonWorkload(spec));
        std::ostringstream os;
        obs.exportChromeJson(os);
        *json = os.str();
    };
    std::string a, b;
    serveOnce(&a);
    serveOnce(&b);
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace ipim

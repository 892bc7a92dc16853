/**
 * Tests for src/metrics (DESIGN.md Sec. 14): the cycle-interval
 * sampler's dense-vs-fast-forward bit-exactness, the bottleneck
 * profiler's cycle-accounting invariants, the serving SLO tracker, and
 * the Prometheus exposition writer.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "apps/benchmarks.h"
#include "fleet/fleet.h"
#include "metrics/metrics.h"
#include "metrics/profile.h"
#include "metrics/prometheus.h"
#include "metrics/slo.h"
#include "runtime/runtime.h"

namespace ipim {
namespace {

/**
 * One launch with a MetricsSampler attached; returns the sampler's JSON
 * snapshot (the bit-exactness contract is over this serialized form).
 */
std::string
sampleRun(const BenchmarkApp &app, const CompiledPipeline &cp,
          const HardwareConfig &cfg, bool fastForward, Cycle interval,
          u32 capacity = 4096, MetricsSampler *out = nullptr,
          LaunchResult *resOut = nullptr)
{
    MetricsSampler::Config mcfg;
    mcfg.interval = interval;
    mcfg.capacity = capacity;
    MetricsSampler local(mcfg);
    MetricsSampler &sampler = out != nullptr ? *out : local;

    Device dev(cfg);
    dev.setFastForward(fastForward);
    dev.setProbe(&sampler);
    LaunchResult res = launchOnDevice(dev, cp, app.inputs);
    if (resOut != nullptr)
        *resOut = res;
    JsonWriter j;
    j.key("metrics");
    sampler.toJson(j);
    return j.finish();
}

TEST(MetricsSampler, BitExactDenseVsFastForwardAllBenchmarks)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    for (const std::string &name : allBenchmarkNames()) {
        SCOPED_TRACE(name);
        BenchmarkApp app = makeBenchmark(name, 64, 32);
        CompiledPipeline cp = compilePipeline(app.def, cfg);
        // 1000 is deliberately awkward: not a power of two, so sample
        // boundaries land mid-jump rather than on event boundaries.
        std::string dense = sampleRun(app, cp, cfg, false, 1000);
        std::string ff = sampleRun(app, cp, cfg, true, 1000);
        EXPECT_EQ(dense, ff);
        EXPECT_NE(dense.find("\"samples_total\""), std::string::npos);
    }
}

TEST(MetricsSampler, BitExactAcrossIntervals)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    BenchmarkApp app = makeBenchmark("Blur", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);
    for (Cycle interval : {Cycle(1), Cycle(64), Cycle(1000),
                           Cycle(4096), Cycle(1u << 20)}) {
        SCOPED_TRACE(interval);
        std::string dense = sampleRun(app, cp, cfg, false, interval);
        std::string ff = sampleRun(app, cp, cfg, true, interval);
        EXPECT_EQ(dense, ff);
    }
}

TEST(MetricsSampler, WindowsContiguousAndDeltasConsistent)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    BenchmarkApp app = makeBenchmark("Blur", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);
    const Cycle interval = 256;
    MetricsSampler sampler({interval, 1u << 20, {}});
    LaunchResult res;
    sampleRun(app, cp, cfg, true, interval, 1u << 20, &sampler, &res);

    ASSERT_GT(sampler.samplesTotal(), 1u);
    EXPECT_EQ(sampler.samplesTotal(), u64(sampler.samplesRetained()));
    std::vector<Cycle> ts = sampler.timestamps();
    ASSERT_EQ(ts.size(), sampler.samplesRetained());
    for (size_t i = 0; i < ts.size(); ++i)
        EXPECT_EQ(ts[i], Cycle(i) * interval);
    EXPECT_LE(ts.back(), res.cycles);

    // sim.cycles advances exactly once per cycle: the first window (at
    // cycle 0, before anything ran) is empty and every later one spans
    // exactly `interval` cycles.
    std::vector<f64> sim = sampler.counterSeries("sim.cycles");
    ASSERT_EQ(sim.size(), ts.size());
    EXPECT_EQ(sim[0], 0.0);
    for (size_t i = 1; i < sim.size(); ++i)
        EXPECT_EQ(sim[i], f64(interval));

    // Counter deltas are non-negative and sum to the final absolute
    // value at the last boundary (no window lost or double-counted).
    std::vector<f64> core = sampler.counterSeries("core.cycles");
    f64 sum = 0.0;
    for (f64 d : core) {
        EXPECT_GE(d, 0.0);
        sum += d;
    }
    u32 totalVaults = cfg.cubes * cfg.vaultsPerCube;
    EXPECT_EQ(sum, f64(ts.back()) * totalVaults);
}

TEST(MetricsSampler, GaugesAreBoundedAndPresent)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    BenchmarkApp app = makeBenchmark("Histogram", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);
    MetricsSampler sampler({64, 1u << 20, {}});
    sampleRun(app, cp, cfg, true, 64, 1u << 20, &sampler);

    // One iiq/peBusy/mcQueue gauge per vault, one noc gauge per cube,
    // plus the derived row-hit rate.
    u32 totalVaults = cfg.cubes * cfg.vaultsPerCube;
    EXPECT_EQ(sampler.gaugeNames().size(), 3u * totalVaults + cfg.cubes + 1);

    for (const std::string &g : sampler.gaugeNames()) {
        SCOPED_TRACE(g);
        std::vector<f64> s = sampler.gaugeSeries(g);
        ASSERT_EQ(s.size(), sampler.samplesRetained());
        for (f64 v : s) {
            EXPECT_GE(v, 0.0);
            if (g.rfind("peBusy", 0) == 0 || g == "dram.rowHitRate")
                EXPECT_LE(v, 1.0);
            if (g.rfind("iiq", 0) == 0)
                EXPECT_LE(v, f64(cfg.instQueueDepth));
        }
    }
}

TEST(MetricsSampler, RingEvictsOldestKeepsTail)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    BenchmarkApp app = makeBenchmark("Blur", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);
    const Cycle interval = 64;
    const u32 capacity = 4;
    MetricsSampler sampler({interval, capacity, {}});
    sampleRun(app, cp, cfg, true, interval, capacity, &sampler);

    ASSERT_GT(sampler.samplesTotal(), u64(capacity));
    EXPECT_EQ(sampler.samplesRetained(), capacity);
    std::vector<Cycle> ts = sampler.timestamps();
    ASSERT_EQ(ts.size(), capacity);
    // The retained rows are the *last* `capacity` boundaries, in order.
    Cycle last = Cycle(sampler.samplesTotal() - 1) * interval;
    for (u32 i = 0; i < capacity; ++i)
        EXPECT_EQ(ts[i], last - Cycle(capacity - 1 - i) * interval);
}

TEST(MetricsSampler, DisabledIntervalTakesNoSamples)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    BenchmarkApp app = makeBenchmark("Brighten", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);
    MetricsSampler sampler({0, 16, {}});
    sampleRun(app, cp, cfg, true, 0, 16, &sampler);
    EXPECT_EQ(sampler.samplesTotal(), 0u);
    EXPECT_EQ(sampler.samplesRetained(), 0u);
}

/**
 * The acceptance invariant of the profiler: for every benchmark, every
 * vault's issue-slot categories sum to its ticked cycles, each vault
 * ticks exactly the device's total cycles, and the per-vault accounting
 * reconciles with the global core.* stats counters.
 */
TEST(Profile, AccountingCategoriesSumForAllBenchmarks)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    u32 totalVaults = cfg.cubes * cfg.vaultsPerCube;
    for (const std::string &name : allBenchmarkNames()) {
        SCOPED_TRACE(name);
        BenchmarkApp app = makeBenchmark(name, 64, 32);
        CompiledPipeline cp = compilePipeline(app.def, cfg);
        Device dev(cfg);
        LaunchResult res = launchOnDevice(dev, cp, app.inputs);

        ASSERT_EQ(res.vaultAccounting.size(), totalVaults);
        IssueAccounting total;
        for (u32 i = 0; i < totalVaults; ++i) {
            const IssueAccounting &a = res.vaultAccounting[i];
            SCOPED_TRACE(i);
            EXPECT_EQ(a.cycles, res.cycles);
            EXPECT_EQ(a.issued + a.bubble + a.barrier + a.drain +
                          a.structStall + a.hazard + a.halted(),
                      a.cycles);
            EXPECT_EQ(a.issued, res.vaultIssued[i]);
            total.accumulate(a);
        }
        const StatsRegistry &s = dev.stats();
        EXPECT_EQ(f64(total.cycles), s.get("core.cycles"));
        EXPECT_EQ(f64(total.issued), s.get("core.issued"));
        EXPECT_EQ(f64(total.bubble), s.get("core.bubble"));
        EXPECT_EQ(f64(total.barrier), s.get("core.barrierStall"));
        EXPECT_EQ(f64(total.drain), s.get("core.drainStall"));
        EXPECT_EQ(f64(total.structStall), s.get("core.structStall"));
        EXPECT_EQ(f64(total.hazard), s.get("core.hazardStall"));

        ProfileReport rep = buildProfileReport(cfg, s,
                                               res.vaultAccounting,
                                               res.cycles);
        EXPECT_EQ(rep.total.cycles, total.cycles);
        ASSERT_EQ(rep.rooflines.size(), 3u);
        for (const RooflineEntry &r : rep.rooflines) {
            SCOPED_TRACE(r.name);
            EXPECT_GT(r.peak, 0.0);
            EXPECT_GE(r.achieved, 0.0);
            EXPECT_LE(r.utilization(), 1.0);
        }
        EXPECT_FALSE(rep.bottleneck.empty());
        EXPECT_NE(rep.toString().find("bottleneck:"), std::string::npos);
    }
}

TEST(Profile, AccountingBitExactDenseVsFastForward)
{
    HardwareConfig cfg = HardwareConfig::tiny();
    BenchmarkApp app = makeBenchmark("Downsample", 64, 32);
    CompiledPipeline cp = compilePipeline(app.def, cfg);
    std::string json[2];
    for (int mode = 0; mode < 2; ++mode) {
        Device dev(cfg);
        dev.setFastForward(mode == 1);
        LaunchResult res = launchOnDevice(dev, cp, app.inputs);
        ProfileReport rep = buildProfileReport(cfg, dev.stats(),
                                               res.vaultAccounting,
                                               res.cycles);
        JsonWriter j;
        j.key("profile");
        rep.toJson(j);
        json[mode] = j.finish();
    }
    EXPECT_EQ(json[0], json[1]);
}

TEST(Slo, TumblingWindowsAreContiguousAndDeterministic)
{
    SloTracker slo(100);
    slo.record(50, 10, 2, true);    // window 0
    slo.record(350, 30, 6, false);  // window 3 (1, 2 materialize empty)
    slo.record(120, 20, 4, true);   // window 1, out of order
    EXPECT_EQ(slo.requests(), 3u);
    EXPECT_EQ(slo.cacheHits(), 2u);
    EXPECT_EQ(slo.cacheHitRate(), 2.0 / 3.0);

    const std::vector<SloTracker::Window> &w = slo.windows();
    ASSERT_EQ(w.size(), 4u);
    for (u64 i = 0; i < w.size(); ++i) {
        EXPECT_EQ(w[i].index, i);
    }
    EXPECT_EQ(w[0].requests, 1u);
    EXPECT_EQ(w[1].requests, 1u);
    EXPECT_EQ(w[2].requests, 0u);
    EXPECT_EQ(w[3].requests, 1u);
    EXPECT_EQ(w[3].cacheHits, 0u);
    EXPECT_EQ(w[1].totalLatency.percentile(50), 20.0);

    EXPECT_EQ(slo.totalLatency().percentile(50), 20.0);
    EXPECT_EQ(slo.totalLatency().percentile(99), 30.0);
    EXPECT_EQ(slo.queueLatency().percentile(99), 6.0);

    // 3 requests over 350 ns of virtual time.
    EXPECT_NEAR(slo.throughputRps(350), 3.0 / 350e-9, 1.0);

    StatsRegistry reg;
    slo.exportTo(reg);
    EXPECT_EQ(reg.get("slo.requests"), 3.0);
    EXPECT_EQ(reg.get("slo.windows"), 4.0);
    EXPECT_EQ(reg.get("slo.total.p99"), 30.0);
    EXPECT_EQ(reg.get("slo.queue.p50"), 4.0);
    EXPECT_EQ(reg.get("slo.cacheHitRate"), 2.0 / 3.0);
}

TEST(Slo, MergeCombinesWindowsSampleExactly)
{
    // Two per-device trackers covering different (overlapping) window
    // ranges merge into the series a single fleet-wide tracker would
    // have produced from the interleaved stream.
    SloTracker a(100);
    SloTracker b(100);
    SloTracker oracle(100);
    struct Sample
    {
        Cycle finish;
        Cycle total;
        Cycle queue;
        bool hit;
        int shard;
    };
    std::vector<Sample> samples = {
        {50, 10, 2, true, 0},  {80, 14, 3, false, 1},
        {120, 20, 4, true, 1}, {360, 30, 6, false, 0},
        {520, 44, 9, true, 1}, {540, 12, 1, true, 0},
    };
    for (const Sample &s : samples) {
        (s.shard == 0 ? a : b).record(s.finish, s.total, s.queue, s.hit);
        oracle.record(s.finish, s.total, s.queue, s.hit);
    }

    SloTracker merged = a;
    merged.merge(b);
    EXPECT_EQ(merged.requests(), oracle.requests());
    EXPECT_EQ(merged.cacheHits(), oracle.cacheHits());
    const std::vector<SloTracker::Window> &mw = merged.windows();
    const std::vector<SloTracker::Window> &ow = oracle.windows();
    ASSERT_EQ(mw.size(), ow.size());
    for (size_t i = 0; i < mw.size(); ++i) {
        EXPECT_EQ(mw[i].index, ow[i].index);
        EXPECT_EQ(mw[i].requests, ow[i].requests);
        EXPECT_EQ(mw[i].cacheHits, ow[i].cacheHits);
        EXPECT_EQ(mw[i].totalLatency.count(), ow[i].totalLatency.count());
        for (f64 p : {50.0, 99.0}) {
            EXPECT_EQ(mw[i].totalLatency.percentile(p),
                      ow[i].totalLatency.percentile(p));
            EXPECT_EQ(mw[i].queueLatency.percentile(p),
                      ow[i].queueLatency.percentile(p));
        }
    }
    // The pooled aggregate percentiles match too (never averaged).
    EXPECT_EQ(merged.totalLatency().percentile(99),
              oracle.totalLatency().percentile(99));
    EXPECT_EQ(merged.queueLatency().percentile(50),
              oracle.queueLatency().percentile(50));

    // Merging an empty tracker is a no-op; merging into an empty one
    // copies; mismatched window sizes are a hard error.
    SloTracker none(100);
    merged.merge(none);
    EXPECT_EQ(merged.requests(), oracle.requests());
    none.merge(merged);
    EXPECT_EQ(none.requests(), oracle.requests());
    SloTracker other(200);
    EXPECT_THROW(merged.merge(other), FatalError);
}

TEST(Slo, JsonAndPrometheusSnapshots)
{
    SloTracker slo(1000);
    slo.record(100, 40, 5, false);
    slo.record(200, 60, 15, true);

    JsonWriter j;
    j.key("slo");
    slo.toJson(j, 200);
    std::string doc = j.finish();
    EXPECT_NE(doc.find("\"window_cycles\":1000"), std::string::npos);
    EXPECT_NE(doc.find("\"requests\":2"), std::string::npos);
    EXPECT_NE(doc.find("\"cache_hit_rate\":0.5"), std::string::npos);
    EXPECT_NE(doc.find("\"windows\":["), std::string::npos);

    std::string prom = slo.prometheusText(200);
    EXPECT_NE(prom.find("# TYPE ipim_serve_requests_total counter"),
              std::string::npos);
    EXPECT_NE(prom.find("ipim_serve_requests_total 2"),
              std::string::npos);
    EXPECT_NE(prom.find("ipim_serve_latency_cycles{quantile=\"0.99\"}"),
              std::string::npos);
    EXPECT_NE(prom.find("ipim_serve_latency_cycles_sum 100"),
              std::string::npos);
    EXPECT_NE(prom.find("ipim_serve_latency_cycles_count 2"),
              std::string::npos);
}

TEST(Prometheus, WriterFormatsNamesLabelsAndValues)
{
    EXPECT_EQ(PrometheusWriter::sanitizeName("serve.cache.hit"),
              "serve_cache_hit");
    EXPECT_EQ(PrometheusWriter::sanitizeName("9lives"), "_lives");
    EXPECT_EQ(PrometheusWriter::sanitizeName(""), "_");

    PrometheusWriter w;
    w.help("reqs", "Requests");
    w.type("reqs", "counter");
    w.metric("reqs", 3.0, {{"bench", "Blur \"v1\"\n"}});
    w.metric("inf", std::numeric_limits<f64>::infinity());
    w.metric("nan", std::nan(""));
    const std::string &s = w.str();
    EXPECT_NE(s.find("# HELP reqs Requests\n"), std::string::npos);
    EXPECT_NE(s.find("# TYPE reqs counter\n"), std::string::npos);
    EXPECT_NE(s.find("reqs{bench=\"Blur \\\"v1\\\"\\n\"} 3\n"),
              std::string::npos);
    EXPECT_NE(s.find("inf +Inf\n"), std::string::npos);
    EXPECT_NE(s.find("nan NaN\n"), std::string::npos);
}

TEST(Prometheus, EmptySummaryOmitsQuantiles)
{
    PrometheusWriter w;
    LatencyHistogram h;
    w.summary("lat", h, "latency");
    EXPECT_EQ(w.str().find("quantile"), std::string::npos);
    EXPECT_NE(w.str().find("lat_sum 0\n"), std::string::npos);
    EXPECT_NE(w.str().find("lat_count 0\n"), std::string::npos);
}

TEST(Service, ServerExportsSloMetrics)
{
    FleetConfig cfg;
    cfg.hw = HardwareConfig::tiny();
    cfg.hw.cubes = 2;
    cfg.devices = 1;
    cfg.width = 64;
    cfg.height = 32;
    cfg.sloWindowCycles = 200'000;

    WorkloadSpec spec;
    spec.pipelines = {"Blur", "Brighten"};
    spec.ratePerSec = 50000;
    spec.requests = 6;
    spec.seed = 7;

    FleetReport rep = FleetServer(cfg).run(generatePoissonWorkload(spec));

    EXPECT_EQ(rep.slo.requests(), rep.records.size());
    EXPECT_EQ(rep.slo.windowCycles(), cfg.sloWindowCycles);
    EXPECT_GE(rep.slo.windows().size(), 1u);
    EXPECT_EQ(rep.stats.get("slo.requests"), f64(rep.records.size()));
    EXPECT_GT(rep.stats.get("slo.total.p99"), 0.0);
    // The aggregate percentiles agree with the report's histograms.
    EXPECT_EQ(rep.slo.totalLatency().percentile(99),
              rep.totalLatency.percentile(99));

    std::string prom = rep.prometheusText();
    EXPECT_NE(prom.find("ipim_serve_requests_total 6"),
              std::string::npos);
    EXPECT_NE(prom.find("ipim_serve_queue_cycles_count 6"),
              std::string::npos);
}

} // namespace
} // namespace ipim

/**
 * Tests for the multi-tenant serving building blocks (src/service) and
 * for serving on one device: the Server.* cases run a 1-device fleet
 * (src/fleet) with free launches and no preemption.
 */
#include <gtest/gtest.h>

#include <algorithm>

#include "apps/benchmarks.h"
#include "fleet/fleet.h"

namespace ipim {
namespace {

/** The smallest geometry that still space-shares: 2 cubes of 4x2x2. */
HardwareConfig
twoCubes()
{
    HardwareConfig cfg = HardwareConfig::tiny();
    cfg.cubes = 2;
    return cfg;
}

/** A 1-device fleet in the plain single-device serving model: launches
 *  cost no dispatcher cycles and nothing is preempted.  @p whole gives
 *  every request the whole device; otherwise each cube is a slot. */
FleetConfig
smallServer(const std::string &policy, bool whole)
{
    FleetConfig cfg;
    cfg.hw = twoCubes();
    cfg.devices = 1;
    cfg.width = 64;
    cfg.height = 32;
    cfg.policy = policy;
    cfg.cubesPerRequest = whole ? cfg.hw.cubes : 1;
    cfg.preempt = false;
    cfg.launchOverheadCycles = 0;
    return cfg;
}

TEST(Scheduler, FifoPicksEarliestArrival)
{
    FifoScheduler fifo;
    std::vector<PendingRequest> q = {
        {2, 500, 10}, {0, 300, 999}, {1, 400, 1}};
    EXPECT_EQ(fifo.pick(q), 1u);
    q.push_back({3, 300, 5}); // same arrival as id 0 -> lowest id wins
    EXPECT_EQ(fifo.pick(q), 1u);
}

TEST(Scheduler, SjfPicksSmallestEstimate)
{
    SjfScheduler sjf;
    std::vector<PendingRequest> q = {
        {0, 100, 500}, {1, 200, 50}, {2, 300, 700}};
    EXPECT_EQ(sjf.pick(q), 1u);
    // Tie on estimate: earlier arrival wins.
    q.push_back({3, 150, 50});
    EXPECT_EQ(sjf.pick(q), 3u);
    // Tie on estimate and arrival: lower id wins.
    q.push_back({4, 150, 50});
    EXPECT_EQ(sjf.pick(q), 3u);
}

TEST(Scheduler, FactoryKnowsPoliciesAndRejectsUnknown)
{
    EXPECT_STREQ(makeScheduler("fifo")->name(), "fifo");
    EXPECT_STREQ(makeScheduler("sjf")->name(), "sjf");
    EXPECT_THROW(makeScheduler("lottery"), FatalError);
}

TEST(LoadGen, PoissonWorkloadIsDeterministicAndSorted)
{
    WorkloadSpec spec;
    spec.pipelines = {"Blur", "Brighten"};
    spec.ratePerSec = 50000;
    spec.requests = 64;
    spec.seed = 42;
    std::vector<ServeRequest> a = generatePoissonWorkload(spec);
    std::vector<ServeRequest> b = generatePoissonWorkload(spec);
    ASSERT_EQ(a.size(), 64u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, i);
        EXPECT_EQ(a[i].arrival, b[i].arrival);
        EXPECT_EQ(a[i].pipeline, b[i].pipeline);
        EXPECT_EQ(a[i].inputSeed, b[i].inputSeed);
        if (i > 0)
            EXPECT_GE(a[i].arrival, a[i - 1].arrival);
        EXPECT_TRUE(a[i].pipeline == "Blur" || a[i].pipeline == "Brighten");
    }
    // Both pipelines show up in a 64-request uniform draw.
    size_t blurs = 0;
    for (const ServeRequest &r : a)
        blurs += r.pipeline == "Blur";
    EXPECT_GT(blurs, 0u);
    EXPECT_LT(blurs, a.size());

    spec.seed = 43;
    std::vector<ServeRequest> c = generatePoissonWorkload(spec);
    bool differs = false;
    for (size_t i = 0; i < c.size(); ++i)
        differs = differs || c[i].arrival != a[i].arrival;
    EXPECT_TRUE(differs);
}

TEST(LoadGen, MeanInterarrivalTracksRate)
{
    WorkloadSpec spec;
    spec.pipelines = {"Shift"};
    spec.ratePerSec = 1e6; // mean gap 1000 cycles
    spec.requests = 400;
    spec.seed = 9;
    std::vector<ServeRequest> reqs = generatePoissonWorkload(spec);
    f64 meanGap = f64(reqs.back().arrival) / f64(reqs.size() - 1);
    EXPECT_GT(meanGap, 800.0);
    EXPECT_LT(meanGap, 1250.0);
}

TEST(ProgramCache, CompilesOncePerKeyAndCountsHits)
{
    StatsRegistry stats;
    ProgramCache cache(&stats);
    HardwareConfig cfg = HardwareConfig::tiny();
    CompilerOptions opts = CompilerOptions::opt();
    u32 factoryCalls = 0;
    auto def = [&]() {
        ++factoryCalls;
        return makeBenchmark("Brighten", 64, 32).def;
    };
    CachedProgram &a = cache.get("Brighten", 64, 32, cfg, opts, def);
    CachedProgram &b = cache.get("Brighten", 64, 32, cfg, opts, def);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(factoryCalls, 1u);
    EXPECT_EQ(cache.compiles(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(stats.get("serve.cache.miss"), 1.0);
    EXPECT_EQ(stats.get("serve.cache.hit"), 1.0);

    // A different image size is a different key.
    cache.get("Brighten", 128, 64, cfg, opts, [&]() {
        ++factoryCalls;
        return makeBenchmark("Brighten", 128, 64).def;
    });
    EXPECT_EQ(factoryCalls, 2u);
    EXPECT_EQ(cache.size(), 2u);
}

TEST(ProgramCache, KeySeparatesGeometryAndOptions)
{
    HardwareConfig tiny = HardwareConfig::tiny();
    HardwareConfig two = twoCubes();
    CompilerOptions opt = CompilerOptions::opt();
    CompilerOptions base = CompilerOptions::baseline1();
    std::string k = ProgramCache::makeKey("Blur", 64, 32, tiny, opt);
    EXPECT_NE(k, ProgramCache::makeKey("Blur", 64, 32, two, opt));
    EXPECT_NE(k, ProgramCache::makeKey("Blur", 64, 32, tiny, base));
    EXPECT_NE(k, ProgramCache::makeKey("Blur", 32, 64, tiny, opt));
    EXPECT_EQ(k, ProgramCache::makeKey("Blur", 64, 32, tiny, opt));
}

TEST(ProgramCache, EstimateCalibratesOnFirstMeasurement)
{
    ProgramCache cache(nullptr);
    HardwareConfig cfg = HardwareConfig::tiny();
    CachedProgram &p =
        cache.get("Shift", 64, 32, cfg, CompilerOptions::opt(),
                  [&]() { return makeBenchmark("Shift", 64, 32).def; });
    Cycle staticEstimate = p.estimate();
    EXPECT_GT(staticEstimate, 0u);
    EXPECT_FALSE(p.calibrated);
    p.recordMeasurement(1234);
    EXPECT_TRUE(p.calibrated);
    EXPECT_EQ(p.estimate(), 1234u);
    // Later measurements do not re-calibrate (stable SJF ordering).
    p.recordMeasurement(99);
    EXPECT_EQ(p.estimate(), 1234u);
}

TEST(ProgramCache, CapacityEvictsLeastRecentlyUsed)
{
    StatsRegistry stats;
    ProgramCache cache(&stats);
    cache.setCapacity(2);
    HardwareConfig cfg = HardwareConfig::tiny();
    CompilerOptions opts = CompilerOptions::opt();
    auto def = [](const char *name) {
        return [name]() { return makeBenchmark(name, 64, 32).def; };
    };

    cache.get("Blur", 64, 32, cfg, opts, def("Blur"));
    cache.get("Brighten", 64, 32, cfg, opts, def("Brighten"));
    // Touch Blur so Brighten becomes the LRU victim.
    cache.get("Blur", 64, 32, cfg, opts, def("Blur"));
    cache.get("Shift", 64, 32, cfg, opts, def("Shift"));

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_TRUE(cache.contains(
        ProgramCache::makeKey("Blur", 64, 32, cfg, opts)));
    EXPECT_TRUE(cache.contains(
        ProgramCache::makeKey("Shift", 64, 32, cfg, opts)));
    EXPECT_FALSE(cache.contains(
        ProgramCache::makeKey("Brighten", 64, 32, cfg, opts)));
    EXPECT_EQ(stats.get("serve.cache.evict"), 1.0);

    // A re-request of the victim recompiles (miss, not a stale hit).
    u64 before = cache.compiles();
    cache.get("Brighten", 64, 32, cfg, opts, def("Brighten"));
    EXPECT_EQ(cache.compiles(), before + 1);

    // Shrinking below the resident count evicts immediately.
    cache.setCapacity(1);
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.evictions(), 3u);
}

TEST(ProgramCache, SharedHolderSurvivesEviction)
{
    ProgramCache cache(nullptr);
    cache.setCapacity(1);
    HardwareConfig cfg = HardwareConfig::tiny();
    CompilerOptions opts = CompilerOptions::opt();

    std::shared_ptr<CachedProgram> blur = cache.getShared(
        "Blur", 64, 32, cfg, opts,
        []() { return makeBenchmark("Blur", 64, 32).def; });
    ASSERT_NE(blur, nullptr);
    Cycle estimate = blur->estimate();
    EXPECT_GT(estimate, 0u);

    // Displace Blur; the holder keeps the compilation alive and usable.
    cache.getShared("Shift", 64, 32, cfg, opts, []() {
        return makeBenchmark("Shift", 64, 32).def;
    });
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_FALSE(cache.contains(
        ProgramCache::makeKey("Blur", 64, 32, cfg, opts)));
    EXPECT_EQ(blur->estimate(), estimate);
    EXPECT_FALSE(blur->compiled.kernels.empty());
    blur->recordMeasurement(777); // still calibratable after eviction
    EXPECT_EQ(blur->estimate(), 777u);
}

TEST(LoadGen, TenantSubstreamsAreIndependent)
{
    // Tenant 0's trace must not change when another tenant is added:
    // each tenant draws from its own SplitMix64 substream.
    WorkloadSpec solo;
    solo.pipelines = {"Blur", "Brighten"};
    solo.ratePerSec = 200000;
    solo.requests = 16;
    solo.seed = 99;
    solo.tenants = {{"t0", 1.0, 0, 1.0}};
    std::vector<ServeRequest> a = generateWorkload(solo);

    WorkloadSpec both = solo;
    both.requests = 32;      // equal shares -> 16 apiece
    both.ratePerSec = 400000; // split over 2 tenants -> 200000 each
    both.tenants = {{"t0", 1.0, 0, 1.0}, {"t1", 1.0, 1, 1.0}};
    std::vector<ServeRequest> b = generateWorkload(both);

    std::vector<ServeRequest> t0;
    u64 t1Count = 0;
    for (const ServeRequest &r : b) {
        if (r.tenant == 0)
            t0.push_back(r);
        else
            ++t1Count;
    }
    ASSERT_EQ(t0.size(), a.size());
    EXPECT_EQ(t1Count, 16u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(t0[i].arrival, a[i].arrival);
        EXPECT_EQ(t0[i].pipeline, a[i].pipeline);
        EXPECT_EQ(t0[i].inputSeed, a[i].inputSeed);
        EXPECT_EQ(t0[i].priority, 0u);
    }
    for (const ServeRequest &r : b)
        if (r.tenant == 1)
            EXPECT_EQ(r.priority, 1u);
}

TEST(LoadGen, RateShareApportionsRequestsExactly)
{
    WorkloadSpec spec;
    spec.pipelines = {"Shift"};
    spec.ratePerSec = 100000;
    spec.requests = 10;
    spec.seed = 4;
    // Shares 2:1:1 of 10 -> 5, 2.5, 2.5; largest remainder resolves the
    // halves in tenant order and the counts still sum to 10.
    spec.tenants = {{"a", 1.0, 0, 2.0}, {"b", 1.0, 0, 1.0},
                    {"c", 1.0, 0, 1.0}};
    std::vector<ServeRequest> reqs = generateWorkload(spec);
    ASSERT_EQ(reqs.size(), 10u);
    u64 counts[3] = {0, 0, 0};
    for (const ServeRequest &r : reqs)
        ++counts[r.tenant];
    EXPECT_EQ(counts[0], 5u);
    EXPECT_EQ(counts[0] + counts[1] + counts[2], 10u);
    EXPECT_GE(counts[1], 2u);
    EXPECT_GE(counts[2], 2u);
}

TEST(LoadGen, BurstyAndDiurnalShapesAreDeterministicAndSorted)
{
    WorkloadSpec spec;
    spec.pipelines = {"Blur"};
    spec.ratePerSec = 500000;
    spec.requests = 200;
    spec.seed = 6;
    // Short bursts so a 200-request trace spans several on/off periods.
    spec.burstOnSec = 20e-6;

    for (TraceShape shape : {TraceShape::kBursty, TraceShape::kDiurnal}) {
        spec.shape = shape;
        std::vector<ServeRequest> a = generateWorkload(spec);
        std::vector<ServeRequest> b = generateWorkload(spec);
        ASSERT_EQ(a.size(), 200u);
        for (size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].arrival, b[i].arrival);
            EXPECT_EQ(a[i].id, i);
            if (i > 0)
                EXPECT_GE(a[i].arrival, a[i - 1].arrival);
        }
    }

    // Bursty traffic at 25% duty clumps: the largest gap dwarfs the
    // mean gap by far more than a Poisson stream's would.
    spec.shape = TraceShape::kBursty;
    spec.burstDuty = 0.25;
    std::vector<ServeRequest> bursty = generateWorkload(spec);
    Cycle maxGap = 0;
    for (size_t i = 1; i < bursty.size(); ++i)
        maxGap = std::max(maxGap, bursty[i].arrival -
                                      bursty[i - 1].arrival);
    f64 meanGap =
        f64(bursty.back().arrival) / f64(bursty.size() - 1);
    EXPECT_GT(f64(maxGap), 8.0 * meanGap);

    EXPECT_EQ(parseTraceShape("poisson"), TraceShape::kPoisson);
    EXPECT_EQ(parseTraceShape("bursty"), TraceShape::kBursty);
    EXPECT_EQ(parseTraceShape("diurnal"), TraceShape::kDiurnal);
    EXPECT_THROW(parseTraceShape("fractal"), FatalError);
}

TEST(Server, RunsAreDeterministicForOneSeed)
{
    WorkloadSpec spec;
    spec.pipelines = {"Blur", "Brighten"};
    spec.ratePerSec = 100000;
    spec.requests = 16;
    spec.seed = 5;
    std::vector<ServeRequest> reqs = generatePoissonWorkload(spec);

    FleetConfig cfg = smallServer("sjf", false);
    FleetReport a = FleetServer(cfg).run(reqs);
    FleetReport b = FleetServer(cfg).run(reqs);
    ASSERT_EQ(a.records.size(), b.records.size());
    for (size_t i = 0; i < a.records.size(); ++i) {
        EXPECT_EQ(a.records[i].id, b.records[i].id);
        EXPECT_EQ(a.records[i].start, b.records[i].start);
        EXPECT_EQ(a.records[i].finish, b.records[i].finish);
        EXPECT_EQ(a.records[i].execCycles, b.records[i].execCycles);
        EXPECT_EQ(a.records[i].slot, b.records[i].slot);
    }
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.stats.toString(), b.stats.toString());
}

TEST(Server, ProgramCacheHitsAreVisibleInStats)
{
    WorkloadSpec spec;
    spec.pipelines = {"Blur", "Brighten"};
    spec.ratePerSec = 100000;
    spec.requests = 12;
    spec.seed = 3;
    FleetConfig cfg = smallServer("fifo", false);
    FleetReport rep = FleetServer(cfg).run(generatePoissonWorkload(spec));
    // 12 requests over 2 pipelines on identical slot geometry: exactly
    // 2 compiles, everything else hits.
    EXPECT_EQ(rep.stats.get("serve.cache.miss"), 2.0);
    EXPECT_EQ(rep.stats.get("serve.cache.hit"), 10.0);
    u64 hits = 0;
    for (const FleetRequestRecord &r : rep.records)
        hits += r.cacheHit;
    EXPECT_EQ(hits, 10u);
}

TEST(Server, SpaceSharingBeatsWholeDeviceAtSaturation)
{
    // Per-benchmark cube scaling is sublinear, so two 1-cube partitions
    // finish a saturating backlog sooner than one serialized 2-cube
    // device (DESIGN.md Sec. 17).
    WorkloadSpec spec;
    spec.pipelines = {"Blur", "Brighten", "Shift"};
    spec.ratePerSec = 2e6; // effectively a pre-loaded backlog
    spec.requests = 12;
    spec.seed = 11;
    std::vector<ServeRequest> reqs = generatePoissonWorkload(spec);

    FleetReport whole =
        FleetServer(smallServer("fifo", true)).run(reqs);
    FleetReport shared =
        FleetServer(smallServer("sjf", false)).run(reqs);
    EXPECT_LT(shared.makespan, whole.makespan);
    EXPECT_EQ(whole.stats.get("fleet.slotsPerDevice"), 1.0);
    EXPECT_EQ(shared.stats.get("fleet.slotsPerDevice"), 2.0);
}

TEST(Server, ReportExportsLatencyPercentilesAndThroughput)
{
    WorkloadSpec spec;
    spec.pipelines = {"Shift"};
    spec.ratePerSec = 100000;
    spec.requests = 8;
    spec.seed = 2;
    FleetConfig cfg = smallServer("fifo", false);
    FleetReport rep = FleetServer(cfg).run(generatePoissonWorkload(spec));
    EXPECT_EQ(rep.stats.get("fleet.requests"), 8.0);
    EXPECT_EQ(rep.stats.get("fleet.latency.total.count"), 8.0);
    EXPECT_GT(rep.stats.get("fleet.latency.total.p50"), 0.0);
    EXPECT_GE(rep.stats.get("fleet.latency.total.p99"),
              rep.stats.get("fleet.latency.total.p50"));
    EXPECT_GT(rep.stats.get("fleet.throughputRps"), 0.0);
    EXPECT_NEAR(rep.throughputRps(),
                8.0 / (f64(rep.makespan) * 1e-9), 1e-6);
    // Device counters from the per-request runs are merged in.
    EXPECT_GT(rep.stats.get("core.issued"), 0.0);
}

TEST(Server, RejectsPartitionThatDoesNotDivideCubes)
{
    FleetConfig cfg = smallServer("fifo", false);
    cfg.hw.cubes = 2;
    cfg.cubesPerRequest = 3;
    EXPECT_THROW(FleetServer{cfg}, FatalError);
}

} // namespace
} // namespace ipim

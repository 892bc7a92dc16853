/** Tests for the fleet serving layer (src/fleet). */
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "fleet/events.h"
#include "fleet/fleet.h"
#include "fleet/observer.h"

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

FleetConfig
smallFleet(u32 devices, const std::string &backend = "func")
{
    FleetConfig cfg;
    cfg.hw = twoCubes();
    cfg.devices = devices;
    cfg.width = 64;
    cfg.height = 32;
    cfg.backend = backend;
    return cfg;
}

std::vector<ServeRequest>
trace(std::vector<std::string> pipelines, u32 requests, f64 rate,
      u64 seed, std::vector<TenantSpec> tenants = {})
{
    WorkloadSpec spec;
    spec.pipelines = std::move(pipelines);
    spec.ratePerSec = rate;
    spec.requests = requests;
    spec.seed = seed;
    spec.tenants = std::move(tenants);
    return generateWorkload(spec);
}

DeviceLoadView
view(u32 device, Cycle backlog, u64 depth = 0, bool hot = false)
{
    DeviceLoadView v;
    v.device = device;
    v.freeSlots = 1;
    v.slots = 2;
    v.queueDepth = depth;
    v.backlogCycles = backlog;
    v.cacheHot = hot;
    return v;
}

TEST(Router, RoundRobinCyclesThroughDevices)
{
    std::unique_ptr<Router> rr = makeRouter("rr", 3);
    std::vector<DeviceLoadView> views = {view(0, 0), view(1, 0),
                                         view(2, 0)};
    EXPECT_EQ(rr->route("a", views), 0u);
    EXPECT_EQ(rr->route("b", views), 1u);
    EXPECT_EQ(rr->route("a", views), 2u);
    EXPECT_EQ(rr->route("a", views), 0u);
}

TEST(Router, LeastPicksSmallestBacklogThenDepthThenId)
{
    std::unique_ptr<Router> least = makeRouter("least", 3);
    std::vector<DeviceLoadView> views = {view(0, 500, 1), view(1, 100, 9),
                                         view(2, 300, 0)};
    EXPECT_EQ(least->route("k", views), 1u);
    views[1].backlogCycles = 500; // backlog all tied at 500 now
    views[2].backlogCycles = 500;
    EXPECT_EQ(least->route("k", views), 2u); // shallowest queue (0)
    views[2].queueDepth = 1; // dev 0 and dev 2 tie fully ->
    EXPECT_EQ(least->route("k", views), 0u); // lowest id wins
}

TEST(Router, HashIsKeyStableAndSpreadsKeys)
{
    std::unique_ptr<Router> hash = makeRouter("hash", 4);
    std::vector<DeviceLoadView> views = {view(0, 0), view(1, 0),
                                         view(2, 0), view(3, 0)};
    std::vector<std::string> keys = {"Blur/64x32",   "Brighten/64x32",
                                     "Shift/64x32",  "Histogram/64x32",
                                     "Upsample/512", "Downsample/512",
                                     "Interpolate",  "StencilChain"};
    std::vector<bool> used(4, false);
    for (const std::string &k : keys) {
        u32 first = hash->route(k, views);
        // Same key always lands on the same device, regardless of load.
        views[first].backlogCycles += 100000;
        EXPECT_EQ(hash->route(k, views), first);
        used[first] = true;
    }
    size_t devicesUsed = 0;
    for (bool u : used)
        devicesUsed += u;
    EXPECT_GT(devicesUsed, 1u);
}

TEST(Router, AffinityPrefersCacheHotElseLeastLoaded)
{
    std::unique_ptr<Router> aff = makeRouter("affinity", 3);
    // Device 2 is hot but busier than the idle cold device 0: residency
    // wins (recompiling costs more than waiting).
    std::vector<DeviceLoadView> views = {view(0, 0), view(1, 50),
                                         view(2, 900, 2, true)};
    EXPECT_EQ(aff->route("k", views), 2u);
    // Two hot devices: least-loaded among the hot ones.
    views[1].cacheHot = true;
    EXPECT_EQ(aff->route("k", views), 1u);
    // Nothing hot: plain least-loaded fallback.
    views[1].cacheHot = false;
    views[2].cacheHot = false;
    EXPECT_EQ(aff->route("k", views), 0u);
}

TEST(Router, FactoryNamesPoliciesAndRejectsUnknown)
{
    EXPECT_STREQ(makeRouter("rr", 2)->name(), "rr");
    EXPECT_STREQ(makeRouter("least", 2)->name(), "least");
    EXPECT_STREQ(makeRouter("hash", 2)->name(), "hash");
    EXPECT_STREQ(makeRouter("affinity", 2)->name(), "affinity");
    EXPECT_THROW(makeRouter("random", 2), FatalError);
}

TEST(Fleet, CompletesEverythingAndAccountsExactly)
{
    FleetConfig cfg = smallFleet(2);
    std::vector<ServeRequest> reqs =
        trace({"Blur", "Brighten"}, 24, 100000, 7);
    FleetReport rep = FleetServer(cfg).run(reqs);

    EXPECT_EQ(rep.records.size(), 24u);
    EXPECT_EQ(rep.admitted, 24u);
    EXPECT_EQ(rep.completed, 24u);
    EXPECT_EQ(rep.shedTotal, 0u);
    EXPECT_GT(rep.throughputRps(), 0.0);
    EXPECT_EQ(rep.slo.requests(), 24u);
    EXPECT_EQ(rep.totalLatency.count(), 24u);

    u64 perDevice = 0;
    for (const FleetReport::DeviceReport &d : rep.devices)
        perDevice += d.requests;
    EXPECT_EQ(perDevice, 24u);

    for (size_t i = 0; i < rep.records.size(); ++i) {
        const FleetRequestRecord &r = rep.records[i];
        EXPECT_EQ(r.id, i); // sorted by id, shed included
        EXPECT_FALSE(r.shed);
        EXPECT_GE(r.start, r.arrival);
        EXPECT_GT(r.finish, r.start);
        EXPECT_GT(r.execCycles, 0u);
        EXPECT_LT(r.device, cfg.devices);
    }
}

TEST(Fleet, MoreDevicesDrainABacklogSooner)
{
    std::vector<ServeRequest> reqs =
        trace({"Blur", "Brighten", "Shift"}, 24, 2e6, 11);
    FleetReport one = FleetServer(smallFleet(1)).run(reqs);
    FleetReport two = FleetServer(smallFleet(2)).run(reqs);
    EXPECT_EQ(one.completed, 24u);
    EXPECT_EQ(two.completed, 24u);
    EXPECT_LT(two.makespan, one.makespan);
}

TEST(Fleet, FixedSeedRunsAreByteIdentical)
{
    FleetConfig cfg = smallFleet(2);
    cfg.batching = true;
    cfg.router = "affinity";
    cfg.tenants = {{"a", 2.0, 1, 1.0}, {"b", 1.0, 0, 1.0}};
    std::vector<ServeRequest> reqs = trace(
        {"Blur", "Brighten"}, 20, 400000, 13, cfg.tenants);

    FleetReport a = FleetServer(cfg).run(reqs);
    FleetReport b = FleetServer(cfg).run(reqs);

    JsonWriter ja;
    a.toJson(ja, cfg);
    JsonWriter jb;
    b.toJson(jb, cfg);
    EXPECT_EQ(ja.finish(), jb.finish());
    EXPECT_EQ(a.prometheusText(), b.prometheusText());
}

/** One request as the single-device serving loop recorded it. */
struct ServedRecord
{
    u64 id;
    Cycle start;
    Cycle finish;
    Cycle exec;
    Cycle compile;
    bool cacheHit;
    u32 firstCube;
};

/** What the single-device serving loop produced for one trace. */
struct ServedTrace
{
    const char *name;
    std::vector<std::string> pipelines;
    f64 rate;
    u32 requests;
    u64 seed;
    const char *policy;
    bool whole; ///< one partition spanning both cubes
    Cycle makespan;
    u64 deviceStatsDigest; ///< FNV-1a of the merged device stats
    u64 estimatorSamples;
    f64 estimatorMean;
    f64 estimatorMax;
    std::vector<ServedRecord> records; ///< by id
};

/** 64-bit FNV-1a over the merged device counters (the serve.*, slo.*,
 *  and fleet.* bookkeeping keys left out). */
u64
deviceStatsDigest(const StatsRegistry &stats)
{
    StatsRegistry dev;
    for (const auto &[k, v] : stats.all())
        if (k.rfind("serve.", 0) != 0 && k.rfind("slo.", 0) != 0 &&
            k.rfind("fleet.", 0) != 0)
            dev.set(k, v);
    u64 h = 0xcbf29ce484222325ull;
    for (unsigned char c : dev.toString()) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * A 1-device fleet with free launches and no preemption is the plain
 * single-device server.  The expected values were recorded from the
 * standalone single-device serving loop the fleet replaced (tiny
 * 2-cube geometry, 64x32, cycle backend); they pin start, finish,
 * exec, and compile cycles per request, so a cache-hit launch that
 * waited behind an earlier miss's compile would show here.
 */
TEST(Fleet, SingleDeviceMatchesRetiredServer)
{
    const std::vector<ServedTrace> golden = {
        {"per-cube fifo @100k", {"Blur", "Brighten"}, 100000, 12, 3,
         "fifo", false, 70792, 0xb7b90650354b3c91ull, 12,
         0.11306367237807154, 0.12627169359664872,
         {{0, 2482, 43609, 3607, 37520, false, 0},
          {1, 7767, 11374, 3607, 0, true, 1},
          {2, 13250, 16857, 3607, 0, true, 1},
          {3, 19946, 24657, 1671, 3040, false, 1},
          {4, 24657, 28264, 3607, 0, true, 1},
          {5, 41693, 45300, 3607, 0, true, 1},
          {6, 43609, 47216, 3607, 0, true, 0},
          {7, 47558, 49229, 1671, 0, true, 0},
          {8, 48906, 52513, 3607, 0, true, 1},
          {9, 63365, 65036, 1671, 0, true, 0},
          {10, 65362, 68969, 3607, 0, true, 0},
          {11, 69121, 70792, 1671, 0, true, 0}}},
        {"per-cube sjf @100k", {"Blur", "Brighten"}, 100000, 16, 5,
         "sjf", false, 79933, 0xfe37ffd8eb8db104ull, 16,
         0.1114126697257494, 0.12627169359664872,
         {{0, 75, 41202, 3607, 37520, false, 0},
          {1, 514, 4121, 3607, 0, true, 1},
          {2, 7255, 10862, 3607, 0, true, 1},
          {3, 10862, 15573, 1671, 3040, false, 1},
          {4, 17244, 20851, 3607, 0, true, 1},
          {5, 15573, 17244, 1671, 0, true, 1},
          {6, 24972, 28579, 3607, 0, true, 1},
          {7, 28579, 32186, 3607, 0, true, 1},
          {8, 39745, 43352, 3607, 0, true, 1},
          {9, 44871, 48478, 3607, 0, true, 0},
          {10, 46652, 50259, 3607, 0, true, 1},
          {11, 49126, 52733, 3607, 0, true, 0},
          {12, 55975, 57646, 1671, 0, true, 0},
          {13, 72065, 75672, 3607, 0, true, 0},
          {14, 76326, 79933, 3607, 0, true, 0},
          {15, 77661, 79332, 1671, 0, true, 1}}},
        {"whole-device fifo @2M", {"Blur", "Brighten", "Shift"}, 2e6, 12,
         11, "fifo", true, 64686, 0x6adaa98d26b9d261ull, 12,
         0.090001759970037495, 0.12294697325199437,
         {{0, 944, 5988, 884, 4160, false, 0},
          {1, 5988, 50599, 2131, 42480, false, 0},
          {2, 50599, 57223, 304, 6320, false, 0},
          {3, 57223, 58107, 884, 0, true, 0},
          {4, 58107, 58991, 884, 0, true, 0},
          {5, 58991, 59875, 884, 0, true, 0},
          {6, 59875, 60759, 884, 0, true, 0},
          {7, 60759, 62890, 2131, 0, true, 0},
          {8, 62890, 63194, 304, 0, true, 0},
          {9, 63194, 63498, 304, 0, true, 0},
          {10, 63498, 63802, 304, 0, true, 0},
          {11, 63802, 64686, 884, 0, true, 0}}},
        {"per-cube sjf @2M", {"Blur", "Brighten", "Shift"}, 2e6, 12, 11,
         "sjf", false, 42142, 0xac7de2b6e04a4112ull, 12,
         0.12483516771583214, 0.13186813186813187,
         {{0, 944, 5655, 1671, 3040, false, 0},
          {1, 1015, 42142, 3607, 37520, false, 1},
          {2, 18982, 24517, 455, 5080, false, 0},
          {3, 7020, 8691, 1671, 0, true, 0},
          {4, 8691, 10362, 1671, 0, true, 0},
          {5, 10362, 12033, 1671, 0, true, 0},
          {6, 12033, 13704, 1671, 0, true, 0},
          {7, 15375, 18982, 3607, 0, true, 0},
          {8, 5655, 6110, 455, 0, true, 0},
          {9, 6110, 6565, 455, 0, true, 0},
          {10, 6565, 7020, 455, 0, true, 0},
          {11, 13704, 15375, 1671, 0, true, 0}}},
    };

    for (const ServedTrace &g : golden) {
        SCOPED_TRACE(g.name);
        FleetConfig cfg = smallFleet(1, "cycle");
        cfg.policy = g.policy;
        cfg.cubesPerRequest = g.whole ? cfg.hw.cubes : 1;
        cfg.preempt = false;
        cfg.launchOverheadCycles = 0;
        FleetReport rep = FleetServer(cfg).run(
            trace(g.pipelines, g.requests, g.rate, g.seed));

        ASSERT_EQ(rep.records.size(), g.records.size());
        for (size_t i = 0; i < g.records.size(); ++i) {
            const ServedRecord &want = g.records[i];
            const FleetRequestRecord &got = rep.records[i];
            SCOPED_TRACE("request " + std::to_string(want.id));
            EXPECT_EQ(got.id, want.id);
            EXPECT_EQ(got.start, want.start);
            EXPECT_EQ(got.finish, want.finish);
            EXPECT_EQ(got.execCycles, want.exec);
            EXPECT_EQ(got.compileCycles, want.compile);
            EXPECT_EQ(got.overheadCycles, 0u);
            EXPECT_EQ(got.cacheHit, want.cacheHit);
            EXPECT_EQ(got.slot * cfg.cubesPerRequest, want.firstCube);
        }
        EXPECT_EQ(rep.makespan, g.makespan);
        EXPECT_EQ(deviceStatsDigest(rep.stats), g.deviceStatsDigest);
        EXPECT_EQ(rep.estimatorSamples, g.estimatorSamples);
        EXPECT_NEAR(rep.estimatorMeanAbsRelErr, g.estimatorMean, 1e-12);
        EXPECT_NEAR(rep.estimatorMaxAbsRelErr, g.estimatorMax, 1e-12);
    }
}

TEST(Fleet, EstimatorErrorIsSampledOnTheCycleBackendOnly)
{
    std::vector<ServeRequest> reqs =
        trace({"Blur", "Brighten"}, 6, 100000, 7);

    FleetReport cycle = FleetServer(smallFleet(1, "cycle")).run(reqs);
    EXPECT_EQ(cycle.estimatorSamples, 6u);
    EXPECT_EQ(cycle.stats.get("fleet.estimator.samples"), 6.0);
    EXPECT_GT(cycle.stats.get("fleet.estimator.maxAbsRelErr"), 0.0);
    EXPECT_GE(cycle.stats.get("fleet.estimator.maxAbsRelErr"),
              cycle.stats.get("fleet.estimator.meanAbsRelErr"));
    EXPECT_NE(cycle.summary().find("estimator error vs measured"),
              std::string::npos);

    // The functional backend measures nothing, so there is no error to
    // sample.
    FleetReport func = FleetServer(smallFleet(1, "func")).run(reqs);
    EXPECT_EQ(func.estimatorSamples, 0u);
    EXPECT_EQ(func.stats.get("fleet.estimator.samples"), 0.0);
    EXPECT_EQ(func.stats.get("fleet.estimator.meanAbsRelErr"), 0.0);
    EXPECT_EQ(func.summary().find("estimator error"), std::string::npos);
}

/** Batching must be a pure scheduling change: every output image is
 *  bit-identical to the sequential (batching-off) run's. */
void
expectBatchingPixelExact(const std::string &backend, u32 requests)
{
    FleetConfig cfg = smallFleet(1, backend);
    cfg.keepOutputs = true;
    // A launch overhead comparable to kernel time, so sequential
    // launches visibly contend on the dispatcher link.
    cfg.launchOverheadCycles = 20000;
    // A synchronized burst: every request present from cycle 0, so
    // both slots fill from the same queue and same-program groups
    // coalesce.
    std::vector<ServeRequest> reqs(requests);
    for (u32 i = 0; i < requests; ++i)
        reqs[i] = {i, "Blur", 0, u64(i) + 1, 0, 0};

    FleetReport seq = FleetServer(cfg).run(reqs);
    cfg.batching = true;
    FleetReport bat = FleetServer(cfg).run(reqs);

    EXPECT_GT(bat.batches, 0u);
    EXPECT_GT(bat.batchedRequests, bat.batches);
    EXPECT_EQ(seq.batches, 0u);
    ASSERT_EQ(seq.records.size(), bat.records.size());
    for (size_t i = 0; i < seq.records.size(); ++i) {
        ASSERT_GT(seq.records[i].output.pixels(), 0u);
        EXPECT_EQ(seq.records[i].output, bat.records[i].output)
            << "request " << i << " diverged under batching";
    }
    // A batch pays the launch overhead once for all members.
    Cycle seqOverhead = 0;
    Cycle batOverhead = 0;
    for (size_t i = 0; i < seq.records.size(); ++i) {
        seqOverhead += seq.records[i].overheadCycles;
        batOverhead += bat.records[i].overheadCycles;
    }
    EXPECT_LT(batOverhead, seqOverhead);
}

TEST(Fleet, BatchingMatchesSequentialPixelExactFunc)
{
    expectBatchingPixelExact("func", 12);
}

TEST(Fleet, BatchingMatchesSequentialPixelExactCycle)
{
    expectBatchingPixelExact("cycle", 8);
}

/** Preemption must checkpoint/restore bit-exactly: the victim's output
 *  matches the run where it was never preempted. */
void
expectPreemptionPixelExact(const std::string &backend)
{
    FleetConfig cfg = smallFleet(1, backend);
    cfg.cubesPerRequest = 2; // one slot -> guaranteed contention
    cfg.keepOutputs = true;
    cfg.tenants = {{"lo", 1.0, 0, 1.0}, {"hi", 1.0, 2, 1.0}};

    // A multi-kernel victim running when a high-priority request lands.
    std::vector<ServeRequest> reqs(2);
    reqs[0] = {0, "StencilChain", 0, 21, 0, 0};
    reqs[1] = {1, "Brighten", 1, 22, 1, 2};

    FleetReport pre = FleetServer(cfg).run(reqs);
    cfg.preempt = false;
    FleetReport seq = FleetServer(cfg).run(reqs);

    EXPECT_GE(pre.preemptions, 1u);
    EXPECT_GE(pre.records[0].preemptions, 1u);
    EXPECT_EQ(seq.preemptions, 0u);
    ASSERT_EQ(pre.records.size(), 2u);
    for (size_t i = 0; i < 2; ++i) {
        ASSERT_GT(pre.records[i].output.pixels(), 0u);
        EXPECT_EQ(pre.records[i].output, seq.records[i].output)
            << "request " << i << " diverged under preemption";
    }
    // Preemption exists to cut the high-priority request's queueing.
    EXPECT_LT(pre.records[1].finish, seq.records[1].finish);
}

TEST(Fleet, PreemptionRestoresBitExactPixelsFunc)
{
    expectPreemptionPixelExact("func");
}

TEST(Fleet, PreemptionRestoresBitExactPixelsCycle)
{
    expectPreemptionPixelExact("cycle");
}

TEST(Fleet, ShedRequestsAreAccountedAndNeverExecuted)
{
    FleetConfig cfg = smallFleet(1);
    cfg.cubesPerRequest = 2; // one slot, easy to overload
    cfg.keepOutputs = true;
    cfg.shedP99Cycles = 50000; // 50 us target under a 20 Mrps flood
    cfg.sloWindowCycles = 25000;
    cfg.tenants = {{"lo", 1.0, 0, 1.0}, {"hi", 1.0, 1, 1.0}};
    std::vector<ServeRequest> reqs =
        trace({"Blur", "Brighten"}, 40, 2e7, 23, cfg.tenants);

    FleetReport rep = FleetServer(cfg).run(reqs);

    EXPECT_GT(rep.shedTotal, 0u);
    EXPECT_LT(rep.shedTotal, 40u); // some work was still admitted
    EXPECT_EQ(rep.admitted + rep.shedTotal, 40u);
    EXPECT_EQ(rep.completed, rep.admitted);

    u64 tenantShed = 0;
    for (const FleetReport::TenantReport &t : rep.tenants) {
        EXPECT_EQ(t.shed, t.shedBreach + t.shedBacklog);
        EXPECT_EQ(t.admitted + t.shed, 20u); // rateShare split 20/20
        tenantShed += t.shed;
    }
    EXPECT_EQ(tenantShed, rep.shedTotal);

    for (const FleetRequestRecord &r : rep.records) {
        if (!r.shed)
            continue;
        // Shed at admission: never dispatched, never partially run.
        EXPECT_EQ(r.start, 0u);
        EXPECT_EQ(r.finish, 0u);
        EXPECT_EQ(r.execCycles, 0u);
        EXPECT_EQ(r.compileCycles, 0u);
        EXPECT_EQ(r.preemptions, 0u);
        EXPECT_EQ(r.batch, -1);
        EXPECT_EQ(r.output.pixels(), 0u);
        EXPECT_TRUE(r.shedReason == "p99_breach" ||
                    r.shedReason == "backlog")
            << r.shedReason;
    }
}

TEST(Fleet, FairShareFavoursTheHeavierTenant)
{
    FleetConfig cfg = smallFleet(1);
    cfg.tenants = {{"heavy", 4.0, 0, 1.0}, {"light", 1.0, 0, 1.0}};
    // Saturating backlog: everyone queues, so the weighted fair share
    // decides who waits.
    std::vector<ServeRequest> reqs =
        trace({"Blur"}, 32, 4e6, 29, cfg.tenants);
    FleetReport rep = FleetServer(cfg).run(reqs);
    EXPECT_EQ(rep.completed, 32u);

    f64 queue[2] = {0, 0};
    u64 count[2] = {0, 0};
    for (const FleetRequestRecord &r : rep.records) {
        queue[r.tenant] += f64(r.queueCycles());
        ++count[r.tenant];
    }
    ASSERT_GT(count[0], 0u);
    ASSERT_GT(count[1], 0u);
    EXPECT_LT(queue[0] / f64(count[0]), queue[1] / f64(count[1]));
}

TEST(Fleet, AffinityRoutingCompilesLessThanRoundRobin)
{
    FleetConfig cfg = smallFleet(4);
    cfg.cubesPerRequest = 2;
    cfg.cacheCapacity = 1; // one resident program per device
    std::vector<ServeRequest> reqs = trace(
        {"Blur", "Brighten", "Shift", "Downsample"}, 32, 4e6, 31);

    cfg.router = "rr";
    FleetReport rr = FleetServer(cfg).run(reqs);
    cfg.router = "affinity";
    FleetReport aff = FleetServer(cfg).run(reqs);

    u64 rrCompiles = 0;
    u64 affCompiles = 0;
    u64 affHits = 0;
    for (u32 d = 0; d < 4; ++d) {
        rrCompiles += rr.devices[d].cacheCompiles;
        affCompiles += aff.devices[d].cacheCompiles;
        affHits += aff.devices[d].cacheHits;
    }
    // Round-robin scatters 4 pipelines over 4 single-entry caches and
    // thrashes; affinity pins each pipeline where it is already hot.
    EXPECT_LT(affCompiles, rrCompiles);
    EXPECT_GT(affHits, 0u);
    EXPECT_EQ(aff.completed, 32u);
    EXPECT_EQ(rr.completed, 32u);
}

TEST(Fleet, ReportExposesCacheCountersInJsonAndPrometheus)
{
    FleetConfig cfg = smallFleet(2);
    cfg.cacheCapacity = 1;
    std::vector<ServeRequest> reqs =
        trace({"Blur", "Brighten", "Shift"}, 16, 1e6, 37);
    FleetReport rep = FleetServer(cfg).run(reqs);

    u64 hits = 0;
    u64 compiles = 0;
    u64 evictions = 0;
    for (const FleetReport::DeviceReport &d : rep.devices) {
        hits += d.cacheHits;
        compiles += d.cacheCompiles;
        evictions += d.cacheEvictions;
        EXPECT_LE(d.cacheEntries, cfg.cacheCapacity);
    }
    EXPECT_GT(compiles, 0u);
    EXPECT_GT(evictions, 0u); // 3 pipelines through 1-entry caches
    EXPECT_EQ(hits + compiles, rep.admitted);

    JsonWriter j;
    rep.toJson(j, cfg);
    std::string json = j.finish();
    EXPECT_NE(json.find("\"schema\":\"ipim-serve-fleet-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"cache\":{\"hits\":"), std::string::npos);
    EXPECT_NE(json.find("\"evictions\":"), std::string::npos);

    std::string prom = rep.prometheusText();
    EXPECT_NE(prom.find("ipim_fleet_cache_hits_total"),
              std::string::npos);
    EXPECT_NE(prom.find("ipim_fleet_cache_evictions_total"),
              std::string::npos);
    EXPECT_NE(prom.find("ipim_fleet_completed_total"),
              std::string::npos);
}

// ---- Fleet observability (DESIGN.md Sec. 19) ----

/** One observed fleet run; returns every observer feed as a string. */
struct ObservedRun
{
    FleetReport report;
    std::string trace;
    std::string events;
    std::string metrics;
    std::string prom;
};

ObservedRun
runObserved(FleetConfig cfg, const std::vector<ServeRequest> &reqs,
            FleetObserverConfig oc)
{
    FleetObserver obs(oc);
    cfg.observer = &obs;
    FleetServer fleet(cfg);
    ObservedRun out;
    out.report = fleet.run(reqs);
    if (oc.tracing) {
        std::ostringstream t;
        obs.exportChromeJson(t);
        out.trace = t.str();
    }
    if (oc.events) {
        std::ostringstream e;
        obs.writeEvents(e);
        out.events = e.str();
    }
    if (oc.sampling) {
        JsonWriter m;
        m.key("metrics");
        obs.metricsJson(m);
        out.metrics = m.finish();
    }
    out.prom = obs.prometheusText();
    return out;
}

FleetObserverConfig
allFeeds()
{
    FleetObserverConfig oc;
    oc.tracing = true;
    oc.events = true;
    oc.sampling = true;
    return oc;
}

TEST(FleetObs, FeedsAreByteIdenticalAcrossRuns)
{
    FleetConfig cfg = smallFleet(2, "cycle");
    cfg.batching = true;
    std::vector<ServeRequest> reqs =
        trace({"Blur", "Brighten"}, 10, 1e6, 41);

    ObservedRun a = runObserved(cfg, reqs, allFeeds());
    ObservedRun b = runObserved(cfg, reqs, allFeeds());

    EXPECT_FALSE(a.trace.empty());
    EXPECT_FALSE(a.events.empty());
    EXPECT_FALSE(a.metrics.empty());
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.metrics, b.metrics);
    EXPECT_EQ(a.prom, b.prom);
}

TEST(FleetObs, FeedsAreBitExactAcrossThreadCounts)
{
    FleetConfig cfg = smallFleet(2, "cycle");
    cfg.cubesPerRequest = 2; // 2-cube slots, so --threads can split
    std::vector<ServeRequest> reqs = trace({"Blur"}, 6, 1e6, 43);

    cfg.threads = 1;
    ObservedRun one = runObserved(cfg, reqs, allFeeds());
    cfg.threads = 2;
    ObservedRun two = runObserved(cfg, reqs, allFeeds());
    cfg.threads = 4;
    ObservedRun four = runObserved(cfg, reqs, allFeeds());

    EXPECT_EQ(one.trace, two.trace);
    EXPECT_EQ(one.trace, four.trace);
    EXPECT_EQ(one.events, two.events);
    EXPECT_EQ(one.events, four.events);
    EXPECT_EQ(one.metrics, two.metrics);
    EXPECT_EQ(one.metrics, four.metrics);
}

TEST(FleetObs, MetricsAndTraceAreBitExactDenseVsFastForward)
{
    FleetConfig cfg = smallFleet(1, "cycle");
    std::vector<ServeRequest> reqs = trace({"Brighten"}, 4, 1e6, 47);

    cfg.fastForward = true;
    ObservedRun ff = runObserved(cfg, reqs, allFeeds());
    cfg.fastForward = false;
    ObservedRun dense = runObserved(cfg, reqs, allFeeds());

    EXPECT_EQ(ff.metrics, dense.metrics);
    EXPECT_EQ(ff.events, dense.events);
    EXPECT_EQ(ff.trace, dense.trace);
}

TEST(FleetObs, FuncBackendEventsAndTraceAreDeterministic)
{
    FleetConfig cfg = smallFleet(2, "func");
    FleetObserverConfig oc;
    oc.tracing = true;
    oc.events = true;
    std::vector<ServeRequest> reqs =
        trace({"Blur", "Shift"}, 12, 2e6, 53);

    ObservedRun a = runObserved(cfg, reqs, oc);
    ObservedRun b = runObserved(cfg, reqs, oc);
    EXPECT_EQ(a.trace, b.trace);
    EXPECT_EQ(a.events, b.events);
    EXPECT_FALSE(a.events.empty());
}

TEST(FleetObs, EventLogAccountingMatchesTheReport)
{
    FleetConfig cfg = smallFleet(1);
    cfg.cubesPerRequest = 2; // one slot -> contention
    cfg.tenants = {{"lo", 1.0, 0, 1.0}, {"hi", 1.0, 2, 1.0}};
    // The preemption scenario: a multi-kernel victim running when a
    // high-priority request lands, plus a third request to queue.
    std::vector<ServeRequest> reqs(3);
    reqs[0] = {0, "StencilChain", 0, 21, 0, 0};
    reqs[1] = {1, "Brighten", 1, 22, 1, 2};
    reqs[2] = {2, "Brighten", 2, 23, 0, 0};

    FleetObserverConfig oc;
    oc.events = true;
    ObservedRun run = runObserved(cfg, reqs, oc);
    ASSERT_GE(run.report.preemptions, 1u);

    std::istringstream in(run.events);
    std::vector<FleetEvent> events = loadFleetEvents(in);
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().type, "log");
    EXPECT_EQ(events.front().str("schema"), kFleetEventsSchema);

    u64 routes = 0;
    u64 sheds = 0;
    u64 completes = 0;
    u64 preempts = 0;
    Cycle lastTs = 0;
    for (const FleetEvent &ev : events) {
        EXPECT_GE(ev.ts, lastTs) << "event log out of decision order";
        lastTs = ev.ts;
        routes += ev.type == "route";
        sheds += ev.type == "shed";
        completes += ev.type == "complete";
        preempts += ev.type == "preempt";
    }
    EXPECT_EQ(routes, run.report.admitted);
    EXPECT_EQ(sheds, run.report.shedTotal);
    EXPECT_EQ(completes, run.report.completed);
    EXPECT_EQ(preempts, run.report.preemptions);
}

TEST(FleetObs, ShedRequestsAppearAsShedEventsNotRoutes)
{
    FleetConfig cfg = smallFleet(1);
    cfg.cubesPerRequest = 2;
    cfg.shedP99Cycles = 60000;
    std::vector<ServeRequest> reqs = trace({"Blur"}, 24, 4e6, 59);

    FleetObserverConfig oc;
    oc.events = true;
    ObservedRun run = runObserved(cfg, reqs, oc);
    ASSERT_GT(run.report.shedTotal, 0u);

    std::istringstream in(run.events);
    std::vector<FleetEvent> events = loadFleetEvents(in);
    std::vector<u64> routed;
    std::vector<u64> shed;
    for (const FleetEvent &ev : events) {
        if (ev.type == "route")
            routed.push_back(ev.req);
        if (ev.type == "shed") {
            shed.push_back(ev.req);
            EXPECT_TRUE(ev.str("reason") == "p99_breach" ||
                        ev.str("reason") == "backlog")
                << ev.str("reason");
        }
    }
    EXPECT_EQ(routed.size(), run.report.admitted);
    EXPECT_EQ(shed.size(), run.report.shedTotal);
    for (u64 s : shed)
        for (u64 r : routed)
            EXPECT_NE(s, r) << "request both routed and shed";
}

TEST(FleetObs, ExplainReconstructsARequestStory)
{
    FleetConfig cfg = smallFleet(2, "cycle");
    cfg.batching = true;
    std::vector<ServeRequest> reqs =
        trace({"Blur", "Brighten"}, 10, 1e6, 61);

    FleetObserverConfig oc;
    oc.events = true;
    ObservedRun run = runObserved(cfg, reqs, oc);

    std::istringstream in(run.events);
    std::vector<FleetEvent> events = loadFleetEvents(in);
    std::string story = explainRequest(events, 0);
    EXPECT_NE(story.find("request 0:"), std::string::npos);
    EXPECT_NE(story.find("admitted"), std::string::npos);
    EXPECT_NE(story.find("routed to device"), std::string::npos);
    EXPECT_NE(story.find("dispatched"), std::string::npos);
    EXPECT_NE(story.find("completed"), std::string::npos);

    // An id the log never saw is fatal, not silently empty.
    EXPECT_THROW(explainRequest(events, 999), FatalError);
}

/** Satellite regression: with several devices, each device's tracer
 *  owns its own track table, so the same "slot<i>/" component track
 *  names appear under DISTINCT pids in the merged trace instead of
 *  first-writer-wins mislabeling across devices. */
TEST(FleetObs, MergedTraceKeepsSlotTracksDistinctPerDevice)
{
    FleetConfig cfg = smallFleet(2, "cycle");
    std::vector<ServeRequest> reqs = trace({"Blur"}, 6, 1e6, 67);

    FleetObserverConfig oc;
    oc.tracing = true;
    ObservedRun run = runObserved(cfg, reqs, oc);

    // Both device processes announce their own copy of a slot-0 track.
    auto threadNameCount = [&](const std::string &pid) {
        std::string needle = "{\"name\":\"thread_name\",\"ph\":\"M\","
                             "\"pid\":" + pid;
        size_t n = 0;
        for (size_t at = run.trace.find(needle); at != std::string::npos;
             at = run.trace.find(needle, at + 1)) {
            size_t line = run.trace.find('\n', at);
            if (run.trace.substr(at, line - at).find("slot0/") !=
                std::string::npos)
                ++n;
        }
        return n;
    };
    EXPECT_GT(threadNameCount("1"), 0u) << "dev0 lost its slot tracks";
    EXPECT_GT(threadNameCount("2"), 0u) << "dev1 lost its slot tracks";
    EXPECT_EQ(threadNameCount("1"), threadNameCount("2"))
        << "asymmetric slot track registration across devices";
    // And the fleet process exists alongside them.
    EXPECT_NE(run.trace.find("\"args\":{\"name\":\"fleet\"}"),
              std::string::npos);
}

TEST(FleetObs, ReportExposesFastForwardTelemetryPerDevice)
{
    FleetConfig cfg = smallFleet(2, "cycle");
    std::vector<ServeRequest> reqs =
        trace({"Blur", "Brighten"}, 8, 1e6, 71);
    FleetReport rep = FleetServer(cfg).run(reqs);

    u64 jumps = 0;
    for (const FleetReport::DeviceReport &d : rep.devices)
        jumps += d.ffwdJumps;
    EXPECT_GT(jumps, 0u);

    JsonWriter j;
    rep.toJson(j, cfg);
    std::string json = j.finish();
    EXPECT_NE(json.find("\"fast_forward\":{\"enabled\":true"),
              std::string::npos);
    EXPECT_NE(json.find("\"ffwd_jumps\":"), std::string::npos);
    EXPECT_NE(json.find("\"ffwd_skipped_cycles\":"), std::string::npos);
    EXPECT_NE(json.find("\"threads\":"), std::string::npos);

    std::string prom = rep.prometheusText();
    EXPECT_NE(prom.find("ipim_fleet_device_ffwd_jumps_total"),
              std::string::npos);
    EXPECT_NE(prom.find("ipim_fleet_device_ffwd_skipped_cycles_total"),
              std::string::npos);
}

TEST(FleetObs, ObserverPrometheusCarriesPerDeviceAndRollupFamilies)
{
    FleetConfig cfg = smallFleet(2, "cycle");
    std::vector<ServeRequest> reqs = trace({"Blur"}, 6, 1e6, 73);
    ObservedRun run = runObserved(cfg, reqs, allFeeds());

    EXPECT_NE(run.prom.find("ipim_fleet_obs_events"),
              std::string::npos);
    EXPECT_NE(run.prom.find("ipim_fleet_trace_events{process=\"fleet\"}"),
              std::string::npos);
    EXPECT_NE(run.prom.find("ipim_fleet_trace_events{process=\"dev1\"}"),
              std::string::npos);
    EXPECT_NE(run.prom.find(
                  "ipim_fleet_device_sampled{device=\"0\","),
              std::string::npos);
    EXPECT_NE(run.prom.find("ipim_fleet_sampled{counter=\"sim.cycles\"}"),
              std::string::npos);
}

TEST(FleetObs, ObserverCannotBeSharedByTwoFleets)
{
    FleetObserver obs;
    FleetConfig cfg = smallFleet(1);
    cfg.observer = &obs;
    FleetServer first(cfg);
    EXPECT_THROW(FleetServer{cfg}, FatalError);
}

TEST(Fleet, RejectsBadConfigurations)
{
    FleetConfig none = smallFleet(0);
    EXPECT_THROW(FleetServer{none}, FatalError);

    FleetConfig badPartition = smallFleet(1);
    badPartition.cubesPerRequest = 3; // does not divide 2 cubes
    EXPECT_THROW(FleetServer{badPartition}, FatalError);

    FleetConfig badBackend = smallFleet(1, "simd");
    EXPECT_THROW(FleetServer{badBackend}, FatalError);

    FleetConfig ok = smallFleet(1);
    std::vector<ServeRequest> outOfRange = {
        {0, "Blur", 0, 1, 5, 0}}; // tenant 5 of a 1-entry table
    EXPECT_THROW(FleetServer(ok).run(outOfRange), FatalError);
}

} // namespace
} // namespace ipim

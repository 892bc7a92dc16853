/**
 * Serving-layer throughput study (DESIGN.md Sec. 17): sweeps arrival
 * rate x {scheduler} x {sharing mode} over a mixed open-loop Poisson
 * workload on a 1-device fleet and reports tail latency, throughput,
 * and makespan.  Launches cost no dispatcher cycles and nothing is
 * preempted, so only scheduling and partitioning move the numbers.
 *
 * Expected shape: cube-granular space sharing beats whole-device
 * serialization on total completion time because per-benchmark cube
 * scaling is sublinear (a 2-cube Blur is ~1.7x faster than 1-cube, so
 * two 1-cube requests in parallel finish sooner than two serialized
 * 2-cube runs); SJF beats FIFO on mean/tail latency once queues form,
 * with the gap widening as the arrival rate approaches saturation.
 */
#include "bench_common.h"
#include "fleet/fleet.h"

using namespace ipim;
using namespace ipim::bench;

namespace {

struct Setting
{
    const char *name;
    const char *policy;
    bool whole; ///< one slot spanning every cube, else one per cube
};

HardwareConfig
serveDevice()
{
    HardwareConfig cfg;
    cfg.cubes = 2;
    cfg.vaultsPerCube = 4;
    cfg.pgsPerVault = 2;
    cfg.pesPerPg = 2;
    cfg.meshCols = 4;
    cfg.validate();
    return cfg;
}

} // namespace

int
main()
{
    printHeader("Serve", "request scheduling x device sharing");

    const Setting settings[] = {
        {"fifo+whole", "fifo", true},
        {"sjf+whole", "sjf", true},
        {"fifo+cube", "fifo", false},
        {"sjf+cube", "sjf", false},
    };
    // Low rates are arrival-bound (makespan == last arrival + service);
    // the interesting regime is near/over saturation (~100k req/s for
    // this device), where makespan measures sustainable capacity.
    const f64 rates[] = {20000, 80000, 160000, 320000};

    WorkloadSpec spec;
    spec.pipelines = {"Blur", "Brighten", "Shift", "Downsample"};
    spec.requests = 120;
    spec.seed = 7;

    std::printf("(2-cube 4x2x2 device, 128x64 images, %u-request "
                "Blur/Brighten/Shift/Downsample mix, seed %llu)\n",
                spec.requests, (unsigned long long)spec.seed);
    std::printf("%-8s %-11s %12s %12s %12s %12s %12s\n", "rate",
                "setting", "p50(ms)", "p95(ms)", "p99(ms)",
                "makespan(ms)", "req/s");

    for (f64 rate : rates) {
        spec.ratePerSec = rate;
        std::vector<ServeRequest> reqs = generatePoissonWorkload(spec);
        f64 fifoWholeMakespan = 0, sjfCubeMakespan = 0;
        for (const Setting &s : settings) {
            FleetConfig cfg;
            cfg.hw = serveDevice();
            cfg.devices = 1;
            cfg.width = 128;
            cfg.height = 64;
            cfg.policy = s.policy;
            cfg.cubesPerRequest = s.whole ? cfg.hw.cubes : 1;
            cfg.preempt = false;
            cfg.launchOverheadCycles = 0;
            FleetReport rep = FleetServer(cfg).run(reqs);
            f64 mk = f64(rep.makespan) * 1e-6;
            if (std::string(s.name) == "fifo+whole")
                fifoWholeMakespan = mk;
            if (std::string(s.name) == "sjf+cube")
                sjfCubeMakespan = mk;
            std::printf("%-8.0f %-11s %12.3f %12.3f %12.3f %12.3f "
                        "%12.0f\n",
                        rate, s.name,
                        rep.totalLatency.percentile(50) * 1e-6,
                        rep.totalLatency.percentile(95) * 1e-6,
                        rep.totalLatency.percentile(99) * 1e-6, mk,
                        rep.throughputRps());
        }
        f64 ratio = fifoWholeMakespan / sjfCubeMakespan;
        const char *verdict = ratio > 1.005
                                  ? "WIN"
                                  : (ratio < 0.995 ? "LOSS"
                                                   : "TIE (arrival-bound)");
        std::printf("  -> space-shared SJF vs whole-device FIFO total "
                    "completion: %.3f ms vs %.3f ms (%s, %.2fx)\n",
                    sjfCubeMakespan, fifoWholeMakespan, verdict,
                    fifoWholeMakespan / sjfCubeMakespan);
    }
    return 0;
}

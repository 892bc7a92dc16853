/**
 * @file
 * Fleet-scale serving (DESIGN.md Sec. 17): N independent devices behind
 * a Router, with per-tenant weighted fair share, priority preemption at
 * kernel boundaries, cross-request batching, and p99-driven load
 * shedding, built on the program cache, schedulers, and load generator
 * of src/service.  This is the repository's only serving loop: plain
 * `ipim serve` runs it with one device, and a 1-device fleet with
 * launchOverheadCycles == 0 is the plain single-device server
 * (cube-granular partition slots, FIFO or SJF, compile-on-miss).
 *
 * The fleet interleaves execution with virtual time at kernel
 * granularity: a dispatched request simulates one kernel at a time, and
 * each kernel boundary is an event at which the fleet may preempt the
 * request in favour of a higher-priority pending one (checkpoint.h
 * captures banks + scratchpads; the victim resumes bit-exactly on any
 * slot of the same geometry).
 *
 * Everything is deterministic: the event loop consumes no randomness,
 * ties break on (device, slot, tenant, arrival, id), and all state is
 * a pure function of (config, request trace).  Fixed-seed fleet runs
 * are byte-identical across processes — JSON and Prometheus output
 * included — which the fleet regression tests pin.
 */
#ifndef IPIM_FLEET_FLEET_H_
#define IPIM_FLEET_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/image.h"
#include "common/json.h"
#include "fleet/checkpoint.h"
#include "fleet/router.h"
#include "func/estimator.h"
#include "func/func_device.h"
#include "metrics/slo.h"
#include "service/load_gen.h"
#include "service/program_cache.h"
#include "service/scheduler.h"
#include "sim/device.h"

namespace ipim {

class FleetObserver;

struct FleetConfig
{
    /** Geometry of EACH fleet device; hw.cubes is per-device. */
    HardwareConfig hw;
    u32 devices = 2;
    int width = 256;
    int height = 128;
    CompilerOptions copts;

    /** Execution backend per slot: "cycle" | "func" (Sec. 16). */
    std::string backend = "cycle";
    /** Intra-tenant queue order on each device: "fifo" | "sjf". */
    std::string policy = "fifo";
    /** Router policy: "rr" | "least" | "hash" | "affinity". */
    std::string router = "rr";
    /** Cube-granular partition width within each device (slots per
     *  device = hw.cubes / cubesPerRequest). */
    u32 cubesPerRequest = 1;

    /** Coalesce same-program pending requests into one launch over the
     *  free slots of a device (one launch overhead for the batch). */
    bool batching = false;
    /** Max requests per batch; 0 = bounded only by free slots. */
    u32 maxBatch = 0;
    /**
     * Batch-forming window: a growable (cache-hit, not-yet-full) group
     * waits up to this long for same-program companions before
     * launching, and launches early the instant it fills — the classic
     * latency-for-throughput trade, paid only with batching on.
     * Holding is always free while the device's launcher is busy.
     */
    Cycle batchWindowCycles = 2000;

    /** Allow priority preemption at kernel boundaries. */
    bool preempt = true;

    /**
     * Load-shedding target: shed requests at admission when the
     * previous SLO window's p99 breaches this many cycles (lowest
     * priority first) or when the routed device's estimated wait would
     * blow the target outright.  0 disables shedding.
     */
    Cycle shedP99Cycles = 0;

    Cycle sloWindowCycles = 1'000'000;
    /** Host compile latency charged per static instruction on a
     *  program-cache miss; 0 disables the charge. */
    Cycle compileCyclesPerInst = 10;
    /**
     * Per-launch dispatcher occupancy: uploading a program broadcast
     * occupies the device's host link for this many cycles, and
     * launches on one device serialize through it.  A batch pays it
     * once for all members — the batching win.  0 makes launches free
     * and unserialized (a zero-length launch takes no launcher slot).
     */
    Cycle launchOverheadCycles = 1000;

    bool fastForward = true;
    /** Simulation worker threads per slot device (DESIGN.md Sec. 18);
     *  bit-exact for every value, wall-clock only. */
    u32 threads = 1;
    /** Per-device ProgramCache capacity in entries (0 = unbounded). */
    size_t cacheCapacity = 0;

    /** Tenant table (index == ServeRequest::tenant); empty means one
     *  default tenant.  Weights drive fair share, priorities drive
     *  class ordering, preemption, and shed order. */
    std::vector<TenantSpec> tenants;

    /** Gather and retain each completed request's output image
     *  (pixel-exactness tests; large, so off by default). */
    bool keepOutputs = false;

    /**
     * Observability sink (DESIGN.md Sec. 19): distributed tracing,
     * decision event log, per-slot metrics sampling.  Null (the
     * default) costs one pointer test per decision site; the observer
     * must outlive the FleetServer and is attached at construction.
     */
    FleetObserver *observer = nullptr;
};

/** Everything recorded about one request entering the fleet. */
struct FleetRequestRecord
{
    u64 id = 0;
    std::string pipeline;
    u32 tenant = 0;
    u32 priority = 0;
    Cycle arrival = 0;

    bool shed = false;
    std::string shedReason; ///< "p99_breach" | "backlog" when shed

    u32 device = 0;
    u32 slot = 0; ///< slot of the final occupancy
    i64 batch = -1; ///< batch id, -1 = launched alone
    u32 preemptions = 0;

    Cycle start = 0;  ///< first dispatch (queueing ends)
    Cycle finish = 0;
    Cycle execCycles = 0;     ///< simulated device cycles, all kernels
    Cycle compileCycles = 0;  ///< charged on a program-cache miss
    Cycle overheadCycles = 0; ///< launch/dispatcher cycles charged
    bool cacheHit = false;

    /** Output pixels (only with FleetConfig::keepOutputs). */
    Image output;

    Cycle queueCycles() const { return shed ? 0 : start - arrival; }
    Cycle totalCycles() const { return shed ? 0 : finish - arrival; }
};

/** Aggregate results of one fleet serving run. */
struct FleetReport
{
    struct DeviceReport
    {
        u64 requests = 0; ///< completions on this device
        u64 batches = 0;
        u64 preemptions = 0;
        u64 cacheHits = 0;
        u64 cacheCompiles = 0;
        u64 cacheEvictions = 0;
        u64 cacheEntries = 0;
        Cycle busyCycles = 0; ///< exec cycles simulated here
        /// Fast-forward telemetry summed over this device's slots
        /// (cycle backend).
        u64 ffwdSkippedCycles = 0;
        u64 ffwdJumps = 0;
        SloTracker slo;
        LatencyHistogram totalLatency;
    };

    struct TenantReport
    {
        std::string name;
        f64 weight = 1.0;
        u32 priority = 0;
        u64 admitted = 0;
        u64 completed = 0;
        u64 shed = 0;
        u64 shedBreach = 0;
        u64 shedBacklog = 0;
        Cycle servedCycles = 0; ///< device cycles executed for it
        LatencyHistogram totalLatency;
    };

    std::vector<FleetRequestRecord> records; ///< by id (shed included)
    Cycle makespan = 0;
    u64 admitted = 0;
    u64 completed = 0;
    u64 shedTotal = 0;
    u64 batches = 0;
    u64 batchedRequests = 0;
    u64 preemptions = 0;

    /** Admitted-request latency over the whole fleet: exact pooled
     *  samples (LatencyHistogram::merge), never averaged percentiles. */
    LatencyHistogram totalLatency;
    LatencyHistogram queueLatency;
    LatencyHistogram execLatency;

    /** Fleet-level SLO windows, merged sample-exactly from the
     *  per-device trackers (SloTracker::merge). */
    SloTracker slo;

    std::vector<DeviceReport> devices;
    std::vector<TenantReport> tenants;

    /** fleet.* counters plus merged per-occupancy device stats on the
     *  cycle backend. */
    StatsRegistry stats;

    /**
     * Static-estimator error against measured cycles, sampled once per
     * completed request on the cycle backend (fleet.estimator.* stats;
     * zero samples on the functional backend, where no measurement
     * exists to compare against).
     */
    u64 estimatorSamples = 0;
    f64 estimatorMeanAbsRelErr = 0;
    f64 estimatorMaxAbsRelErr = 0;

    /** Completed requests per second of virtual time. */
    f64 throughputRps() const;

    /** Human-readable multi-line summary. */
    std::string summary() const;

    /**
     * Emit the full report as one JSON object value (schema
     * "ipim-serve-fleet-v1"); @p cfg echoes the configuration.
     * Byte-deterministic for a fixed (cfg, trace).
     */
    void toJson(JsonWriter &w, const FleetConfig &cfg) const;

    /** Fleet-level Prometheus text exposition with per-device and
     *  per-tenant labelled families.  Byte-deterministic. */
    std::string prometheusText() const;
};

class FleetServer
{
  public:
    explicit FleetServer(const FleetConfig &cfg);
    ~FleetServer();

    /** Serve @p requests (any order; sorted internally by arrival). */
    FleetReport run(const std::vector<ServeRequest> &requests);

    u32 devices() const { return u32(devs_.size()); }
    u32 slotsPerDevice() const;
    const FleetConfig &config() const { return cfg_; }

  private:
    struct Slot
    {
        std::unique_ptr<Device> dev;      ///< cycle backend
        std::unique_ptr<FuncDevice> fdev; ///< functional backend
    };

    /** A request in a device queue (fresh or preempted-resumable). */
    struct Pending
    {
        ServeRequest req;
        std::shared_ptr<CachedProgram> program;
        bool cacheHit = false;
        Cycle compileCycles = 0; ///< still to charge (first launch)
        bool started = false;    ///< first dispatch already happened
        bool held = false;       ///< waiting in a batch-forming window
        Cycle heldSince = 0;     ///< window start (valid when held)
        u32 nextKernel = 0;
        Cycle doneExec = 0;      ///< exec cycles already simulated
        u32 preemptCount = 0;
        std::unique_ptr<DeviceCheckpoint> ckpt; ///< set when resuming
        size_t recIdx = 0;       ///< index into FleetReport::records
    };

    /** A request occupying a slot, between kernel-boundary events. */
    struct Running
    {
        Pending p;
        Cycle boundaryAt = 0;       ///< end of the current kernel
        Cycle curKernelCycles = 0;  ///< cycles of the current kernel
        i64 batchId = -1;
    };

    struct DeviceState
    {
        std::vector<Slot> slots;
        std::vector<std::unique_ptr<Running>> running; ///< per slot
        std::vector<Pending> pend;
        std::unique_ptr<ProgramCache> cache;
        StatsRegistry cacheStats;
        Cycle launcherFreeAt = 0; ///< host-link dispatcher occupancy
    };

    HardwareConfig slotConfig() const;

    FleetConfig cfg_;
    std::vector<TenantSpec> tenants_; ///< normalized, >= 1 entry
    u32 maxPriority_ = 0;
    std::vector<DeviceState> devs_;
    std::unique_ptr<Router> router_;
    std::unique_ptr<Scheduler> intra_;
    /// Host-side static-estimate memo shared by all devices.
    LatencyEstimator estimator_;
};

} // namespace ipim

#endif // IPIM_FLEET_FLEET_H_

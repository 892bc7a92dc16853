/**
 * @file
 * Fleet observability (DESIGN.md Sec. 19): distributed tracing,
 * decision event log, and per-device metrics sampling for FleetServer.
 *
 * One FleetObserver hangs off FleetConfig::observer and collects three
 * feeds, each individually switchable and all byte-deterministic for a
 * fixed (config, request trace):
 *
 *  - Tracing: a fleet-level Tracer (request lifetime spans, routing and
 *    shed instants) plus one Tracer per device (queue/compile/execute
 *    async spans, program-cache hit/miss and preempt/resume instants,
 *    batch-forming spans, and — on the cycle backend — the full
 *    device-internal component tracks, because each slot Device is
 *    constructed against its device's tracer with a "slot<i>/"
 *    prefix).  exportChromeJson() merges them
 *    into one multi-process Chrome trace: pid 0 is the fleet, pid 1+d
 *    is device d, and same-named slot tracks on different devices stay
 *    distinct because every pid names tracks from its own table.
 *
 *  - Decision events: one "ipim-fleet-events-v1" JSONL record per
 *    routing choice (with the candidate load snapshot), shed decision,
 *    batch formation, dispatch, preemption, and completion —
 *    everything `ipim explain --req ID` needs to replay a request.
 *
 *  - Metrics: one MetricsSampler per (device, slot) on the cycle
 *    backend, in retain-on-reset mode with per-occupancy time offsets,
 *    so the sampled series live on the fleet virtual timeline and
 *    survive the per-occupancy Device::reset().  metricsJson() nests
 *    the per-slot series; prometheusText() adds labelled per-device
 *    and fleet-rollup families.
 *
 * With a null observer (the default) the fleet hot path pays only a
 * pointer test per decision site — bench/micro_fleet_obs pins < 2%.
 */
#ifndef IPIM_FLEET_OBSERVER_H_
#define IPIM_FLEET_OBSERVER_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"
#include "fleet/router.h"
#include "metrics/metrics.h"
#include "service/load_gen.h"
#include "trace/trace.h"

namespace ipim {

struct FleetObserverConfig
{
    bool tracing = false;  ///< record spans (fleet + per-device)
    bool events = false;   ///< record the decision event log
    bool sampling = false; ///< attach per-slot MetricsSamplers (cycle)
    size_t traceCapacity = 1u << 20; ///< per-tracer ring, in events
    Cycle sampleInterval = 1024;     ///< sampler cadence, in cycles
    u32 sampleCapacity = 4096;       ///< sampler ring, in rows
};

class FleetObserver
{
  public:
    explicit FleetObserver(FleetObserverConfig cfg = FleetObserverConfig());
    ~FleetObserver();

    /** @name Wiring (called by FleetServer) */
    ///@{
    /** Build the per-device tracers/samplers; FleetServer's ctor calls
     *  this once with its resolved geometry. */
    void attach(u32 devices, u32 slotsPerDevice,
                const std::string &backend, const std::string &router,
                const std::string &policy);
    bool attached() const { return devices_ > 0; }

    /** Drop all recorded state for a fresh FleetServer::run(). */
    void beginRun();

    /** Device d's tracer (null unless tracing is on) — also handed to
     *  that device's slot Devices at construction. */
    Tracer *deviceTracer(u32 d);
    /** The fleet-level tracer (null unless tracing is on). */
    Tracer *fleetTracer();
    /** Slot (d, s)'s sampler (null unless sampling, cycle backend). */
    MetricsSampler *slotSampler(u32 d, u32 s);
    ///@}

    /** @name Decision hooks (FleetServer::run decision sites) */
    ///@{
    void onOffered(const ServeRequest &req, const std::string &tenant);
    void onShed(Cycle now, const ServeRequest &req,
                const std::string &tenant, const char *reason,
                u32 shedLevel, f64 windowP99, bool routed, u32 device,
                Cycle waitEst, Cycle ownEst, Cycle target);
    void onRoute(Cycle now, const ServeRequest &req,
                 const std::string &tenant, const std::string &policy,
                 u32 device, bool cacheHit,
                 const std::vector<DeviceLoadView> &views);
    void onBatch(Cycle now, u32 device, i64 batchId,
                 const std::string &pipeline,
                 const std::vector<u64> &members, Cycle windowCycles,
                 Cycle execStart, const char *fill);
    void onDispatch(Cycle now, u64 req, const std::string &pipeline,
                    u32 device, u32 slot, u32 kernel, bool resume,
                    i64 batchId, Cycle launchStart, Cycle execStart,
                    Cycle compileCycles, Cycle heldCycles);
    void onPreempt(Cycle now, u64 req, u32 device, u32 slot,
                   u32 nextKernel, Cycle doneExec, u64 ckptBytes,
                   u64 higherPending);
    void onComplete(Cycle now, u64 req, u32 device, u32 slot,
                    i64 batchId, Cycle execCycles, Cycle queueCycles,
                    Cycle totalCycles, u32 preemptions);
    ///@}

    /** @name Exports (byte-deterministic) */
    ///@{
    /** Merged multi-process Chrome trace (pid 0 fleet, pid 1+d dev d). */
    void exportChromeJson(std::ostream &os) const;
    /** The decision event log (JSONL, header line first). */
    void writeEvents(std::ostream &os) const;
    u64 eventCount() const { return eventCount_; }
    /** Per-slot sampled time series as one JSON object value. */
    void metricsJson(JsonWriter &w) const;
    /** Labelled per-device + fleet-rollup sampling families. */
    std::string prometheusText() const;
    ///@}

    const FleetObserverConfig &config() const { return cfg_; }

  private:
    void appendEvent(JsonWriter &j);

    FleetObserverConfig cfg_;
    u32 devices_ = 0;
    u32 slotsPer_ = 0;
    std::string backend_;
    std::string router_;
    std::string policy_;

    std::unique_ptr<Tracer> fleet_;
    std::vector<std::unique_ptr<Tracer>> devs_;
    /// Samplers indexed [d * slotsPer_ + s]; empty unless sampling on
    /// the cycle backend.
    std::vector<std::unique_ptr<MetricsSampler>> samplers_;

    u32 fleetReqTrack_ = 0;
    u32 fleetRouterTrack_ = 0;
    std::vector<u32> devReqTrack_;
    std::vector<u32> devBatchTrack_;

    std::string events_;
    u64 eventCount_ = 0;
};

} // namespace ipim

#endif // IPIM_FLEET_OBSERVER_H_

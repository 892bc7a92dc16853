#include "fleet/observer.h"

#include <ostream>

#include "common/logging.h"
#include "fleet/events.h"
#include "metrics/prometheus.h"

namespace ipim {

namespace {

/** Batch async ids live above the request-id space so a batch span can
 *  never collide with a request span in the Chrome (cat, id) keying. */
constexpr u64 kBatchIdBase = u64(1) << 32;

} // namespace

FleetObserver::FleetObserver(FleetObserverConfig cfg) : cfg_(cfg) {}

FleetObserver::~FleetObserver() = default;

void
FleetObserver::attach(u32 devices, u32 slotsPerDevice,
                      const std::string &backend,
                      const std::string &router,
                      const std::string &policy)
{
    if (attached())
        fatal("FleetObserver is already attached to a fleet");
    devices_ = devices;
    slotsPer_ = slotsPerDevice;
    backend_ = backend;
    router_ = router;
    policy_ = policy;

    if (cfg_.tracing) {
        fleet_ = std::make_unique<Tracer>(cfg_.traceCapacity);
        fleet_->setEnabled(true);
        fleetReqTrack_ = fleet_->track("requests");
        fleetRouterTrack_ = fleet_->track("router");
        for (u32 d = 0; d < devices_; ++d) {
            auto t = std::make_unique<Tracer>(cfg_.traceCapacity);
            t->setEnabled(true);
            devReqTrack_.push_back(t->track("requests"));
            devBatchTrack_.push_back(t->track("batches"));
            devs_.push_back(std::move(t));
        }
    }

    if (cfg_.sampling && backend_ == "cycle") {
        MetricsSampler::Config mc;
        mc.interval = cfg_.sampleInterval;
        mc.capacity = cfg_.sampleCapacity;
        for (u32 i = 0; i < devices_ * slotsPer_; ++i) {
            auto s = std::make_unique<MetricsSampler>(mc);
            s->setRetainOnReset(true);
            samplers_.push_back(std::move(s));
        }
    }

    beginRun();
}

void
FleetObserver::beginRun()
{
    if (fleet_) {
        fleet_->clear();
        fleet_->setTimeOffset(0);
    }
    for (auto &t : devs_) {
        t->clear();
        t->setTimeOffset(0);
    }
    for (auto &s : samplers_) {
        s->clear();
        s->setTimeOffset(0);
    }
    events_.clear();
    eventCount_ = 0;
    if (cfg_.events) {
        JsonWriter j;
        j.field("ts", u64(0));
        j.field("type", "log");
        j.field("schema", kFleetEventsSchema);
        j.field("devices", u64(devices_));
        j.field("slots_per_device", u64(slotsPer_));
        j.field("backend", backend_);
        j.field("router", router_);
        j.field("policy", policy_);
        events_ += j.finish();
        events_ += '\n';
    }
}

Tracer *
FleetObserver::deviceTracer(u32 d)
{
    return d < devs_.size() ? devs_[d].get() : nullptr;
}

Tracer *
FleetObserver::fleetTracer()
{
    return fleet_.get();
}

MetricsSampler *
FleetObserver::slotSampler(u32 d, u32 s)
{
    size_t i = size_t(d) * slotsPer_ + s;
    return i < samplers_.size() ? samplers_[i].get() : nullptr;
}

void
FleetObserver::appendEvent(JsonWriter &j)
{
    events_ += j.finish();
    events_ += '\n';
    ++eventCount_;
}

void
FleetObserver::onOffered(const ServeRequest &req,
                         const std::string &tenant)
{
    (void)tenant;
    if (Tracer::active(fleet_.get()))
        fleet_->asyncBegin(fleetReqTrack_, TraceEv::kRequest, req.arrival,
                           req.id, fleet_->label(req.pipeline));
}

void
FleetObserver::onShed(Cycle now, const ServeRequest &req,
                      const std::string &tenant, const char *reason,
                      u32 shedLevel, f64 windowP99, bool routed,
                      u32 device, Cycle waitEst, Cycle ownEst,
                      Cycle target)
{
    if (cfg_.events) {
        JsonWriter j;
        j.field("ts", u64(now));
        j.field("type", "shed");
        j.field("req", req.id);
        j.field("tenant", tenant);
        j.field("priority", u64(req.priority));
        j.field("pipeline", req.pipeline);
        j.field("arrival", u64(req.arrival));
        j.field("reason", reason);
        j.field("shed_level", u64(shedLevel));
        j.field("window_p99", windowP99);
        if (routed) {
            j.field("device", u64(device));
            j.field("wait_est_cycles", u64(waitEst));
            j.field("own_est_cycles", u64(ownEst));
            j.field("target_cycles", u64(target));
        }
        appendEvent(j);
    }
    if (Tracer::active(fleet_.get())) {
        fleet_->instantArg(fleetReqTrack_, TraceEv::kReqShed, now, req.id);
        fleet_->asyncEnd(fleetReqTrack_, TraceEv::kRequest, now, req.id);
    }
}

void
FleetObserver::onRoute(Cycle now, const ServeRequest &req,
                       const std::string &tenant,
                       const std::string &policy, u32 device,
                       bool cacheHit,
                       const std::vector<DeviceLoadView> &views)
{
    if (cfg_.events) {
        JsonWriter j;
        j.field("ts", u64(now));
        j.field("type", "route");
        j.field("req", req.id);
        j.field("tenant", tenant);
        j.field("priority", u64(req.priority));
        j.field("pipeline", req.pipeline);
        j.field("arrival", u64(req.arrival));
        j.field("policy", policy);
        j.field("device", u64(device));
        j.field("cache_hit", cacheHit);
        j.key("candidates").beginArray();
        for (const DeviceLoadView &v : views) {
            j.beginObject();
            j.field("device", u64(v.device));
            j.field("free_slots", u64(v.freeSlots));
            j.field("queue_depth", v.queueDepth);
            j.field("backlog_cycles", u64(v.backlogCycles));
            j.field("cache_hot", v.cacheHot);
            j.endObject();
        }
        j.endArray();
        appendEvent(j);
    }
    if (Tracer::active(fleet_.get()))
        fleet_->instantArg(fleetRouterTrack_, TraceEv::kFleetRoute, now,
                           req.id);
    Tracer *dt = deviceTracer(device);
    if (Tracer::active(dt)) {
        dt->asyncBegin(devReqTrack_[device], TraceEv::kReqQueued, now,
                       req.id);
        dt->instantArg(devReqTrack_[device],
                       cacheHit ? TraceEv::kCacheHit : TraceEv::kCacheMiss,
                       now, req.id);
    }
}

void
FleetObserver::onBatch(Cycle now, u32 device, i64 batchId,
                       const std::string &pipeline,
                       const std::vector<u64> &members,
                       Cycle windowCycles, Cycle execStart,
                       const char *fill)
{
    if (cfg_.events) {
        JsonWriter j;
        j.field("ts", u64(now));
        j.field("type", "batch");
        j.field("device", u64(device));
        j.field("batch", u64(batchId));
        j.field("pipeline", pipeline);
        j.key("members").beginArray();
        for (u64 m : members)
            j.value(m);
        j.endArray();
        j.field("window_cycles", u64(windowCycles));
        j.field("exec_start", u64(execStart));
        j.field("fill", fill);
        appendEvent(j);
    }
    Tracer *dt = deviceTracer(device);
    if (Tracer::active(dt)) {
        u64 id = kBatchIdBase + u64(batchId);
        dt->asyncBegin(devBatchTrack_[device], TraceEv::kReqBatch,
                       now - windowCycles, id, dt->label(pipeline));
        dt->asyncEnd(devBatchTrack_[device], TraceEv::kReqBatch,
                     execStart, id);
    }
}

void
FleetObserver::onDispatch(Cycle now, u64 req, const std::string &pipeline,
                          u32 device, u32 slot, u32 kernel, bool resume,
                          i64 batchId, Cycle launchStart, Cycle execStart,
                          Cycle compileCycles, Cycle heldCycles)
{
    if (cfg_.events) {
        JsonWriter j;
        j.field("ts", u64(now));
        j.field("type", "dispatch");
        j.field("req", req);
        j.field("device", u64(device));
        j.field("slot", u64(slot));
        j.field("kernel", u64(kernel));
        j.field("resume", resume);
        j.field("batch", i64(batchId));
        j.field("launch_start", u64(launchStart));
        j.field("exec_start", u64(execStart));
        j.field("compile_cycles", u64(compileCycles));
        j.field("held_cycles", u64(heldCycles));
        appendEvent(j);
    }
    Tracer *dt = deviceTracer(device);
    if (Tracer::active(dt)) {
        u32 tr = devReqTrack_[device];
        dt->asyncEnd(tr, TraceEv::kReqQueued, now, req);
        if (compileCycles > 0) {
            dt->asyncBegin(tr, TraceEv::kReqCompile, now, req);
            dt->asyncEnd(tr, TraceEv::kReqCompile, now + compileCycles,
                         req);
        }
        if (resume)
            dt->instantArg(tr, TraceEv::kReqResume, now, req);
        dt->asyncBegin(tr, TraceEv::kReqExecute, execStart, req,
                       dt->label(pipeline));
    }
}

void
FleetObserver::onPreempt(Cycle now, u64 req, u32 device, u32 slot,
                         u32 nextKernel, Cycle doneExec, u64 ckptBytes,
                         u64 higherPending)
{
    if (cfg_.events) {
        JsonWriter j;
        j.field("ts", u64(now));
        j.field("type", "preempt");
        j.field("req", req);
        j.field("device", u64(device));
        j.field("slot", u64(slot));
        j.field("kernel", u64(nextKernel));
        j.field("done_exec_cycles", u64(doneExec));
        j.field("ckpt_bytes", ckptBytes);
        j.field("higher_pending", higherPending);
        appendEvent(j);
    }
    Tracer *dt = deviceTracer(device);
    if (Tracer::active(dt)) {
        u32 tr = devReqTrack_[device];
        dt->instantArg(tr, TraceEv::kReqPreempt, now, req);
        dt->asyncEnd(tr, TraceEv::kReqExecute, now, req);
        dt->asyncBegin(tr, TraceEv::kReqQueued, now, req);
    }
}

void
FleetObserver::onComplete(Cycle now, u64 req, u32 device, u32 slot,
                          i64 batchId, Cycle execCycles,
                          Cycle queueCycles, Cycle totalCycles,
                          u32 preemptions)
{
    if (cfg_.events) {
        JsonWriter j;
        j.field("ts", u64(now));
        j.field("type", "complete");
        j.field("req", req);
        j.field("device", u64(device));
        j.field("slot", u64(slot));
        j.field("batch", i64(batchId));
        j.field("exec_cycles", u64(execCycles));
        j.field("queue_cycles", u64(queueCycles));
        j.field("total_cycles", u64(totalCycles));
        j.field("preemptions", u64(preemptions));
        appendEvent(j);
    }
    Tracer *dt = deviceTracer(device);
    if (Tracer::active(dt))
        dt->asyncEnd(devReqTrack_[device], TraceEv::kReqExecute, now,
                     req);
    if (Tracer::active(fleet_.get()))
        fleet_->asyncEnd(fleetReqTrack_, TraceEv::kRequest, now, req);
}

void
FleetObserver::exportChromeJson(std::ostream &os) const
{
    if (!fleet_)
        fatal("fleet trace export requested but tracing is off");
    std::vector<TraceProcess> procs;
    procs.push_back({fleet_.get(), 0, "fleet"});
    for (u32 d = 0; d < devs_.size(); ++d)
        procs.push_back(
            {devs_[d].get(), 1 + d, "dev" + std::to_string(d)});
    exportChromeJsonMulti(os, procs);
}

void
FleetObserver::writeEvents(std::ostream &os) const
{
    os << events_;
}

void
FleetObserver::metricsJson(JsonWriter &w) const
{
    w.beginObject();
    w.field("interval", u64(cfg_.sampleInterval));
    w.field("capacity", u64(cfg_.sampleCapacity));
    w.field("backend", backend_);
    w.key("devices").beginArray();
    if (!samplers_.empty()) {
        for (u32 d = 0; d < devices_; ++d) {
            w.beginObject();
            w.field("device", u64(d));
            w.key("slots").beginArray();
            for (u32 s = 0; s < slotsPer_; ++s) {
                const MetricsSampler *ms =
                    samplers_[size_t(d) * slotsPer_ + s].get();
                w.beginObject();
                w.field("slot", u64(s));
                w.key("series");
                ms->toJson(w);
                w.endObject();
            }
            w.endArray();
            w.endObject();
        }
    }
    w.endArray();
    w.endObject();
}

std::string
FleetObserver::prometheusText() const
{
    PrometheusWriter pw;
    pw.help("ipim_fleet_obs_events", "Decision event log records");
    pw.type("ipim_fleet_obs_events", "counter");
    pw.metric("ipim_fleet_obs_events", f64(eventCount_));

    if (fleet_) {
        pw.help("ipim_fleet_trace_events",
                "Recorded trace events per process");
        pw.type("ipim_fleet_trace_events", "counter");
        pw.metric("ipim_fleet_trace_events", f64(fleet_->recorded()),
                  {{"process", "fleet"}});
        for (u32 d = 0; d < devs_.size(); ++d)
            pw.metric("ipim_fleet_trace_events",
                      f64(devs_[d]->recorded()),
                      {{"process", "dev" + std::to_string(d)}});
    }

    if (!samplers_.empty()) {
        pw.help("ipim_fleet_device_samples",
                "Metric samples taken per device (all slots)");
        pw.type("ipim_fleet_device_samples", "counter");
        for (u32 d = 0; d < devices_; ++d) {
            u64 n = 0;
            for (u32 s = 0; s < slotsPer_; ++s)
                n += samplers_[size_t(d) * slotsPer_ + s]->samplesTotal();
            pw.metric("ipim_fleet_device_samples", f64(n),
                      {{"device", std::to_string(d)}});
        }

        // Per-device and fleet-rollup totals of every tracked counter
        // over the retained windows.
        const auto &names = samplers_.front()->counterNames();
        pw.help("ipim_fleet_device_sampled",
                "Retained sampled-counter total per device");
        pw.type("ipim_fleet_device_sampled", "counter");
        std::vector<f64> rollup(names.size(), 0.0);
        for (u32 d = 0; d < devices_; ++d) {
            for (size_t c = 0; c < names.size(); ++c) {
                f64 sum = 0.0;
                for (u32 s = 0; s < slotsPer_; ++s)
                    for (f64 v :
                         samplers_[size_t(d) * slotsPer_ + s]
                             ->counterSeries(names[c]))
                        sum += v;
                rollup[c] += sum;
                pw.metric("ipim_fleet_device_sampled", sum,
                          {{"device", std::to_string(d)},
                           {"counter", names[c]}});
            }
        }
        pw.help("ipim_fleet_sampled",
                "Retained sampled-counter total over the fleet");
        pw.type("ipim_fleet_sampled", "counter");
        for (size_t c = 0; c < names.size(); ++c)
            pw.metric("ipim_fleet_sampled", rollup[c],
                      {{"counter", names[c]}});
    }
    return pw.str();
}

} // namespace ipim

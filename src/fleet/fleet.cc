#include "fleet/fleet.h"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <utility>

#include <cmath>

#include "apps/benchmarks.h"
#include "common/logging.h"
#include "fleet/observer.h"
#include "metrics/prometheus.h"
#include "runtime/transfer.h"

namespace ipim {

namespace {

constexpr Cycle kNever = std::numeric_limits<Cycle>::max();

std::string
fmtMs(f64 cycles)
{
    std::ostringstream s;
    s.precision(3);
    s << std::fixed << cycles * 1e-6 << " ms";
    return s.str();
}

/** Scatter every input image exactly as the runtimes do, so the initial
 *  bank state is bit-identical to a standalone launch of the same
 *  request. */
template <typename Dev>
void
scatterInputs(Dev &dev, const CompiledPipeline &pipe,
              const std::map<std::string, Image> &inputs)
{
    for (const StageInfo &s : pipe.analysis->stages) {
        if (!s.func->isInput())
            continue;
        auto it = inputs.find(s.func->name());
        if (it == inputs.end())
            fatal("fleet: input '", s.func->name(), "' not bound");
        scatterImageTo(dev, pipe.layouts->of(s.func), it->second);
    }
}

template <typename Dev>
Image
gatherOutput(Dev &dev, const CompiledPipeline &pipe)
{
    const Layout &outL = pipe.layouts->of(pipe.def.output);
    int h = pipe.def.output->dims() == 2 ? pipe.def.height : 1;
    return gatherImageFrom(dev, outL, pipe.def.width, h);
}

void
latencyJson(JsonWriter &w, const std::string &key,
            const LatencyHistogram &h)
{
    w.key(key).beginObject();
    w.field("count", h.count());
    if (h.count() > 0) {
        w.field("mean", h.mean());
        w.field("min", h.min());
        w.field("max", h.max());
        w.field("p50", h.percentile(50));
        w.field("p95", h.percentile(95));
        w.field("p99", h.percentile(99));
    }
    w.endObject();
}

} // namespace

f64
FleetReport::throughputRps() const
{
    if (makespan == 0)
        return 0.0;
    return f64(completed) / (f64(makespan) * 1e-9);
}

std::string
FleetReport::summary() const
{
    std::ostringstream out;
    out << "fleet served " << completed << "/" << records.size()
        << " requests (" << shedTotal << " shed) in "
        << fmtMs(f64(makespan)) << " of virtual time ("
        << u64(throughputRps()) << " req/s)\n";
    auto line = [&](const char *what, const LatencyHistogram &h) {
        if (h.count() == 0)
            return;
        out << "  " << what << " latency: p50 " << fmtMs(h.percentile(50))
            << " | p95 " << fmtMs(h.percentile(95)) << " | p99 "
            << fmtMs(h.percentile(99)) << " | mean " << fmtMs(h.mean())
            << "\n";
    };
    line("total", totalLatency);
    line("queue", queueLatency);
    out << "  batches: " << batches << " (" << batchedRequests
        << " requests) | preemptions: " << preemptions << "\n";
    u64 hits = 0;
    u64 compiles = 0;
    u64 evictions = 0;
    for (const DeviceReport &d : devices) {
        hits += d.cacheHits;
        compiles += d.cacheCompiles;
        evictions += d.cacheEvictions;
    }
    out << "  program cache: " << compiles << " compiles, " << hits
        << " hits, " << evictions << " evictions over " << devices.size()
        << " devices\n";
    if (estimatorSamples > 0) {
        // Only integers and preformatted strings follow, so the
        // precision change cannot leak into later fields.
        out.precision(1);
        out << std::fixed << "  estimator error vs measured: mean "
            << estimatorMeanAbsRelErr * 100 << "% | max "
            << estimatorMaxAbsRelErr * 100 << "% over "
            << estimatorSamples << " requests\n";
    }
    for (const TenantReport &t : tenants) {
        out << "  tenant " << t.name << ": " << t.completed
            << " done, " << t.shed << " shed";
        if (t.totalLatency.count() > 0)
            out << ", p99 " << fmtMs(t.totalLatency.percentile(99));
        out << "\n";
    }
    return out.str();
}

void
FleetReport::toJson(JsonWriter &w, const FleetConfig &cfg) const
{
    w.field("schema", "ipim-serve-fleet-v1");

    w.key("fleet").beginObject();
    w.field("devices", u64(devices.size()));
    w.field("slots_per_device",
            u64(cfg.hw.cubes / cfg.cubesPerRequest));
    w.field("backend", cfg.backend);
    w.field("router", cfg.router);
    w.field("policy", cfg.policy);
    w.field("batching", cfg.batching);
    w.field("max_batch", u64(cfg.maxBatch));
    w.field("batch_window_cycles", u64(cfg.batchWindowCycles));
    w.field("preempt", cfg.preempt);
    w.field("shed_p99_cycles", u64(cfg.shedP99Cycles));
    w.field("slo_window_cycles", u64(cfg.sloWindowCycles));
    w.field("launch_overhead_cycles", u64(cfg.launchOverheadCycles));
    w.field("compile_cycles_per_inst", u64(cfg.compileCyclesPerInst));
    w.field("cache_capacity", u64(cfg.cacheCapacity));
    w.field("threads", u64(cfg.threads));
    w.field("fast_forward", cfg.fastForward);
    w.endObject();

    w.field("requests_total", u64(records.size()));
    w.field("admitted", admitted);
    w.field("completed", completed);
    w.field("shed", shedTotal);
    w.field("batches", batches);
    w.field("batched_requests", batchedRequests);
    w.field("preemptions", preemptions);
    w.field("makespan_cycles", u64(makespan));
    w.field("throughput_rps", throughputRps());

    // Fast-forward telemetry summed over the fleet (all zero on the
    // func backend).
    u64 ffwdJumps = 0;
    u64 ffwdSkipped = 0;
    for (const DeviceReport &d : devices) {
        ffwdJumps += d.ffwdJumps;
        ffwdSkipped += d.ffwdSkippedCycles;
    }
    w.key("fast_forward").beginObject();
    w.field("enabled", cfg.fastForward);
    w.field("jumps", ffwdJumps);
    w.field("skipped_cycles", ffwdSkipped);
    w.endObject();

    latencyJson(w, "total_latency", totalLatency);
    latencyJson(w, "queue_latency", queueLatency);
    latencyJson(w, "exec_latency", execLatency);

    w.key("slo");
    slo.toJson(w, makespan);

    w.key("per_device").beginArray();
    for (size_t d = 0; d < devices.size(); ++d) {
        const DeviceReport &dr = devices[d];
        w.beginObject();
        w.field("device", u64(d));
        w.field("requests", dr.requests);
        w.field("batches", dr.batches);
        w.field("preemptions", dr.preemptions);
        w.field("busy_cycles", u64(dr.busyCycles));
        w.field("ffwd_jumps", dr.ffwdJumps);
        w.field("ffwd_skipped_cycles", dr.ffwdSkippedCycles);
        w.key("cache").beginObject();
        w.field("hits", dr.cacheHits);
        w.field("compiles", dr.cacheCompiles);
        w.field("evictions", dr.cacheEvictions);
        w.field("entries", dr.cacheEntries);
        w.endObject();
        latencyJson(w, "total_latency", dr.totalLatency);
        w.endObject();
    }
    w.endArray();

    w.key("per_tenant").beginArray();
    for (const TenantReport &t : tenants) {
        w.beginObject();
        w.field("name", t.name);
        w.field("weight", t.weight);
        w.field("priority", u64(t.priority));
        w.field("admitted", t.admitted);
        w.field("completed", t.completed);
        w.field("shed", t.shed);
        w.field("shed_breach", t.shedBreach);
        w.field("shed_backlog", t.shedBacklog);
        w.field("served_cycles", u64(t.servedCycles));
        latencyJson(w, "total_latency", t.totalLatency);
        w.endObject();
    }
    w.endArray();

    w.key("requests").beginArray();
    for (const FleetRequestRecord &r : records) {
        w.beginObject();
        w.field("id", r.id);
        w.field("pipeline", r.pipeline);
        w.field("tenant", u64(r.tenant));
        w.field("priority", u64(r.priority));
        w.field("arrival", u64(r.arrival));
        w.field("shed", r.shed);
        if (r.shed) {
            w.field("shed_reason", r.shedReason);
        } else {
            w.field("device", u64(r.device));
            w.field("slot", u64(r.slot));
            w.field("batch", i64(r.batch));
            w.field("preemptions", u64(r.preemptions));
            w.field("start", u64(r.start));
            w.field("finish", u64(r.finish));
            w.field("exec_cycles", u64(r.execCycles));
            w.field("compile_cycles", u64(r.compileCycles));
            w.field("overhead_cycles", u64(r.overheadCycles));
            w.field("cache_hit", r.cacheHit);
            w.field("queue_cycles", u64(r.queueCycles()));
            w.field("total_cycles", u64(r.totalCycles()));
        }
        w.endObject();
    }
    w.endArray();

    w.statsObject("stats", stats);
}

std::string
FleetReport::prometheusText() const
{
    PrometheusWriter pw;
    auto counter = [&](const std::string &name, const std::string &help,
                       f64 v) {
        pw.help(name, help);
        pw.type(name, "counter");
        pw.metric(name, v);
    };
    auto gauge = [&](const std::string &name, const std::string &help,
                     f64 v) {
        pw.help(name, help);
        pw.type(name, "gauge");
        pw.metric(name, v);
    };

    gauge("ipim_fleet_devices", "Devices in the fleet",
          f64(devices.size()));
    counter("ipim_fleet_requests_total", "Requests offered to the fleet",
            f64(records.size()));
    counter("ipim_fleet_admitted_total", "Requests admitted",
            f64(admitted));
    counter("ipim_fleet_completed_total", "Requests completed",
            f64(completed));
    counter("ipim_fleet_shed_total", "Requests shed at admission",
            f64(shedTotal));
    counter("ipim_fleet_batches_total", "Coalesced multi-request launches",
            f64(batches));
    counter("ipim_fleet_batched_requests_total",
            "Requests launched as part of a batch", f64(batchedRequests));
    counter("ipim_fleet_preemptions_total",
            "Kernel-boundary preemptions", f64(preemptions));
    gauge("ipim_fleet_makespan_cycles", "Virtual-time makespan",
          f64(makespan));
    gauge("ipim_fleet_throughput_rps",
          "Completed requests per second of virtual time",
          throughputRps());

    pw.summary("ipim_fleet_latency_cycles", totalLatency,
               "Fleet-wide admitted-request latency (cycles)");
    pw.summary("ipim_fleet_queue_cycles", queueLatency,
               "Fleet-wide queue wait (cycles)");

    auto family = [&](const std::string &name, const std::string &help,
                      const std::string &type) {
        pw.help(name, help);
        pw.type(name, type);
    };
    family("ipim_fleet_device_requests_total",
           "Completions per device", "counter");
    for (size_t d = 0; d < devices.size(); ++d)
        pw.metric("ipim_fleet_device_requests_total",
                  f64(devices[d].requests),
                  {{"device", std::to_string(d)}});
    family("ipim_fleet_device_busy_cycles",
           "Executed device cycles per device", "gauge");
    for (size_t d = 0; d < devices.size(); ++d)
        pw.metric("ipim_fleet_device_busy_cycles",
                  f64(devices[d].busyCycles),
                  {{"device", std::to_string(d)}});
    family("ipim_fleet_cache_hits_total",
           "Program-cache hits per device", "counter");
    for (size_t d = 0; d < devices.size(); ++d)
        pw.metric("ipim_fleet_cache_hits_total", f64(devices[d].cacheHits),
                  {{"device", std::to_string(d)}});
    family("ipim_fleet_cache_compiles_total",
           "Program-cache compiles per device", "counter");
    for (size_t d = 0; d < devices.size(); ++d)
        pw.metric("ipim_fleet_cache_compiles_total",
                  f64(devices[d].cacheCompiles),
                  {{"device", std::to_string(d)}});
    family("ipim_fleet_cache_evictions_total",
           "Program-cache LRU evictions per device", "counter");
    for (size_t d = 0; d < devices.size(); ++d)
        pw.metric("ipim_fleet_cache_evictions_total",
                  f64(devices[d].cacheEvictions),
                  {{"device", std::to_string(d)}});
    family("ipim_fleet_cache_entries",
           "Resident program-cache entries per device", "gauge");
    for (size_t d = 0; d < devices.size(); ++d)
        pw.metric("ipim_fleet_cache_entries", f64(devices[d].cacheEntries),
                  {{"device", std::to_string(d)}});
    family("ipim_fleet_device_ffwd_jumps_total",
           "Fast-forward jumps per device", "counter");
    for (size_t d = 0; d < devices.size(); ++d)
        pw.metric("ipim_fleet_device_ffwd_jumps_total",
                  f64(devices[d].ffwdJumps),
                  {{"device", std::to_string(d)}});
    family("ipim_fleet_device_ffwd_skipped_cycles_total",
           "Fast-forwarded (skipped) cycles per device", "counter");
    for (size_t d = 0; d < devices.size(); ++d)
        pw.metric("ipim_fleet_device_ffwd_skipped_cycles_total",
                  f64(devices[d].ffwdSkippedCycles),
                  {{"device", std::to_string(d)}});

    family("ipim_fleet_tenant_admitted_total",
           "Admitted requests per tenant", "counter");
    for (const TenantReport &t : tenants)
        pw.metric("ipim_fleet_tenant_admitted_total", f64(t.admitted),
                  {{"tenant", t.name}});
    family("ipim_fleet_tenant_completed_total",
           "Completed requests per tenant", "counter");
    for (const TenantReport &t : tenants)
        pw.metric("ipim_fleet_tenant_completed_total", f64(t.completed),
                  {{"tenant", t.name}});
    family("ipim_fleet_tenant_shed_total",
           "Shed requests per tenant and reason", "counter");
    for (const TenantReport &t : tenants) {
        pw.metric("ipim_fleet_tenant_shed_total", f64(t.shedBreach),
                  {{"tenant", t.name}, {"reason", "p99_breach"}});
        pw.metric("ipim_fleet_tenant_shed_total", f64(t.shedBacklog),
                  {{"tenant", t.name}, {"reason", "backlog"}});
    }
    family("ipim_fleet_tenant_served_cycles",
           "Device cycles executed per tenant", "gauge");
    for (const TenantReport &t : tenants)
        pw.metric("ipim_fleet_tenant_served_cycles", f64(t.servedCycles),
                  {{"tenant", t.name}});

    // Fleet-level SLO windows (merged sample-exactly from the
    // per-device trackers) use their own ipim_serve_* families.
    return pw.str() + slo.prometheusText(makespan);
}

FleetServer::FleetServer(const FleetConfig &cfg) : cfg_(cfg)
{
    cfg_.hw.validate();
    if (cfg_.devices == 0)
        fatal("fleet needs at least one device");
    u32 per = cfg_.cubesPerRequest;
    if (per == 0 || per > cfg_.hw.cubes)
        fatal("cubesPerRequest ", per, " invalid for ", cfg_.hw.cubes,
              " cubes");
    if (cfg_.hw.cubes % per != 0)
        fatal("cubesPerRequest ", per, " must divide cube count ",
              cfg_.hw.cubes);
    if (cfg_.backend != "cycle" && cfg_.backend != "func")
        fatal("unknown backend '", cfg_.backend, "' (cycle | func)");

    tenants_ = cfg_.tenants;
    if (tenants_.empty())
        tenants_.push_back(TenantSpec{});
    for (const TenantSpec &t : tenants_) {
        if (t.weight <= 0.0)
            fatal("tenant '", t.name, "' needs a positive weight");
        maxPriority_ = std::max(maxPriority_, t.priority);
    }

    router_ = makeRouter(cfg_.router, cfg_.devices);
    intra_ = makeScheduler(cfg_.policy);

    HardwareConfig sc = slotConfig();
    u32 slotsPer = cfg_.hw.cubes / per;
    if (cfg_.observer)
        cfg_.observer->attach(cfg_.devices, slotsPer, cfg_.backend,
                              cfg_.router, cfg_.policy);
    // Size the vector once up front: DeviceState holds a StatsRegistry
    // that per-device ProgramCaches point into, so elements must never
    // relocate after the caches are wired up in run().
    devs_.resize(cfg_.devices);
    for (u32 d = 0; d < cfg_.devices; ++d) {
        DeviceState &ds = devs_[d];
        for (u32 s = 0; s < slotsPer; ++s) {
            Slot slot;
            if (cfg_.backend == "func") {
                slot.fdev = std::make_unique<FuncDevice>(sc);
            } else {
                // All slots of one device share that device's tracer
                // (its own trace pid), each under a "slot<s>/" track
                // prefix — same-named tracks on other devices live in
                // other pids, so nothing aliases.
                Tracer *tracer = cfg_.observer
                                     ? cfg_.observer->deviceTracer(d)
                                     : nullptr;
                slot.dev = std::make_unique<Device>(
                    sc, tracer, "slot" + std::to_string(s) + "/");
                slot.dev->setFastForward(cfg_.fastForward);
                slot.dev->setThreads(cfg_.threads);
                if (cfg_.observer)
                    slot.dev->setProbe(
                        cfg_.observer->slotSampler(d, s));
            }
            ds.slots.push_back(std::move(slot));
        }
        ds.running.resize(slotsPer);
    }
}

FleetServer::~FleetServer() = default;

u32
FleetServer::slotsPerDevice() const
{
    return cfg_.hw.cubes / cfg_.cubesPerRequest;
}

HardwareConfig
FleetServer::slotConfig() const
{
    HardwareConfig c = cfg_.hw;
    c.cubes = cfg_.cubesPerRequest;
    return c;
}

FleetReport
FleetServer::run(const std::vector<ServeRequest> &requests)
{
    FleetObserver *obs = cfg_.observer;
    if (obs)
        obs->beginRun();

    FleetReport rep;
    rep.slo = SloTracker(cfg_.sloWindowCycles);
    rep.devices.reserve(devs_.size());
    for (size_t d = 0; d < devs_.size(); ++d) {
        FleetReport::DeviceReport dr;
        dr.slo = SloTracker(cfg_.sloWindowCycles);
        rep.devices.push_back(std::move(dr));
    }
    rep.tenants.reserve(tenants_.size());
    for (const TenantSpec &t : tenants_) {
        FleetReport::TenantReport tr;
        tr.name = t.name;
        tr.weight = t.weight;
        tr.priority = t.priority;
        rep.tenants.push_back(std::move(tr));
    }

    // Per-run state: caches (so hit/miss counters land in this report),
    // queues, and the launch dispatcher clocks all start fresh.
    for (DeviceState &ds : devs_) {
        ds.pend.clear();
        for (std::unique_ptr<Running> &r : ds.running)
            r.reset();
        ds.launcherFreeAt = 0;
        ds.cacheStats.clear();
        ds.cache = std::make_unique<ProgramCache>(&ds.cacheStats);
        ds.cache->setCapacity(cfg_.cacheCapacity);
    }

    HardwareConfig slotCfg = slotConfig();
    u32 slotsPer = slotsPerDevice();

    std::vector<ServeRequest> sorted = requests;
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const ServeRequest &a, const ServeRequest &b) {
                         return a.arrival != b.arrival
                                    ? a.arrival < b.arrival
                                    : a.id < b.id;
                     });

    u32 maxPrio = maxPriority_;
    for (const ServeRequest &r : sorted) {
        if (r.tenant >= tenants_.size())
            fatal("request ", r.id, ": tenant ", r.tenant,
                  " outside the tenant table (", tenants_.size(),
                  " entries)");
        maxPrio = std::max(maxPrio, r.priority);
    }

    std::vector<Cycle> served(tenants_.size(), 0);
    size_t next = 0;
    Cycle now = 0;
    u64 nextBatch = 0;

    // Adaptive shed level: requests with priority < shedLevel are
    // rejected at admission.  Raised one step per breached (or starved)
    // SLO window, lowered one step per healthy one — lowest-priority
    // traffic is always the first to go and the last to come back.
    u32 shedLevel = 0;
    u64 shedEval = 0; // next tumbling-window index to evaluate
    f64 lastWindowP99 = 0.0; // of the last evaluated non-empty window
    std::map<u64, LatencyHistogram> windowLat;

    auto estRemaining = [&](const Pending &p) -> Cycle {
        Cycle est = p.program->estimate();
        Cycle remExec = est > p.doneExec ? est - p.doneExec : Cycle(1);
        return p.compileCycles + remExec;
    };

    auto runRemaining = [&](const Running &r) -> Cycle {
        Cycle est = r.p.program->estimate();
        Cycle past = r.p.doneExec + r.curKernelCycles;
        Cycle tail = est > past ? est - past : Cycle(0);
        Cycle cur = r.boundaryAt > now ? r.boundaryAt - now : Cycle(0);
        return cur + tail;
    };

    auto loadViews = [&](const std::string &key) {
        std::vector<DeviceLoadView> views;
        views.reserve(devs_.size());
        for (size_t d = 0; d < devs_.size(); ++d) {
            const DeviceState &ds = devs_[d];
            DeviceLoadView v;
            v.device = u32(d);
            v.slots = slotsPer;
            Cycle backlog = 0;
            for (const std::unique_ptr<Running> &r : ds.running) {
                if (r)
                    backlog += runRemaining(*r);
                else
                    ++v.freeSlots;
            }
            for (const Pending &p : ds.pend)
                backlog += estRemaining(p);
            v.queueDepth = ds.pend.size();
            v.backlogCycles = backlog;
            v.cacheHot = ds.cache->contains(key);
            views.push_back(v);
        }
        return views;
    };

    auto anyWorkInFlight = [&]() {
        for (const DeviceState &ds : devs_) {
            if (!ds.pend.empty())
                return true;
            for (const std::unique_ptr<Running> &r : ds.running)
                if (r)
                    return true;
        }
        return false;
    };

    auto updateShedLevel = [&]() {
        if (cfg_.shedP99Cycles == 0)
            return;
        u64 cur = now / cfg_.sloWindowCycles;
        while (shedEval < cur) {
            auto it = windowLat.find(shedEval);
            bool breach = false;
            if (it != windowLat.end() && it->second.count() > 0) {
                lastWindowP99 = it->second.percentile(99);
                breach = lastWindowP99 > f64(cfg_.shedP99Cycles);
                windowLat.erase(it);
            } else {
                // A window in which nothing completed while work was in
                // flight means latencies have outgrown the window — at
                // least as alarming as a measured breach.
                breach = anyWorkInFlight();
            }
            if (breach)
                shedLevel = std::min(shedLevel + 1, maxPrio + 1);
            else if (shedLevel > 0)
                --shedLevel;
            ++shedEval;
        }
    };

    auto admit = [&](const ServeRequest &req) {
        size_t recIdx = rep.records.size();
        FleetRequestRecord rec;
        rec.id = req.id;
        rec.pipeline = req.pipeline;
        rec.tenant = req.tenant;
        rec.priority = req.priority;
        rec.arrival = req.arrival;
        rep.records.push_back(std::move(rec));
        FleetRequestRecord &r = rep.records.back();
        FleetReport::TenantReport &tr = rep.tenants[req.tenant];
        if (obs)
            obs->onOffered(req, tr.name);

        auto shed = [&](const char *reason) {
            r.shed = true;
            r.shedReason = reason;
            ++rep.shedTotal;
            ++tr.shed;
            if (r.shedReason == "p99_breach")
                ++tr.shedBreach;
            else
                ++tr.shedBacklog;
        };

        updateShedLevel();
        if (cfg_.shedP99Cycles != 0 && req.priority < shedLevel) {
            shed("p99_breach");
            if (obs)
                obs->onShed(now, req, tr.name, "p99_breach", shedLevel,
                            lastWindowP99, false, 0, 0, 0,
                            cfg_.shedP99Cycles);
            return;
        }

        std::string key = ProgramCache::makeKey(
            req.pipeline, cfg_.width, cfg_.height, slotCfg, cfg_.copts);
        std::vector<DeviceLoadView> views = loadViews(key);
        u32 d = router_->route(key, views);
        DeviceState &ds = devs_[d];

        Pending p;
        p.req = req;
        u64 missesBefore = ds.cache->compiles();
        int w = cfg_.width;
        int h = cfg_.height;
        p.program = ds.cache->getShared(
            req.pipeline, w, h, slotCfg, cfg_.copts,
            [&]() { return makeBenchmark(req.pipeline, w, h).def; });
        p.cacheHit = ds.cache->compiles() == missesBefore;
        p.compileCycles =
            p.cacheHit ? 0
                       : cfg_.compileCyclesPerInst *
                             p.program->compiled.totalInstructions();
        p.recIdx = recIdx;
        r.device = d;
        r.cacheHit = p.cacheHit;

        if (cfg_.shedP99Cycles != 0) {
            // Backlog admission guard: if even an optimistic wait
            // estimate (equal-or-higher-priority work ahead of it,
            // spread over all slots) blows the target, shedding now is
            // kinder than admitting a request doomed to breach.
            Cycle ahead = 0;
            for (const Pending &q : ds.pend)
                if (q.req.priority >= req.priority)
                    ahead += estRemaining(q) + cfg_.launchOverheadCycles;
            for (const std::unique_ptr<Running> &run : ds.running)
                if (run)
                    ahead += runRemaining(*run);
            Cycle waitEst = ahead / std::max<u32>(1, slotsPer);
            Cycle ownEst = p.compileCycles + p.program->estimate() +
                           cfg_.launchOverheadCycles;
            // Admit against HALF the target: the estimate can only see
            // work already queued, and during an overload onset an
            // equal amount of soon-to-arrive equal-or-higher-priority
            // work is typically still in flight toward this device.
            // The headroom keeps admitted requests inside the target
            // instead of exactly on (and in practice beyond) it.
            if (waitEst + ownEst > cfg_.shedP99Cycles / 2) {
                shed("backlog");
                if (obs)
                    obs->onShed(now, req, tr.name, "backlog", shedLevel,
                                lastWindowP99, true, d, waitEst, ownEst,
                                cfg_.shedP99Cycles);
                return;
            }
        }

        ++rep.admitted;
        ++tr.admitted;
        if (obs)
            obs->onRoute(now, req, tr.name, cfg_.router, d, p.cacheHit,
                         views);
        ds.pend.push_back(std::move(p));
    };

    // Strict priority class first, then weighted fair share across the
    // tenants of that class (smallest servedCycles/weight wins, ties to
    // the lowest tenant index), then the intra-tenant policy
    // (fifo | sjf) over that tenant's queue entries.
    auto pickNext = [&](DeviceState &ds) -> size_t {
        u32 top = 0;
        for (const Pending &p : ds.pend)
            top = std::max(top, p.req.priority);
        size_t bestT = SIZE_MAX;
        f64 bestRatio = 0.0;
        for (const Pending &p : ds.pend) {
            if (p.req.priority != top)
                continue;
            u32 t = p.req.tenant;
            f64 ratio = f64(served[t]) / tenants_[t].weight;
            if (bestT == SIZE_MAX || ratio < bestRatio ||
                (ratio == bestRatio && t < bestT)) {
                bestT = t;
                bestRatio = ratio;
            }
        }
        std::vector<size_t> subset;
        std::vector<PendingRequest> view;
        for (size_t i = 0; i < ds.pend.size(); ++i) {
            const Pending &p = ds.pend[i];
            if (p.req.priority != top || p.req.tenant != bestT)
                continue;
            subset.push_back(i);
            view.push_back(
                {p.req.id, p.req.arrival, estRemaining(p)});
        }
        return subset[intra_->pick(view)];
    };

    auto prepareSlot = [&](DeviceState &ds, u32 s, Pending &p) {
        Slot &slot = ds.slots[s];
        const CompiledPipeline &pipe = p.program->compiled;
        if (cfg_.backend == "func") {
            slot.fdev->reset();
            if (p.ckpt) {
                restoreCheckpoint(*slot.fdev, *p.ckpt);
                p.ckpt.reset();
            } else {
                BenchmarkApp app =
                    makeBenchmark(p.req.pipeline, cfg_.width,
                                  cfg_.height, p.req.inputSeed);
                scatterInputs(*slot.fdev, pipe, app.inputs);
            }
        } else {
            slot.dev->reset();
            if (p.ckpt) {
                restoreCheckpoint(*slot.dev, *p.ckpt);
                p.ckpt.reset();
            } else {
                BenchmarkApp app =
                    makeBenchmark(p.req.pipeline, cfg_.width,
                                  cfg_.height, p.req.inputSeed);
                scatterInputs(*slot.dev, pipe, app.inputs);
            }
        }
    };

    // Simulate one kernel of the running request and return its cycle
    // cost: measured on the cycle backend, the static cost model's
    // per-kernel estimate (scaled by any calibration) on the
    // functional one.  @p vstart is the kernel's start on the fleet
    // virtual timeline: observer tracers/samplers are offset by
    // (vstart - device-local clock) so everything recorded during the
    // run lands at fleet time.
    auto runKernel = [&](u32 d, u32 s, Running &r, Cycle vstart) -> Cycle {
        DeviceState &ds = devs_[d];
        Slot &slot = ds.slots[s];
        const CompiledPipeline &pipe = r.p.program->compiled;
        const CompiledKernel &k = pipe.kernels[r.p.nextKernel];
        if (cfg_.backend == "func") {
            slot.fdev->loadPrograms(k.perVault);
            slot.fdev->run();
            const std::vector<f64> &stat =
                estimator_.staticEstimates(pipe);
            f64 scaled =
                stat.at(r.p.nextKernel) * estimator_.scaleFor(pipe);
            return std::max<Cycle>(1, Cycle(std::llround(scaled)));
        }
        Device &dev = *slot.dev;
        Tracer *dt = obs ? obs->deviceTracer(d) : nullptr;
        MetricsSampler *ms = obs ? obs->slotSampler(d, s) : nullptr;
        Cycle off = vstart >= dev.now() ? vstart - dev.now() : 0;
        if (dt)
            dt->setTimeOffset(off);
        if (ms)
            ms->setTimeOffset(off);
        u64 sk0 = dev.ffwdSkippedCycles();
        u64 jp0 = dev.ffwdJumps();
        dev.loadPrograms(k.perVault);
        Cycle c = std::max<Cycle>(1, dev.run());
        rep.devices[d].ffwdSkippedCycles +=
            dev.ffwdSkippedCycles() - sk0;
        rep.devices[d].ffwdJumps += dev.ffwdJumps() - jp0;
        // Fleet-level spans are emitted at explicit virtual times;
        // leave the shared device tracer back at zero offset.
        if (dt)
            dt->setTimeOffset(0);
        return c;
    };

    auto dispatchDevice = [&](u32 d) {
        DeviceState &ds = devs_[d];
        while (!ds.pend.empty()) {
            std::vector<u32> free;
            for (u32 s = 0; s < slotsPer; ++s)
                if (!ds.running[s])
                    free.push_back(s);
            if (free.empty())
                break;

            size_t pi = pickNext(ds);
            std::vector<Pending> group;
            group.push_back(std::move(ds.pend[pi]));
            ds.pend.erase(ds.pend.begin() + ptrdiff_t(pi));

            // Opportunistic cross-request batching: same compiled
            // program (same cache entry), not yet started, coalesced
            // into one launch over this device's free slots.  Members
            // run on their own cube partitions and finish
            // independently — the shared cost is the single launch
            // overhead below.
            size_t cap = free.size();
            if (cfg_.maxBatch != 0)
                cap = std::min(cap, size_t(cfg_.maxBatch));
            if (cfg_.batching && group.front().nextKernel == 0 &&
                !group.front().ckpt) {
                for (size_t i = 0;
                     i < ds.pend.size() && group.size() < cap;) {
                    Pending &c = ds.pend[i];
                    if (c.program.get() == group.front().program.get() &&
                        c.nextKernel == 0 && !c.ckpt) {
                        group.push_back(std::move(c));
                        ds.pend.erase(ds.pend.begin() + ptrdiff_t(i));
                    } else {
                        ++i;
                    }
                }
            }

            // Launches on one device serialize through its host-link
            // dispatcher; a batch occupies it once for all members.
            Cycle compile = 0;
            for (const Pending &p : group)
                compile = std::max(compile, p.compileCycles);

            // Batch formation: a growable group waits for same-program
            // companions — up to batchWindowCycles from when its oldest
            // member first started waiting, or for free while the
            // launcher is busy anyway (launching then would start
            // execution at the same instant regardless).  "Growable"
            // means below the whole-device batch ceiling with evidence
            // of growth: either spare free slots (a new arrival could
            // join) or same-program companions already queued (a slot
            // freeing within the window lets them join).  Full groups
            // launch immediately; compile misses and resumed requests
            // never wait.
            size_t hardCap = size_t(slotsPer);
            if (cfg_.maxBatch != 0)
                hardCap = std::min(hardCap, size_t(cfg_.maxBatch));
            bool companions = false;
            for (const Pending &p : ds.pend)
                if (p.program.get() == group.front().program.get() &&
                    p.nextKernel == 0 && !p.ckpt)
                    companions = true;
            if (cfg_.batching && compile == 0 &&
                group.front().nextKernel == 0 &&
                group.size() < hardCap &&
                (companions || group.size() < cap)) {
                Cycle since = now;
                for (const Pending &p : group)
                    if (p.held)
                        since = std::min(since, p.heldSince);
                if (now < since + cfg_.batchWindowCycles ||
                    now < ds.launcherFreeAt) {
                    for (Pending &p : group) {
                        if (!p.held) {
                            p.held = true;
                            p.heldSince = now;
                        }
                    }
                    ds.pend.insert(ds.pend.begin(),
                                   std::make_move_iterator(group.begin()),
                                   std::make_move_iterator(group.end()));
                    break;
                }
            }

            // A zero-length launch takes no launcher slot: with
            // launchOverheadCycles == 0 a cache-hit launch never waits
            // behind an earlier miss's host compile, which is exactly
            // the single-device serving model (DESIGN.md Sec. 17).
            Cycle launchStart = now + compile;
            if (cfg_.launchOverheadCycles != 0) {
                launchStart = std::max(launchStart, ds.launcherFreeAt);
                ds.launcherFreeAt =
                    launchStart + cfg_.launchOverheadCycles;
            }
            Cycle execStart = launchStart + cfg_.launchOverheadCycles;

            i64 batchId = -1;
            if (group.size() > 1) {
                batchId = i64(nextBatch++);
                ++rep.batches;
                ++rep.devices[d].batches;
                rep.batchedRequests += group.size();
                if (obs) {
                    // Why did the batch stop growing?  Mirrors the
                    // hold-or-launch conditions above, in check order.
                    const char *fill = "window";
                    if (group.size() >= hardCap)
                        fill = "full";
                    else if (compile != 0)
                        fill = "compile";
                    else if (group.front().nextKernel != 0 ||
                             group.front().ckpt)
                        fill = "resume";
                    else if (!companions && group.size() >= cap)
                        fill = "slots";
                    Cycle since = now;
                    for (const Pending &p : group)
                        if (p.held)
                            since = std::min(since, p.heldSince);
                    std::vector<u64> members;
                    for (const Pending &p : group)
                        members.push_back(p.req.id);
                    obs->onBatch(now, d, batchId,
                                 group.front().req.pipeline, members,
                                 now - since, execStart, fill);
                }
            }

            for (size_t m = 0; m < group.size(); ++m) {
                u32 s = free[m];
                Pending p = std::move(group[m]);
                FleetRequestRecord &rec = rep.records[p.recIdx];
                bool resume = p.started;
                if (!p.started) {
                    p.started = true;
                    rec.start = now;
                }
                rec.device = d;
                rec.slot = s;
                if (batchId >= 0)
                    rec.batch = batchId;
                Cycle charged = p.compileCycles;
                p.compileCycles = 0;
                rec.compileCycles += charged;
                rec.overheadCycles += execStart - now - charged;
                if (obs)
                    obs->onDispatch(now, p.req.id, p.req.pipeline, d, s,
                                    p.nextKernel, resume, batchId,
                                    launchStart, execStart, charged,
                                    p.held ? now - p.heldSince : 0);

                prepareSlot(ds, s, p);
                auto r = std::make_unique<Running>();
                r->p = std::move(p);
                r->batchId = batchId;
                Cycle c = runKernel(d, s, *r, execStart);
                r->curKernelCycles = c;
                r->boundaryAt = execStart + c;
                ds.running[s] = std::move(r);
            }
        }
    };

    auto processBoundary = [&](u32 d, u32 s) {
        DeviceState &ds = devs_[d];
        Running &r = *ds.running[s];
        FleetRequestRecord &rec = rep.records[r.p.recIdx];
        const CompiledPipeline &pipe = r.p.program->compiled;

        r.p.doneExec += r.curKernelCycles;
        served[r.p.req.tenant] += r.curKernelCycles;
        rep.devices[d].busyCycles += r.curKernelCycles;
        ++r.p.nextKernel;

        if (r.p.nextKernel >= u32(pipe.kernels.size())) {
            Cycle finish = r.boundaryAt;
            rec.finish = finish;
            rec.execCycles = r.p.doneExec;
            rec.preemptions = r.p.preemptCount;
            if (cfg_.keepOutputs) {
                if (cfg_.backend == "func")
                    rec.output = gatherOutput(*ds.slots[s].fdev, pipe);
                else
                    rec.output = gatherOutput(*ds.slots[s].dev, pipe);
            }
            if (cfg_.backend == "cycle") {
                rep.stats.merge(ds.slots[s].dev->stats());
                // Estimator-error telemetry: how far the static cost
                // model was from this request's measured cycles
                // (DESIGN.md Sec. 16 calibration data).
                Cycle est = r.p.program->staticCycles;
                if (est > 0) {
                    f64 err = std::abs(f64(est) - f64(r.p.doneExec)) /
                              f64(r.p.doneExec);
                    ++rep.estimatorSamples;
                    rep.estimatorMeanAbsRelErr += err; // sum; mean later
                    rep.estimatorMaxAbsRelErr =
                        std::max(rep.estimatorMaxAbsRelErr, err);
                }
                r.p.program->recordMeasurement(r.p.doneExec);
                estimator_.recordMeasurement(pipe, f64(r.p.doneExec));
            }
            FleetReport::DeviceReport &dr = rep.devices[d];
            ++dr.requests;
            dr.slo.record(finish, rec.totalCycles(), rec.queueCycles(),
                          rec.cacheHit);
            dr.totalLatency.add(f64(rec.totalCycles()));
            FleetReport::TenantReport &tr = rep.tenants[r.p.req.tenant];
            ++tr.completed;
            tr.totalLatency.add(f64(rec.totalCycles()));
            ++rep.completed;
            if (cfg_.shedP99Cycles != 0)
                windowLat[finish / cfg_.sloWindowCycles].add(
                    f64(rec.totalCycles()));
            rep.makespan = std::max(rep.makespan, finish);
            if (obs)
                obs->onComplete(finish, rec.id, d, s, r.batchId,
                                rec.execCycles, rec.queueCycles(),
                                rec.totalCycles(), rec.preemptions);
            ds.running[s].reset();
            return;
        }

        // Preempt only when the higher-priority demand cannot be met by
        // the slots that are already free — otherwise a single urgent
        // arrival could evict every request whose boundary lands on
        // this instant.
        if (cfg_.preempt) {
            u32 freeCnt = 0;
            for (const std::unique_ptr<Running> &other : ds.running)
                if (!other)
                    ++freeCnt;
            u64 higher = 0;
            for (const Pending &q : ds.pend)
                if (q.req.priority > r.p.req.priority)
                    ++higher;
            if (higher > freeCnt) {
                if (cfg_.backend == "func") {
                    r.p.ckpt = std::make_unique<DeviceCheckpoint>(
                        captureCheckpoint(*ds.slots[s].fdev));
                } else {
                    rep.stats.merge(ds.slots[s].dev->stats());
                    r.p.ckpt = std::make_unique<DeviceCheckpoint>(
                        captureCheckpoint(*ds.slots[s].dev));
                }
                ++r.p.preemptCount;
                ++rep.preemptions;
                ++rep.devices[d].preemptions;
                rec.preemptions = r.p.preemptCount;
                if (obs)
                    obs->onPreempt(now, rec.id, d, s, r.p.nextKernel,
                                   r.p.doneExec,
                                   checkpointBytes(*r.p.ckpt), higher);
                ds.pend.push_back(std::move(r.p));
                ds.running[s].reset();
                return;
            }
        }

        // The next kernel starts right at this boundary.
        Cycle c = runKernel(d, s, r, r.boundaryAt);
        r.curKernelCycles = c;
        r.boundaryAt += c;
    };

    while (true) {
        // 1. Admit arrivals due now (routing, cache, shed decisions).
        while (next < sorted.size() && sorted[next].arrival <= now)
            admit(sorted[next++]);

        // 2. Kernel boundaries due now: complete, preempt, or continue.
        for (u32 d = 0; d < u32(devs_.size()); ++d)
            for (u32 s = 0; s < slotsPer; ++s)
                while (devs_[d].running[s] &&
                       devs_[d].running[s]->boundaryAt <= now)
                    processBoundary(d, s);

        // 3. Fill free slots everywhere (batching happens here).
        for (u32 d = 0; d < u32(devs_.size()); ++d)
            dispatchDevice(d);

        // 4. Advance virtual time to the next event.  A device holding
        //    a forming batch (step 3) wakes up when its launcher frees.
        Cycle tNext = next < sorted.size() ? sorted[next].arrival : kNever;
        for (const DeviceState &ds : devs_) {
            for (const std::unique_ptr<Running> &r : ds.running)
                if (r)
                    tNext = std::min(tNext, r->boundaryAt);
            if (cfg_.batching && !ds.pend.empty()) {
                bool hasFree = false;
                for (const std::unique_ptr<Running> &r : ds.running)
                    if (!r)
                        hasFree = true;
                if (hasFree) {
                    if (ds.launcherFreeAt > now)
                        tNext = std::min(tNext, ds.launcherFreeAt);
                    for (const Pending &p : ds.pend) {
                        if (!p.held)
                            continue;
                        Cycle dl = p.heldSince + cfg_.batchWindowCycles;
                        if (dl > now)
                            tNext = std::min(tNext, dl);
                    }
                }
            }
        }
        if (tNext == kNever)
            break;
        now = tNext;
    }

    for (const DeviceState &ds : devs_)
        if (!ds.pend.empty())
            fatal("fleet: ", ds.pend.size(),
                  " requests left queued at exit");
    if (rep.completed != rep.admitted ||
        rep.admitted + rep.shedTotal != rep.records.size())
        fatal("fleet: request accounting mismatch (admitted ",
              rep.admitted, ", completed ", rep.completed, ", shed ",
              rep.shedTotal, ", offered ", rep.records.size(), ")");

    std::sort(rep.records.begin(), rep.records.end(),
              [](const FleetRequestRecord &a, const FleetRequestRecord &b) {
                  return a.id < b.id;
              });
    for (const FleetRequestRecord &r : rep.records) {
        if (r.shed)
            continue;
        rep.queueLatency.add(f64(r.queueCycles()));
        rep.execLatency.add(
            f64(r.compileCycles + r.overheadCycles + r.execCycles));
        rep.totalLatency.add(f64(r.totalCycles()));
    }
    for (size_t d = 0; d < devs_.size(); ++d) {
        FleetReport::DeviceReport &dr = rep.devices[d];
        const DeviceState &ds = devs_[d];
        dr.cacheHits = ds.cache->hits();
        dr.cacheCompiles = ds.cache->compiles();
        dr.cacheEvictions = ds.cache->evictions();
        dr.cacheEntries = ds.cache->size();
        rep.slo.merge(dr.slo);
        rep.stats.merge(ds.cacheStats);
    }
    for (size_t t = 0; t < tenants_.size(); ++t)
        rep.tenants[t].servedCycles = served[t];

    rep.slo.exportTo(rep.stats);
    rep.queueLatency.exportTo(rep.stats, "fleet.latency.queue");
    rep.execLatency.exportTo(rep.stats, "fleet.latency.exec");
    rep.totalLatency.exportTo(rep.stats, "fleet.latency.total");
    rep.stats.set("fleet.devices", f64(devs_.size()));
    rep.stats.set("fleet.slotsPerDevice", f64(slotsPer));
    rep.stats.set("fleet.requests", f64(rep.records.size()));
    rep.stats.set("fleet.admitted", f64(rep.admitted));
    rep.stats.set("fleet.completed", f64(rep.completed));
    rep.stats.set("fleet.shed", f64(rep.shedTotal));
    rep.stats.set("fleet.batches", f64(rep.batches));
    rep.stats.set("fleet.batchedRequests", f64(rep.batchedRequests));
    rep.stats.set("fleet.preemptions", f64(rep.preemptions));
    rep.stats.set("fleet.makespanCycles", f64(rep.makespan));
    rep.stats.set("fleet.throughputRps", rep.throughputRps());
    if (rep.estimatorSamples > 0)
        rep.estimatorMeanAbsRelErr /= f64(rep.estimatorSamples);
    rep.stats.set("fleet.estimator.samples", f64(rep.estimatorSamples));
    rep.stats.set("fleet.estimator.meanAbsRelErr",
                  rep.estimatorMeanAbsRelErr);
    rep.stats.set("fleet.estimator.maxAbsRelErr",
                  rep.estimatorMaxAbsRelErr);
    return rep;
}

} // namespace ipim

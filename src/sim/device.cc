#include "sim/device.h"

#include <algorithm>

#include "common/logging.h"

namespace ipim {

namespace {
/**
 * Quantum-length cap while tracing is active.  Shards buffer their
 * events until the next barrier, so an unbounded quantum (possible on a
 * single-cube device, where no SERDES lookahead floor applies) would
 * buffer the whole run; 4096 cycles keeps the shard footprint bounded
 * without measurable barrier overhead.
 */
constexpr Cycle kMaxTracedQuantum = 4096;
} // namespace

DeviceProbe::~DeviceProbe() = default;

void
DeviceProbe::onDeviceReset(Device &)
{
}

Device::Device(const HardwareConfig &cfg, Tracer *tracer,
               const std::string &trackPrefix)
    : cfg_(cfg), tracer_(tracer), trackPrefix_(trackPrefix)
{
    cfg_.validate();
    // Every cube records stats and trace events into private shards so
    // a worker thread can simulate it without touching shared state;
    // the barrier in run() folds the shards back deterministically
    // (DESIGN.md Sec. 18).  Trace-track interning still happens in the
    // parent tracer, in construction order, so track ids and exported
    // JSON are byte-identical to the pre-shard layout.
    cubeCtx_.resize(cfg_.cubes);
    for (u32 c = 0; c < cfg_.cubes; ++c) {
        statShards_.push_back(std::make_unique<StatsRegistry>());
        traceShards_.push_back(tracer_ != nullptr
                                   ? std::make_unique<Tracer>(*tracer_)
                                   : nullptr);
        cubes_.push_back(std::make_unique<Cube>(
            cfg_, c, statShards_[c].get(), traceShards_[c].get(),
            trackPrefix_ + "cube" + std::to_string(c) + "/"));
    }
}

Device::~Device() = default;

void
Device::setThreads(u32 n)
{
    n = std::max<u32>(1, std::min<u32>(n, cfg_.cubes));
    if (n == threads_)
        return;
    threads_ = n;
    pool_ = n > 1 ? std::make_unique<ParallelPool>(n - 1) : nullptr;
}

void
Device::reset()
{
    for (auto &cube : cubes_)
        cube->reset();
    for (auto &sh : statShards_)
        sh->clear();
    for (auto &sh : traceShards_)
        if (sh != nullptr)
            sh->clear();
    serdes_.clear();
    serdesSeq_ = 0;
    now_ = 0;
    lastRunCycles_ = 0;
    ffwdSkipped_ = 0;
    ffwdJumps_ = 0;
    stats_.clear();
    if (probe_ != nullptr)
        probe_->onDeviceReset(*this);
}

BankStorage &
Device::bank(u32 chip, u32 v, u32 pg, u32 pe)
{
    return vault(chip, v).pg(pg).mc().storage(pe);
}

void
Device::loadProgramAll(const std::vector<Instruction> &prog)
{
    for (auto &cube : cubes_)
        for (u32 v = 0; v < cube->numVaults(); ++v)
            cube->vault(v).loadProgram(prog);
}

void
Device::loadPrograms(const std::vector<std::vector<Instruction>> &progs)
{
    if (progs.size() != u64(cfg_.cubes) * cfg_.vaultsPerCube)
        fatal("expected ", u64(cfg_.cubes) * cfg_.vaultsPerCube,
              " programs, got ", progs.size());
    size_t i = 0;
    for (auto &cube : cubes_)
        for (u32 v = 0; v < cube->numVaults(); ++v)
            cube->vault(v).loadProgram(progs[i++]);
}

bool
Device::fullyIdle() const
{
    if (!serdes_.empty())
        return false;
    for (const auto &cube : cubes_)
        if (!cube->fullyIdle())
            return false;
    return true;
}

Cycle
Device::nextEventAt(Cycle now) const
{
    Cycle e = kNeverCycle;
    if (!serdes_.empty())
        e = std::min(e, std::max(now, serdes_.begin()->first.first));
    for (const auto &cube : cubes_)
        e = std::min(e, cube->nextEventAt(now));
    return e;
}

void
Device::runCubeQuantum(u32 c, Cycle from, Cycle to, bool mustTick)
{
    Cube &cube = *cubes_[c];
    CubeCtx &cx = cubeCtx_[c];
    Tracer *shard = traceShards_[c].get();
    bool traced = Tracer::active(shard);
    Cycle interval = traced ? shard->sampleInterval() : 0;

    if (!mustTick && cube.fullyIdle()) {
        // Already idle with nothing arriving: the barrier catches the
        // cube up to the quantum end instead (refresh, arbiter rotation,
        // and boundary trace samples still advance while idle).
        cx.idleFrom = from;
        return;
    }

    // Per-cube fast-forward: the cube is a closed system until the next
    // barrier, so its own nextEventAt() bounds each jump.  Trace sample
    // boundaries still cap it — boundary cycles are ticked densely so
    // counter samples land on exactly the cycles dense ticking produces.
    // The quantum's first cycle is skippable too, unless it must tick.
    Cycle t = from;
    bool forceTick = mustTick;
    while (true) {
        if (fastForward_ && !forceTick) {
            Cycle e = std::min(cube.nextEventAt(t), to);
            if (traced) {
                Cycle rem = t % interval;
                e = std::min(e, rem == 0 ? t : t + (interval - rem));
            }
            if (e > t) {
                // Crediting performs the stall-span transitions a dense
                // tick of cycle t would have (Vault::creditSkipped);
                // stamp the shard so those events merge at the cycle
                // dense mode emits them.
                if (traced)
                    shard->setRecordCycle(t);
                cube.creditSkipped(t, e - t);
                cx.jumpCycles += e - t;
                ++cx.jumps;
                t = e;
                if (t >= to) {
                    cx.idleFrom = to;
                    return;
                }
            }
        }
        forceTick = false;
        if (traced)
            shard->setRecordCycle(t);
        cube.tick(t);
        // Mirror the sequential engine's per-cycle drain: egress packets
        // are stamped with the cycle they left the cube so the barrier
        // can re-serialize them in (cycle, cube, packet order) order.
        auto &eg = cube.serdesEgress();
        if (!eg.empty()) {
            for (const Packet &p : eg)
                cx.egress.emplace_back(t, p);
            eg.clear();
        }
        // Cross-cube arrivals land after the tick of their delivery
        // cycle, exactly as the sequential drain loop delivered them.
        if (t == from)
            for (const Packet &p : cx.deliveries)
                cube.deliverFromSerdes(p);
        ++t;
        if (cube.fullyIdle()) {
            cx.idleFrom = t;
            return;
        }
        if (t >= to) {
            cx.idleFrom = to;
            return;
        }
    }
}

void
Device::catchUpIdleCube(u32 c, Cycle to)
{
    Cube &cube = *cubes_[c];
    CubeCtx &cx = cubeCtx_[c];
    Tracer *shard = traceShards_[c].get();
    bool traced = Tracer::active(shard);
    Cycle interval = traced ? shard->sampleInterval() : 0;

    // An idle cube still advances per-cycle state the stats and trace
    // observe (DRAM refresh, mesh arbiter rotation, boundary counter
    // samples).  Dense mode ticks it densely, exactly like the
    // sequential engine would; fast-forward jumps between the cube's
    // own events (its vaults' refresh deadlines) and trace-boundary
    // cycles and ticks those, exactly like the quantum loop.
    Cycle t = cx.idleFrom;
    while (t < to) {
        if (fastForward_) {
            Cycle e = std::min(cube.nextEventAt(t), to);
            if (traced) {
                Cycle rem = t % interval;
                e = std::min(e, rem == 0 ? t : t + (interval - rem));
            }
            if (e > t) {
                if (traced)
                    shard->setRecordCycle(t);
                cube.creditSkipped(t, e - t);
                cx.jumpCycles += e - t;
                ++cx.jumps;
                t = e;
                continue;
            }
        }
        if (traced)
            shard->setRecordCycle(t);
        cube.tick(t);
        ++t;
    }
    if (!cube.serdesEgress().empty())
        panic("idle cube produced SERDES egress during catch-up");
    cx.idleFrom = to;
}

void
Device::mergeTraceShards()
{
    // K-way merge of the shard buffers by (record cycle, cube index,
    // intra-shard order) — the exact insertion order the sequential
    // per-cycle loop produces, so the parent's ring eviction and
    // stable-sort tie-breaking are unaffected by threading.
    const u32 n = u32(cubes_.size());
    std::vector<size_t> pos(n, 0);
    while (true) {
        u32 best = n;
        Cycle bestCycle = kNeverCycle;
        for (u32 c = 0; c < n; ++c) {
            const auto &evs = traceShards_[c]->shardEvents();
            if (pos[c] >= evs.size())
                continue;
            if (evs[pos[c]].first < bestCycle) {
                bestCycle = evs[pos[c]].first;
                best = c;
            }
        }
        if (best == n)
            break;
        tracer_->ingest(traceShards_[best]->shardEvents()[pos[best]].second);
        ++pos[best];
    }
    for (auto &sh : traceShards_)
        sh->clearShard();
}

Cycle
Device::run(u64 maxCycles)
{
    Cycle start = now_;
    // First cycle at which the watchdog trips (saturating: the default
    // budget must not wrap the 64-bit clock on long-lived devices).
    Cycle limit =
        maxCycles > kNeverCycle - start ? kNeverCycle : start + maxCycles;
    probeNextAt_ = probe_ != nullptr ? probe_->nextSampleAt(now_)
                                     : kNeverCycle;
    for (auto &sh : traceShards_)
        if (sh != nullptr)
            sh->syncShardSettings();
    const bool traced = Tracer::active(tracer_);
    // Conservative lookahead floor: any packet egressing at cycle t is
    // delivered no earlier than t + 4 + serdesHop, so cubes cannot
    // observe one another inside a quantum at most that long.
    const Cycle lookahead = 4 + Cycle(cfg_.latency.serdesHop);
    const u32 nCubes = u32(cubes_.size());

    // Quantum parameters live outside the loop so the dispatch closure
    // is built once; the pool's handoff synchronizes the writes.
    Cycle qT = 0, qH = 0;
    bool qMustTick = false;
    const std::function<void(u32)> job = [&](u32 c) {
        runCubeQuantum(c, qT, qH,
                       qMustTick || !cubeCtx_[c].deliveries.empty());
    };

    // Activity-driven ticking (DESIGN.md Sec. 13): under fast-forward a
    // cube ticks only the vaults with an event due and credits the rest
    // lazily.  The runtime may have rewritten banks, programs, or a
    // checkpoint since the last run, so every vault starts out due.
    // Under a tracer every vault ticks every ticked cycle instead.
    for (auto &cube : cubes_)
        cube->beginRun(now_, fastForward_, !traced);

    while (true) {
        // A sample at cycle t sees the state after cycles [0, t); the
        // probe cadence is cached so the disabled path is one compare.
        if (now_ >= probeNextAt_) {
            settle();
            probe_->sample(*this, now_);
            probeNextAt_ = probe_->nextSampleAt(now_ + 1);
        }

        // === One conservative-lookahead quantum [T, H) ===
        qT = now_;
        qMustTick = qT == start;

        // Deliveries due this cycle, split per destination cube in
        // (deliverAt, injection seq) order — the exact order the
        // sequential engine's drain loop handed them over.
        for (auto &cx : cubeCtx_) {
            cx.egress.clear();
            cx.deliveries.clear();
            cx.jumpCycles = 0;
            cx.jumps = 0;
        }
        while (!serdes_.empty() && serdes_.begin()->first.first <= now_) {
            const Packet &p = serdes_.begin()->second;
            cubeCtx_.at(p.dstChip).deliveries.push_back(p);
            serdes_.erase(serdes_.begin());
        }

        // Event horizon: watchdog limit, the SERDES lookahead floor
        // (only meaningful with >1 cube), the next in-flight delivery,
        // the next probe sample (samples are taken at barriers), and
        // the traced-quantum memory bound.
        Cycle H = limit;
        if (nCubes > 1)
            H = std::min(H, qT + lookahead);
        if (!serdes_.empty())
            H = std::min(H, serdes_.begin()->first.first);
        H = std::min(H, probeNextAt_);
        if (traced)
            H = std::min(H, qT + kMaxTracedQuantum);
        // All caps are > T (the floor is >= 5, every due delivery was
        // just popped, and probeNextAt_ > now_ after the sample above);
        // the max() only guards against a misbehaving probe cadence.
        H = std::max(H, qT + 1);
        qH = H;

        if (pool_ != nullptr)
            pool_->run(nCubes, job);
        else
            for (u32 c = 0; c < nCubes; ++c)
                job(c);

        // --- Barrier: deterministic reconciliation ---

        // 1. Egress -> in-flight SERDES map, ordered by (egress cycle,
        //    source cube, per-source order); serdesSeq_ then numbers
        //    packets exactly as the sequential per-cycle drain did.
        {
            std::vector<size_t> pos(nCubes, 0);
            while (true) {
                u32 best = nCubes;
                Cycle bestCycle = kNeverCycle;
                for (u32 c = 0; c < nCubes; ++c) {
                    if (pos[c] >= cubeCtx_[c].egress.size())
                        continue;
                    Cycle t = cubeCtx_[c].egress[pos[c]].first;
                    if (t < bestCycle) {
                        bestCycle = t;
                        best = c;
                    }
                }
                if (best == nCubes)
                    break;
                const Packet &p = cubeCtx_[best].egress[pos[best]].second;
                u32 dst = p.dstChip;
                u32 hops = best > dst ? best - dst : dst - best;
                Cycle lat = 4 + Cycle(cfg_.latency.serdesHop) * hops;
                serdes_.emplace(std::make_pair(bestCycle + lat, serdesSeq_++),
                                p);
                stats_.inc("serdes.bits", f64(p.sizeBits()));
                ++pos[best];
            }
        }

        // 2. Quiesce detection.  With no packets in flight and every
        //    cube idle, the device quiesced at the cycle the LAST cube
        //    went idle — the same cycle the sequential loop's
        //    fullyIdle() check would have fired on.
        bool quiesced = serdes_.empty();
        Cycle target = qT;
        if (quiesced) {
            for (u32 c = 0; c < nCubes; ++c) {
                if (!cubes_[c]->fullyIdle()) {
                    quiesced = false;
                    break;
                }
                target = std::max(target, cubeCtx_[c].idleFrom);
            }
        }
        if (!quiesced)
            target = H;

        // 3. Catch idle cubes up to the common end-of-quantum cycle.
        for (u32 c = 0; c < nCubes; ++c)
            if (cubeCtx_[c].idleFrom < target)
                catchUpIdleCube(c, target);

        // 4. Fold the per-cube shards and telemetry, in cube order.
        for (u32 c = 0; c < nCubes; ++c)
            statShards_[c]->drainInto(stats_);
        stats_.inc("sim.cycles", f64(target - qT));
        if (traced)
            mergeTraceShards();
        for (u32 c = 0; c < nCubes; ++c) {
            ffwdSkipped_ += cubeCtx_[c].jumpCycles;
            ffwdJumps_ += cubeCtx_[c].jumps;
        }

        now_ = target;
        // The run ends here or below: credit the lagging vaults first,
        // because the runtime reads their counters next.
        if (quiesced) {
            settle();
            break;
        }
        if (now_ >= limit) {
            settle();
            fatal("deadlock watchdog: device did not quiesce within ",
                  maxCycles, " cycles");
        }

        // Device-wide fast-forward over globally quiescent stretches
        // (DESIGN.md Sec. 13), between the quantum that just ended and
        // the next sample: never past the watchdog limit or across a
        // trace counter-sample boundary.  Metrics probes are NOT a jump
        // cap: the probe snapshots the pre-credit state and back-fills
        // the elided sample boundaries after the credit (DESIGN.md
        // Sec. 14); the base cycle's own pending sample is part of that
        // back-fill, which is why the jump runs before the next top-of-
        // loop sample, exactly like the sequential engine's loop order.
        if (!fastForward_)
            continue;
        Cycle e = std::min(nextEventAt(now_), limit);
        if (traced) {
            Cycle interval = tracer_->sampleInterval();
            Cycle rem = now_ % interval;
            e = std::min(e, rem == 0 ? now_ : now_ + (interval - rem));
        }
        if (e <= now_)
            continue;
        u64 skipped = e - now_;
        bool probeJump = probeNextAt_ < e;
        if (probeJump) {
            settle();
            probe_->beforeJump(*this, now_, e);
        }
        for (u32 c = 0; c < nCubes; ++c) {
            // Stall-span transitions credited here merge at the cycle a
            // dense tick would have emitted them (see runCubeQuantum).
            if (traced)
                traceShards_[c]->setRecordCycle(now_);
            cubes_[c]->creditSkipped(now_, skipped);
        }
        // The cubes credit through their stat shards; fold immediately
        // so the probe's post-credit snapshot (afterJump) sees them.
        for (u32 c = 0; c < nCubes; ++c)
            statShards_[c]->drainInto(stats_);
        stats_.inc("sim.cycles", f64(skipped));
        Cycle from = now_;
        now_ = e;
        ffwdSkipped_ += skipped;
        ++ffwdJumps_;
        if (probeJump) {
            settle();
            probe_->afterJump(*this, from, e);
            probeNextAt_ = probe_->nextSampleAt(now_);
        }
        if (now_ >= limit) {
            settle();
            fatal("deadlock watchdog: device did not quiesce within ",
                  maxCycles, " cycles");
        }
    }

    lastRunCycles_ = now_ - start;
    if (traced) {
        for (u32 c = 0; c < nCubes; ++c) {
            traceShards_[c]->setRecordCycle(now_);
            cubes_[c]->flushTrace(now_);
        }
        mergeTraceShards();
    }
    return lastRunCycles_;
}

void
Device::settle()
{
    for (u32 c = 0; c < cubes_.size(); ++c) {
        cubes_[c]->settle(now_);
        statShards_[c]->drainInto(stats_);
    }
}

u64
Device::totalIssued() const
{
    u64 n = 0;
    for (const auto &cube : cubes_)
        for (u32 v = 0; v < cube->numVaults(); ++v)
            n += cube->vault(v).issuedCount();
    return n;
}

} // namespace ipim

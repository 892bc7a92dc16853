#include "sim/cube.h"

#include <algorithm>

#include "common/logging.h"

namespace ipim {

Cube::Cube(const HardwareConfig &cfg, u32 chipId, StatsRegistry *stats,
           Tracer *trace, const std::string &tracePrefix)
    : cfg_(cfg), chipId_(chipId), stats_(stats),
      mesh_(cfg.meshCols, cfg.meshRows(), stats, 8, trace,
            tracePrefix + "noc")
{
    if (cfg.meshCols * cfg.meshRows() < cfg.vaultsPerCube)
        fatal("mesh too small for ", cfg.vaultsPerCube, " vaults");
    for (u32 v = 0; v < cfg.vaultsPerCube; ++v)
        vaults_.push_back(std::make_unique<Vault>(
            cfg, chipId, v, stats, trace,
            tracePrefix + "v" + std::to_string(v) + "/"));
    wake_.assign(cfg.vaultsPerCube, 0);
    from_.assign(cfg.vaultsPerCube, 0);
}

void
Cube::deliverFromSerdes(const Packet &p)
{
    if (p.dstChip != chipId_)
        panic("serdes delivery to the wrong cube");
    // Arriving off-chip traffic enters through the mesh at the gateway
    // router (vault 0); srcVault stays intact — it is the reply address.
    // A packet may only overtake into the mesh when no earlier arrival
    // is still waiting, otherwise per-link delivery order would invert.
    if (!serdesIngressRetry_.empty() || !mesh_.injectAt(0, p)) {
        serdesIngressRetry_.push_back(p);
        stats_->inc("serdes.ingressRetryQueued");
    }
}

void
Cube::tick(Cycle now)
{
    // Retry off-chip arrivals that found the gateway full, strictly in
    // arrival order.  All retries target the same gateway input queue,
    // so the first refusal means every later one would be refused too —
    // stop there instead of rescanning the whole backlog each cycle.
    while (!serdesIngressRetry_.empty() &&
           mesh_.injectAt(0, serdesIngressRetry_.front()))
        serdesIngressRetry_.pop_front();

    // 1. Deliver packets that reached their destination router.  A
    //    delivery is the only outside change to a vault's state, so it
    //    wakes the vault for this cycle.
    for (u32 v = 0; v < numVaults(); ++v) {
        auto &in = mesh_.delivered(v);
        if (in.empty())
            continue;
        catchUpVault(v, now);
        wake_[v] = now;
        for (const Packet &p : in)
            vaults_[v]->deliver(p);
        in.clear();
    }

    // 2. Vault-internal progress.  Under fast-forward each ticked vault
    //    then caches its wake cycle.  One that just issued will likely
    //    issue again, so it is simply due next cycle (early is allowed,
    //    Sec. 13); so is one with packets for step 3 to drain.
    for (u32 v = 0; v < numVaults(); ++v) {
        if (lazy_ && wake_[v] > now)
            continue;
        catchUpVault(v, now);
        Vault &vault = *vaults_[v];
        u64 issued = vault.issuedCount();
        vault.tick(now);
        from_[v] = now + 1;
        if (fastForward_)
            wake_[v] = vault.issuedCount() != issued
                           ? now + 1
                           : vault.nextEventAt(now + 1);
    }

    // 3. Drain NIC outboxes into the mesh / SERDES egress, preserving
    //    per-vault order.
    for (auto &vault : vaults_) {
        auto &out = vault->outbox();
        while (!out.empty()) {
            Packet &p = out.front();
            if (p.dstChip != chipId_) {
                serdesEgress_.push_back(p);
                stats_->inc("serdes.packets");
                out.pop_front();
                continue;
            }
            if (p.dstVault == vault->vaultId()) {
                // Local loopback without touching the mesh.
                vault->deliver(p);
                out.pop_front();
                continue;
            }
            if (!mesh_.inject(p))
                break;
            out.pop_front();
        }
    }

    // 4. Move the network.
    mesh_.tick();
    mesh_.sampleTrace(now);
}

Cycle
Cube::nextEventAt(Cycle now) const
{
    if (!serdesEgress_.empty())
        return now;
    // Gateway backpressure (non-empty serdesIngressRetry_) does not get
    // a blanket `return now`: the next injection opportunity is the next
    // mesh event, and a full gateway queue implies the mesh holds
    // packets, so mesh_.nextEventAt already reports it.
    Cycle e = mesh_.nextEventAt(now);
    for (Cycle w : wake_)
        e = std::min(e, w);
    return e;
}

void
Cube::beginRun(Cycle now, bool fastForward, bool lazy)
{
    fastForward_ = fastForward;
    lazy_ = fastForward && lazy;
    std::fill(wake_.begin(), wake_.end(), now);
    std::fill(from_.begin(), from_.end(), now);
    for (auto &vault : vaults_)
        vault->beginRun(now, lazy_);
}

void
Cube::catchUpVault(u32 v, Cycle now)
{
    if (from_[v] >= now)
        return;
    vaults_[v]->creditSkipped(from_[v], now - from_[v]);
    from_[v] = now;
}

void
Cube::settle(Cycle now)
{
    for (u32 v = 0; v < numVaults(); ++v)
        catchUpVault(v, now);
}

void
Cube::creditSkipped(Cycle from, u64 skipped)
{
    mesh_.creditSkipped(skipped);
    if (!lazy_)
        settle(from + skipped);
}

void
Cube::flushTrace(Cycle now)
{
    for (auto &vault : vaults_)
        vault->flushTrace(now);
}

void
Cube::reset()
{
    for (auto &vault : vaults_)
        vault->hardReset();
    mesh_.reset();
    serdesEgress_.clear();
    serdesIngressRetry_.clear();
}

bool
Cube::fullyIdle() const
{
    if (!mesh_.idle() || !serdesEgress_.empty() ||
        !serdesIngressRetry_.empty())
        return false;
    for (const auto &vault : vaults_)
        if (!vault->fullyIdle())
            return false;
    return true;
}

} // namespace ipim

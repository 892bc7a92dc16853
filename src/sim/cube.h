/**
 * @file
 * One iPIM cube (Fig. 2(a1)): 16 vaults interconnected by the on-chip
 * 2D-mesh network, with SERDES egress for inter-cube traffic.
 */
#ifndef IPIM_SIM_CUBE_H_
#define IPIM_SIM_CUBE_H_

#include <deque>
#include <memory>
#include <vector>

#include "sim/vault.h"

namespace ipim {

class Cube
{
  public:
    /**
     * @p trace/@p tracePrefix (optional) wire the cube's mesh and vaults
     * into the tracing subsystem; vault tracks are named
     * "<prefix>v<N>/..." and the mesh track "<prefix>noc"
     * (DESIGN.md Sec. 12).
     */
    Cube(const HardwareConfig &cfg, u32 chipId, StatsRegistry *stats,
         Tracer *trace = nullptr, const std::string &tracePrefix = "");

    Vault &vault(u32 v) { return *vaults_.at(v); }
    const Vault &vault(u32 v) const { return *vaults_.at(v); }
    u32 numVaults() const { return u32(vaults_.size()); }
    u32 chipId() const { return chipId_; }

    /** Packets buffered in the on-chip mesh right now (metrics gauge). */
    u32 nocQueuedPackets() const { return mesh_.queuedPackets(); }

    /**
     * Advance one cycle: deliver, tick vaults, drain NICs, tick mesh.
     * Under lazy wake (beginRun) only the vaults whose wake cycle has
     * come, or that just received a packet, are ticked; the others are
     * credited when they next wake or at settle().
     */
    void tick(Cycle now);

    /**
     * Start a Device::run() at @p now (DESIGN.md Sec. 13): every vault
     * is accounted up to @p now and due at @p now.  @p fastForward keeps
     * the per-vault wake table that nextEventAt() reads; @p lazy
     * additionally lets tick() skip vaults with no event due.  Without
     * @p lazy every vault ticks every ticked cycle and skip windows are
     * credited eagerly (dense mode, and under a tracer, which needs each
     * stall transition stamped at its own cycle).
     */
    void beginRun(Cycle now, bool fastForward, bool lazy);

    /**
     * Credit every lagging vault up to @p now, so its counters and
     * accounting read as after a dense tick of cycle @p now - 1.  Valid
     * because a skipped vault has no event due before its wake cycle.
     */
    void settle(Cycle now);

    /**
     * Deliver a packet arriving from another cube (via SERDES).
     *
     * Off-chip arrivals enter the mesh at the gateway router in strict
     * arrival order: while earlier arrivals are still waiting in the
     * ingress-retry queue a new packet lines up behind them instead of
     * overtaking into the mesh (per-link FIFO; DESIGN.md Sec. 18).
     */
    void deliverFromSerdes(const Packet &p);

    /** Packets leaving this cube; the device drains them. */
    std::vector<Packet> &serdesEgress() { return serdesEgress_; }

    /** Off-chip arrivals still waiting for gateway-router space. */
    size_t serdesIngressBacklog() const { return serdesIngressRetry_.size(); }

    bool fullyIdle() const;

    /**
     * Earliest future cycle this cube can change state (DESIGN.md
     * Sec. 13): @p now while the SERDES egress buffer holds packets
     * (the device must drain it), else the min over the mesh and the
     * vaults' cached wake cycles (kept by a fast-forward run; no walk
     * of the vault tree).  A non-empty ingress-retry queue needs no
     * clause of its own: retries wait on gateway-router space, and a
     * full gateway queue means the mesh holds packets, so the mesh
     * already reports the real next-injection opportunity.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Propagate fast-forward crediting for @p skipped cycles starting
     * at @p from to the mesh (round-robin arbiter rotation) and, unless
     * vaults are credited lazily, to the vaults (stall/cycle counters).
     */
    void creditSkipped(Cycle from, u64 skipped);

    /** Close any open vault trace spans at end of run (Device::run). */
    void flushTrace(Cycle now);

    /** Power-cycle the cube: all vaults, the mesh, and SERDES buffers. */
    void reset();

  private:
    /** Credit vault @p v's skipped cycles [from_[v], @p now). */
    void catchUpVault(u32 v, Cycle now);

    const HardwareConfig &cfg_;
    u32 chipId_;
    StatsRegistry *stats_;
    std::vector<std::unique_ptr<Vault>> vaults_;
    Mesh mesh_;
    std::vector<Packet> serdesEgress_;
    /**
     * Off-chip arrivals that found the gateway router full, in arrival
     * order.  Drained strictly from the front (new arrivals append), so
     * cross-cube delivery order is preserved and the drain is O(moved)
     * instead of the old O(n^2) vector::erase scan.
     */
    std::deque<Packet> serdesIngressRetry_;

    bool fastForward_ = false;
    bool lazy_ = false;
    /** Per vault: the first cycle on which its tick can change state,
     *  cached after each of its ticks (Vault::nextEventAt). */
    std::vector<Cycle> wake_;
    /** Per vault: the first cycle not yet ticked or credited. */
    std::vector<Cycle> from_;
};

} // namespace ipim

#endif // IPIM_SIM_CUBE_H_

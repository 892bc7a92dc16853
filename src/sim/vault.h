/**
 * @file
 * One iPIM vault (Fig. 2(a2)): eight process groups on the PIM dies, and
 * on the base logic die the decoupled control core (I-cache/pc, CtrlRF,
 * Issued Inst Queue, SIMB controller), the vault scratchpad memory (VSM),
 * the TSV arbiter, and the network interface controller (NIC).
 *
 * The control core is pipelined, single-issue, in-order; data hazards are
 * eliminated at issue time by scoreboarding against the Issued Inst Queue
 * (Sec. IV-B).  SIMB instructions broadcast over the shared TSVs and
 * retire in order once every masked PE has finished.
 */
#ifndef IPIM_SIM_VAULT_H_
#define IPIM_SIM_VAULT_H_

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "noc/mesh.h"
#include "sim/process_group.h"

namespace ipim {

/**
 * Per-vault cycle accounting of the control core's issue slot: every
 * ticked cycle lands in exactly one category — an issue, one of the five
 * stall reasons, or (implicitly) halted — so the categories always sum
 * to `cycles`.  Maintained identically by dense ticking and fast-forward
 * crediting; restarts at every program (re)load like issuedCount(), and
 * the runtime accumulates it across kernels (LaunchResult).
 */
struct IssueAccounting
{
    u64 cycles = 0; ///< core cycles ticked, including halted ones
    u64 issued = 0;
    u64 bubble = 0;      ///< taken-branch bubbles
    u64 barrier = 0;     ///< in-flight barrier blocks younger issues
    u64 drain = 0;       ///< sync/halt fence draining the IIQ
    u64 structStall = 0; ///< Issued Inst Queue full
    u64 hazard = 0;      ///< data-hazard scoreboard block

    /** Cycles on which the core attempted to issue (not halted). */
    u64
    active() const
    {
        return issued + bubble + barrier + drain + structStall + hazard;
    }

    /** Cycles spent halted (before start or after the final halt). */
    u64 halted() const { return cycles - active(); }

    void
    accumulate(const IssueAccounting &o)
    {
        cycles += o.cycles;
        issued += o.issued;
        bubble += o.bubble;
        barrier += o.barrier;
        drain += o.drain;
        structStall += o.structStall;
        hazard += o.hazard;
    }
};

class Vault
{
  public:
    /**
     * @p trace (optional) receives per-vault core telemetry: a run span
     * per program execution, stall-episode spans by reason, IIQ/issued
     * counter samples, and PE busy counters (DESIGN.md Sec. 12).
     * @p tracePrefix prefixes this vault's track names (serving slots).
     */
    Vault(const HardwareConfig &cfg, u32 chipId, u32 vaultId,
          StatsRegistry *stats, Tracer *trace = nullptr,
          const std::string &tracePrefix = "");

    /** Upload a program; validates every instruction. Resets the core. */
    void loadProgram(const std::vector<Instruction> &prog);

    /** Reset architectural and micro-architectural state (keeps banks). */
    void reset();

    /**
     * Power-cycle the vault: reset() plus unloaded program, erased
     * VSM/PGSM/bank contents, closed DRAM rows, restarted refresh
     * timers, released TSV reservations, and rewound seq/tag counters.
     * Afterwards the vault is indistinguishable from a fresh one.
     */
    void hardReset();

    /** Deliver an incoming network packet to the NIC. */
    void deliver(const Packet &p);

    /**
     * Advance one cycle.  Under lazy PG ticking (beginRun) only the
     * process groups whose cached wake cycle has come are ticked.
     */
    void tick(Cycle now);

    /**
     * Start a Device::run() at @p now (DESIGN.md Sec. 13): every process
     * group is due at @p now.  With @p lazy, tick() skips the PGs with
     * no event due and nextEventAt() reads their cached wake cycles;
     * without it every PG ticks on every vault tick.
     */
    void beginRun(Cycle now, bool lazy);

    /**
     * Earliest future cycle this vault can change state (DESIGN.md
     * Sec. 13): @p now when NIC traffic is undrained, the IIQ head is
     * retirable, or the core can issue; the branch-bubble expiry
     * `stallUntil_` while a taken branch is in flight; otherwise the
     * min over the process groups (their cached wake cycles under lazy
     * PG ticking).  Conservative (early) is allowed, late is not.
     */
    Cycle nextEventAt(Cycle now) const;

    /**
     * Account for @p skipped cycles elided by fast-forward starting at
     * cycle @p from: dense ticking charges `core.cycles` and exactly
     * one stall counter per non-halted cycle, so the same charges are
     * applied in bulk here.  The issue classification cannot change
     * inside a skip window (every state transition happens on a dense
     * tick and bubble expiry bounds the window), which is what makes
     * the bulk charge bit-exact; an issuable vault inside a window is
     * therefore a fast-forward invariant violation and panics.
     */
    void creditSkipped(Cycle from, u64 skipped);

    /** Close any open trace span at end of run (Device::run). */
    void flushTrace(Cycle now);

    /** Packets the NIC wants to send; drained by the owning cube. */
    std::deque<Packet> &outbox() { return outbox_; }

    bool halted() const { return halted_; }

    /** True when halted with no in-flight work anywhere in the vault. */
    bool fullyIdle() const;

    ProcessGroup &pg(u32 i) { return *pgs_.at(i); }
    Scratchpad &vsmMem() { return vsm_; }
    TsvBus &tsv() { return tsv_; }
    u32 chipId() const { return chipId_; }
    u32 vaultId() const { return vaultId_; }
    u32 &crf(u16 idx) { return crf_.at(idx); }

    /** Number of SIMB-addressable PEs in this vault. */
    u32 numPes() const { return cfg_.pesPerVault(); }

    /** Instructions issued since the last program (re)load. */
    u64 issuedCount() const { return acct_.issued; }

    /** Issue-slot cycle accounting since the last program (re)load. */
    const IssueAccounting &accounting() const { return acct_; }

    /** @name Live gauges (metrics sampling; cheap, side-effect free). */
    ///@{
    /** Issued Inst Queue occupancy right now. */
    u32 iiqDepth() const { return u32(iiq_.size()); }
    /** PEs with work in flight right now. */
    u32 busyPes() const;
    /** Bank requests queued across this vault's memory controllers. */
    u32 mcQueueDepth() const;
    ///@}

  private:
    /** Why issueStep could not issue this cycle (trace taxonomy). */
    enum class StallReason : u8 {
        kNone,
        kBranch,
        kBarrier,
        kDrain,
        kStruct,
        kHazard,
    };

    /**
     * What issueStep would do this cycle, in its exact gate order.
     * Shared by issueStep (which adds the per-reason side effects),
     * nextEventAt, and creditSkipped so the three can never disagree.
     */
    enum class IssueOutcome : u8 {
        kHalted,
        kBubble,
        kBarrier,
        kDrain,
        kStruct,
        kHazard,
        kIssue,
    };

    IssueOutcome classifyIssue(Cycle now) const;
    void validateProgram(const std::vector<Instruction> &prog) const;
    void noteStall(Cycle now, StallReason reason);
    void sampleTrace(Cycle now);
    void serviceRemoteInbox(Cycle now);
    void collectRemoteCompletions(ProcessGroup &pg);
    void retireStep();
    void issueStep(Cycle now);
    void issueBroadcast(Cycle now, const Instruction &inst,
                        const AccessSet &acc);
    void masterSyncCheck();
    bool isMaster() const { return chipId_ == 0 && vaultId_ == 0; }
    u32 totalVaults() const { return cfg_.cubes * cfg_.vaultsPerCube; }

    const HardwareConfig &cfg_;
    u32 chipId_;
    u32 vaultId_;
    StatsRegistry *stats_;

    // Tracing (no-ops unless trace_ is set and enabled).
    Tracer *trace_;
    u32 trackCore_ = 0;
    u32 trackPe_ = 0;
    StallReason stallReason_ = StallReason::kNone;
    Cycle stallSince_ = 0;
    Cycle activeSince_ = 0;
    bool traceActive_ = false; ///< inside a kVaultRun span
    IssueAccounting acct_;     ///< per-vault issue-slot accounting

    std::unique_ptr<ActivationLimiter> actLimiter_;
    std::vector<std::unique_ptr<ProcessGroup>> pgs_;
    /**
     * Lazy PG ticking (beginRun): per PG, a lower bound on the first
     * cycle its tick can change state.  Cached after each of its ticks
     * and lowered whenever work enters it (a broadcast or a remote
     * read).  Siblings share the ActivationLimiter and the TSV bus, but
     * a sibling's ACT can only postpone this PG's next ACT and TSV
     * slots are fixed at acquire time, so the bound stays valid.
     */
    std::vector<Cycle> pgWake_;
    bool lazyPgs_ = false;
    Scratchpad vsm_;
    TsvBus tsv_;

    // Control core state.
    std::vector<Instruction> prog_;
    std::vector<AccessSet> progAccess_;
    u32 pc_ = 0;
    bool halted_ = true;
    Cycle stallUntil_ = 0;
    std::vector<u32> crf_;
    std::deque<std::unique_ptr<InFlightInst>> iiq_;
    u64 nextSeq_ = 1;

    // Synchronization (master-slave barrier, Sec. IV-D).
    InFlightInst *activeSync_ = nullptr;
    std::map<u32, u32> syncArrivals_; ///< master: phase -> arrived count

    // NIC state.
    std::deque<Packet> outbox_;
    std::deque<Packet> remoteInbox_; ///< kReqRead to be serviced here
    std::map<u64, InFlightInst *> pendingReqs_;
    u64 nextReqTag_ = 1;
};

} // namespace ipim

#endif // IPIM_SIM_VAULT_H_

/**
 * @file
 * The whole iPIM device: one or more cubes connected by SERDES links
 * (Sec. VI: a standalone accelerator with its own address space, attached
 * to a host over a standard bus).  Also provides the host-facing
 * functional access paths used by the runtime to scatter/gather images
 * and upload programs.
 */
#ifndef IPIM_SIM_DEVICE_H_
#define IPIM_SIM_DEVICE_H_

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "sim/cube.h"
#include "sim/parallel.h"

namespace ipim {

class Device;

/**
 * Cycle-sampling hook for the metrics subsystem (DESIGN.md Sec. 14).
 *
 * Device::run() drives an attached probe so that its samples land on
 * exactly the same cycles in dense and fast-forward mode:
 *
 *  - at the top of every dense iteration, sample() fires when the
 *    probe's nextSampleAt() equals the current cycle (state "after
 *    cycles [0, now)", i.e. before tick(now));
 *  - around every fast-forward jump over [from, to), beforeJump() runs
 *    with the pre-credit state and afterJump() with the post-credit
 *    state, so the probe can back-fill the sample boundaries the jump
 *    elided.  Inside a skip window only the bulk-credited counters
 *    change, and they change at a constant per-cycle rate, so exact
 *    linear interpolation between the two snapshots reproduces the
 *    dense-mode samples bit for bit.
 *
 * The probe is not owned; it must outlive the device or be detached
 * with setProbe(nullptr).
 */
class DeviceProbe
{
  public:
    virtual ~DeviceProbe();

    /** First cycle >= @p now at which sample() must run
     *  (kNeverCycle = no more samples wanted). */
    virtual Cycle nextSampleAt(Cycle now) const = 0;

    /** Take one sample of @p dev's live state at cycle @p now. */
    virtual void sample(Device &dev, Cycle now) = 0;

    /** A fast-forward jump is about to credit cycles [@p from, @p to). */
    virtual void beforeJump(Device &dev, Cycle from, Cycle to) = 0;

    /** The jump over [@p from, @p to) has been credited; back-fill. */
    virtual void afterJump(Device &dev, Cycle from, Cycle to) = 0;

    /** The device was power-cycled (Device::reset()); drop snapshots. */
    virtual void onDeviceReset(Device &dev);
};

class Device
{
  public:
    /**
     * @p tracer (optional, not owned) records cycle-level telemetry for
     * this device; @p trackPrefix namespaces its tracks (e.g. "slot0/"
     * in the multi-tenant server).  Track layout: DESIGN.md Sec. 12.
     */
    explicit Device(const HardwareConfig &cfg, Tracer *tracer = nullptr,
                    const std::string &trackPrefix = "");
    ~Device();

    const HardwareConfig &cfg() const { return cfg_; }
    Cube &cube(u32 c) { return *cubes_.at(c); }
    Vault &vault(u32 chip, u32 v) { return cubes_.at(chip)->vault(v); }

    /** Functional access to one PE's bank (runtime scatter/gather). */
    BankStorage &bank(u32 chip, u32 v, u32 pg, u32 pe);

    /** Upload the same program to every vault. */
    void loadProgramAll(const std::vector<Instruction> &prog);

    /** Upload a per-vault program (chip-major order). */
    void loadPrograms(const std::vector<std::vector<Instruction>> &progs);

    /**
     * Run until every control core halts and all queues drain.
     * @return total cycles executed.  Throws FatalError once exactly
     * @p maxCycles cycles elapse without quiescing (deadlock watchdog).
     *
     * Execution proceeds in conservative-lookahead quanta (DESIGN.md
     * Sec. 18): cubes only interact through SERDES links with a
     * >= 4 + serdesHop cycle minimum latency, so each cube is simulated
     * independently up to the next cross-cube event horizon, egress is
     * exchanged at a barrier with a deterministic (deliverAt, srcChip,
     * per-source sequence) merge order, and the next quantum begins.
     * With setThreads(N > 1) the cubes of a quantum run on a worker
     * pool; results are bit-exact regardless of thread count.
     *
     * With fast-forward enabled (the default) each cube additionally
     * jumps over its quiescent intervals inside a quantum, ticks only
     * the vaults with an event due, and whole-device quiescent
     * stretches are jumped at the barrier using the cubes' per-vault
     * wake tables (DESIGN.md Sec. 13); all stats, traces, and cycle
     * counts are bit-exact with dense ticking.
     */
    Cycle run(u64 maxCycles = 500'000'000ull);

    /**
     * Simulation threads for run() (default 1).  Values above the cube
     * count are clamped; 0 behaves like 1.  Purely a wall-clock knob:
     * cycles, stats, pixels, and trace bytes are bit-identical for
     * every thread count (DESIGN.md Sec. 18).
     */
    void setThreads(u32 n);
    u32 threads() const { return threads_; }

    /**
     * Enable/disable next-event fast-forward (on by default).  Off
     * means every cycle is densely ticked; results are identical
     * either way, so disabling is only useful for regression tests
     * and benchmarking the skip machinery itself.
     */
    void setFastForward(bool on) { fastForward_ = on; }
    bool fastForward() const { return fastForward_; }

    /** Cycles elided by fast-forward since construction or reset(). */
    u64 ffwdSkippedCycles() const { return ffwdSkipped_; }
    /** Number of fast-forward jumps taken. */
    u64 ffwdJumps() const { return ffwdJumps_; }

    /**
     * Earliest future cycle any component of the device can change
     * state: min over the SERDES in-transit packets and the cubes.
     * Reads the wake tables a fast-forward run() keeps; run() consumes
     * it internally.
     */
    Cycle nextEventAt(Cycle now) const;

    /** Cycles executed by the last run(). */
    Cycle lastRunCycles() const { return lastRunCycles_; }

    /** Device-local clock (cycles since construction or reset()). */
    Cycle now() const { return now_; }

    /**
     * Power-cycle the device so it can be reused for another launch:
     * unloads programs, erases all DRAM/scratchpad contents and
     * row-buffer/refresh/NoC/SERDES state, rewinds the clock to 0, and
     * clears the stats registry.  A reset device behaves bit-exactly
     * like a freshly constructed one (tests/test_runtime.cc).
     */
    void reset();

    StatsRegistry &stats() { return stats_; }
    const StatsRegistry &stats() const { return stats_; }

    /**
     * Attach (or detach, with nullptr) a metrics probe; not owned.
     * Samples are bit-identical between dense and fast-forward runs
     * (DESIGN.md Sec. 14); attach before run(), not during.
     */
    void setProbe(DeviceProbe *probe) { probe_ = probe; }
    DeviceProbe *probe() { return probe_; }

    /** Tracer attached at construction (may be null). */
    Tracer *tracer() { return tracer_; }
    /** Track-name prefix this device registers its tracks under. */
    const std::string &trackPrefix() const { return trackPrefix_; }

    u32 totalVaults() const { return cfg_.cubes * cfg_.vaultsPerCube; }

    /** Sum of issuedCount() over all vaults (telemetry). */
    u64 totalIssued() const;

  private:
    /**
     * Per-cube working state for one quantum, written only by the worker
     * that owns the cube and reconciled at the barrier (DESIGN.md
     * Sec. 18).
     */
    struct CubeCtx
    {
        /** SERDES egress drained during the quantum: (egress cycle,
         *  packet), in the exact order the dense device-level drain
         *  would have seen them. */
        std::vector<std::pair<Cycle, Packet>> egress;
        /** Packets the barrier scheduled for delivery at the quantum's
         *  start cycle, already in deterministic merge order. */
        std::vector<Packet> deliveries;
        /** Cycle at which the cube went fully idle inside the quantum
         *  (== quantum end if it never did). */
        Cycle idleFrom = 0;
        /** Fast-forward telemetry accumulated by the worker. */
        u64 jumpCycles = 0;
        u64 jumps = 0;
    };

    bool fullyIdle() const;

    /** Simulate cube @p c over [@p from, @p to) into cubeCtx_[c]
     *  (worker body; see run()).  @p mustTick forces a tick at @p from
     *  even when the cube looks idle or has no event due (first quantum
     *  of a run, or deliveries pending), matching the sequential loop. */
    void runCubeQuantum(u32 c, Cycle from, Cycle to, bool mustTick);

    /** Catch cube @p c (idle since cubeCtx_[c].idleFrom) up to @p to at
     *  the barrier: refresh, arbiter rotation, and trace samples still
     *  advance while a cube idles.  Must produce no SERDES egress. */
    void catchUpIdleCube(u32 c, Cycle to);

    /** Credit every lagging vault up to now_ and fold the stat shards,
     *  so counters read as after a dense run of cycles [0, now_). */
    void settle();

    /** Drain the per-cube trace shards into the parent tracer, merged
     *  by (record cycle, cube index, intra-shard order). */
    void mergeTraceShards();

    HardwareConfig cfg_;
    StatsRegistry stats_;
    Tracer *tracer_;
    DeviceProbe *probe_ = nullptr;
    Cycle probeNextAt_ = 0; ///< run()-local cache of probe_->nextSampleAt
    std::string trackPrefix_;
    std::vector<std::unique_ptr<Cube>> cubes_;

    u32 threads_ = 1;
    std::unique_ptr<ParallelPool> pool_;
    /** Per-cube stat shards; cubes increment these during a quantum and
     *  the barrier folds them into stats_ in cube order. */
    std::vector<std::unique_ptr<StatsRegistry>> statShards_;
    /** Per-cube trace shards (null when tracing is off); see Tracer's
     *  shard constructor. */
    std::vector<std::unique_ptr<Tracer>> traceShards_;
    std::vector<CubeCtx> cubeCtx_;

    /**
     * SERDES packets in flight between cubes, ordered by (deliverAt,
     * injection sequence) so equal-arrival packets deliver in the same
     * order the dense positional scan produced.
     */
    std::map<std::pair<Cycle, u64>, Packet> serdes_;
    u64 serdesSeq_ = 0;

    Cycle now_ = 0;
    Cycle lastRunCycles_ = 0;
    bool fastForward_ = true;
    u64 ffwdSkipped_ = 0;
    u64 ffwdJumps_ = 0;
};

} // namespace ipim

#endif // IPIM_SIM_DEVICE_H_

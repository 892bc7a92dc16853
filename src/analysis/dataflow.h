/**
 * @file
 * Generic worklist dataflow engine over the SIMB CFG, plus the concrete
 * analyses the verifier and the cost/conflict passes share:
 *
 *  - WrittenBefore (forward, must): per register, the PE mask that has
 *    definitely written it on every path — the path-sensitive basis of
 *    the V11 read-before-write lint.
 *  - MayReadLiveness (backward, may): per register, the PE mask that may
 *    still read the current value before it is overwritten — its
 *    complement is the "definitely killed" fact behind the V12 dead-
 *    write lint (classic liveness with PE-mask granularity).
 *  - CrfConstProp (forward): constant propagation over the control
 *    core's scalar CtrlRF — static loop trip counts.
 *
 * An analysis is a struct the engine is instantiated with:
 *
 *   struct A {
 *     using State = ...;                       // copyable, ==-comparable
 *     static constexpr bool kForward = ...;
 *     State boundary() const;  // entry (fwd) / exit (bwd) state
 *     State top() const;       // optimistic initial in/out; the
 *                              // meet identity: meet(top, x) == x
 *     void meet(State &into, const State &other) const;
 *     void transfer(State &s, u32 instIdx) const;
 *   };
 *
 * solveDataflow() returns per-block entry states (forward) or per-block
 * exit states (backward); stepping the transfer through a block
 * reproduces every intermediate program point.  Unreachable blocks keep
 * the top state and must be skipped by reporting walks.
 */
#ifndef IPIM_ANALYSIS_DATAFLOW_H_
#define IPIM_ANALYSIS_DATAFLOW_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "analysis/cfg.h"
#include "common/config.h"

namespace ipim {

template <typename A>
std::vector<typename A::State>
solveDataflow(const Cfg &cfg, const A &a)
{
    using State = typename A::State;
    const int n = cfg.numBlocks();
    const State top = a.top();
    std::vector<State> in(size_t(n), top);
    std::vector<State> out(size_t(n), top);
    if (n == 0)
        return in;
    const State boundaryState = a.boundary();

    // Iteration order: RPO for forward problems, reverse RPO for
    // backward ones; both visit a block after most of its inputs.
    std::vector<int> order = cfg.rpo();
    if (!A::kForward)
        std::reverse(order.begin(), order.end());

    // A block is re-evaluated only when one of its inputs changed
    // since its last visit; otherwise it would recompute the states it
    // already holds.  The scratch states keep their storage across
    // visits.
    std::vector<bool> dirty(size_t(n), true);
    State entry, exit;
    bool changed = true;
    while (changed) {
        changed = false;
        for (int b : order) {
            if (!dirty[size_t(b)])
                continue;
            dirty[size_t(b)] = false;
            const BasicBlock &bb = cfg.block(b);
            // Top is the meet identity, so the first input is copied
            // rather than met into a fresh top state.
            bool first = true;
            auto meet = [&](const State &input) {
                if (first)
                    entry = input;
                else
                    a.meet(entry, input);
                first = false;
            };
            bool boundary;
            if (A::kForward) {
                // Block 0 is the program entry even when a back edge
                // also targets it (the whole program is a loop).
                boundary = b == 0 || bb.preds.empty();
                for (int p : bb.preds)
                    meet(out[size_t(p)]);
            } else {
                // Blocks without successors (halt, program tail) take
                // the exit boundary; so do blocks whose terminator has
                // an unresolved target (their real successors are
                // unknown — stay conservative).
                boundary = bb.succs.empty() || bb.unresolvedTarget;
                for (int s : bb.succs)
                    meet(in[size_t(s)]);
            }
            if (boundary)
                meet(boundaryState);
            if (first)
                entry = top;

            exit = entry;
            if (A::kForward) {
                for (u32 i = bb.first; i <= bb.last; ++i)
                    a.transfer(exit, i);
            } else {
                for (u32 i = bb.last + 1; i-- > bb.first;)
                    a.transfer(exit, i);
            }

            State &storedIn = A::kForward ? in[size_t(b)] : out[size_t(b)];
            State &storedOut = A::kForward ? out[size_t(b)] : in[size_t(b)];
            if (!(storedIn == entry) || !(storedOut == exit)) {
                std::swap(storedIn, entry); // scratch: rebuilt next visit
                std::swap(storedOut, exit);
                changed = true;
                for (int next : A::kForward ? bb.succs : bb.preds)
                    dirty[size_t(next)] = true;
            }
        }
    }
    return A::kForward ? in : out;
}

/** Flattened DRF/ARF/CRF register indexing shared by the analyses. */
struct RegSpace
{
    u32 drf = 0, arf = 0, crf = 0;

    explicit RegSpace(const HardwareConfig &cfg)
        : drf(cfg.dataRfEntries()), arf(cfg.addrRfEntries()),
          crf(cfg.ctrlRfEntries)
    {
    }

    size_t size() const { return size_t(drf) + arf + crf; }

    /** Compact index, or size() when the reference is out of bounds. */
    size_t
    index(RegFile f, u16 i) const
    {
        switch (f) {
          case RegFile::kDrf: return i < drf ? i : size();
          case RegFile::kArf: return i < arf ? drf + i : size();
          case RegFile::kCrf:
          default: return i < crf ? size_t(drf) + arf + i : size();
        }
    }
};

// ===================== PE-mask write analyses ======================

/**
 * The register effects of every instruction in RegSpace indices, each
 * with the PE mask it touches (CRF registers, core-scalar, use ~0u),
 * flattened once per program so the PE-mask analyses step an
 * instruction without re-deriving its access set.  Invalid
 * instructions and out-of-bounds registers (V13's and V01's problems)
 * have no effects.
 */
struct RegEffects
{
    struct Effect
    {
        u32 reg;
        u32 mask;
    };

    RegSpace regs;
    /// Instruction i writes effects[begin[i], readsAt[i]) and reads
    /// effects[readsAt[i], begin[i + 1]).
    std::vector<Effect> effects;
    std::vector<u32> begin, readsAt;

    RegEffects(const HardwareConfig &hw, const Cfg &cfg);
};

/**
 * Forward must-analysis: state[r] is the PE mask that has written
 * register r on *every* path from entry.  CRF registers (core-scalar)
 * use bit 0.  The boundary seeds the four hardware-initialized identity
 * AddrRF registers (see sim/pe.h) with the full mask.
 */
struct WrittenBeforeAnalysis
{
    using State = std::vector<u32>;
    static constexpr bool kForward = true;

    const RegEffects &fx;

    explicit WrittenBeforeAnalysis(const RegEffects &f) : fx(f) {}

    State top() const { return State(fx.regs.size(), ~0u); }
    State boundary() const;
    void
    meet(State &into, const State &other) const
    {
        for (size_t i = 0; i < into.size(); ++i)
            into[i] &= other[i];
    }
    void
    transfer(State &s, u32 instIdx) const
    {
        for (u32 k = fx.begin[instIdx]; k < fx.readsAt[instIdx]; ++k)
            s[fx.effects[k].reg] |= fx.effects[k].mask;
    }
};

/**
 * Backward may-analysis: state[r] is the PE mask that may read register
 * r (its value at this point) before overwriting it.  The exit boundary
 * is all-live, so values still held at program end are never considered
 * killed — V12 flags only writes that are provably overwritten.
 */
struct MayReadAnalysis
{
    using State = std::vector<u32>;
    static constexpr bool kForward = false;

    const RegEffects &fx;

    explicit MayReadAnalysis(const RegEffects &f) : fx(f) {}

    State top() const { return State(fx.regs.size(), 0u); }
    State boundary() const { return State(fx.regs.size(), ~0u); }
    void
    meet(State &into, const State &other) const
    {
        for (size_t i = 0; i < into.size(); ++i)
            into[i] |= other[i];
    }
    /// Kill the written PEs first, then gen the reads, so an
    /// instruction reading and writing the same register (mac) keeps
    /// the incoming value live.
    void
    transfer(State &s, u32 instIdx) const
    {
        for (u32 k = fx.begin[instIdx]; k < fx.readsAt[instIdx]; ++k)
            s[fx.effects[k].reg] &= ~fx.effects[k].mask;
        for (u32 k = fx.readsAt[instIdx]; k < fx.begin[instIdx + 1]; ++k)
            s[fx.effects[k].reg] |= fx.effects[k].mask;
    }
};

// ====================== CRF constant lattice =======================

/** Flat constant lattice: Top > {Uninit, Const(v)} > NonConst. */
struct ConstVal
{
    enum Kind : u8 { kTop, kUninit, kConst, kNonConst };
    Kind kind = kTop;
    i32 value = 0;

    static ConstVal cst(i32 v) { return {kConst, v}; }
    static ConstVal uninit() { return {kUninit, 0}; }
    static ConstVal nonconst() { return {kNonConst, 0}; }

    bool isConst() const { return kind == kConst; }
    bool operator==(const ConstVal &o) const = default;

    void
    meet(const ConstVal &o)
    {
        if (o.kind == kTop || *this == o)
            return;
        if (kind == kTop)
            *this = o;
        else
            *this = nonconst();
    }
};

/**
 * Forward constant propagation over the CtrlRF.  The boundary marks all
 * registers Uninit: the hardware resets them to 0, but a branch through
 * an Uninit target is a V08 error, not a jump to instruction 0.
 */
struct CrfConstPropAnalysis
{
    using State = std::vector<ConstVal>;
    static constexpr bool kForward = true;

    const Cfg &cfg;
    u32 crfEntries;

    CrfConstPropAnalysis(const HardwareConfig &hw, const Cfg &c)
        : cfg(c), crfEntries(hw.ctrlRfEntries)
    {
    }

    State top() const { return State(crfEntries); }
    State boundary() const { return State(crfEntries, ConstVal::uninit()); }
    void
    meet(State &into, const State &other) const
    {
        for (size_t i = 0; i < into.size(); ++i)
            into[i].meet(other[i]);
    }
    void transfer(State &s, u32 instIdx) const;
};

// ========================= derived facts ===========================

/** Solved const-prop facts with per-instruction stepping helpers. */
struct CrfConstProp
{
    CrfConstPropAnalysis analysis;
    /// Per block, the state at block entry.
    std::vector<std::vector<ConstVal>> blockIn;

    /** State just before instruction @p instIdx executes. */
    std::vector<ConstVal> atInst(u32 instIdx) const;

    /**
     * Meet of the predecessors' out-states over non-latch edges only:
     * the value a loop header sees on entry, before any iteration.
     */
    std::vector<ConstVal> headerEntryOnly(const NaturalLoop &loop) const;
};

CrfConstProp runCrfConstProp(const HardwareConfig &hw, const Cfg &cfg);

/**
 * Derive static trip counts for the builder's counted-loop idiom and
 * store them on cfg.loops():  the latch ends with `cjump c, t`, the
 * loop body holds exactly one def of c — `calc_crf add/sub c, c, #k`
 * (srcImm) — and the header-entry value of c is a known constant N with
 * N and k of opposite effective sign and k | N.  The loop then executes
 * exactly N / |k| iterations (the cjump re-enters while c != 0).
 */
void deriveTripCounts(const HardwareConfig &hw, Cfg &cfg,
                      const CrfConstProp &cp);

} // namespace ipim

#endif // IPIM_ANALYSIS_DATAFLOW_H_

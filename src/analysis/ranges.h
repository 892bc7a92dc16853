/**
 * @file
 * Interval value-range analysis over the CtrlRF (core-scalar) and the
 * AddrRF (per-PE, merged over the vault's PEs), and the per-instruction
 * memory access extents derived from it.
 *
 * Indirect addressing resolves through registers whose values the
 * compiler derives from the hardware-initialized identity registers
 * (PE/PG/vault/chip id) and counted-loop induction variables, so a
 * small abstract domain — intervals seeded with the identity ranges,
 * stepped by interval arithmetic, and summarized over loops with
 * statically known trip counts — recovers a byte-precise
 * over-approximation of every bank/VSM address an instruction can
 * write or a req can read remotely.  Those extents are the raw material of the cross-vault
 * conflict proofs (conflict.h): "provably disjoint" extents license
 * parallel simulation, overlapping ones are reported, unknown ones are
 * counted as unproved coverage.
 */
#ifndef IPIM_ANALYSIS_RANGES_H_
#define IPIM_ANALYSIS_RANGES_H_

#include <vector>

#include "analysis/cfg.h"
#include "common/config.h"

namespace ipim {

/** Inclusive integer interval with Top (unvisited) and Unknown. */
struct ValueInterval
{
    enum Kind : u8 { kTop, kKnown, kUnknown };
    Kind kind = kTop;
    i64 lo = 0;
    i64 hi = 0;

    static ValueInterval cst(i64 v) { return {kKnown, v, v}; }
    static ValueInterval range(i64 l, i64 h) { return {kKnown, l, h}; }
    static ValueInterval unknown() { return {kUnknown, 0, 0}; }

    bool known() const { return kind == kKnown; }
    bool isConst() const { return kind == kKnown && lo == hi; }
    bool operator==(const ValueInterval &o) const = default;

    /** Lattice join (union hull). */
    void join(const ValueInterval &o);
};

/** Interval transfer for one ALU op; unknown when not representable. */
ValueInterval intervalEval(AluOp op, const ValueInterval &a, const ValueInterval &b);

/** A loop induction register: one in-loop `calc add/sub r, r, #k`. */
struct InductionVar
{
    RegFile file = RegFile::kCrf; ///< kCrf or kArf
    u16 reg = 0;
    i64 step = 0;
};

/** Register interval state at one program point. */
struct RangeState
{
    std::vector<ValueInterval> crf;
    std::vector<ValueInterval> arf;

    bool operator==(const RangeState &o) const = default;
};

/**
 * Solved value ranges for one vault program.  @p vaultInCube / @p chip
 * pin the identity-register seeds when the caller has device context
 * (verifyDevice, conflict analysis); pass -1 to widen them to the full
 * geometry range.
 */
class ValueRanges
{
  public:
    static ValueRanges run(const HardwareConfig &hw, const Cfg &cfg,
                           int chip = -1, int vaultInCube = -1);

    const Cfg &cfg() const { return *cfg_; }
    const RangeState &blockIn(int b) const { return blockIn_[size_t(b)]; }

    /**
     * Per-iteration address step of @p m at instruction @p instIdx
     * inside its innermost loop: 0 when the address is loop-invariant,
     * the induction step when the addressing register is an induction
     * variable, or nullopt-like kUnknownStep otherwise.
     */
    static constexpr i64 kUnknownStep = i64(1) << 62;
    i64 addressStep(u32 instIdx, const MemOperand &m,
                    RegFile addrFile) const;

    /** Resolved byte-address interval of @p m in state @p s. */
    ValueInterval resolve(const RangeState &s, const MemOperand &m,
                     RegFile addrFile) const;

    void applyInst(RangeState &s, u32 instIdx) const;

  private:
    /// One CRF/ARF register a loop body writes: (file, reg) packed by
    /// defKey(), its first defining instruction, and how many
    /// instructions of the body write it.
    struct LoopDef
    {
        u32 key = 0;
        u32 inst = 0;
        u32 count = 0;
    };

    const HardwareConfig *hw_ = nullptr;
    const Cfg *cfg_ = nullptr;
    std::vector<RangeState> blockIn_;
    std::vector<std::vector<InductionVar>> induction_;
    std::vector<std::vector<LoopDef>> loopDefs_; ///< per loop, by key

    RangeState seedState(int chip, int vaultInCube) const;
    RangeState topState() const;
    void joinState(RangeState &into, const RangeState &o) const;
    i64 regStep(int loopIdx, RegFile file, u16 reg, int depth) const;
};

// ======================== access extents ===========================

/** A byte range [lo, hi) an instruction may access, or none/unknown. */
struct Extent
{
    enum Kind : u8 { kNone, kKnown, kUnknown };
    Kind kind = kNone;
    u64 lo = 0;
    u64 hi = 0;

    static Extent none() { return {}; }
    static Extent unknown() { return {kUnknown, 0, 0}; }
    static Extent bytes(u64 l, u64 h) { return {kKnown, l, h}; }

    bool exists() const { return kind != kNone; }

    /** Both known and the byte ranges intersect. */
    static bool
    provenOverlap(const Extent &a, const Extent &b)
    {
        return a.kind == kKnown && b.kind == kKnown && a.lo < b.hi &&
               b.lo < a.hi;
    }

    /** Provably no byte in common: both known and disjoint. */
    static bool
    provenDisjoint(const Extent &a, const Extent &b)
    {
        if (!a.exists() || !b.exists())
            return true;
        return a.kind == kKnown && b.kind == kKnown &&
               (a.hi <= b.lo || b.hi <= a.lo);
    }
};

/**
 * The parts of one instruction's memory footprint, over all its
 * executions, that the conflict analysis compares: local bank writes,
 * VSM writes, and a req's remote bank read.
 */
struct InstMemAccess
{
    Extent bankWrite, vsmWrite;

    // req-only fields
    bool isReq = false;
    u16 dstChip = 0, dstVault = 0, dstPg = 0, dstPe = 0;
    Extent remoteBank; ///< remote bank bytes read at the owner vault
    /// Per-loop-iteration step of the VSM staging (or wr_vsm) address;
    /// ValueRanges::kUnknownStep when not derivable.
    i64 vsmWriteStep = 0;
};

/**
 * Compute the full-program access extent of every instruction: the
 * union over loop iterations and executing PEs of each resolved
 * address range.  Indexed by instruction.
 */
std::vector<InstMemAccess> computeAccessExtents(const HardwareConfig &hw,
                                                const ValueRanges &vr);

} // namespace ipim

#endif // IPIM_ANALYSIS_RANGES_H_

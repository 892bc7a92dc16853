/**
 * @file
 * CodeBuilder: emission of SIMB instructions over virtual registers,
 * with labels and counted-loop helpers.  The backend passes
 * (register allocation, memory-order enforcement, instruction
 * reordering) consume its output (Sec. V-C, Fig. 4).
 *
 * Virtual register spaces: DRF/CRF indices are all virtual; ARF indices
 * 0..3 are the pre-colored identity registers A0-A3 and virtual numbering
 * starts above them.
 */
#ifndef IPIM_COMPILER_BUILDER_H_
#define IPIM_COMPILER_BUILDER_H_

#include <map>
#include <string>
#include <vector>

#include "common/config.h"
#include "isa/instruction.h"
#include "sim/pe.h"

namespace ipim {

/** Builder output: instructions + label binding positions. */
struct BuilderProgram
{
    std::vector<Instruction> insts;
    std::map<i32, size_t> labelPos; ///< label id -> instruction index
    std::string name;               ///< kernel name, for diagnostics
};

class CodeBuilder
{
  public:
    /** @p name names the kernel in diagnostics. */
    explicit CodeBuilder(const HardwareConfig &cfg, std::string name = {});

    // ---- virtual registers ----
    /// Each file holds at most 65536 virtuals; one more is fatal.
    u16 newDrf() { return newVirtual(nextDrf_, "DRF"); }
    u16 newArf() { return newVirtual(nextArf_, "ARF"); }
    u16 newCrf() { return newVirtual(nextCrf_, "CRF"); }

    /** Pre-colored identity ARF registers. */
    static u16 peId() { return kArfPeId; }
    static u16 pgId() { return kArfPgId; }
    static u16 vaultIdReg() { return kArfVaultId; }
    static u16 chipIdReg() { return kArfChipId; }

    /** Full simb mask for the configured vault. */
    u32 fullMask() const;

    /** simb mask of one PE slot across a set of PGs. */
    u32 maskFor(u32 pgMask, u32 peMask) const;

    void emit(Instruction inst) { prog_.insts.push_back(inst); }

    // ---- labels & loops ----
    i32 newLabel() { return nextLabel_++; }
    void bind(i32 label);

    /**
     * A counted loop executing @p count times (count must be >= 1 and is
     * a compile-time constant).  Usage:
     *   auto l = b.loopBegin(n); ... body ...; b.loopEnd(l);
     */
    struct Loop
    {
        u16 counter;
        u16 target;
        i32 headLabel;
    };
    Loop loopBegin(i64 count);
    void loopEnd(const Loop &l);

    // ---- common idioms ----
    /** ARF dst = immediate (via the zero register trick). */
    void arfLoadImm(u16 dst, i32 imm, u32 mask);

    /** A virtual ARF register that always holds zero (per mask). */
    u16 zeroArf(u32 mask);

    /**
     * A DRF register with all four lanes holding float @p v (materialized
     * once through the VSM constant pool).
     */
    u16 floatConst(f32 v);

    /** A DRF register with lanes [0, 1, 2, 3] as floats. */
    u16 laneRampF();

    /** A DRF register with lanes [0, 1, 2, 3] as INT32. */
    u16 laneRampI();

    /** A DRF register with all lanes holding int @p v. */
    u16 intConst(i32 v);

    /** Allocate @p bytes in the VSM (16B aligned); returns offset. */
    u32 vsmAlloc(u32 bytes);

    const HardwareConfig &cfg() const { return cfg_; }

    /** Finish: appends sync+halt, returns the program. */
    BuilderProgram finish(u32 syncPhase);

    size_t size() const { return prog_.insts.size(); }

  private:
    u16 newVirtual(u32 &next, const char *file);
    u16 materializeConst(const VecWord &v, u8 lanesUsed);

    const HardwareConfig &cfg_;
    BuilderProgram prog_;
    u32 nextDrf_ = 0;
    u32 nextArf_ = kNumReservedArf;
    u32 nextCrf_ = 0;
    i32 nextLabel_ = 0;
    u32 vsmTop_ = 0;

    u16 zeroArfReg_ = 0xFFFF;
    std::map<u32, u16> floatConsts_; ///< bit pattern -> DRF virtual
    std::map<i32, u16> intConsts_;
    u16 laneRampReg_ = 0xFFFF;
    u16 laneRampIReg_ = 0xFFFF;
};

} // namespace ipim

#endif // IPIM_COMPILER_BUILDER_H_

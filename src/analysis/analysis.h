/**
 * @file
 * One-call bundle of the per-program analyses: CFG, CRF constant
 * propagation, loop trip counts, value ranges, and per-instruction
 * access extents.  The Cfg is heap-allocated so the bundle can be
 * moved while ValueRanges and the dataflow results keep pointing at a
 * stable graph.
 */
#ifndef IPIM_ANALYSIS_ANALYSIS_H_
#define IPIM_ANALYSIS_ANALYSIS_H_

#include <memory>
#include <vector>

#include "analysis/cfg.h"
#include "analysis/dataflow.h"
#include "analysis/ranges.h"

namespace ipim {

/** All per-program analysis artifacts for one vault program. */
struct ProgramAnalysis
{
    std::unique_ptr<Cfg> cfg;
    ValueRanges ranges;
    std::vector<InstMemAccess> extents;

    /// Reachable sync instructions in program order (index, phaseId);
    /// the boundaries of the conflict analysis' phase segments.
    std::vector<std::pair<u32, u32>> syncs;
    /// False when a reachable sync sits inside a loop or a branch
    /// target is unresolved: phase segmentation (and with it the
    /// conflict analysis) is then impossible.
    bool segmentable = true;

    /**
     * Sync-phase segment of instruction @p instIdx: the number of
     * reachable syncs strictly before it in program order.  Segment k
     * of every vault executes inside the same pair of barriers, so
     * only same-segment accesses can overlap in time (Sec. IV-D).
     */
    int segmentOf(u32 instIdx) const;

    /** Number of segments (sync count + 1). */
    int numSegments() const { return int(syncs.size()) + 1; }
};

/**
 * Run the full per-program analysis pipeline.  @p chip / @p vaultInCube
 * pin the identity-register seeds when device context is known; pass
 * -1 to cover the whole geometry.
 */
ProgramAnalysis analyzeProgram(const HardwareConfig &hw,
                               const std::vector<Instruction> &prog,
                               int chip = -1, int vaultInCube = -1);

/** The same pipeline over an already built graph (Cfg::build). */
ProgramAnalysis analyzeProgram(const HardwareConfig &hw,
                               std::unique_ptr<Cfg> cfg, int chip = -1,
                               int vaultInCube = -1);

} // namespace ipim

#endif // IPIM_ANALYSIS_ANALYSIS_H_

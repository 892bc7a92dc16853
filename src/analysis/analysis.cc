#include "analysis/analysis.h"

#include <algorithm>

namespace ipim {

int
ProgramAnalysis::segmentOf(u32 instIdx) const
{
    auto it = std::lower_bound(
        syncs.begin(), syncs.end(), instIdx,
        [](const std::pair<u32, u32> &s, u32 i) { return s.first < i; });
    return int(it - syncs.begin());
}

ProgramAnalysis
analyzeProgram(const HardwareConfig &hw,
               const std::vector<Instruction> &prog, int chip,
               int vaultInCube)
{
    return analyzeProgram(hw, std::make_unique<Cfg>(Cfg::build(prog)),
                          chip, vaultInCube);
}

ProgramAnalysis
analyzeProgram(const HardwareConfig &hw, std::unique_ptr<Cfg> cfg,
               int chip, int vaultInCube)
{
    ProgramAnalysis pa;
    pa.cfg = std::move(cfg);
    const std::vector<Instruction> &prog = pa.cfg->prog();

    CrfConstProp cp = runCrfConstProp(hw, *pa.cfg);
    deriveTripCounts(hw, *pa.cfg, cp);

    pa.ranges = ValueRanges::run(hw, *pa.cfg, chip, vaultInCube);
    pa.extents = computeAccessExtents(hw, pa.ranges);

    pa.segmentable = pa.cfg->targetsResolved();
    for (int b = 0; b < pa.cfg->numBlocks(); ++b) {
        const BasicBlock &bb = pa.cfg->block(b);
        if (!bb.reachable)
            continue;
        for (u32 i = bb.first; i <= bb.last; ++i) {
            const Instruction &inst = prog[i];
            if (u8(inst.op) >= u8(Opcode::kNumOpcodes) ||
                inst.op != Opcode::kSync)
                continue;
            pa.syncs.push_back({i, inst.phaseId});
            if (pa.cfg->loopDepth(b) > 0)
                pa.segmentable = false;
        }
    }
    std::sort(pa.syncs.begin(), pa.syncs.end());
    return pa;
}

} // namespace ipim

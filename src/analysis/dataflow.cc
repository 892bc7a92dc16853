#include "analysis/dataflow.h"

#include <algorithm>

#include "isa/alu.h"

namespace ipim {

namespace {

/// AddrRF entries 0..3 are the reserved identity registers (PE/PG/
/// vault/chip id, see ReservedArf in sim/pe.h); the hardware writes
/// them at reset, so dataflow treats them as always-written.
constexpr u16 kIdentityArfs = 4;

bool
validOp(const Instruction &inst)
{
    return u8(inst.op) < u8(Opcode::kNumOpcodes) &&
           u8(inst.aluOp) < u8(AluOp::kNumAluOps);
}

u32
execMask(const Instruction &inst, u32 fullMask)
{
    return isBroadcast(inst.op) ? (inst.simbMask & fullMask) : 1u;
}

u32
vaultFullMask(const HardwareConfig &hw)
{
    u32 pes = hw.pesPerVault();
    return pes >= 32 ? 0xFFFFFFFFu : ((1u << pes) - 1);
}

} // namespace

// ========================== RegEffects =============================

RegEffects::RegEffects(const HardwareConfig &hw, const Cfg &cfg)
    : regs(hw)
{
    const u32 fullMask = vaultFullMask(hw);
    const std::vector<Instruction> &prog = cfg.prog();
    begin.reserve(prog.size() + 1);
    readsAt.reserve(prog.size());
    auto add = [&](const RegRef &ref, u32 mask) {
        size_t r = regs.index(ref.file, ref.idx);
        if (r < regs.size())
            effects.push_back(
                {u32(r), ref.file == RegFile::kCrf ? ~0u : mask});
    };
    for (const Instruction &inst : prog) {
        begin.push_back(u32(effects.size()));
        if (!validOp(inst)) {
            readsAt.push_back(u32(effects.size()));
            continue;
        }
        AccessSet acc = inst.accessSet();
        u32 mask = execMask(inst, fullMask);
        for (u8 w = 0; w < acc.numWrites; ++w)
            add(acc.writes[w], mask);
        readsAt.push_back(u32(effects.size()));
        for (u8 rd = 0; rd < acc.numReads; ++rd)
            add(acc.reads[rd], mask);
    }
    begin.push_back(u32(effects.size()));
}

// ===================== WrittenBeforeAnalysis =======================

WrittenBeforeAnalysis::State
WrittenBeforeAnalysis::boundary() const
{
    State s(fx.regs.size(), 0u);
    for (u16 a = 0; a < kIdentityArfs && a < fx.regs.arf; ++a)
        s[fx.regs.index(RegFile::kArf, a)] = ~0u;
    return s;
}

// ====================== CrfConstPropAnalysis =======================

void
CrfConstPropAnalysis::transfer(State &s, u32 instIdx) const
{
    const Instruction &inst = cfg.prog()[instIdx];
    if (!validOp(inst))
        return;
    if (inst.op == Opcode::kSetiCrf) {
        if (inst.dst < crfEntries)
            s[inst.dst] = ConstVal::cst(inst.imm);
        return;
    }
    if (inst.op != Opcode::kCalcCrf)
        return;
    if (inst.dst >= crfEntries)
        return;
    ConstVal a = inst.src1 < crfEntries ? s[inst.src1]
                                        : ConstVal::nonconst();
    ConstVal b = inst.srcImm ? ConstVal::cst(inst.imm)
                 : inst.src2 < crfEntries ? s[inst.src2]
                                          : ConstVal::nonconst();
    // Uninit registers hold the reset value 0 at runtime; folding them
    // as 0 would hide the V08/V11 diagnostics, so poison the result.
    bool known = a.isConst() && b.isConst();
    bool evaluable = known && inst.aluOp != AluOp::kMac &&
                     !((inst.aluOp == AluOp::kDiv ||
                        inst.aluOp == AluOp::kMod) &&
                       b.value == 0);
    s[inst.dst] = evaluable
                      ? ConstVal::cst(aluEvalI32(inst.aluOp, a.value,
                                                 b.value))
                      : ConstVal::nonconst();
}

// ========================= CrfConstProp ============================

std::vector<ConstVal>
CrfConstProp::atInst(u32 instIdx) const
{
    int b = analysis.cfg.blockOf(instIdx);
    const BasicBlock &bb = analysis.cfg.block(b);
    std::vector<ConstVal> s = blockIn[size_t(b)];
    for (u32 i = bb.first; i < instIdx; ++i)
        analysis.transfer(s, i);
    return s;
}

std::vector<ConstVal>
CrfConstProp::headerEntryOnly(const NaturalLoop &loop) const
{
    const Cfg &cfg = analysis.cfg;
    std::vector<ConstVal> s = analysis.top();
    bool any = false;
    for (int p : cfg.block(loop.header).preds) {
        if (loop.contains(p))
            continue; // latch / in-loop edge
        std::vector<ConstVal> out = blockIn[size_t(p)];
        const BasicBlock &pb = cfg.block(p);
        for (u32 i = pb.first; i <= pb.last; ++i)
            analysis.transfer(out, i);
        analysis.meet(s, out);
        any = true;
    }
    if (loop.header == 0 || !any)
        analysis.meet(s, analysis.boundary());
    return s;
}

CrfConstProp
runCrfConstProp(const HardwareConfig &hw, const Cfg &cfg)
{
    CrfConstProp cp{CrfConstPropAnalysis(hw, cfg), {}};
    cp.blockIn = solveDataflow(cfg, cp.analysis);
    return cp;
}

// ======================== trip-count idiom =========================

void
deriveTripCounts(const HardwareConfig &hw, Cfg &cfg,
                 const CrfConstProp &cp)
{
    const std::vector<Instruction> &prog = cfg.prog();
    for (NaturalLoop &loop : cfg.loops()) {
        // Latch terminator must be `cjump counter, target`.  Multiple
        // latches break the counted idiom.
        if (loop.latches.size() != 1)
            continue;
        const BasicBlock &latch = cfg.block(loop.latches[0]);
        const Instruction &term = prog[latch.last];
        if (!validOp(term) || term.op != Opcode::kCjump)
            continue;
        u16 counter = term.src1;
        if (counter >= hw.ctrlRfEntries)
            continue;

        // Exactly one in-loop def of the counter, and it must be the
        // immediate-increment form `calc_crf add/sub c, c, #k`.
        i64 step = 0;
        int defs = 0;
        for (int b : loop.blocks) {
            const BasicBlock &bb = cfg.block(b);
            for (u32 i = bb.first; i <= bb.last; ++i) {
                const Instruction &inst = prog[i];
                if (!validOp(inst))
                    continue;
                bool writes =
                    (inst.op == Opcode::kSetiCrf ||
                     inst.op == Opcode::kCalcCrf) &&
                    inst.dst == counter;
                if (!writes)
                    continue;
                ++defs;
                if (inst.op == Opcode::kCalcCrf && inst.srcImm &&
                    inst.src1 == counter &&
                    (inst.aluOp == AluOp::kAdd ||
                     inst.aluOp == AluOp::kSub))
                    step = inst.aluOp == AluOp::kAdd ? i64(inst.imm)
                                                     : -i64(inst.imm);
            }
        }
        if (defs != 1 || step == 0)
            continue;

        // Initial value: the counter constant on loop entry.
        std::vector<ConstVal> entry = cp.headerEntryOnly(loop);
        if (counter >= entry.size() || !entry[counter].isConst())
            continue;
        i64 init = entry[counter].value;

        // cjump re-enters while counter != 0 after the step: the body
        // runs init / -step times when that divides evenly (otherwise
        // the counter steps over zero and the loop is unbounded —
        // leave the count unknown).
        if (init == 0 || (init > 0) == (step > 0))
            continue;
        if (init % step != 0)
            continue;
        i64 trips = -(init / step);
        if (trips <= 0)
            continue;
        loop.tripCount = trips;
        loop.counterCrf = counter;
        loop.counterStep = step;
    }
}

} // namespace ipim

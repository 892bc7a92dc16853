#include "compiler/builder.h"

#include "common/logging.h"

namespace ipim {

CodeBuilder::CodeBuilder(const HardwareConfig &cfg, std::string name)
    : cfg_(cfg)
{
    prog_.name = std::move(name);
}

u16
CodeBuilder::newVirtual(u32 &next, const char *file)
{
    if (next > 0xFFFF)
        fatal("kernel '", prog_.name, "': more than 65536 virtual ", file,
              " registers");
    return u16(next++);
}

u32
CodeBuilder::fullMask() const
{
    u32 n = cfg_.pesPerVault();
    return n >= 32 ? 0xFFFFFFFFu : ((1u << n) - 1);
}

u32
CodeBuilder::maskFor(u32 pgMask, u32 peMask) const
{
    u32 mask = 0;
    for (u32 pg = 0; pg < cfg_.pgsPerVault; ++pg) {
        if (!(pgMask & (1u << pg)))
            continue;
        for (u32 pe = 0; pe < cfg_.pesPerPg; ++pe) {
            if (peMask & (1u << pe))
                mask |= 1u << (pg * cfg_.pesPerPg + pe);
        }
    }
    return mask;
}

void
CodeBuilder::bind(i32 label)
{
    if (prog_.labelPos.count(label))
        panic("label ", label, " bound twice");
    prog_.labelPos[label] = prog_.insts.size();
}

CodeBuilder::Loop
CodeBuilder::loopBegin(i64 count)
{
    if (count < 1)
        panic("loopBegin with count ", count);
    Loop l;
    l.counter = newCrf();
    l.target = newCrf();
    l.headLabel = newLabel();
    emit(Instruction::setiCrf(l.counter, i32(count)));
    Instruction target = Instruction::setiCrf(l.target, 0);
    target.label = l.headLabel;
    emit(target);
    bind(l.headLabel);
    return l;
}

void
CodeBuilder::loopEnd(const Loop &l)
{
    emit(Instruction::calcCrfImm(AluOp::kAdd, l.counter, l.counter, -1));
    emit(Instruction::cjump(l.counter, l.target));
}

u16
CodeBuilder::zeroArf(u32 mask)
{
    if (zeroArfReg_ == 0xFFFF) {
        zeroArfReg_ = newArf();
        emit(Instruction::calcArf(AluOp::kXor, zeroArfReg_, peId(),
                                  peId(), fullMask()));
    }
    (void)mask;
    return zeroArfReg_;
}

void
CodeBuilder::arfLoadImm(u16 dst, i32 imm, u32 mask)
{
    emit(Instruction::calcArfImm(AluOp::kAdd, dst, zeroArf(mask), imm,
                                 mask));
}

u32
CodeBuilder::vsmAlloc(u32 bytes)
{
    u32 off = vsmTop_;
    vsmTop_ += (bytes + 15u) & ~15u;
    if (vsmTop_ > cfg_.vsmBytes)
        fatal("VSM exhausted: kernel needs ", vsmTop_, " bytes of ",
              cfg_.vsmBytes);
    return off;
}

u16
CodeBuilder::materializeConst(const VecWord &v, u8 lanesUsed)
{
    u32 off = vsmAlloc(kVectorBytes);
    for (int l = 0; l < kSimdLanes; ++l) {
        if (lanesUsed & (1u << l))
            emit(Instruction::setiVsm(off + 4 * l, i32(v.lanes[l])));
    }
    u16 reg = newDrf();
    emit(Instruction::vsmRf(true, MemOperand::direct(off), reg,
                            fullMask()));
    return reg;
}

u16
CodeBuilder::floatConst(f32 v)
{
    u32 bits = f32AsLane(v);
    auto it = floatConsts_.find(bits);
    if (it != floatConsts_.end())
        return it->second;
    u16 reg = materializeConst(VecWord::splatF32(v), 0xF);
    floatConsts_[bits] = reg;
    return reg;
}

u16
CodeBuilder::intConst(i32 v)
{
    auto it = intConsts_.find(v);
    if (it != intConsts_.end())
        return it->second;
    u16 reg = materializeConst(VecWord::splatI32(v), 0xF);
    intConsts_[v] = reg;
    return reg;
}

u16
CodeBuilder::laneRampF()
{
    if (laneRampReg_ != 0xFFFF)
        return laneRampReg_;
    VecWord v;
    for (int l = 0; l < kSimdLanes; ++l)
        v.lanes[l] = f32AsLane(f32(l));
    laneRampReg_ = materializeConst(v, 0xF);
    return laneRampReg_;
}

u16
CodeBuilder::laneRampI()
{
    if (laneRampIReg_ != 0xFFFF)
        return laneRampIReg_;
    VecWord v;
    for (int l = 0; l < kSimdLanes; ++l)
        v.lanes[l] = i32AsLane(l);
    laneRampIReg_ = materializeConst(v, 0xF);
    return laneRampIReg_;
}

BuilderProgram
CodeBuilder::finish(u32 syncPhase)
{
    emit(Instruction::sync(syncPhase));
    emit(Instruction::halt());
    return std::move(prog_);
}

} // namespace ipim

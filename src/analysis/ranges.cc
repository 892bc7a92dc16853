#include "analysis/ranges.h"

#include <algorithm>

namespace ipim {

namespace {

bool
validOp(const Instruction &inst)
{
    return u8(inst.op) < u8(Opcode::kNumOpcodes) &&
           u8(inst.aluOp) < u8(AluOp::kNumAluOps);
}

/// Bounds beyond this magnitude widen to Unknown: address arithmetic
/// never legitimately leaves the device's few-GB address ranges, and
/// capping keeps the interval products inside i64.
constexpr i64 kMagnitudeCap = i64(1) << 40;

/// Sort key of a scalar register: (file, index) packed into 32 bits.
u32
defKey(RegFile f, u16 reg)
{
    return u32(f == RegFile::kCrf ? 0 : 1) << 16 | reg;
}

ValueInterval
capped(i64 lo, i64 hi)
{
    if (lo > hi)
        std::swap(lo, hi);
    if (lo < -kMagnitudeCap || hi > kMagnitudeCap)
        return ValueInterval::unknown();
    return ValueInterval::range(lo, hi);
}

} // namespace

void
ValueInterval::join(const ValueInterval &o)
{
    if (o.kind == kTop)
        return;
    if (kind == kTop) {
        *this = o;
        return;
    }
    if (kind == kUnknown || o.kind == kUnknown) {
        *this = unknown();
        return;
    }
    lo = std::min(lo, o.lo);
    hi = std::max(hi, o.hi);
}

ValueInterval
intervalEval(AluOp op, const ValueInterval &a, const ValueInterval &b)
{
    if (!a.known() || !b.known())
        return ValueInterval::unknown();
    switch (op) {
      case AluOp::kAdd:
        return capped(a.lo + b.lo, a.hi + b.hi);
      case AluOp::kSub:
        return capped(a.lo - b.hi, a.hi - b.lo);
      case AluOp::kMul: {
        i64 c[4] = {a.lo * b.lo, a.lo * b.hi, a.hi * b.lo, a.hi * b.hi};
        return capped(*std::min_element(c, c + 4),
                      *std::max_element(c, c + 4));
      }
      case AluOp::kDiv:
        // Floor division by a positive constant is monotonic.
        if (b.isConst() && b.lo > 0) {
            auto fdiv = [&](i64 x) {
                i64 q = x / b.lo;
                return (x % b.lo != 0 && x < 0) ? q - 1 : q;
            };
            return capped(fdiv(a.lo), fdiv(a.hi));
        }
        return ValueInterval::unknown();
      case AluOp::kMod:
        if (b.isConst() && b.lo > 0)
            return ValueInterval::range(0, b.lo - 1); // floor modulo
        return ValueInterval::unknown();
      case AluOp::kShl:
        if (b.isConst() && b.lo >= 0 && b.lo < 32)
            return capped(a.lo << b.lo, a.hi << b.lo);
        return ValueInterval::unknown();
      case AluOp::kShr:
        if (b.isConst() && b.lo >= 0 && b.lo < 32 && a.lo >= 0)
            return ValueInterval::range(a.lo >> b.lo, a.hi >> b.lo);
        return ValueInterval::unknown();
      case AluOp::kAnd:
        // Masking with a non-negative constant bounds the result.
        if (b.isConst() && b.lo >= 0)
            return ValueInterval::range(0, b.lo);
        if (a.isConst() && a.lo >= 0)
            return ValueInterval::range(0, a.lo);
        return ValueInterval::unknown();
      case AluOp::kCropMsb:
        // Keep only the low b bits: result in [0, 2^b).
        if (b.isConst() && b.lo >= 0 && b.lo < 32)
            return ValueInterval::range(0, (i64(1) << b.lo) - 1);
        return ValueInterval::unknown();
      case AluOp::kCropLsb:
        // Zeroing low bits only shrinks a non-negative value.
        if (a.lo >= 0)
            return ValueInterval::range(0, a.hi);
        return ValueInterval::unknown();
      case AluOp::kMin:
        return capped(std::min(a.lo, b.lo), std::min(a.hi, b.hi));
      case AluOp::kMax:
        return capped(std::max(a.lo, b.lo), std::max(a.hi, b.hi));
      default:
        return ValueInterval::unknown();
    }
}

// ========================== ValueRanges ============================

RangeState
ValueRanges::topState() const
{
    RangeState s;
    s.crf.resize(hw_->ctrlRfEntries);
    s.arf.resize(hw_->addrRfEntries());
    return s;
}

RangeState
ValueRanges::seedState(int chip, int vaultInCube) const
{
    RangeState s = topState();
    for (ValueInterval &iv : s.crf)
        iv = ValueInterval::cst(0); // CtrlRF resets to zero
    for (ValueInterval &iv : s.arf)
        iv = ValueInterval::cst(0);
    // Identity AddrRF registers (ReservedArf in sim/pe.h), merged over
    // the vault's PEs.
    if (s.arf.size() > 0)
        s.arf[0] = ValueInterval::range(0, i64(hw_->pesPerPg) - 1);
    if (s.arf.size() > 1)
        s.arf[1] = ValueInterval::range(0, i64(hw_->pgsPerVault) - 1);
    if (s.arf.size() > 2)
        s.arf[2] = vaultInCube >= 0
                       ? ValueInterval::cst(vaultInCube)
                       : ValueInterval::range(0, i64(hw_->vaultsPerCube) - 1);
    if (s.arf.size() > 3)
        s.arf[3] = chip >= 0 ? ValueInterval::cst(chip)
                             : ValueInterval::range(0, i64(hw_->cubes) - 1);
    return s;
}

void
ValueRanges::joinState(RangeState &into, const RangeState &o) const
{
    for (size_t i = 0; i < into.crf.size(); ++i)
        into.crf[i].join(o.crf[i]);
    for (size_t i = 0; i < into.arf.size(); ++i)
        into.arf[i].join(o.arf[i]);
}

void
ValueRanges::applyInst(RangeState &s, u32 instIdx) const
{
    const Instruction &inst = cfg_->prog()[instIdx];
    if (!validOp(inst))
        return;
    switch (inst.op) {
      case Opcode::kSetiCrf:
        if (inst.dst < s.crf.size())
            s.crf[inst.dst] = ValueInterval::cst(inst.imm);
        break;
      case Opcode::kCalcCrf: {
        if (inst.dst >= s.crf.size())
            break;
        ValueInterval a = inst.src1 < s.crf.size() ? s.crf[inst.src1]
                                              : ValueInterval::unknown();
        ValueInterval b = inst.srcImm ? ValueInterval::cst(inst.imm)
                     : inst.src2 < s.crf.size() ? s.crf[inst.src2]
                                                : ValueInterval::unknown();
        s.crf[inst.dst] = intervalEval(inst.aluOp, a, b);
        break;
      }
      case Opcode::kCalcArf: {
        if (inst.dst >= s.arf.size())
            break;
        ValueInterval a = inst.src1 < s.arf.size() ? s.arf[inst.src1]
                                              : ValueInterval::unknown();
        ValueInterval b = inst.srcImm ? ValueInterval::cst(inst.imm)
                     : inst.src2 < s.arf.size() ? s.arf[inst.src2]
                                                : ValueInterval::unknown();
        s.arf[inst.dst] = intervalEval(inst.aluOp, a, b);
        break;
      }
      case Opcode::kMovDrfToArf:
        // DataRF values are not tracked.
        if (inst.dst < s.arf.size())
            s.arf[inst.dst] = ValueInterval::unknown();
        break;
      default:
        break;
    }
}

ValueRanges
ValueRanges::run(const HardwareConfig &hw, const Cfg &cfg, int chip,
                 int vaultInCube)
{
    ValueRanges vr;
    vr.hw_ = &hw;
    vr.cfg_ = &cfg;

    // ---- per-loop register defs and induction registers ----
    // Only seti_crf/calc_crf (CRF) and calc_arf/mov_drf_arf (ARF) write
    // the scalar files, one register each.
    const std::vector<Instruction> &prog = cfg.prog();
    const std::vector<NaturalLoop> &loops = cfg.loops();
    vr.induction_.resize(loops.size());
    vr.loopDefs_.resize(loops.size());
    std::vector<std::pair<u32, u32>> defs; // (key, inst), one per def
    for (size_t li = 0; li < loops.size(); ++li) {
        defs.clear();
        for (int b : loops[li].blocks) {
            const BasicBlock &bb = cfg.block(b);
            for (u32 i = bb.first; i <= bb.last; ++i) {
                const Instruction &inst = prog[i];
                if (!validOp(inst))
                    continue;
                bool isCrf = inst.op == Opcode::kCalcCrf ||
                             inst.op == Opcode::kSetiCrf;
                bool isArf = inst.op == Opcode::kCalcArf ||
                             inst.op == Opcode::kMovDrfToArf;
                if (isCrf || isArf)
                    defs.push_back(
                        {defKey(isCrf ? RegFile::kCrf : RegFile::kArf,
                                inst.dst),
                         i});
            }
        }
        std::sort(defs.begin(), defs.end());
        for (size_t k = 0, next = 0; k < defs.size(); k = next) {
            next = k + 1;
            while (next < defs.size() && defs[next].first == defs[k].first)
                ++next;
            u32 count = u32(next - k);
            vr.loopDefs_[li].push_back(
                {defs[k].first, defs[k].second, count});
            // A single-def increment `calc add/sub r, r, #k`.
            const Instruction &inst = prog[defs[k].second];
            bool increment = count == 1 &&
                             (inst.op == Opcode::kCalcCrf ||
                              inst.op == Opcode::kCalcArf) &&
                             inst.srcImm && inst.src1 == inst.dst &&
                             (inst.aluOp == AluOp::kAdd ||
                              inst.aluOp == AluOp::kSub);
            if (increment && inst.imm != 0)
                vr.induction_[li].push_back(
                    {inst.op == Opcode::kCalcCrf ? RegFile::kCrf
                                                 : RegFile::kArf,
                     inst.dst,
                     inst.aluOp == AluOp::kAdd ? i64(inst.imm)
                                               : -i64(inst.imm)});
        }
    }

    // ---- widening fixpoint with induction summarization ----
    const int n = cfg.numBlocks();
    const RangeState top = vr.topState();
    vr.blockIn_.assign(size_t(n), top);
    if (n == 0)
        return vr;
    std::vector<RangeState> blockOut(size_t(n), top);
    const RangeState seed = vr.seedState(chip, vaultInCube);
    std::vector<int> headerLoop(size_t(n), -1);
    for (size_t li = 0; li < loops.size(); ++li)
        headerLoop[size_t(loops[li].header)] = int(li);

    // A block is re-evaluated only when a predecessor's out-state
    // changed since its last visit: otherwise it would recompute the
    // state it already holds (widening included, which is idempotent
    // on unchanged inputs), so skipping it changes nothing.
    std::vector<bool> dirty(size_t(n), true);
    RangeState in, latchOut, entry;

    constexpr int kWidenPass = 8;
    for (int pass = 0; pass < 2 * kWidenPass; ++pass) {
        bool changed = false;
        for (int b : cfg.rpo()) {
            if (!dirty[size_t(b)])
                continue;
            dirty[size_t(b)] = false;
            const BasicBlock &bb = cfg.block(b);
            int hl = headerLoop[size_t(b)];

            // Top is the join identity, so the first contribution is
            // copied rather than joined into a fresh top state.
            bool first = true;
            auto join = [&](const RangeState &o) {
                if (first)
                    in = o;
                else
                    vr.joinState(in, o);
                first = false;
            };
            if (b == 0 || bb.preds.empty())
                join(seed);
            for (int p : bb.preds) {
                bool backEdge = hl >= 0 && loops[size_t(hl)].contains(p);
                if (!backEdge) {
                    join(blockOut[size_t(p)]);
                    continue;
                }
                // Back edge: replace the induction registers'
                // contribution with the trip-count summary
                //   entry + [min(0, (T-1)k), max(0, (T-1)k)]
                // so they converge without widening to Unknown.
                const NaturalLoop &loop = loops[size_t(hl)];
                latchOut = blockOut[size_t(p)];
                if (loop.tripCount > 0) {
                    // Entry-only join (recomputed from current outs).
                    entry = top;
                    bool any = false;
                    for (int q : bb.preds) {
                        if (loop.contains(q))
                            continue;
                        vr.joinState(entry, blockOut[size_t(q)]);
                        any = true;
                    }
                    if (b == 0 || !any)
                        vr.joinState(entry, seed);
                    for (const InductionVar &ivr :
                         vr.induction_[size_t(hl)]) {
                        i64 span = (loop.tripCount - 1) * ivr.step;
                        auto &reg = ivr.file == RegFile::kCrf
                                        ? latchOut.crf[ivr.reg]
                                        : latchOut.arf[ivr.reg];
                        const auto &ent = ivr.file == RegFile::kCrf
                                              ? entry.crf[ivr.reg]
                                              : entry.arf[ivr.reg];
                        if (ent.known())
                            reg = capped(ent.lo + std::min<i64>(0, span),
                                         ent.hi +
                                             std::max<i64>(0, span));
                        else
                            reg = ValueInterval::unknown();
                    }
                }
                join(latchOut);
            }
            if (first)
                in = top;

            RangeState &stored = vr.blockIn_[size_t(b)];
            if (in == stored)
                continue;
            if (pass >= kWidenPass) {
                // Still growing: widen every unstable register.
                for (size_t i = 0; i < in.crf.size(); ++i)
                    if (!(in.crf[i] == stored.crf[i]) &&
                        stored.crf[i].kind != ValueInterval::kTop)
                        in.crf[i] = ValueInterval::unknown();
                for (size_t i = 0; i < in.arf.size(); ++i)
                    if (!(in.arf[i] == stored.arf[i]) &&
                        stored.arf[i].kind != ValueInterval::kTop)
                        in.arf[i] = ValueInterval::unknown();
                if (in == stored)
                    continue;
            }
            stored = in;
            RangeState &out = blockOut[size_t(b)];
            std::swap(out, in); // `in` is rebuilt on the next visit
            for (u32 i = bb.first; i <= bb.last; ++i)
                vr.applyInst(out, i);
            for (int s : bb.succs)
                dirty[size_t(s)] = true;
            changed = true;
        }
        if (!changed)
            break;
    }
    return vr;
}

ValueInterval
ValueRanges::resolve(const RangeState &s, const MemOperand &m,
                     RegFile addrFile) const
{
    if (!m.indirect)
        return ValueInterval::cst(i64(m.value));
    const std::vector<ValueInterval> &file =
        addrFile == RegFile::kCrf ? s.crf : s.arf;
    ValueInterval base = m.value < file.size() ? file[m.value]
                                          : ValueInterval::unknown();
    return intervalEval(AluOp::kAdd, base, ValueInterval::cst(m.offset));
}

i64
ValueRanges::addressStep(u32 instIdx, const MemOperand &m,
                         RegFile addrFile) const
{
    if (!m.indirect)
        return 0;
    int li = cfg_->innermostLoop(cfg_->blockOf(instIdx));
    if (li < 0)
        return 0; // not in a loop: executes once
    return regStep(li, addrFile, m.value, /*depth=*/4);
}

/**
 * Per-iteration step of one register inside loop @p loopIdx: the
 * induction step, 0 when loop-invariant (or rewritten to the same
 * immediate each iteration), or — for the compiler's addressing idiom
 * `calc add tmp, ivar, #off` — the step of the register it is derived
 * from, chased through at most @p depth single-def affine hops.
 */
i64
ValueRanges::regStep(int loopIdx, RegFile file, u16 reg,
                     int depth) const
{
    for (const InductionVar &v : induction_[size_t(loopIdx)])
        if (v.file == file && v.reg == reg)
            return v.step;
    const std::vector<LoopDef> &defs = loopDefs_[size_t(loopIdx)];
    u32 key = defKey(file, reg);
    auto it = std::lower_bound(
        defs.begin(), defs.end(), key,
        [](const LoopDef &d, u32 k) { return d.key < k; });
    if (it == defs.end() || it->key != key)
        return 0; // loop-invariant
    if (it->count > 1)
        return kUnknownStep; // multiple in-loop defs
    const Instruction *def = &cfg_->prog()[it->inst];
    if (def->op == Opcode::kSetiCrf && file == RegFile::kCrf)
        return 0; // same constant every iteration
    bool affine =
        ((file == RegFile::kCrf && def->op == Opcode::kCalcCrf) ||
         (file == RegFile::kArf && def->op == Opcode::kCalcArf)) &&
        def->srcImm &&
        (def->aluOp == AluOp::kAdd || def->aluOp == AluOp::kSub);
    if (affine && depth > 0)
        return regStep(loopIdx, file, def->src1, depth - 1);
    return kUnknownStep;
}

// ======================== access extents ===========================

namespace {

Extent
toExtent(const ValueInterval &addr, u64 width)
{
    if (!addr.known())
        return Extent::unknown();
    if (addr.lo < 0)
        return Extent::unknown(); // negative address: V02's territory
    return Extent::bytes(u64(addr.lo), u64(addr.hi) + width);
}

} // namespace

std::vector<InstMemAccess>
computeAccessExtents(const HardwareConfig &hw, const ValueRanges &vr)
{
    const Cfg &cfg = vr.cfg();
    const std::vector<Instruction> &prog = cfg.prog();
    std::vector<InstMemAccess> out(prog.size());

    for (int b = 0; b < cfg.numBlocks(); ++b) {
        const BasicBlock &bb = cfg.block(b);
        if (!bb.reachable)
            continue;
        RangeState s = vr.blockIn(b);
        for (u32 i = bb.first; i <= bb.last; ++i) {
            const Instruction &inst = prog[i];
            InstMemAccess &acc = out[i];
            if (validOp(inst)) {
                auto addr = [&](const MemOperand &m, RegFile f) {
                    return vr.resolve(s, m, f);
                };
                switch (inst.op) {
                  case Opcode::kStRf:
                  case Opcode::kStPgsm:
                    acc.bankWrite = toExtent(
                        addr(inst.dramAddr, RegFile::kArf),
                        kVectorBytes);
                    break;
                  case Opcode::kWrVsm:
                    acc.vsmWrite = toExtent(
                        addr(inst.vsmAddr, RegFile::kArf),
                        kVectorBytes);
                    acc.vsmWriteStep =
                        vr.addressStep(i, inst.vsmAddr, RegFile::kArf);
                    break;
                  case Opcode::kSetiVsm:
                    acc.vsmWrite =
                        toExtent(addr(inst.vsmAddr, RegFile::kCrf), 4);
                    acc.vsmWriteStep =
                        vr.addressStep(i, inst.vsmAddr, RegFile::kCrf);
                    break;
                  case Opcode::kReq:
                    // Core-side indirection resolves through the
                    // CtrlRF (see Vault::issueStep).
                    acc.isReq = true;
                    acc.dstChip = inst.dstChip;
                    acc.dstVault = inst.dstVault;
                    acc.dstPg = inst.dstPg;
                    acc.dstPe = inst.dstPe;
                    acc.remoteBank = toExtent(
                        addr(inst.dramAddr, RegFile::kCrf),
                        kVectorBytes);
                    acc.vsmWrite = toExtent(
                        addr(inst.vsmAddr, RegFile::kCrf),
                        kVectorBytes);
                    acc.vsmWriteStep =
                        vr.addressStep(i, inst.vsmAddr, RegFile::kCrf);
                    break;
                  default:
                    break;
                }
            }
            vr.applyInst(s, i);
        }
    }
    (void)hw;
    return out;
}

} // namespace ipim

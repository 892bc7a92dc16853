#include "compiler/codegen.h"

#include <algorithm>
#include <functional>
#include <numeric>

#include "analysis/analysis.h"
#include "analysis/conflict.h"
#include "common/logging.h"
#include "compiler/codegen_internal.h"
#include "verify/verifier.h"

namespace ipim {

using namespace codegen;

namespace {

/** Static expression type (int vs float); mixed arithmetic is an error. */
bool
isIntExpr(const Expr &e)
{
    const ExprNode &n = e.node();
    switch (n.kind) {
      case ExprKind::kConstF: return false;
      case ExprKind::kConstI: return true;
      case ExprKind::kVar: return true;
      case ExprKind::kCall: return false;
      case ExprKind::kCastI: return true;
      case ExprKind::kCastF: return false;
      default: {
        bool first = isIntExpr(n.kids[0]);
        for (size_t i = 1; i < n.kids.size(); ++i)
            if (isIntExpr(n.kids[i]) != first)
                fatal("mixed int/float arithmetic without a cast: ",
                      exprToString(e));
        return first;
      }
    }
}

/**
 * Emits the kernels of one stage: a per-vault program implementing the
 * halo exchange and the tile computation described in codegen.h.
 */
class StageEmitter
{
  public:
    StageEmitter(const HardwareConfig &cfg, const PipelineAnalysis &pa,
                 const LayoutMap &lay, const StageInfo &stage,
                 u64 scratchBase)
        : cfg_(cfg), pa_(pa), lay_(lay), stage_(stage),
          scratchBase_(scratchBase), L_(lay.of(stage.func))
    {
        buildPlans();
    }

    /** Emit the program for one global vault. */
    BuilderProgram
    emitVault(u32 globalVault)
    {
        V_ = globalVault;
        b_ = std::make_unique<CodeBuilder>(
            cfg_, stage_.func->name() + " vault " +
                      std::to_string(globalVault));
        resetCaches();
        if (stage_.isReduction)
            emitReduction();
        else if (stage_.func->storage() == StorageKind::kReplicated)
            emitReplicated();
        else
            emitPointwise();
        return b_->finish(1);
    }

  private:
    // ---------------- common helpers ----------------

    void
    resetCaches()
    {
        peTimesCache_.clear();
        pgTimesCache_.clear();
        pgTableCache_.clear();
        sumCache_.clear();
    }

    u32 P() const { return cfg_.pesPerPg; }
    u32 fullPeMask() const { return (1u << P()) - 1; }

    /** ARF register holding A0 * k. */
    u16
    peTimes(i64 k)
    {
        auto it = peTimesCache_.find(k);
        if (it != peTimesCache_.end())
            return it->second;
        u16 r = b_->newArf();
        b_->emit(Instruction::calcArfImm(AluOp::kMul, r,
                                         CodeBuilder::peId(), i32(k),
                                         b_->fullMask()));
        peTimesCache_[k] = r;
        return r;
    }

    /** ARF register holding A1 * k. */
    u16
    pgTimes(i64 k)
    {
        auto it = pgTimesCache_.find(k);
        if (it != pgTimesCache_.end())
            return it->second;
        u16 r = b_->newArf();
        b_->emit(Instruction::calcArfImm(AluOp::kMul, r,
                                         CodeBuilder::pgId(), i32(k),
                                         b_->fullMask()));
        pgTimesCache_[k] = r;
        return r;
    }

    /**
     * ARF register holding a per-PG value: the core writes a small table
     * into the VSM and every PE reads its own PG's entry (indexed by the
     * A1 identity register).  Used where per-PG constants are not affine
     * in the PG id (proportional strip boundaries).
     */
    u16
    pgTableArf(const std::vector<i32> &perPg)
    {
        auto it = pgTableCache_.find(perPg);
        if (it != pgTableCache_.end())
            return it->second;
        u32 base = b_->vsmAlloc(u32(perPg.size()) * 4 + 16);
        for (size_t p = 0; p < perPg.size(); ++p)
            b_->emit(Instruction::setiVsm(base + u32(p) * 4, perPg[p]));
        u32 all = b_->fullMask();
        u16 tmp = b_->newDrf();
        Instruction rd = Instruction::vsmRf(
            true, MemOperand::basePlus(pgTimes(4), i64(base)), tmp, all);
        rd.vecMask = 0x1; // lane 0 carries this PG's entry
        b_->emit(rd);
        u16 reg = b_->newArf();
        b_->emit(Instruction::movDrfArf(true, reg, tmp, 0, all));
        pgTableCache_[perPg] = reg;
        return reg;
    }

    /** ARF register holding ra + rb (cached). */
    u16
    arfSum(u16 ra, u16 rb)
    {
        auto key = std::minmax(ra, rb);
        auto it = sumCache_.find(key);
        if (it != sumCache_.end())
            return it->second;
        u16 r = b_->newArf();
        b_->emit(Instruction::calcArf(AluOp::kAdd, r, ra, rb,
                                      b_->fullMask()));
        sumCache_[key] = r;
        return r;
    }

    /** Fresh ARF temp = reg + imm (one calc_arf). */
    u16
    arfAddImm(u16 reg, i64 imm, u32 mask)
    {
        u16 r = b_->newArf();
        b_->emit(Instruction::calcArfImm(AluOp::kAdd, r, reg, i32(imm),
                                         mask));
        return r;
    }

    u32
    activeMask(u32 pgMask, u32 peMask) const
    {
        return b_->maskFor(pgMask, peMask);
    }

    // ---------------- planning ----------------

    void buildPlans();
    void planCallee(const Func *g, const std::vector<CallSite> &calls);
    void buildVaultHaloPlan();

    /** Rows a PGSM buffer needs for one output tile row. */
    Interval
    calleeRowHull(const CalleePlan &cp, i64 outY0) const
    {
        Interval out;
        for (const CallSite &cs : calleeCalls_.at(cp.g)) {
            Interval yr{outY0, outY0 + L_.ty() - 1};
            Interval v = indexInterval(cs.rawY, stage_.func->varX(),
                                       stage_.func->varY(),
                                       {0, 0} /*x irrelevant*/, yr);
            out = out.hull(v);
        }
        if (cp.g->dims() == 1)
            return {0, 0};
        return out;
    }

    // ---------------- pointwise emission ----------------

    void emitPointwise();
    void emitHaloPush();
    void emitRemotePull();
    std::vector<PgIter> buildIters(u32 iter) const;

    /** True if two PG iterations share all compute-body row constants. */
    bool
    samePhase(const PgIter &a, const PgIter &b) const
    {
        for (const CalleePlan &cp : plans_) {
            if (cp.replicated)
                continue;
            i64 loA = calleeRowHull(cp, a.outY0).lo;
            i64 loB = calleeRowHull(cp, b.outY0).lo;
            for (const CallSite &cs : calleeCalls_.at(cp.g)) {
                for (i64 yi = 0; yi < L_.ty(); ++yi) {
                    if (cs.ay.eval(0, a.outY0 + yi) - loA !=
                        cs.ay.eval(0, b.outY0 + yi) - loB)
                        return false;
                }
            }
        }
        return true;
    }
    void emitFill(const CalleePlan &cp, size_t cpIdx,
                  const std::vector<RowFill> &rows, u32 pgMask,
                  const SRange &sr, i64 tcCountUse);
    void emitComputeBody(u32 pgMaskAll, const SRange &sr, i64 iterLocal,
                         i64 outY0ref);
    u16 emitExpr(const Expr &e, const SRange &sr, i64 outY0ref, i64 yi,
                 i64 chunk, u32 mask,
                 std::map<std::string, u16> &loadCache);
    u16 emitCallLoad(const ExprNode &call, const SRange &sr, i64 outY0ref,
                     i64 yi, i64 chunk, u32 mask,
                     std::map<std::string, u16> &loadCache);

    void prematerialize(const Expr &e);

    /** scratchBank hint of the current sub-body (0 when not buffered). */
    u8
    bankHint() const
    {
        return doubleBuf_ ? u8(1 + (subK_ & 1)) : 0;
    }

    /** PGSM byte offset of the current sub-body's buffer instance. */
    i64
    pgsmBufOff() const
    {
        return doubleBuf_ && (subK_ & 1) ? i64(pgsmHalf_) : 0;
    }

    // Sub-group phase geometry (see CalleePlan::unroll).
    i64
    tcFirstK(const CalleePlan &cp, i64 k) const
    {
        return floorDiv(cp.inLo0 - cp.gl.region().x.lo + k * cp.advPx,
                        cp.gl.tx());
    }

    i64
    originPxK(const CalleePlan &cp, i64 k) const
    {
        return tcFirstK(cp, k) * cp.gl.tx();
    }

    i64
    slotBaseOffK(const CalleePlan &cp, i64 k) const
    {
        return floorDiv(tcFirstK(cp, k), i64(P())) -
               floorDiv(tcFirstK(cp, 0), i64(P()));
    }

    i64
    tcCountK(const CalleePlan &cp, i64 k, i64 widthPx) const
    {
        if (cp.replicated)
            return 0;
        Interval outX{L_.region().x.lo, L_.region().x.lo + widthPx - 1};
        Interval inHull;
        for (const CallSite &cs : calleeCalls_.at(cp.g)) {
            Interval v = indexInterval(cs.rawX, stage_.func->varX(),
                                       stage_.func->varY(), outX, {0, 0});
            inHull = inHull.hull(v);
        }
        i64 tcLast = floorDiv(inHull.hi - cp.gl.region().x.lo +
                                  k * cp.advPx,
                              cp.gl.tx());
        return tcLast - tcFirstK(cp, k) + 1;
    }

    // ---------------- reduction / replicated ----------------

    void emitReduction();
    void emitReplicated();

    // ---------------- members ----------------

    const HardwareConfig &cfg_;
    const PipelineAnalysis &pa_;
    const LayoutMap &lay_;
    const StageInfo &stage_;
    u64 scratchBase_;
    Layout L_;

    std::vector<CalleePlan> plans_;
    std::map<const Func *, std::vector<CallSite>> calleeCalls_;
    std::map<const Func *, size_t> planIdx_;

    u32 V_ = 0;
    std::unique_ptr<CodeBuilder> b_;

    std::map<i64, u16> peTimesCache_;
    std::map<i64, u16> pgTimesCache_;
    std::map<std::vector<i32>, u16> pgTableCache_;
    std::map<std::pair<u16, u16>, u16> sumCache_;

    // Per-iteration loop registers (valid while emitting the main loop).
    std::map<size_t, u16> sColByte_; ///< per plan index
    std::map<size_t, u16> sVsmX_;    ///< per plan index
    u16 sOut_ = 0;
    u16 sXpx_ = 0;  ///< first output x of the current slot group
    std::map<size_t, u16> sIn_; ///< non-PGSM direct input base per plan
    i64 iterLocal_ = 0;
    bool usesVarX_ = false;
    i64 subK_ = 0; ///< sub-group phase of the body being emitted
    bool doubleBuf_ = false; ///< PGSM double buffering enabled
    u32 pgsmHalf_ = 0;       ///< bytes per PGSM buffer instance

    // Reduction/replicated expression context: variable and source-call
    // overrides used instead of the tile addressing of emitCallLoad.
    bool redActive_ = false;
    std::string redX_, redY_;
    u16 redXReg_ = 0, redYReg_ = 0;
    const Func *redSrc_ = nullptr;
    u16 redSrcReg_ = 0;
};

void
StageEmitter::planCallee(const Func *g, const std::vector<CallSite> &calls)
{
    CalleePlan cp;
    cp.g = g;
    cp.gl = lay_.of(g);
    cp.replicated = cp.gl.kind() == LayoutKind::kReplicated;
    calleeCalls_[g] = calls;

    // Common x scale across all calls to g.  Data-dependent (dynamic)
    // indices are supported for replicated 1D callees (lookup tables):
    // each lane's index moves through the AddrRF (mov_drf_arf) into an
    // indirect PGSM read, exactly the DataRF->AddrRF path of Sec. IV-C.
    bool first = true;
    for (const CallSite &cs : calls) {
        if (!cs.ax.valid || !cs.ay.valid) {
            if (cp.replicated && g->dims() == 1 &&
                stage_.func->usesPgsm())
                continue;
            fatal(stage_.func->name(), ": dynamic index into ",
                  g->name(), " requires a compute_replicated 1D callee "
                  "and a load_pgsm schedule");
        }
        if (cs.ax.cy != 0 || cs.ay.cx != 0)
            fatal(stage_.func->name(), ": mixed x/y index into ",
                  g->name());
        i64 cx = cs.ax.cx * cs.ax.postMul;
        i64 div = cs.ax.div;
        if (first) {
            cp.cx = cx;
            cp.div = div;
            first = false;
        } else if (cp.cx * div != cx * cp.div) {
            fatal(stage_.func->name(), ": calls into ", g->name(),
                  " use different x scales");
        }
        if (cx < 0)
            fatal(stage_.func->name(), ": negative x scale into ",
                  g->name(), " is not supported");
    }

    if (cp.replicated) {
        i64 w = cp.gl.region().x.extent();
        i64 paddedW = (w + kSimdLanes - 1) / kSimdLanes * kSimdLanes;
        cp.rowStride = paddedW * 4;
        cp.maxRows = cp.gl.region().y.extent();
        plans_.push_back(cp);
        planIdx_[g] = plans_.size() - 1;
        return;
    }

    // x geometry for one slot-column group.
    i64 groupW = i64(P()) * L_.tx();
    Interval outX{L_.region().x.lo, L_.region().x.lo + groupW - 1};
    Interval inHull;
    for (const CallSite &cs : calls) {
        Interval v = indexInterval(cs.rawX, stage_.func->varX(),
                                   stage_.func->varY(), outX, {0, 0});
        inHull = inHull.hull(v);
    }
    i64 gx0 = cp.gl.region().x.lo;
    i64 gtx = cp.gl.tx();
    cp.inLo0 = inHull.lo;
    cp.inHi0 = inHull.hi;
    cp.tcFirst0 = floorDiv(inHull.lo - gx0, gtx);
    // Worst-case tile-column count over sub-group phases (the window can
    // straddle one extra producer tile depending on alignment).
    cp.tcCount = floorDiv(inHull.hi - gx0, gtx) - cp.tcFirst0 + 2;
    // Advance of the input window per slot-column group, and the number
    // of groups after which the bank/PE ownership pattern repeats.
    i64 adv = cp.cx * groupW;
    if (adv % cp.div != 0)
        fatal(stage_.func->name(), "->", g->name(),
              ": group advance not divisible by the index divisor; "
              "choose a different ipim_tile width");
    cp.advPx = adv / cp.div;
    i64 period = gtx * i64(P());
    i64 gcdv = std::gcd(cp.advPx, period);
    cp.unroll = cp.advPx == 0 ? 1 : period / gcdv;
    if (cp.unroll > 16)
        fatal(stage_.func->name(), "->", g->name(),
              ": sub-group unroll factor ", cp.unroll,
              " is too large; adjust tile sizes");
    cp.rowStride = cp.tcCount * gtx * 4;

    // Rows per iteration (constant shape).
    Interval rows = calleeRowHull(cp, L_.region().y.lo);
    cp.maxRows = rows.extent();
    // Resampled y indices (div > 1) can shift the PGSM row window by one
    // depending on the tile row's phase; reserve one slack row.  The
    // compute body is emitted per fill-signature group, so differing
    // phases across PGs are handled by separate bodies.
    for (const CallSite &cs : calls)
        if (cs.ay.div > 1) {
            cp.maxRows += 1;
            break;
        }


    cp.stageRowBytes = cp.gl.tilesX() * gtx * 4;
    plans_.push_back(cp);
    planIdx_[g] = plans_.size() - 1;
}

void
StageEmitter::buildPlans()
{
    if (stage_.func->isInput())
        panic("emitting a kernel for an input func");

    // Group call sites by callee.  Callees are planned in first-
    // appearance order (not map order, which would iterate by heap
    // address and make pgsmBase assignment — and therefore the emitted
    // bytes — vary across compile() calls; DESIGN.md Sec. 13).
    std::map<const Func *, std::vector<CallSite>> byCallee;
    std::vector<const Func *> calleeOrder;
    auto addCall = [&](const Func *g, const CallSite &cs) {
        auto [it, fresh] = byCallee.try_emplace(g);
        if (fresh)
            calleeOrder.push_back(g);
        it->second.push_back(cs);
    };
    for (const CallSite &cs : stage_.calls)
        addCall(cs.callee.get(), cs);
    for (const UpdateDef &u : stage_.updates) {
        std::vector<CallSite> calls;
        auto collect = [&](const Expr &e) {
            std::vector<CallSite> cc;
            // Reuse analysis helper semantics: calls with RDom vars.
            std::function<void(const Expr &)> walk = [&](const Expr &x) {
                const ExprNode &n = x.node();
                if (n.kind == ExprKind::kCall) {
                    CallSite cs;
                    cs.callee = n.callee;
                    cs.rawX = n.args[0];
                    cs.rawY = n.args.size() > 1 ? n.args[1]
                                                : Expr::constI(0);
                    cs.ax = toAffine(cs.rawX, u.dom.x.name, u.dom.y.name);
                    cs.ay = toAffine(cs.rawY, u.dom.x.name, u.dom.y.name);
                    addCall(n.callee.get(), cs);
                }
                for (const Expr &k : n.kids)
                    walk(k);
                if (n.kind == ExprKind::kCall)
                    for (const Expr &a : n.args)
                        walk(a);
            };
            walk(e);
            return cc;
        };
        collect(u.value);
        collect(u.idxX);
        if (u.idxY.defined())
            collect(u.idxY);
        (void)calls;
    }

    if (stage_.isReduction)
        return; // the reduction emitter does its own simpler planning

    for (const Func *g : calleeOrder)
        planCallee(g, byCallee.at(g));

    // PGSM budget.
    u64 pgsmNeed = 0;
    for (CalleePlan &cp : plans_) {
        cp.pgsmBase = u32(pgsmNeed);
        pgsmNeed += u64(cp.rowStride) * cp.maxRows;
        pgsmNeed = (pgsmNeed + 15) & ~u64(15);
    }
    if (stage_.func->usesPgsm() && pgsmNeed > cfg_.pgsmBytes)
        fatal(stage_.func->name(), ": PGSM needs ", pgsmNeed,
              " bytes but has ", cfg_.pgsmBytes,
              "; use smaller ipim_tile");

    // When half the PGSM suffices, double-buffer it: the fill of one
    // slot group overlaps the compute of the previous one (the
    // scratchBank hint keeps the issue-time interlock out of the way).
    doubleBuf_ = stage_.func->usesPgsm() && !plans_.empty() &&
                 pgsmNeed * 2 <= cfg_.pgsmBytes;
    pgsmHalf_ = u32(pgsmNeed);
}

// ====================== vault halo planning =======================

void
StageEmitter::buildVaultHaloPlan()
{
    for (CalleePlan &cp : plans_) {
        cp.stageSlotOf.clear();
        if (cp.replicated)
            continue;
        std::set<i64> ext;
        for (u32 p = 0; p < cfg_.pgsPerVault; ++p) {
            i64 rows = L_.tileRowsOwned(V_, p);
            Interval own = cp.gl.pixelRowsOfPg(V_, p);
            for (i64 i = 0; i < rows; ++i) {
                i64 tr = L_.firstTileRow(V_, p) + i;
                i64 outY0 = L_.region().y.lo + tr * L_.ty();
                Interval hull = calleeRowHull(cp, outY0);
                for (i64 gy = hull.lo;
                     gy <= std::min(hull.hi, cp.gl.region().y.hi); ++gy) {
                    if (!own.contains(gy))
                        ext.insert(gy);
                }
            }
        }
        i64 k = 0;
        for (i64 gy : ext)
            cp.stageSlotOf[gy] = k++;
        cp.stageBase =
            ext.empty() ? 0
                        : b_->vsmAlloc(u32(u64(k) * cp.stageRowBytes));
    }
}

// ====================== halo push / remote pull ====================

void
StageEmitter::emitHaloPush()
{
    for (CalleePlan &cp : plans_) {
        if (cp.replicated)
            continue;
        i64 gtx = cp.gl.tx();
        i64 segs = gtx / 4;
        {
            for (const auto &[gy, stageIdx] : cp.stageSlotOf) {
                i64 trG = cp.gl.tileRowOfY(gy);
                u32 gvOwner = cp.gl.vaultOfTileRow(trG);
                if (gvOwner != V_)
                    continue; // remote rows are pulled with req
                u32 pgOwner = cp.gl.pgOfTileRow(trG);
                i64 lTR = cp.gl.localTileRow(trG);
                i64 inTileRow = (gy - cp.gl.region().y.lo) % cp.gl.ty();
                u64 rowBankBase = cp.gl.baseAddr() +
                                  u64(lTR * cp.gl.slotCols()) *
                                      cp.gl.tileBytes() +
                                  u64(inTileRow) * gtx * 4;
                u64 stageRowBase = cp.stageBase +
                                   u64(stageIdx) * cp.stageRowBytes;

                i64 fullCols = cp.gl.tilesX() / P();
                i64 tailPes = cp.gl.tilesX() % P();
                u32 ownerAll = activeMask(1u << pgOwner, fullPeMask());

                u16 sB = b_->newArf();
                b_->arfLoadImm(sB, i32(rowBankBase), ownerAll);
                u16 sV = b_->newArf();
                b_->arfLoadImm(sV, i32(stageRowBase), ownerAll);

                auto body = [&](u32 mask) {
                    u16 tv = b_->newArf();
                    b_->emit(Instruction::calcArf(
                        AluOp::kAdd, tv, sV, peTimes(gtx * 4), mask));
                    for (i64 k2 = 0; k2 < segs; ++k2) {
                        u16 v = b_->newDrf();
                        b_->emit(Instruction::memRf(
                            false, MemOperand::basePlus(sB, k2 * 16), v,
                            mask));
                        b_->emit(Instruction::vsmRf(
                            false, MemOperand::basePlus(tv, k2 * 16), v,
                            mask));
                    }
                };
                auto step = [&](u32 mask) {
                    b_->emit(Instruction::calcArfImm(
                        AluOp::kAdd, sB, sB, i32(cp.gl.tileBytes()),
                        mask));
                    b_->emit(Instruction::calcArfImm(
                        AluOp::kAdd, sV, sV, i32(P() * gtx * 4), mask));
                };
                if (fullCols > 0) {
                    auto loop = b_->loopBegin(fullCols);
                    body(ownerAll);
                    step(ownerAll);
                    b_->loopEnd(loop);
                }
                if (tailPes > 0) {
                    body(activeMask(1u << pgOwner,
                                    (1u << tailPes) - 1));
                }
            }
        }
    }
}

void
StageEmitter::emitRemotePull()
{
    for (CalleePlan &cp : plans_) {
        if (cp.replicated)
            continue;
        i64 gtx = cp.gl.tx();
        i64 segs = gtx / 4;
        {
            for (const auto &[gy, stageIdx] : cp.stageSlotOf) {
                i64 trG = cp.gl.tileRowOfY(gy);
                u32 gvOwner = cp.gl.vaultOfTileRow(trG);
                if (gvOwner == V_)
                    continue;
                u32 pgOwner = cp.gl.pgOfTileRow(trG);
                i64 lTR = cp.gl.localTileRow(trG);
                i64 inTileRow = (gy - cp.gl.region().y.lo) % cp.gl.ty();
                u16 ownerChip = u16(gvOwner / cfg_.vaultsPerCube);
                u16 ownerVault = u16(gvOwner % cfg_.vaultsPerCube);

                for (u32 e = 0; e < P(); ++e) {
                    i64 count = (cp.gl.tilesX() - i64(e) + P() - 1) /
                                i64(P());
                    if (count <= 0)
                        continue;
                    u64 bank0 = cp.gl.baseAddr() +
                                u64(lTR * cp.gl.slotCols()) *
                                    cp.gl.tileBytes() +
                                u64(inTileRow) * gtx * 4;
                    u64 vsm0 = cp.stageBase +
                               u64(stageIdx) * cp.stageRowBytes +
                               u64(e) * gtx * 4;
                    u16 cA = b_->newCrf();
                    b_->emit(Instruction::setiCrf(cA, i32(bank0)));
                    u16 cV = b_->newCrf();
                    b_->emit(Instruction::setiCrf(cV, i32(vsm0)));
                    auto loop = b_->loopBegin(count);
                    for (i64 k2 = 0; k2 < segs; ++k2) {
                        u16 tA = b_->newCrf();
                        b_->emit(Instruction::calcCrfImm(
                            AluOp::kAdd, tA, cA, i32(k2 * 16)));
                        u16 tV = b_->newCrf();
                        b_->emit(Instruction::calcCrfImm(
                            AluOp::kAdd, tV, cV, i32(k2 * 16)));
                        Instruction rq = Instruction::req(
                            ownerChip, ownerVault, u16(pgOwner), u16(e),
                            MemOperand::viaArf(tA), 0);
                        rq.vsmAddr = MemOperand::viaArf(tV);
                        b_->emit(rq);
                    }
                    b_->emit(Instruction::calcCrfImm(
                        AluOp::kAdd, cA, cA, i32(cp.gl.tileBytes())));
                    b_->emit(Instruction::calcCrfImm(
                        AluOp::kAdd, cV, cV, i32(P() * gtx * 4)));
                    b_->loopEnd(loop);
                }
            }
        }
    }
}

// ====================== main-loop fill =============================

std::vector<PgIter>
StageEmitter::buildIters(u32 iter) const
{
    std::vector<PgIter> out;
    for (u32 p = 0; p < cfg_.pgsPerVault; ++p) {
        if (i64(iter) >= L_.tileRowsOwned(V_, p))
            continue;
        PgIter it;
        it.pg = p;
        it.tileRow = L_.firstTileRow(V_, p) + iter;
        it.outY0 = L_.region().y.lo + it.tileRow * L_.ty();
        for (const CalleePlan &cp : plans_) {
            std::vector<RowFill> rows;
            if (!cp.replicated) {
                Interval hull = calleeRowHull(cp, it.outY0);
                Interval own = cp.gl.pixelRowsOfPg(V_, p);
                for (i64 gy = hull.lo; gy <= hull.hi; ++gy) {
                    RowFill rf;
                    rf.rowRel = gy - hull.lo;
                    if (gy > cp.gl.region().y.hi ||
                        gy < cp.gl.region().y.lo) {
                        rf.src = RowSrc::kSkip;
                    } else if (own.contains(gy)) {
                        rf.src = RowSrc::kLocalBank;
                        i64 trG = cp.gl.tileRowOfY(gy);
                        rf.lTR = cp.gl.localTileRow(trG);
                        rf.inTileRow =
                            (gy - cp.gl.region().y.lo) % cp.gl.ty();
                    } else {
                        rf.src = RowSrc::kVsm;
                        rf.stageRow = cp.stageSlotOf.at(gy);
                    }
                    rows.push_back(rf);
                }
            } else {
                for (i64 gy = cp.gl.region().y.lo;
                     gy <= cp.gl.region().y.hi; ++gy) {
                    RowFill rf;
                    rf.rowRel = gy - cp.gl.region().y.lo;
                    rf.src = RowSrc::kLocalBank;
                    rf.inTileRow = rf.rowRel;
                    rows.push_back(rf);
                }
            }
            it.fills.push_back(std::move(rows));
        }
        out.push_back(std::move(it));
    }
    return out;
}

void
StageEmitter::emitFill(const CalleePlan &cp, size_t cpIdx,
                       const std::vector<RowFill> &rows, u32 pgMask,
                       const SRange &sr, i64 tcCountUse)
{
    (void)sr;
    i64 gtx = cp.replicated ? kSimdLanes : cp.gl.tx();
    if (cp.replicated) {
        // One PE per PG loads the shared copy from its own bank.
        u32 mask = activeMask(pgMask, 0x1);
        for (const RowFill &rf : rows) {
            for (i64 c = 0; c * 16 < cp.rowStride; ++c) {
                u64 bank = cp.gl.baseAddr() +
                           cp.gl.linearAddr(cp.gl.region().x.lo,
                                            cp.gl.region().y.lo +
                                                rf.rowRel) +
                           u64(c) * 16;
                u32 dst = u32(cp.pgsmBase + pgsmBufOff() +
                              rf.rowRel * cp.rowStride + c * 16);
                Instruction ld = Instruction::memPgsmBank(
                    false, MemOperand::direct(u32(bank)),
                    MemOperand::direct(dst), mask);
                ld.scratchBank = bankHint();
                b_->emit(ld);
            }
        }
        return;
    }

    i64 segs = gtx / 4;
    i64 a0 = floorMod(tcFirstK(cp, subK_), P());
    i64 slotOffK = slotBaseOffK(cp, subK_);

    for (const RowFill &rf : rows) {
        if (rf.src == RowSrc::kSkip)
            continue;
        if (rf.src == RowSrc::kLocalBank) {
            // Group needed tile columns by slot delta; within a chunk
            // rel = delta*P + pe - a0, so the PGSM destination is affine
            // in the PE id.
            std::map<i64, u32> chunks; // slot delta -> PE mask
            for (i64 rel = 0; rel < tcCountUse; ++rel) {
                i64 pe = (a0 + rel) % P();
                i64 delta = (a0 + rel) / P();
                chunks[delta] |= 1u << pe;
            }
            for (const auto &[delta, peM] : chunks) {
                {
                    i64 relBase = delta * P() - a0;
                    u32 mask = activeMask(pgMask, peM);
                    for (i64 k2 = 0; k2 < segs; ++k2) {
                        i64 bankConst =
                            i64(cp.gl.baseAddr()) +
                            (rf.lTR * cp.gl.slotCols() + delta +
                             slotOffK) *
                                i64(cp.gl.tileBytes()) +
                            rf.inTileRow * gtx * 4 + k2 * 16;
                        i64 pgsmConst = cp.pgsmBase + pgsmBufOff() +
                                        rf.rowRel * cp.rowStride +
                                        relBase * gtx * 4 + k2 * 16;
                        Instruction ld = Instruction::memPgsmBank(
                            false,
                            MemOperand::basePlus(sColByte_.at(cpIdx),
                                                 bankConst),
                            MemOperand::basePlus(peTimes(gtx * 4),
                                                 pgsmConst),
                            mask);
                        ld.scratchBank = bankHint();
                        b_->emit(ld);
                    }
                }
            }
        } else { // kVsm
            u16 stagePeA = peTimes(16);
            i64 widthBytes = tcCountUse * gtx * 4;
            i64 nChunks = (widthBytes + i64(P()) * 16 - 1) / (i64(P()) * 16);
            for (i64 c = 0; c < nChunks; ++c) {
                u32 peM = 0;
                for (u32 pe = 0; pe < P(); ++pe)
                    if ((c * P() + pe) * 16 < widthBytes)
                        peM |= 1u << pe;
                u32 mask = activeMask(pgMask, peM);
                // Fresh per chunk: sVsmX is a loop register, so the
                // sum must be recomputed inside the loop body.
                u16 t = b_->newArf();
                b_->emit(Instruction::calcArf(AluOp::kAdd, t, stagePeA,
                                              sVsmX_.at(cpIdx), mask));
                u16 v = b_->newDrf();
                b_->emit(Instruction::vsmRf(
                    true,
                    MemOperand::basePlus(
                        t, i64(cp.stageBase) +
                               rf.stageRow * cp.stageRowBytes +
                               (originPxK(cp, subK_) -
                                originPxK(cp, 0)) *
                                   4 +
                               c * i64(P()) * 16),
                    v, mask));
                Instruction wr = Instruction::pgsmRf(
                    false,
                    MemOperand::basePlus(peTimes(16),
                                         cp.pgsmBase + pgsmBufOff() +
                                             rf.rowRel * cp.rowStride +
                                             c * i64(P()) * 16),
                    v, mask);
                wr.scratchBank = bankHint();
                b_->emit(wr);
            }
        }
    }
}

// ====================== expression compilation =====================

u16
StageEmitter::emitCallLoad(const ExprNode &call, const SRange &sr,
                           i64 outY0ref, i64 yi, i64 chunk, u32 mask,
                           std::map<std::string, u16> &loadCache)
{
    (void)sr;
    const Func *g = call.callee.get();
    size_t cpIdx = planIdx_.at(g);
    const CalleePlan &cp = plans_[cpIdx];
    const std::string &xv = stage_.func->varX();
    const std::string &yv = stage_.func->varY();
    AffineIndex ax = toAffine(call.args[0], xv, yv);
    AffineIndex ay = call.args.size() > 1
                         ? toAffine(call.args[1], xv, yv)
                         : toAffine(Expr::constI(0), xv, yv);
    if (!ax.valid || !ay.valid) {
        if (!(cp.replicated && g->dims() == 1 &&
              stage_.func->usesPgsm()))
            fatal("dynamic index into ", g->name(),
                  " requires a compute_replicated 1D callee and a "
                  "load_pgsm schedule");
        // Data-dependent gather: per-lane DataRF -> AddrRF -> indirect
        // PGSM read (Sec. IV-C).  The clamp in the index expression
        // bounds the accessed region, so the whole table is resident.
        u16 idxVec = emitExpr(call.args[0], sr, outY0ref, yi, chunk,
                              mask, loadCache);
        i64 base = cp.pgsmBase + pgsmBufOff() -
                   cp.gl.region().x.lo * 4;
        u16 v = b_->newDrf();
        for (int lane = 0; lane < kSimdLanes; ++lane) {
            u16 aIdx = b_->newArf();
            b_->emit(Instruction::movDrfArf(true, aIdx, idxVec,
                                            u8(lane), mask));
            u16 aOff = b_->newArf();
            b_->emit(Instruction::calcArfImm(AluOp::kShl, aOff, aIdx, 2,
                                             mask));
            Instruction ld = Instruction::pgsmRf(
                true, MemOperand::basePlus(aOff, base), v, mask, 0);
            ld.vecMask = u8(1u << lane);
            ld.scratchBank = bankHint();
            b_->emit(ld);
        }
        return v;
    }

    if (!stage_.func->usesPgsm()) {
        // Direct own-bank access: identity index, congruent layouts.
        u16 v = b_->newDrf();
        b_->emit(Instruction::memRf(
            false,
            MemOperand::basePlus(sIn_.at(cpIdx),
                                 subK_ * i64(cp.gl.tileBytes()) +
                                     (yi * cp.gl.tx() + chunk * 4) * 4),
            v, mask));
        return v;
    }

    // Row within the callee's PGSM buffer.
    i64 rowVal = ay.eval(0, outY0ref + yi);
    i64 gyLo;
    if (cp.replicated) {
        gyLo = cp.gl.region().y.lo;
    } else {
        gyLo = calleeRowHull(cp, outY0ref).lo;
    }
    i64 rowRel = rowVal - gyLo;
    if (rowRel < 0 || rowRel >= cp.maxRows)
        panic("computed PGSM row ", rowRel, " outside buffer of ",
              g->name());

    i64 originPx = cp.replicated
                       ? cp.gl.region().x.lo
                       : cp.gl.region().x.lo + originPxK(cp, subK_);
    i64 outXBase = L_.region().x.lo + subK_ * i64(P()) * L_.tx() +
                   chunk * 4;

    bool singleLoad = ax.cx % ax.div == 0;
    i64 coefA0; // bytes per PE id
    {
        i64 num = ax.cx * ax.postMul * i64(L_.tx()) * 4;
        if (num % ax.div != 0)
            fatal(stage_.func->name(), "->", g->name(),
                  ": per-PE x offset not exact; adjust tile sizes");
        coefA0 = num / ax.div;
    }

    char key[128];
    std::snprintf(key, sizeof(key),
                  "%s/%lld/%lld/%lld/%lld/%lld/%lld/%u",
                  g->name().c_str(), (long long)rowRel, (long long)ax.cx,
                  (long long)ax.div, (long long)ax.c0 + ax.post0 * 131071,
                  (long long)chunk, (long long)subK_, mask);
    if (auto it = loadCache.find(key); it != loadCache.end())
        return it->second;

    u16 v = b_->newDrf();
    if (singleLoad) {
        i64 stride = (ax.cx / ax.div) * ax.postMul * 4;
        if (stride < 0 || stride > 0xFFFF)
            fatal("unsupported PGSM stride ", stride);
        i64 inPx = ax.eval(outXBase, 0);
        i64 off = cp.pgsmBase + pgsmBufOff() + rowRel * cp.rowStride +
                  (inPx - originPx) * 4;
        Instruction rd = Instruction::pgsmRf(
            true, MemOperand::basePlus(peTimes(coefA0), off), v, mask,
            u16(stride));
        rd.scratchBank = bankHint();
        b_->emit(rd);
    } else {
        // Per-lane loads for fractional strides (e.g. upsample x/2).
        for (int lane = 0; lane < kSimdLanes; ++lane) {
            i64 inPx = ax.eval(outXBase + lane, 0);
            i64 off = cp.pgsmBase + pgsmBufOff() + rowRel * cp.rowStride +
                      (inPx - originPx) * 4;
            Instruction ld = Instruction::pgsmRf(
                true, MemOperand::basePlus(peTimes(coefA0), off), v,
                mask, 0);
            ld.vecMask = u8(1u << lane);
            ld.scratchBank = bankHint();
            b_->emit(ld);
        }
    }
    loadCache[key] = v;
    return v;
}

u16
StageEmitter::emitExpr(const Expr &e, const SRange &sr, i64 outY0ref,
                       i64 yi, i64 chunk, u32 mask,
                       std::map<std::string, u16> &loadCache)
{
    const ExprNode &n = e.node();
    switch (n.kind) {
      case ExprKind::kConstF:
        return b_->floatConst(n.fval);
      case ExprKind::kConstI:
        return b_->intConst(n.ival);
      case ExprKind::kCall:
        if (redActive_) {
            if (n.callee.get() != redSrc_)
                fatal("reduction update may only read its source func");
            return redSrcReg_;
        }
        return emitCallLoad(n, sr, outY0ref, yi, chunk, mask, loadCache);
      case ExprKind::kVar: {
        if (redActive_) {
            if (n.varName == redX_)
                return redXReg_;
            if (n.varName == redY_)
                return redYReg_;
            fatal("unbound variable ", n.varName, " in reduction");
        }
        u16 scalarArf;
        if (n.varName == stage_.func->varX()) {
            // x = sXpx + A0*tx + 4*chunk  (+ per-lane ramp below)
            u16 t = b_->newArf();
            b_->emit(Instruction::calcArf(AluOp::kAdd, t, sXpx_,
                                          peTimes(L_.tx()), mask));
            scalarArf = arfAddImm(
                t, subK_ * i64(P()) * L_.tx() + chunk * 4, mask);
        } else if (n.varName == stage_.func->varY()) {
            // Per-PG strip base from a VSM table (strip boundaries are
            // proportional, not affine in the PG id).
            std::vector<i32> firstRowPx(cfg_.pgsPerVault);
            for (u32 p = 0; p < cfg_.pgsPerVault; ++p)
                firstRowPx[p] =
                    i32(L_.firstTileRow(V_, p) * L_.ty());
            u16 yBase = pgTableArf(firstRowPx);
            scalarArf = arfAddImm(
                yBase,
                L_.region().y.lo + iterLocal_ * L_.ty() + yi, mask);
        } else {
            fatal("unbound variable ", n.varName, " in ",
                  stage_.func->name());
        }
        u16 d0 = b_->newDrf();
        Instruction mv = Instruction::movDrfArf(false, scalarArf, d0, 0,
                                                mask);
        b_->emit(mv);
        // Splat lane 0 then add the lane ramp for x.
        u16 splat = b_->newDrf();
        Instruction sp = Instruction::comp(AluOp::kAdd, DType::kI32,
                                           CompMode::kScalarVec, splat,
                                           d0, b_->intConst(0),
                                           kFullVecMask, mask);
        b_->emit(sp);
        if (n.varName == stage_.func->varX()) {
            u16 withRamp = b_->newDrf();
            b_->emit(Instruction::comp(AluOp::kAdd, DType::kI32,
                                       CompMode::kVecVec, withRamp, splat,
                                       b_->laneRampI(), kFullVecMask,
                                       mask));
            return withRamp;
        }
        return splat;
      }
      case ExprKind::kCastI: {
        u16 v = emitExpr(n.kids[0], sr, outY0ref, yi, chunk, mask,
                         loadCache);
        if (isIntExpr(n.kids[0]))
            return v;
        u16 d = b_->newDrf();
        b_->emit(Instruction::comp(AluOp::kCvtF2I, DType::kI32,
                                   CompMode::kVecVec, d, v, v,
                                   kFullVecMask, mask));
        return d;
      }
      case ExprKind::kCastF: {
        u16 v = emitExpr(n.kids[0], sr, outY0ref, yi, chunk, mask,
                         loadCache);
        if (!isIntExpr(n.kids[0]))
            return v;
        u16 d = b_->newDrf();
        b_->emit(Instruction::comp(AluOp::kCvtI2F, DType::kF32,
                                   CompMode::kVecVec, d, v, v,
                                   kFullVecMask, mask));
        return d;
      }
      case ExprKind::kClamp: {
        bool isInt = isIntExpr(n.kids[0]);
        DType dt = isInt ? DType::kI32 : DType::kF32;
        u16 v = emitExpr(n.kids[0], sr, outY0ref, yi, chunk, mask,
                         loadCache);
        u16 lo = emitExpr(n.kids[1], sr, outY0ref, yi, chunk, mask,
                          loadCache);
        u16 hi = emitExpr(n.kids[2], sr, outY0ref, yi, chunk, mask,
                          loadCache);
        u16 t = b_->newDrf();
        b_->emit(Instruction::comp(AluOp::kMax, dt, CompMode::kVecVec, t,
                                   v, lo, kFullVecMask, mask));
        u16 d = b_->newDrf();
        b_->emit(Instruction::comp(AluOp::kMin, dt, CompMode::kVecVec, d,
                                   t, hi, kFullVecMask, mask));
        return d;
      }
      default:
        break;
    }

    AluOp op;
    switch (n.kind) {
      case ExprKind::kAdd: op = AluOp::kAdd; break;
      case ExprKind::kSub: op = AluOp::kSub; break;
      case ExprKind::kMul: op = AluOp::kMul; break;
      case ExprKind::kDiv: op = AluOp::kDiv; break;
      case ExprKind::kMin: op = AluOp::kMin; break;
      case ExprKind::kMax: op = AluOp::kMax; break;
      default: panic("emitExpr: unhandled expr kind");
    }
    bool isInt = isIntExpr(e);
    u16 a = emitExpr(n.kids[0], sr, outY0ref, yi, chunk, mask, loadCache);
    u16 bb = emitExpr(n.kids[1], sr, outY0ref, yi, chunk, mask,
                      loadCache);
    u16 d = b_->newDrf();
    b_->emit(Instruction::comp(op, isInt ? DType::kI32 : DType::kF32,
                               CompMode::kVecVec, d, a, bb, kFullVecMask,
                               mask));
    return d;
}

// ====================== pointwise main =============================

void
StageEmitter::emitComputeBody(u32 pgMaskAll, const SRange &sr,
                              i64 iterLocal, i64 outY0ref)
{
    iterLocal_ = iterLocal;
    u32 mask = activeMask(pgMaskAll, sr.peMask);
    i64 chunksX = L_.tx() / kSimdLanes;
    // One load cache for the whole body: vertical stencil taps hit the
    // same PGSM words on consecutive rows, so keeping loaded vectors
    // live across yi iterations removes most reloads.  The cap bounds
    // DataRF pressure (beyond it the allocator would start spilling).
    std::map<std::string, u16> loadCache;
    for (i64 yi = 0; yi < L_.ty(); ++yi) {
        for (i64 c = 0; c < chunksX; ++c) {
            if (loadCache.size() > 40)
                loadCache.clear();
            u16 v = emitExpr(stage_.rhs, sr, outY0ref, yi, c, mask,
                             loadCache);
            if (isIntExpr(stage_.rhs)) {
                u16 d = b_->newDrf();
                b_->emit(Instruction::comp(AluOp::kCvtI2F, DType::kF32,
                                           CompMode::kVecVec, d, v, v,
                                           kFullVecMask, mask));
                v = d;
            }
            b_->emit(Instruction::memRf(
                true,
                MemOperand::basePlus(sOut_,
                                     subK_ * i64(L_.tileBytes()) +
                                         (yi * L_.tx() + c * 4) * 4),
                v, mask));
        }
    }
}

void
StageEmitter::prematerialize(const Expr &e)
{
    const ExprNode &n = e.node();
    switch (n.kind) {
      case ExprKind::kConstF:
        b_->floatConst(n.fval);
        return;
      case ExprKind::kConstI:
        b_->intConst(n.ival);
        return;
      case ExprKind::kVar:
        b_->intConst(0);
        b_->laneRampI();
        usesVarX_ = usesVarX_ || n.varName == stage_.func->varX();
        return;
      case ExprKind::kCall:
        for (const Expr &a : n.args)
            prematerialize(a);
        return;
      default:
        for (const Expr &k : n.kids)
            prematerialize(k);
        return;
    }
}

void
StageEmitter::emitPointwise()
{
    buildVaultHaloPlan();
    usesVarX_ = false;
    prematerialize(stage_.rhs);

    // Congruence check for the direct (no-PGSM) path.
    if (!stage_.func->usesPgsm()) {
        for (const CalleePlan &cp : plans_) {
            bool congruent =
                !cp.replicated && cp.gl.region() == L_.region() &&
                cp.gl.tx() == L_.tx() && cp.gl.ty() == L_.ty();
            bool identity = cp.cx == 1 && cp.div == 1;
            for (const CallSite &cs : calleeCalls_.at(cp.g)) {
                if (cs.ax.eval(5, 0) != 5 || cs.ay.eval(0, 7) != 7)
                    identity = false;
            }
            if (!congruent || !identity)
                fatal(stage_.func->name(), ": reads ", cp.g->name(),
                      " non-locally; schedule load_pgsm()");
        }
    }

    emitHaloPush();
    emitRemotePull();

    i64 maxIters = 0;
    for (u32 p = 0; p < cfg_.pgsPerVault; ++p)
        maxIters = std::max(maxIters, L_.tileRowsOwned(V_, p));

    i64 fullGroups = L_.tilesX() / P();
    i64 tailPes = L_.tilesX() % P();
    i64 unroll = 1;
    for (const CalleePlan &cp : plans_)
        unroll = std::lcm(unroll, cp.unroll);
    if (doubleBuf_)
        unroll = std::lcm<i64>(unroll, 2);
    if (unroll > 64)
        fatal(stage_.func->name(), ": combined sub-group unroll ",
              unroll, " too large; adjust tile sizes");

    for (i64 i = 0; i < maxIters; ++i) {
        std::vector<PgIter> iters = buildIters(u32(i));
        if (iters.empty())
            continue;
        u32 pgMaskAll = 0;
        for (const PgIter &it : iters)
            pgMaskAll |= 1u << it.pg;
        u32 allMask = activeMask(pgMaskAll, fullPeMask());

        // Signature groups: PGs whose fill plans are identical share one
        // fill emission.
        std::vector<std::pair<u32, const PgIter *>> groups;
        for (const PgIter &it : iters) {
            bool merged = false;
            for (auto &[m, rep] : groups) {
                if (rep->sameFillAs(it) &&
                    samePhase(*rep, it)) {
                    m |= 1u << it.pg;
                    merged = true;
                    break;
                }
            }
            if (!merged)
                groups.push_back({1u << it.pg, &it});
        }

        // Iteration-scoped address registers.
        sOut_ = b_->newArf();
        b_->arfLoadImm(sOut_,
                       i32(L_.baseAddr() +
                           u64(i) * L_.slotCols() * L_.tileBytes()),
                       allMask);
        sColByte_.clear();
        sVsmX_.clear();
        sIn_.clear();
        for (size_t ci = 0; ci < plans_.size(); ++ci) {
            const CalleePlan &cp = plans_[ci];
            if (!stage_.func->usesPgsm()) {
                sIn_[ci] = b_->newArf();
                b_->arfLoadImm(
                    sIn_[ci],
                    i32(cp.gl.baseAddr() +
                        u64(i) * cp.gl.slotCols() * cp.gl.tileBytes()),
                    allMask);
                continue;
            }
            if (cp.replicated)
                continue;
            sColByte_[ci] = b_->newArf();
            b_->arfLoadImm(sColByte_[ci],
                           i32(floorDiv(cp.tcFirst0, P()) *
                               i64(cp.gl.tileBytes())),
                           allMask);
            sVsmX_[ci] = b_->newArf();
            b_->arfLoadImm(sVsmX_[ci], i32(cp.tcFirst0 * cp.gl.tx() * 4),
                           allMask);
        }
        if (usesVarX_) {
            sXpx_ = b_->newArf();
            b_->arfLoadImm(sXpx_, i32(L_.region().x.lo), allMask);
        }

        auto stepRegs = [&]() {
            // One step covers `unroll` slot-column groups.
            b_->emit(Instruction::calcArfImm(
                AluOp::kAdd, sOut_, sOut_,
                i32(unroll * i64(L_.tileBytes())), allMask));
            for (auto &[ci, reg] : sColByte_) {
                const CalleePlan &cp = plans_[ci];
                i64 adv = unroll * cp.advPx / cp.gl.tx() / i64(P());
                b_->emit(Instruction::calcArfImm(
                    AluOp::kAdd, reg, reg,
                    i32(adv * i64(cp.gl.tileBytes())), allMask));
            }
            for (auto &[ci, reg] : sVsmX_) {
                const CalleePlan &cp = plans_[ci];
                b_->emit(Instruction::calcArfImm(
                    AluOp::kAdd, reg, reg, i32(unroll * cp.advPx * 4),
                    allMask));
            }
            for (auto &[ci, reg] : sIn_) {
                const CalleePlan &cp = plans_[ci];
                b_->emit(Instruction::calcArfImm(
                    AluOp::kAdd, reg, reg,
                    i32(unroll * i64(cp.gl.tileBytes())), allMask));
            }
            if (usesVarX_)
                b_->emit(Instruction::calcArfImm(
                    AluOp::kAdd, sXpx_, sXpx_,
                    i32(unroll * i64(P()) * L_.tx()), allMask));
        };

        auto emitBody = [&](const SRange &sr, i64 subK) {
            subK_ = subK;
            // Fill and compute are emitted per fill-signature group:
            // PGs whose halo classification or resampling phase differs
            // get their own (masked) instruction stream.
            for (const auto &[pgM, rep] : groups) {
                if (stage_.func->usesPgsm()) {
                    for (size_t ci = 0; ci < plans_.size(); ++ci) {
                        i64 widthPx =
                            i64(std::popcount(sr.peMask)) * L_.tx();
                        i64 tcUse = tcCountK(plans_[ci], subK, widthPx);
                        emitFill(plans_[ci], ci, rep->fills[ci], pgM, sr,
                                 tcUse);
                    }
                }
                emitComputeBody(pgM, sr, i, rep->outY0);
            }
            subK_ = 0;
        };

        i64 fullSupers = fullGroups / unroll;
        i64 remGroups = fullGroups % unroll;
        if (fullSupers > 0) {
            auto loop = b_->loopBegin(fullSupers);
            for (i64 k = 0; k < unroll; ++k)
                emitBody({0, fullSupers, fullPeMask()}, k);
            stepRegs();
            b_->loopEnd(loop);
        }
        for (i64 k = 0; k < remGroups; ++k)
            emitBody({fullSupers, 1, fullPeMask()}, k);
        if (tailPes > 0) {
            emitBody({fullSupers, 1, (1u << tailPes) - 1}, remGroups);
        }
    }
}

// ====================== reduction ==================================

void
StageEmitter::emitReduction()
{
    if (stage_.updates.size() != 1)
        fatal(stage_.func->name(), ": exactly one update is supported");
    const UpdateDef &u = stage_.updates[0];
    if (stage_.func->dims() != 1 || u.idxY.defined())
        fatal(stage_.func->name(), ": only 1D reductions are supported");

    // The single tiled source read at identity indices.
    const Func *src = nullptr;
    std::function<void(const Expr &)> findSrc = [&](const Expr &x) {
        const ExprNode &n = x.node();
        if (n.kind == ExprKind::kCall) {
            AffineIndex ax = toAffine(n.args[0], u.dom.x.name,
                                      u.dom.y.name);
            AffineIndex ay = n.args.size() > 1
                                 ? toAffine(n.args[1], u.dom.x.name,
                                            u.dom.y.name)
                                 : AffineIndex{};
            if (!ax.valid || !ay.valid || ax.eval(3, 0) != 3 ||
                ay.eval(0, 9) != 9)
                fatal(stage_.func->name(),
                      ": reduction source must be read at (r.x, r.y)");
            if (src && src != n.callee.get())
                fatal(stage_.func->name(),
                      ": reductions may read one source func");
            src = n.callee.get();
        }
        for (const Expr &k : n.kids)
            findSrc(k);
        if (n.kind == ExprKind::kCall)
            for (const Expr &a : n.args)
                findSrc(a);
    };
    findSrc(u.value);
    findSrc(u.idxX);
    if (!src)
        fatal(stage_.func->name(), ": reduction reads no source");

    const Layout &SL = lay_.of(src);
    if (SL.region().x.extent() != u.dom.extentX ||
        SL.region().y.extent() != std::max<i64>(u.dom.extentY, 1))
        fatal(stage_.func->name(), ": the RDom must cover exactly the "
              "source region");
    if (SL.region().x.extent() % (i64(P()) * SL.tx()) != 0 ||
        SL.region().y.extent() % SL.ty() != 0)
        fatal(stage_.func->name(), ": reduction source extents must be "
              "multiples of the tile geometry (no padded pixels)");

    i64 bins = L_.region().x.extent();
    u32 all = b_->fullMask();
    u64 scratch2 = scratchBase_ + u64(bins) * 16;

    prematerialize(u.value);
    prematerialize(u.idxX);
    b_->intConst(0);
    b_->laneRampI();

    // ---- Phase 0: zero the per-PE partial array ----
    u16 zeroD = b_->newDrf();
    b_->emit(Instruction::reset(zeroD, all));
    {
        u16 a = b_->newArf();
        b_->arfLoadImm(a, i32(scratchBase_), all);
        auto loop = b_->loopBegin(bins);
        b_->emit(Instruction::memRf(true, MemOperand::viaArf(a), zeroD,
                                    all));
        b_->emit(Instruction::calcArfImm(AluOp::kAdd, a, a, 16, all));
        b_->loopEnd(loop);
    }

    // ---- Phase 1: per-PE accumulation over owned source pixels ----
    const ExprNode *valConst =
        u.value.node().kind == ExprKind::kConstF ? &u.value.node()
                                                 : nullptr;
    i64 maxIters = 0;
    for (u32 p = 0; p < cfg_.pgsPerVault; ++p)
        maxIters = std::max(maxIters, SL.tileRowsOwned(V_, p));
    i64 fullGroups = SL.tilesX() / P(); // aligned by the check above
    i64 chunksX = SL.tx() / kSimdLanes;

    for (i64 i = 0; i < maxIters; ++i) {
        u32 pgMask = 0;
        for (u32 p = 0; p < cfg_.pgsPerVault; ++p)
            if (i64(i) < SL.tileRowsOwned(V_, p))
                pgMask |= 1u << p;
        if (pgMask == 0)
            continue;
        u32 mask = activeMask(pgMask, fullPeMask());

        u16 sSrc = b_->newArf();
        b_->arfLoadImm(sSrc,
                       i32(SL.baseAddr() +
                           u64(i) * SL.slotCols() * SL.tileBytes()),
                       mask);
        u16 sX = b_->newArf();
        b_->arfLoadImm(sX, i32(SL.region().x.lo), mask);

        auto loop = b_->loopBegin(fullGroups);
        for (i64 yi = 0; yi < SL.ty(); ++yi) {
            // r.y splat for this row; the per-PG strip base comes from
            // a VSM table (proportional strip boundaries).
            std::vector<i32> firstRowPx(cfg_.pgsPerVault);
            for (u32 p = 0; p < cfg_.pgsPerVault; ++p)
                firstRowPx[p] =
                    i32(SL.firstTileRow(V_, p) * SL.ty());
            u16 yA = arfAddImm(
                pgTableArf(firstRowPx),
                SL.region().y.lo + i * SL.ty() + yi, mask);
            u16 y0 = b_->newDrf();
            b_->emit(Instruction::movDrfArf(false, yA, y0, 0, mask));
            u16 ySplat = b_->newDrf();
            b_->emit(Instruction::comp(AluOp::kAdd, DType::kI32,
                                       CompMode::kScalarVec, ySplat, y0,
                                       b_->intConst(0), kFullVecMask,
                                       mask));
            for (i64 c = 0; c < chunksX; ++c) {
                // r.x vector.
                u16 t = b_->newArf();
                b_->emit(Instruction::calcArf(AluOp::kAdd, t, sX,
                                              peTimes(SL.tx()), mask));
                u16 t2 = arfAddImm(t, c * 4, mask);
                u16 x0 = b_->newDrf();
                b_->emit(Instruction::movDrfArf(false, t2, x0, 0, mask));
                u16 xSplat = b_->newDrf();
                b_->emit(Instruction::comp(
                    AluOp::kAdd, DType::kI32, CompMode::kScalarVec,
                    xSplat, x0, b_->intConst(0), kFullVecMask, mask));
                u16 xVec = b_->newDrf();
                b_->emit(Instruction::comp(
                    AluOp::kAdd, DType::kI32, CompMode::kVecVec, xVec,
                    xSplat, b_->laneRampI(), kFullVecMask, mask));

                // Load the source vector.
                u16 srcV = b_->newDrf();
                b_->emit(Instruction::memRf(
                    false,
                    MemOperand::basePlus(sSrc,
                                         (yi * SL.tx() + c * 4) * 4),
                    srcV, mask));

                // Bin and value vectors.
                redActive_ = true;
                redX_ = u.dom.x.name;
                redY_ = u.dom.y.name;
                redXReg_ = xVec;
                redYReg_ = ySplat;
                redSrc_ = src;
                redSrcReg_ = srcV;
                std::map<std::string, u16> lc;
                u16 binV = emitExpr(u.idxX, {}, 0, 0, 0, mask, lc);
                u16 valV = 0;
                if (!valConst)
                    valV = emitExpr(u.value, {}, 0, 0, 0, mask, lc);
                redActive_ = false;

                // Per-lane indirect read-modify-write.
                for (int lane = 0; lane < kSimdLanes; ++lane) {
                    u16 aBin = b_->newArf();
                    b_->emit(Instruction::movDrfArf(true, aBin, binV,
                                                    u8(lane), mask));
                    u16 aOff = b_->newArf();
                    b_->emit(Instruction::calcArfImm(
                        AluOp::kMul, aOff, aBin, 16, mask));
                    MemOperand slot =
                        MemOperand::basePlus(aOff, i64(scratchBase_));
                    u16 cur = b_->newDrf();
                    b_->emit(Instruction::memRf(false, slot, cur, mask));
                    if (valConst) {
                        b_->emit(Instruction::comp(
                            AluOp::kAdd, DType::kF32, CompMode::kVecVec,
                            cur, cur, b_->floatConst(valConst->fval),
                            0x1, mask));
                    } else {
                        u16 aV = b_->newArf();
                        b_->emit(Instruction::movDrfArf(
                            true, aV, valV, u8(lane), mask));
                        u16 vd = b_->newDrf();
                        b_->emit(Instruction::movDrfArf(false, aV, vd, 0,
                                                        mask));
                        b_->emit(Instruction::comp(
                            AluOp::kAdd, DType::kF32, CompMode::kVecVec,
                            cur, cur, vd, 0x1, mask));
                    }
                    b_->emit(Instruction::memRf(true, slot, cur, mask));
                }
            }
        }
        b_->emit(Instruction::calcArfImm(AluOp::kAdd, sSrc, sSrc,
                                         i32(SL.tileBytes()), mask));
        b_->emit(Instruction::calcArfImm(AluOp::kAdd, sX, sX,
                                         i32(i64(P()) * SL.tx()), mask));
        b_->loopEnd(loop);
    }

    // ---- Phase 2: vault-level reduction onto pg0/pe0 ----
    u32 numPes = cfg_.pesPerVault();
    u32 redStage = b_->vsmAlloc(numPes * 16);
    u32 m0 = activeMask(0x1, 0x1);
    {
        u16 aP = b_->newArf();
        b_->arfLoadImm(aP, i32(scratchBase_), all);
        u16 aVP = b_->newArf();
        b_->arfLoadImm(aVP, i32(scratch2), m0);
        u16 gpe = arfSum(pgTimes(i64(P()) * 16), peTimes(16));
        auto loop = b_->loopBegin(bins);
        u16 part = b_->newDrf();
        b_->emit(Instruction::memRf(false, MemOperand::viaArf(aP), part,
                                    all));
        b_->emit(Instruction::vsmRf(
            false, MemOperand::basePlus(gpe, redStage), part, all));
        u16 acc = b_->newDrf();
        b_->emit(Instruction::reset(acc, m0));
        for (u32 g = 0; g < numPes; ++g) {
            u16 w = b_->newDrf();
            b_->emit(Instruction::vsmRf(
                true, MemOperand::direct(redStage + g * 16), w, m0));
            b_->emit(Instruction::comp(AluOp::kAdd, DType::kF32,
                                       CompMode::kVecVec, acc, acc, w,
                                       kFullVecMask, m0));
        }
        b_->emit(Instruction::memRf(true, MemOperand::viaArf(aVP), acc,
                                    m0));
        b_->emit(Instruction::calcArfImm(AluOp::kAdd, aP, aP, 16, all));
        b_->emit(Instruction::calcArfImm(AluOp::kAdd, aVP, aVP, 16, m0));
        b_->loopEnd(loop);
    }

    // ---- Phase 3: device-level gather on chip0/vault0 ----
    b_->emit(Instruction::sync(7));
    u32 totalVaults = cfg_.cubes * cfg_.vaultsPerCube;
    if (V_ == 0 && totalVaults > 1) {
        u32 batch = std::min<u32>(totalVaults - 1, 16);
        u32 gatherStage = b_->vsmAlloc(batch * u32(bins) * 16);
        u32 done = 0;
        bool firstBatch = true;
        while (done < totalVaults - 1) {
            u32 count = std::min(batch, totalVaults - 1 - done);
            for (u32 s = 0; s < count; ++s) {
                u32 gv = 1 + done + s;
                u16 cA = b_->newCrf();
                b_->emit(Instruction::setiCrf(cA, i32(scratch2)));
                u16 cV = b_->newCrf();
                b_->emit(Instruction::setiCrf(
                    cV, i32(gatherStage + s * u32(bins) * 16)));
                auto loop = b_->loopBegin(bins);
                Instruction rq = Instruction::req(
                    u16(gv / cfg_.vaultsPerCube),
                    u16(gv % cfg_.vaultsPerCube), 0, 0,
                    MemOperand::viaArf(cA), 0);
                rq.vsmAddr = MemOperand::viaArf(cV);
                b_->emit(rq);
                b_->emit(Instruction::calcCrfImm(AluOp::kAdd, cA, cA, 16));
                b_->emit(Instruction::calcCrfImm(AluOp::kAdd, cV, cV, 16));
                b_->loopEnd(loop);
            }
            // Accumulate this batch into the output storage.
            u16 aOut = b_->newArf();
            b_->arfLoadImm(aOut, i32(L_.baseAddr()), m0);
            u16 aOwn = b_->newArf();
            b_->arfLoadImm(aOwn, i32(scratch2), m0);
            std::vector<u16> aStage(count);
            for (u32 s = 0; s < count; ++s) {
                aStage[s] = b_->newArf();
                b_->arfLoadImm(aStage[s],
                               i32(gatherStage + s * u32(bins) * 16), m0);
            }
            auto loop = b_->loopBegin(bins);
            u16 acc = b_->newDrf();
            b_->emit(Instruction::memRf(
                false,
                MemOperand::viaArf(firstBatch ? aOwn : aOut), acc, m0));
            for (u32 s = 0; s < count; ++s) {
                u16 w = b_->newDrf();
                b_->emit(Instruction::vsmRf(
                    true, MemOperand::viaArf(aStage[s]), w, m0));
                b_->emit(Instruction::comp(AluOp::kAdd, DType::kF32,
                                           CompMode::kVecVec, acc, acc,
                                           w, kFullVecMask, m0));
            }
            b_->emit(Instruction::memRf(true, MemOperand::viaArf(aOut),
                                        acc, m0));
            b_->emit(Instruction::calcArfImm(AluOp::kAdd, aOut, aOut, 16,
                                             m0));
            b_->emit(Instruction::calcArfImm(AluOp::kAdd, aOwn, aOwn, 16,
                                             m0));
            for (u32 s = 0; s < count; ++s)
                b_->emit(Instruction::calcArfImm(AluOp::kAdd, aStage[s],
                                                 aStage[s], 16, m0));
            b_->loopEnd(loop);
            done += count;
            firstBatch = false;
        }
    }
}

// ====================== replicated =================================

void
StageEmitter::emitReplicated()
{
    if (stage_.func->dims() != 1)
        fatal(stage_.func->name(),
              ": compute_replicated supports 1D funcs only");
    if (!stage_.calls.empty())
        fatal(stage_.func->name(),
              ": compute_replicated funcs must not call other funcs");
    prematerialize(stage_.rhs);
    b_->intConst(0);
    b_->laneRampI();
    u32 all = b_->fullMask();
    i64 extent = L_.region().x.extent();
    i64 vecs = (extent + kSimdLanes - 1) / kSimdLanes;
    for (i64 v = 0; v < vecs; ++v) {
        u16 xVec = b_->newDrf();
        b_->emit(Instruction::comp(
            AluOp::kAdd, DType::kI32, CompMode::kVecVec, xVec,
            b_->intConst(i32(L_.region().x.lo + v * kSimdLanes)),
            b_->laneRampI(), kFullVecMask, all));
        redActive_ = true;
        redX_ = stage_.func->varX();
        redY_ = stage_.func->varY();
        redXReg_ = xVec;
        redYReg_ = xVec;
        redSrc_ = nullptr;
        std::map<std::string, u16> lc;
        u16 val = emitExpr(stage_.rhs, {}, 0, 0, 0, all, lc);
        redActive_ = false;
        if (isIntExpr(stage_.rhs)) {
            u16 d = b_->newDrf();
            b_->emit(Instruction::comp(AluOp::kCvtI2F, DType::kF32,
                                       CompMode::kVecVec, d, val, val,
                                       kFullVecMask, all));
            val = d;
        }
        b_->emit(Instruction::memRf(
            true,
            MemOperand::direct(u32(L_.baseAddr() + u64(v) * 16)), val,
            all));
    }
}

} // namespace

u64
CompiledPipeline::totalInstructions() const
{
    u64 n = 0;
    for (const CompiledKernel &k : kernels)
        for (const auto &p : k.perVault)
            n += p.size();
    return n;
}

CompiledPipeline
compilePipeline(const PipelineDef &def, const HardwareConfig &cfg,
                const CompilerOptions &opts)
{
    CompiledPipeline out;
    out.def = def;
    out.cfg = cfg;
    out.options = opts;
    out.analysis = std::make_shared<PipelineAnalysis>(analyzePipeline(def));
    out.layouts = std::make_shared<LayoutMap>(cfg, *out.analysis);
    out.scratchBase = (out.layouts->heapEnd() + 63) & ~u64(63);

    // Reserve scratch (reduction partials) and spill windows after the
    // data heap: an eighth of the bank each, like a linker script would.
    u64 scratchBytes = cfg.bankBytes / 8;
    out.spillBase = out.scratchBase + scratchBytes;
    if (out.spillBase + cfg.bankBytes / 8 > cfg.bankBytes)
        fatal("bank too small: data heap ends at ", out.scratchBase,
              " of ", cfg.bankBytes, " bytes");

    u32 totalVaults = cfg.cubes * cfg.vaultsPerCube;
    for (const StageInfo &s : out.analysis->stages) {
        if (s.func->isInput())
            continue;
        StageEmitter emitter(cfg, *out.analysis, *out.layouts, s,
                             out.scratchBase);
        CompiledKernel kern;
        kern.stage = s.func->name();
        kern.perVault.resize(totalVaults);
        for (u32 gv = 0; gv < totalVaults; ++gv) {
            BuilderProgram bp = emitter.emitVault(gv);
            BackendStats bs;
            kern.perVault[gv] =
                runBackend(cfg, std::move(bp), opts, out.spillBase, &bs);
            kern.backend.spilledRegs += bs.spilledRegs;
            kern.backend.physicalDrfUsed = std::max(
                kern.backend.physicalDrfUsed, bs.physicalDrfUsed);
            kern.backend.instructions += bs.instructions;
        }
        out.kernels.push_back(std::move(kern));
    }

    // Opt-in compile-time gate: refuse to hand the simulator a program
    // the static verifier rejects (Sec. IV-B's issue logic assumes
    // well-formed programs; malformed ones hang or corrupt silently).
    if (opts.verify) {
        for (const CompiledKernel &k : out.kernels) {
            VerifyReport rep = verifyDevice(cfg, k.perVault);
            if (!rep.pass())
                fatal("kernel '", k.stage, "' failed verification (",
                      rep.errorCount(), " errors):\n", rep.toString());
        }
    }

    // Opt-in conflict gate: prove the per-vault programs touch
    // disjoint memory between barriers (V14-V18) before the simulator
    // runs them concurrently.
    if (opts.analyze) {
        for (const CompiledKernel &k : out.kernels) {
            std::vector<ProgramAnalysis> pas;
            pas.reserve(k.perVault.size());
            std::vector<const ProgramAnalysis *> ptrs;
            for (size_t v = 0; v < k.perVault.size(); ++v) {
                pas.push_back(analyzeProgram(
                    cfg, k.perVault[v], int(v / cfg.vaultsPerCube),
                    int(v % cfg.vaultsPerCube)));
                ptrs.push_back(&pas.back());
            }
            ConflictReport rep = analyzeDeviceConflicts(cfg, ptrs);
            if (!rep.findings.empty()) {
                std::string msgs;
                for (const ConflictFinding &f : rep.findings) {
                    msgs += conflictKindName(f.kind);
                    msgs += ": ";
                    msgs += f.message;
                    msgs += '\n';
                }
                fatal("kernel '", k.stage, "' failed conflict analysis "
                      "(", rep.findings.size(), " findings):\n", msgs);
            }
        }
    }
    return out;
}

} // namespace ipim

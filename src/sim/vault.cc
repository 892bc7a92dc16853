#include "sim/vault.h"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.h"
#include "isa/alu.h"
#include "sim/hazards.h"
#include "sim/program_validate.h"

namespace ipim {

namespace {

/**
 * Counter keys charged on every stalled or issuing tick, built once:
 * the per-category keys would otherwise be concatenated, and the names
 * longer than the inline string buffer heap-allocated, on each tick.
 */
struct CounterKeys
{
    static constexpr size_t kCategories = size_t(InstCategory::kPseudo) + 1;

    std::string barrierStall = "core.barrierStall";
    std::string structStall = "core.structStall";
    std::string hazardStall = "core.hazardStall";
    std::array<std::string, kCategories> inst;  ///< "inst.<category>"
    std::array<std::string, kCategories> stall; ///< "stall.<category>"

    CounterKeys()
    {
        for (size_t c = 0; c < kCategories; ++c) {
            const char *name = categoryName(InstCategory(c));
            inst[c] = std::string("inst.") + name;
            stall[c] = std::string("stall.") + name;
        }
    }
};

const CounterKeys kKeys;

} // namespace

Vault::Vault(const HardwareConfig &cfg, u32 chipId, u32 vaultId,
             StatsRegistry *stats, Tracer *trace,
             const std::string &tracePrefix)
    : cfg_(cfg), chipId_(chipId), vaultId_(vaultId), stats_(stats),
      trace_(trace),
      actLimiter_(std::make_unique<ActivationLimiter>(cfg.timing)),
      pgWake_(cfg.pgsPerVault, 0), vsm_(cfg.vsmBytes),
      crf_(cfg.ctrlRfEntries, 0)
{
    if (trace_ != nullptr) {
        trackCore_ = trace_->track(tracePrefix + "core");
        trackPe_ = trace_->track(tracePrefix + "pe");
    }
    for (u32 pgIdx = 0; pgIdx < cfg.pgsPerVault; ++pgIdx)
        pgs_.push_back(std::make_unique<ProcessGroup>(
            cfg, this, pgIdx, actLimiter_.get(), stats, trace,
            tracePrefix));
}

void
Vault::reset()
{
    pc_ = 0;
    halted_ = prog_.empty();
    stallUntil_ = 0;
    std::fill(crf_.begin(), crf_.end(), 0u);
    iiq_.clear();
    activeSync_ = nullptr;
    syncArrivals_.clear();
    outbox_.clear();
    remoteInbox_.clear();
    pendingReqs_.clear();
    stallReason_ = StallReason::kNone;
    traceActive_ = false;
    // Sequence/tag counters restart with the core: a stale nextReqTag_
    // would keep growing across loadProgram launches until its low 32
    // bits wrapped into the tag's vault-id field, and stale accounting
    // would make issuedCount() accumulate across unrelated programs.
    nextSeq_ = 1;
    nextReqTag_ = 1;
    acct_ = IssueAccounting{};
    for (auto &pg : pgs_)
        pg->reset(chipId_, vaultId_);
}

void
Vault::hardReset()
{
    prog_.clear();
    progAccess_.clear();
    reset();
    for (auto &pg : pgs_)
        pg->hardReset(chipId_, vaultId_);
    vsm_.clear();
    tsv_.reset();
    actLimiter_->reset();
}

void
Vault::validateProgram(const std::vector<Instruction> &prog) const
{
    validateVaultProgram(cfg_, prog);
}

void
Vault::loadProgram(const std::vector<Instruction> &prog)
{
    validateProgram(prog);
    prog_ = prog;
    progAccess_.clear();
    progAccess_.reserve(prog.size());
    for (const auto &inst : prog_)
        progAccess_.push_back(inst.accessSet());
    reset();
}

void
Vault::deliver(const Packet &p)
{
    switch (p.kind) {
      case PacketKind::kReqRead:
        remoteInbox_.push_back(p);
        break;
      case PacketKind::kReqResponse: {
        // Validate the tag before touching the VSM: an unknown-tag
        // response must not corrupt scratchpad state on its way to the
        // panic.
        auto it = pendingReqs_.find(p.tag);
        if (it == pendingReqs_.end()) {
#ifdef IPIM_DEBUG_REQ
            std::fprintf(stderr,
                         "BAD RESP at chip%u vault%u tag=%llx src=%u.%u\n",
                         chipId_, vaultId_, (unsigned long long)p.tag,
                         p.srcChip, p.srcVault);
#endif
            panic("req response with unknown tag");
        }
        vsm_.writeVec(p.vsmAddr, p.data);
        stats_->inc("vsm.access");
        it->second->coreDone = true;
        pendingReqs_.erase(it);
        break;
      }
      case PacketKind::kSyncArrive:
        if (!isMaster())
            panic("sync-arrive delivered to a non-master vault");
        syncArrivals_[p.phaseId] += 1;
        break;
      case PacketKind::kSyncProceed:
        if (activeSync_ == nullptr)
            panic("sync-proceed with no active sync");
        if (activeSync_->inst.phaseId != p.phaseId)
            panic("sync-proceed phase mismatch");
        activeSync_->coreDone = true;
        activeSync_ = nullptr;
        break;
      default:
        panic("unknown packet kind");
    }
}

void
Vault::serviceRemoteInbox(Cycle now)
{
    while (!remoteInbox_.empty()) {
        const Packet &p = remoteInbox_.front();
        if (p.pg >= cfg_.pgsPerVault || p.pe >= cfg_.pesPerPg)
            panic("remote request addresses a nonexistent PE");
        RemoteReadDone info;
        info.tag = p.tag;
        info.srcChip = p.srcChip;
        info.srcVault = p.srcVault;
        info.vsmAddr = p.vsmAddr;
        if (!pgs_[p.pg]->submitRemoteRead(p.pe, p.dramAddr, info))
            break; // MC full; retry next cycle, preserving order
        pgWake_[p.pg] = now; // the PG's MC has a new request this cycle
        remoteInbox_.pop_front();
    }
}

void
Vault::collectRemoteCompletions(ProcessGroup &pg)
{
    for (const RemoteReadDone &d : pg.remoteDone()) {
        Packet resp;
        resp.kind = PacketKind::kReqResponse;
        resp.srcChip = chipId_;
        resp.srcVault = vaultId_;
        resp.dstChip = d.srcChip;
        resp.dstVault = d.srcVault;
        resp.tag = d.tag;
        resp.vsmAddr = d.vsmAddr;
        resp.data = d.data;
        outbox_.push_back(resp);
    }
    pg.remoteDone().clear();
}

void
Vault::retireStep()
{
    while (!iiq_.empty() && iiq_.front()->done()) {
        if (iiq_.front()->isBarrier && activeSync_ == iiq_.front().get())
            activeSync_ = nullptr;
        iiq_.pop_front();
        stats_->inc("core.retired");
    }
}

void
Vault::issueBroadcast(Cycle now, const Instruction &inst,
                      const AccessSet &acc)
{
    auto fi = std::make_unique<InFlightInst>();
    fi->inst = inst;
    fi->access = acc;
    fi->seq = nextSeq_++;
    u32 mask = inst.simbMask;
    fi->pendingPes = u32(std::popcount(mask));
    fi->unstartedPes = fi->pendingPes;
    Cycle slot = tsv_.acquire(now);
    stats_->inc("tsv.broadcasts");
    Cycle arrives = slot + cfg_.latency.tsv;
    for (u32 b = 0; b < numPes(); ++b) {
        if (!(mask & (1u << b)))
            continue;
        u32 g = b / cfg_.pesPerPg;
        pgs_[g]->pe(b % cfg_.pesPerPg).push(fi.get(), arrives);
        // The PE can start it no earlier than its arrival.
        pgWake_[g] = std::min(pgWake_[g], arrives);
    }
    iiq_.push_back(std::move(fi));
}

void
Vault::noteStall(Cycle now, StallReason reason)
{
    if (!Tracer::active(trace_))
        return;
    if (reason == stallReason_)
        return;
    if (stallReason_ != StallReason::kNone) {
        TraceEv ev = TraceEv::kStallHazard;
        switch (stallReason_) {
          case StallReason::kBranch: ev = TraceEv::kStallBranch; break;
          case StallReason::kBarrier: ev = TraceEv::kStallBarrier; break;
          case StallReason::kDrain: ev = TraceEv::kStallDrain; break;
          case StallReason::kStruct: ev = TraceEv::kStallStruct; break;
          case StallReason::kHazard: ev = TraceEv::kStallHazard; break;
          case StallReason::kNone: break;
        }
        trace_->span(trackCore_, ev, stallSince_, now);
    }
    stallReason_ = reason;
    stallSince_ = now;
}

Vault::IssueOutcome
Vault::classifyIssue(Cycle now) const
{
    if (halted_)
        return IssueOutcome::kHalted;
    if (now < stallUntil_)
        return IssueOutcome::kBubble;
    if (pc_ >= prog_.size())
        panic("pc ran off the end of the program");

    // A barrier in flight blocks all younger instructions.
    for (const auto &e : iiq_)
        if (e->isBarrier)
            return IssueOutcome::kBarrier;

    const Instruction &inst = prog_[pc_];
    const AccessSet &acc = progAccess_[pc_];

    if (inst.op == Opcode::kSync || inst.op == Opcode::kHalt) {
        // Both act as fences: all earlier instructions must be done.
        if (!iiq_.empty())
            return IssueOutcome::kDrain;
    } else {
        if (iiq_.size() >= cfg_.instQueueDepth)
            return IssueOutcome::kStruct;
        for (const auto &e : iiq_) {
            if (!issueHazard(e->access, acc))
                continue;
            // Anti/output dependences clear once the older instruction
            // has captured its operands on every PE; true dependences
            // (and load-destination writes) wait for completion.
            bool blocks = hazardNeedsCompletion(e->inst, e->access, acc)
                              ? !e->done()
                              : !(e->started() && e->coreDone);
            if (blocks)
                return IssueOutcome::kHazard;
        }
    }
    return IssueOutcome::kIssue;
}

void
Vault::issueStep(Cycle now)
{
    if (halted_)
        return;
    if (Tracer::active(trace_) && !traceActive_) {
        // First issue attempt after a (re)load: a program run begins.
        traceActive_ = true;
        activeSince_ = now;
    }
    switch (classifyIssue(now)) {
      case IssueOutcome::kHalted:
        return; // unreachable: checked above
      case IssueOutcome::kBubble:
        stats_->inc("core.bubble");
        ++acct_.bubble;
        noteStall(now, StallReason::kBranch);
        return;
      case IssueOutcome::kBarrier:
        stats_->inc(kKeys.barrierStall);
        ++acct_.barrier;
        noteStall(now, StallReason::kBarrier);
        return;
      case IssueOutcome::kDrain:
        stats_->inc("core.drainStall");
        ++acct_.drain;
        noteStall(now, StallReason::kDrain);
        return;
      case IssueOutcome::kStruct:
        stats_->inc(kKeys.structStall);
        ++acct_.structStall;
        noteStall(now, StallReason::kStruct);
        return;
      case IssueOutcome::kHazard:
        stats_->inc(kKeys.hazardStall);
        stats_->inc(kKeys.stall[size_t(prog_[pc_].category())]);
        ++acct_.hazard;
        noteStall(now, StallReason::kHazard);
        return;
      case IssueOutcome::kIssue:
        break;
    }

    const Instruction &inst = prog_[pc_];
    const AccessSet &acc = progAccess_[pc_];

    stats_->inc("core.issued");
    stats_->inc(kKeys.inst[size_t(inst.category())]);
    ++acct_.issued;
    noteStall(now, StallReason::kNone);

    switch (inst.op) {
      case Opcode::kJump:
      case Opcode::kCjump: {
        bool taken = inst.op == Opcode::kJump || crf_.at(inst.src1) != 0;
        if (taken) {
            u32 target = crf_.at(inst.dst);
            if (target >= prog_.size())
                fatal("jump to pc ", target, " outside program");
            pc_ = target;
            stallUntil_ = now + cfg_.latency.branch;
            stats_->inc("core.taken");
        } else {
            ++pc_;
        }
        return;
      }
      case Opcode::kCalcCrf: {
        i32 a = i32(crf_.at(inst.src1));
        i32 b = inst.srcImm ? inst.imm : i32(crf_.at(inst.src2));
        crf_.at(inst.dst) = u32(aluEvalI32(inst.aluOp, a, b));
        ++pc_;
        return;
      }
      case Opcode::kSetiCrf:
        crf_.at(inst.dst) = u32(inst.imm);
        ++pc_;
        return;
      case Opcode::kSetiVsm:
        vsm_.write32(inst.vsmAddr.value, u32(inst.imm));
        stats_->inc("vsm.access");
        ++pc_;
        return;
      case Opcode::kNop:
        ++pc_;
        return;
      case Opcode::kHalt:
        halted_ = true;
        ++pc_;
        if (Tracer::active(trace_) && traceActive_) {
            trace_->span(trackCore_, TraceEv::kVaultRun, activeSince_,
                         now);
            traceActive_ = false;
        }
        return;
      case Opcode::kReq: {
        auto fi = std::make_unique<InFlightInst>();
        fi->inst = inst;
        fi->access = acc;
        fi->seq = nextSeq_++;
        fi->coreDone = false;
        // The tag packs chip[63:48] | vault[47:32] | counter[31:0];
        // the counter must never bleed into the vault-id field.
        if (nextReqTag_ > 0xFFFFFFFFull)
            panic("REQ tag counter overflowed its 32-bit field");
        u64 tag = (u64(chipId_) << 48) | (u64(vaultId_) << 32) |
                  (nextReqTag_++ & 0xFFFFFFFFull);
        pendingReqs_[tag] = fi.get();
        Packet p;
        p.kind = PacketKind::kReqRead;
        p.srcChip = chipId_;
        p.srcVault = vaultId_;
        p.dstChip = inst.dstChip;
        p.dstVault = inst.dstVault;
        p.pg = inst.dstPg;
        p.pe = inst.dstPe;
        // Core-side indirection resolves through the CtrlRF.
        p.dramAddr =
            inst.dramAddr.indirect
                ? u64(i64(i32(crf_.at(u16(inst.dramAddr.value)))) +
                      inst.dramAddr.offset)
                : u64(inst.dramAddr.value);
        p.vsmAddr = inst.vsmAddr.indirect
                        ? u32(i64(i32(crf_.at(u16(inst.vsmAddr.value)))) +
                              inst.vsmAddr.offset)
                        : inst.vsmAddr.value;
        p.tag = tag;
        outbox_.push_back(p);
        iiq_.push_back(std::move(fi));
        ++pc_;
        return;
      }
      case Opcode::kSync: {
        auto fi = std::make_unique<InFlightInst>();
        fi->inst = inst;
        fi->access = acc;
        fi->seq = nextSeq_++;
        fi->coreDone = false;
        fi->isBarrier = true;
        activeSync_ = fi.get();
        if (isMaster()) {
            // The master's own arrival counts implicitly; completion is
            // checked in masterSyncCheck() once all slaves arrived.
        } else {
            Packet p;
            p.kind = PacketKind::kSyncArrive;
            p.srcChip = chipId_;
            p.srcVault = vaultId_;
            p.dstChip = 0;
            p.dstVault = 0;
            p.phaseId = inst.phaseId;
            outbox_.push_back(p);
        }
        iiq_.push_back(std::move(fi));
        ++pc_;
        return;
      }
      default:
        break;
    }

    // Remaining opcodes are SIMB broadcasts.
    issueBroadcast(now, inst, acc);
    ++pc_;
}

void
Vault::masterSyncCheck()
{
    if (!isMaster() || activeSync_ == nullptr)
        return;
    u32 phase = activeSync_->inst.phaseId;
    auto it = syncArrivals_.find(phase);
    u32 arrived = it == syncArrivals_.end() ? 0 : it->second;
    if (arrived < totalVaults() - 1)
        return;
    syncArrivals_.erase(phase);
    for (u32 c = 0; c < cfg_.cubes; ++c) {
        for (u32 v = 0; v < cfg_.vaultsPerCube; ++v) {
            if (c == 0 && v == 0)
                continue;
            Packet p;
            p.kind = PacketKind::kSyncProceed;
            p.srcChip = chipId_;
            p.srcVault = vaultId_;
            p.dstChip = c;
            p.dstVault = v;
            p.phaseId = phase;
            outbox_.push_back(p);
        }
    }
    activeSync_->coreDone = true;
    activeSync_ = nullptr;
}

void
Vault::sampleTrace(Cycle now)
{
    trace_->counter(trackCore_, TraceEv::kIiqOccupancy, now,
                    f64(iiq_.size()));
    trace_->counter(trackCore_, TraceEv::kCoreIssued, now,
                    f64(acct_.issued));
    u32 busy = 0;
    u64 simdBusy = 0;
    for (auto &pg : pgs_) {
        for (u32 p = 0; p < cfg_.pesPerPg; ++p) {
            const ProcessEngine &pe = pg->pe(p);
            busy += pe.idle() ? 0 : 1;
            simdBusy += pe.simdBusyCycles();
        }
    }
    trace_->counter(trackPe_, TraceEv::kPeBusy, now, f64(busy));
    trace_->counter(trackPe_, TraceEv::kSimdBusy, now, f64(simdBusy));
}

void
Vault::flushTrace(Cycle now)
{
    if (!Tracer::active(trace_))
        return;
    noteStall(now, StallReason::kNone);
    if (traceActive_) {
        trace_->span(trackCore_, TraceEv::kVaultRun, activeSince_, now);
        traceActive_ = false;
    }
}

u32
Vault::busyPes() const
{
    u32 busy = 0;
    for (const auto &pg : pgs_)
        for (u32 p = 0; p < cfg_.pesPerPg; ++p)
            busy += pg->pe(p).idle() ? 0 : 1;
    return busy;
}

u32
Vault::mcQueueDepth() const
{
    u32 depth = 0;
    for (const auto &pg : pgs_)
        depth += pg->mc().queueDepth();
    return depth;
}

void
Vault::tick(Cycle now)
{
    stats_->inc("core.cycles");
    ++acct_.cycles;
    if (Tracer::sampleDue(trace_, now))
        sampleTrace(now);
    serviceRemoteInbox(now);
    // Lazy PG ticking (DESIGN.md Sec. 13): a PG with no event due would
    // change nothing this cycle, so it is skipped.  A ticked PG caches
    // its next wake once its remote-read results are collected.
    for (u32 g = 0; g < pgs_.size(); ++g) {
        if (lazyPgs_ && pgWake_[g] > now)
            continue;
        ProcessGroup &pg = *pgs_[g];
        pg.tick(now);
        collectRemoteCompletions(pg);
        if (lazyPgs_)
            pgWake_[g] = pg.nextEventAt(now + 1);
    }
    retireStep();
    issueStep(now);
    masterSyncCheck();
}

Cycle
Vault::nextEventAt(Cycle now) const
{
    // Undrained NIC traffic is consumed by the cube / this vault on the
    // very next tick, and a done IIQ head retires on the next tick
    // (including a completed sync whose masterSyncCheck ran after this
    // cycle's retireStep).
    if (!outbox_.empty() || !remoteInbox_.empty())
        return now;
    if (!iiq_.empty() && iiq_.front()->done())
        return now;

    Cycle e = kNeverCycle;
    switch (classifyIssue(now)) {
      case IssueOutcome::kIssue:
        return now;
      case IssueOutcome::kBubble:
        // The only stall with a self-timed expiry; the others clear
        // via some other component's event, counted in below.
        e = stallUntil_;
        break;
      default:
        break;
    }
    if (lazyPgs_) {
        for (Cycle w : pgWake_)
            e = std::min(e, std::max(now, w));
        return e;
    }
    for (const auto &pg : pgs_)
        e = std::min(e, pg->nextEventAt(now));
    return e;
}

void
Vault::beginRun(Cycle now, bool lazy)
{
    lazyPgs_ = lazy;
    std::fill(pgWake_.begin(), pgWake_.end(), now);
}

void
Vault::creditSkipped(Cycle from, u64 skipped)
{
    stats_->inc("core.cycles", f64(skipped));
    acct_.cycles += skipped;
    // Stall-span bookkeeping: in dense mode the first stalled tick of a
    // window opens the trace span via noteStall; when that tick is
    // skipped, perform the identical transition here at the window
    // start so trace output stays bit-exact (DESIGN.md Sec. 13).
    switch (classifyIssue(from)) {
      case IssueOutcome::kHalted:
        return;
      case IssueOutcome::kBubble:
        stats_->inc("core.bubble", f64(skipped));
        acct_.bubble += skipped;
        noteStall(from, StallReason::kBranch);
        return;
      case IssueOutcome::kBarrier:
        stats_->inc(kKeys.barrierStall, f64(skipped));
        acct_.barrier += skipped;
        noteStall(from, StallReason::kBarrier);
        return;
      case IssueOutcome::kDrain:
        stats_->inc("core.drainStall", f64(skipped));
        acct_.drain += skipped;
        noteStall(from, StallReason::kDrain);
        return;
      case IssueOutcome::kStruct:
        stats_->inc(kKeys.structStall, f64(skipped));
        acct_.structStall += skipped;
        noteStall(from, StallReason::kStruct);
        return;
      case IssueOutcome::kHazard:
        stats_->inc(kKeys.hazardStall, f64(skipped));
        stats_->inc(kKeys.stall[size_t(prog_[pc_].category())],
                    f64(skipped));
        acct_.hazard += skipped;
        noteStall(from, StallReason::kHazard);
        return;
      case IssueOutcome::kIssue:
        panic("fast-forward skipped cycle ", from, " on which vault ",
              chipId_, ".", vaultId_, " could issue");
    }
}

bool
Vault::fullyIdle() const
{
    if (!halted_ || !iiq_.empty() || !outbox_.empty() ||
        !remoteInbox_.empty() || !pendingReqs_.empty())
        return false;
    for (const auto &pg : pgs_)
        if (!pg->idle())
            return false;
    return true;
}

} // namespace ipim

#include "verify/verifier.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <set>
#include <sstream>

#include "analysis/analysis.h"
#include "analysis/conflict.h"
#include "analysis/dataflow.h"
#include "common/logging.h"
#include "isa/encoding.h"

namespace ipim {

namespace {

/** Shared state of one program's verification run. */
struct Ctx
{
    const HardwareConfig &cfg;
    const std::vector<Instruction> &prog;
    const VerifierOptions &opts;
    int vault;
    VerifyReport &rep;

    /// valid[i]: opcode/aluOp bytes are inside the ISA; instructions
    /// failing this are reported once and skipped by every other pass.
    std::vector<bool> valid;
    std::vector<AccessSet> access; ///< access sets of valid instructions

    /// [begin, end] index ranges covered by a statically known backward
    /// branch; the sync-placement check is conservative inside them.
    std::vector<std::pair<size_t, size_t>> loopSpans;

    /// CFG over the program; built after checkOpcodes, shared by the
    /// control-flow, dataflow, and conflict passes.
    const Cfg *graph = nullptr;

    u32
    validSimbMask() const
    {
        u32 pes = cfg.pesPerVault();
        return pes >= 32 ? 0xFFFFFFFFu : ((1u << pes) - 1);
    }

    void
    diag(Severity sev, Rule rule, int index, std::string msg)
    {
        if (!opts.isEnabled(rule))
            return;
        rep.add({sev, rule, vault, index, std::move(msg)});
    }

    void
    error(Rule rule, int index, const std::string &msg)
    {
        diag(Severity::kError, rule, index, msg);
    }

    void
    warning(Rule rule, int index, const std::string &msg)
    {
        diag(Severity::kWarning, rule, index, msg);
    }

    bool
    inLoop(size_t idx) const
    {
        for (const auto &[b, e] : loopSpans)
            if (idx >= b && idx <= e)
                return true;
        return false;
    }
};

std::string
str(const char *fmtless)
{
    return fmtless;
}

template <typename... Args>
std::string
cat(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

// ======================= opcode validity ==========================

void
checkOpcodes(Ctx &c)
{
    c.valid.assign(c.prog.size(), true);
    c.access.resize(c.prog.size());
    for (size_t i = 0; i < c.prog.size(); ++i) {
        const Instruction &inst = c.prog[i];
        if (u8(inst.op) >= u8(Opcode::kNumOpcodes)) {
            c.error(Rule::kEncoding, int(i),
                    cat("opcode byte ", int(u8(inst.op)),
                        " is outside the ISA"));
            c.valid[i] = false;
            continue;
        }
        if (u8(inst.aluOp) >= u8(AluOp::kNumAluOps)) {
            c.error(Rule::kEncoding, int(i),
                    cat("alu-op byte ", int(u8(inst.aluOp)),
                        " is outside the ISA: ", opcodeName(inst.op)));
            c.valid[i] = false;
            continue;
        }
        // ALU-op/unit validity, mirroring the dispatch in isa/alu.cc:
        // the f32 SIMD path has no modulo, and the scalar index units
        // (calc_arf/calc_crf) have neither mac nor the conversions.
        // The simulator panics/faults on these, so acceptance must
        // reject them statically.
        if (inst.op == Opcode::kComp && inst.dtype == DType::kF32 &&
            inst.aluOp == AluOp::kMod) {
            c.error(Rule::kEncoding, int(i),
                    "mod has no f32 SIMD implementation; use dtype i32");
            c.valid[i] = false;
            continue;
        }
        if ((inst.op == Opcode::kCalcArf ||
             inst.op == Opcode::kCalcCrf) &&
            (inst.aluOp == AluOp::kMac ||
             inst.aluOp == AluOp::kCvtF2I ||
             inst.aluOp == AluOp::kCvtI2F)) {
            c.error(Rule::kEncoding, int(i),
                    cat(aluOpName(inst.aluOp),
                        " is only valid as a comp (SIMD) operation"));
            c.valid[i] = false;
            continue;
        }
        c.access[i] = inst.accessSet();
    }
}

// ===================== V01 register bounds ========================

u32
regFileLimit(const HardwareConfig &cfg, RegFile f)
{
    switch (f) {
      case RegFile::kDrf: return cfg.dataRfEntries();
      case RegFile::kArf: return cfg.addrRfEntries();
      case RegFile::kCrf: return cfg.ctrlRfEntries;
      default: panic("regFileLimit: bad file ", int(f));
    }
}

const char *
regFileName(RegFile f)
{
    switch (f) {
      case RegFile::kDrf: return "DRF";
      case RegFile::kArf: return "ARF";
      case RegFile::kCrf: return "CRF";
      default: panic("regFileName: bad file ", int(f));
    }
}

void
checkRegisterBounds(Ctx &c)
{
    for (size_t i = 0; i < c.prog.size(); ++i) {
        if (!c.valid[i])
            continue;
        const AccessSet &acc = c.access[i];
        auto check = [&](const RegRef &ref, const char *dir) {
            u32 limit = regFileLimit(c.cfg, ref.file);
            if (ref.idx >= limit)
                c.error(Rule::kRegBounds, int(i),
                        cat(dir, " ", regFileName(ref.file), " index ",
                            ref.idx, " >= file size ", limit, ": ",
                            c.prog[i].toString()));
        };
        for (u8 r = 0; r < acc.numReads; ++r)
            check(acc.reads[r], "read of");
        for (u8 w = 0; w < acc.numWrites; ++w)
            check(acc.writes[w], "write of");
    }
}

// ====================== V02 memory bounds =========================

void
checkDirectRange(Ctx &c, size_t i, const MemOperand &m, u64 span,
                 u64 capacity, const char *what)
{
    if (m.indirect)
        return; // per-PE AddrRF value; checkable only at issue time
    if (u64(m.value) + span > capacity)
        c.error(Rule::kMemBounds, int(i),
                cat(what, " byte offset ", m.value, " + ", span,
                    " exceeds capacity ", capacity, ": ",
                    c.prog[i].toString()));
    else if (m.value % 4 != 0)
        c.warning(Rule::kMemBounds, int(i),
                  cat(what, " byte offset ", m.value,
                      " is not 32b-lane aligned: ",
                      c.prog[i].toString()));
}

void
checkMemoryBounds(Ctx &c)
{
    const HardwareConfig &cfg = c.cfg;
    for (size_t i = 0; i < c.prog.size(); ++i) {
        if (!c.valid[i])
            continue;
        const Instruction &inst = c.prog[i];
        u64 pgsmSpan = u64(kSimdLanes - 1) * inst.pgsmStride + 4;
        switch (inst.op) {
          case Opcode::kStRf:
          case Opcode::kLdRf:
            checkDirectRange(c, i, inst.dramAddr, kVectorBytes,
                             cfg.bankBytes, "bank");
            break;
          case Opcode::kStPgsm:
          case Opcode::kLdPgsm:
            checkDirectRange(c, i, inst.dramAddr, kVectorBytes,
                             cfg.bankBytes, "bank");
            checkDirectRange(c, i, inst.pgsmAddr, kVectorBytes,
                             cfg.pgsmBytes, "PGSM");
            break;
          case Opcode::kRdPgsm:
          case Opcode::kWrPgsm:
            checkDirectRange(c, i, inst.pgsmAddr, pgsmSpan,
                             cfg.pgsmBytes, "PGSM");
            break;
          case Opcode::kRdVsm:
          case Opcode::kWrVsm:
            checkDirectRange(c, i, inst.vsmAddr, kVectorBytes,
                             cfg.vsmBytes, "VSM");
            break;
          case Opcode::kSetiVsm:
            if (inst.vsmAddr.indirect)
                c.error(Rule::kMemBounds, int(i),
                        cat("seti_vsm requires a direct VSM address: ",
                            inst.toString()));
            else
                checkDirectRange(c, i, inst.vsmAddr, 4, cfg.vsmBytes,
                                 "VSM");
            break;
          case Opcode::kReq: {
            checkDirectRange(c, i, inst.dramAddr, kVectorBytes,
                             cfg.bankBytes, "remote bank");
            checkDirectRange(c, i, inst.vsmAddr, kVectorBytes,
                             cfg.vsmBytes, "VSM staging");
            auto route = [&](u32 v, u32 limit, const char *unit) {
                if (v >= limit)
                    c.error(Rule::kMemBounds, int(i),
                            cat("req routes to ", unit, " ", v,
                                " but the device has ", limit, ": ",
                                inst.toString()));
            };
            route(inst.dstChip, cfg.cubes, "chip");
            route(inst.dstVault, cfg.vaultsPerCube, "vault");
            route(inst.dstPg, cfg.pgsPerVault, "PG");
            route(inst.dstPe, cfg.pesPerPg, "PE");
            break;
          }
          default:
            break;
        }
    }
}

// =================== V03 PGSM stride, V04 hints ===================

void
checkPgsmStride(Ctx &c)
{
    for (size_t i = 0; i < c.prog.size(); ++i) {
        if (!c.valid[i])
            continue;
        const Instruction &inst = c.prog[i];
        if (inst.op != Opcode::kRdPgsm && inst.op != Opcode::kWrPgsm)
            continue;
        if (inst.pgsmStride == 0) {
            // rd_pgsm with stride 0 is the compiler's splat-read idiom
            // (broadcast one 32b word to all lanes) and is fine; the
            // write direction would make four lanes race on one word.
            if (inst.op == Opcode::kWrPgsm)
                c.error(Rule::kPgsmStride, int(i),
                        cat("wr_pgsm with stride 0 writes all four "
                            "lanes to the same bytes: ",
                            inst.toString()));
        } else if (inst.pgsmStride % 4 != 0) {
            c.warning(Rule::kPgsmStride, int(i),
                      cat("PGSM lane stride ", inst.pgsmStride,
                          " is not a multiple of the 4-byte lane: ",
                          inst.toString()));
        }
    }
}

/**
 * The scratchBank hint tells the issue-time interlock that accesses
 * tagged with different non-zero hints touch disjoint PGSM regions
 * (compiler-managed double buffering).  If the statically known address
 * ranges of hint 1 and hint 2 overlap, the interlock would let a real
 * read-write hazard through — report the lie, not the race.
 */
void
checkScratchBankHints(Ctx &c)
{
    using Range = std::pair<u64, u64>; // [lo, hi)
    std::set<Range> ranges[2];
    for (size_t i = 0; i < c.prog.size(); ++i) {
        if (!c.valid[i])
            continue;
        const Instruction &inst = c.prog[i];
        if (!accessesPgsm(inst.op))
            continue;
        if (inst.scratchBank > 2) {
            c.error(Rule::kScratchBank, int(i),
                    cat("scratchBank hint ", int(inst.scratchBank),
                        " is not in {0,1,2}: ", inst.toString()));
            continue;
        }
        if (inst.scratchBank == 0 || inst.pgsmAddr.indirect)
            continue;
        u64 span = inst.op == Opcode::kRdPgsm ||
                           inst.op == Opcode::kWrPgsm
                       ? u64(kSimdLanes - 1) * inst.pgsmStride + 4
                       : u64(kVectorBytes);
        Range r{inst.pgsmAddr.value, u64(inst.pgsmAddr.value) + span};
        int side = inst.scratchBank - 1;
        ranges[side].insert(r);
        for (const Range &other : ranges[1 - side]) {
            if (r.first < other.second && other.first < r.second) {
                c.error(Rule::kScratchBank, int(i),
                        cat("scratchBank hint ", int(inst.scratchBank),
                            " touches PGSM bytes [", r.first, ", ",
                            r.second, ") which overlap hint ",
                            2 - side, " bytes [", other.first, ", ",
                            other.second, "): ", inst.toString()));
                break;
            }
        }
    }
}

// ==================== V05/V06 execution masks =====================

void
checkMasks(Ctx &c)
{
    for (size_t i = 0; i < c.prog.size(); ++i) {
        if (!c.valid[i])
            continue;
        const Instruction &inst = c.prog[i];
        if (isBroadcast(inst.op)) {
            if (inst.simbMask == 0)
                c.error(Rule::kSimbMask, int(i),
                        cat("broadcast with empty simb_mask is a no-op "
                            "the hardware refuses: ",
                            inst.toString()));
            else if (inst.simbMask & ~c.validSimbMask())
                c.error(Rule::kSimbMask, int(i),
                        cat("simb_mask 0x", std::hex, inst.simbMask,
                            std::dec, " names PEs beyond the ",
                            c.cfg.pesPerVault(), " configured: ",
                            inst.toString()));
        }
        bool laneSelect = inst.op == Opcode::kMovDrfToArf ||
                          inst.op == Opcode::kMovArfToDrf;
        if (laneSelect) {
            if (std::popcount(u32(inst.vecMask & kFullVecMask)) != 1 ||
                (inst.vecMask & ~kFullVecMask))
                c.error(Rule::kVecMask, int(i),
                        cat("mov lane selector must have exactly one of "
                            "the ", kSimdLanes, " lane bits set: ",
                            inst.toString()));
        } else if (inst.op == Opcode::kComp) {
            if (inst.vecMask & ~kFullVecMask)
                c.error(Rule::kVecMask, int(i),
                        cat("vec_mask has bits beyond the ", kSimdLanes,
                            " SIMD lanes: ", inst.toString()));
            else if (inst.vecMask == 0)
                c.warning(Rule::kVecMask, int(i),
                          cat("comp with empty vec_mask is a no-op: ",
                              inst.toString()));
        }
    }
}

// ================ V07/V08/V09 control-flow checks =================

/**
 * The defining write a branch-target CRF register holds at a branch:
 * the last seti_crf/calc_crf to it in program order before the branch.
 * Physical CRF registers are reused after coloring (a register can hold
 * a branch target in one live range and a data constant in another), so
 * only the reaching definition may be judged, not every write.
 */
struct ReachingDef
{
    int index = -1;       ///< defining instruction, -1 = none
    bool dynamic = false; ///< calc_crf: value not statically known
    i32 value = 0;        ///< seti_crf immediate
};

void
checkControlFlow(Ctx &c)
{
    if (c.prog.empty()) {
        c.error(Rule::kHalt, -1, str("program is empty"));
        return;
    }
    if (c.prog.back().op != Opcode::kHalt)
        c.error(Rule::kHalt, int(c.prog.size()) - 1,
                str("program must end with halt"));

    // V07: finalization must have resolved every label into an
    // instruction-index immediate (passes.cc clears `label` doing so).
    for (size_t i = 0; i < c.prog.size(); ++i) {
        if (c.valid[i] && c.prog[i].label >= 0)
            c.error(Rule::kUnresolvedLabel, int(i),
                    cat("branch label L", c.prog[i].label,
                        " was never resolved to an instruction index: ",
                        c.prog[i].toString()));
    }

    // V08: every branch-target register must have a reaching definition,
    // and a statically known one must land inside the program.  The CFG
    // (Cfg::build) resolves the same reaching definitions to construct
    // its edges; this pass only attributes the error cases.
    bool dynamicJump = false;
    std::vector<ReachingDef> lastDef; // per CRF register, so far
    for (size_t i = 0; i < c.prog.size(); ++i) {
        if (!c.valid[i])
            continue;
        const Instruction &inst = c.prog[i];
        if (inst.op == Opcode::kSetiCrf || inst.op == Opcode::kCalcCrf) {
            if (inst.dst >= lastDef.size())
                lastDef.resize(size_t(inst.dst) + 1);
            lastDef[inst.dst] = {int(i), inst.op == Opcode::kCalcCrf,
                                 inst.op == Opcode::kSetiCrf ? inst.imm
                                                             : 0};
            continue;
        }
        if (inst.op != Opcode::kJump && inst.op != Opcode::kCjump)
            continue;
        ReachingDef def =
            inst.dst < lastDef.size() ? lastDef[inst.dst] : ReachingDef{};
        if (def.index < 0) {
            c.error(Rule::kBranchTarget, int(i),
                    cat("branch target register c", inst.dst,
                        " has no seti_crf/calc_crf before it (the "
                        "core would jump to the reset value 0): ",
                        inst.toString()));
        } else if (def.dynamic) {
            dynamicJump = true;
        } else if (def.value < 0 || u32(def.value) >= c.prog.size()) {
            c.error(Rule::kBranchTarget, int(i),
                    cat("branch target ", def.value, " (set at inst ",
                        def.index, ") lands outside the ",
                        c.prog.size(), "-instruction program: ",
                        inst.toString()));
        } else if (u32(def.value) <= i) {
            c.loopSpans.push_back({size_t(def.value), i});
        }
    }

    // V09: some halt must be reachable from entry; with a dynamic jump
    // target reachability is unknowable statically, so stay quiet.
    // Block reachability comes straight from the CFG.
    if (dynamicJump || c.graph == nullptr)
        return;
    const Cfg &g = *c.graph;
    auto reachable = [&](size_t i) {
        return g.block(g.blockOf(u32(i))).reachable;
    };
    bool haltReachable = false;
    for (size_t i = 0; i < c.prog.size(); ++i)
        if (c.valid[i] && c.prog[i].op == Opcode::kHalt &&
            reachable(i))
            haltReachable = true;
    if (!haltReachable)
        c.error(Rule::kHalt, -1,
                str("no halt is reachable from the program entry"));
    int unreachable = 0;
    for (size_t i = 0; i < c.prog.size(); ++i) {
        if (reachable(i) || !c.valid[i])
            continue;
        if (++unreachable <= 3)
            c.warning(Rule::kHalt, int(i),
                      cat("instruction is unreachable from entry: ",
                          c.prog[i].toString()));
    }
    if (unreachable > 3)
        c.warning(Rule::kHalt, -1,
                  cat(unreachable - 3,
                      " further unreachable instructions"));
}

// ================== V11/V12 dataflow lints ========================

/**
 * calc_arf/calc_crf `xor r, s, s` / `sub r, s, s` produce zero whatever
 * s holds — the compiler's zero-register idiom.  Their source reads are
 * not value-carrying and must not trip the read-before-write lint.
 */
bool
isZeroIdiom(const Instruction &inst)
{
    return (inst.op == Opcode::kCalcArf ||
            inst.op == Opcode::kCalcCrf) &&
           (inst.aluOp == AluOp::kXor || inst.aluOp == AluOp::kSub) &&
           !inst.srcImm && inst.src1 == inst.src2;
}

/**
 * V11 via the forward must-written dataflow (WrittenBeforeAnalysis):
 * a read warns when some executing PE has no write of the register on
 * *some* path from entry — which catches hazards that exist on only
 * one branch arm, where the old linear scan saw the other arm's write.
 * V12 via backward may-read liveness (MayReadAnalysis): a write is dead
 * when no PE can read it before it is overwritten on every path; the
 * all-live exit boundary keeps final writes unflagged, and the loop
 * fixpoint makes loop-carried reads count (so no blanket loop
 * exemption is needed any more).
 */
void
checkDataflow(Ctx &c)
{
    if (c.graph == nullptr)
        return;
    const Cfg &g = *c.graph;

    // The register allocator re-issues identical spill reloads before
    // every use cluster, so one redundant-reload pattern can repeat
    // thousands of times in a big kernel.  Report the first few sites
    // and aggregate the rest to keep the report readable.
    constexpr int kDeadWriteCap = 5;
    int deadWrites = 0;

    RegEffects fx(c.cfg, g);
    const RegSpace &regs = fx.regs;
    WrittenBeforeAnalysis wb(fx);
    std::vector<std::vector<u32>> wbIn = solveDataflow(g, wb);
    MayReadAnalysis mr(fx);
    std::vector<std::vector<u32>> mrOut = solveDataflow(g, mr);

    // One V11 report per (register, PE) — a first-read is diagnosed
    // once even when later blocks read the register again.
    std::vector<u32> reported(regs.size(), 0);
    std::vector<u32> live;
    std::vector<u8> dead(c.prog.size(), 0);

    for (int b = 0; b < g.numBlocks(); ++b) {
        const BasicBlock &bb = g.block(b);
        if (!bb.reachable)
            continue;

        // Dead writes, found walking back from the block's exit
        // liveness: bit w of dead[i] marks write w of instruction i.
        live = mrOut[size_t(b)];
        for (u32 i = bb.last + 1; i-- > bb.first;) {
            dead[i] = 0;
            if (c.valid[i]) {
                const AccessSet &acc = c.access[i];
                u32 execMask = isBroadcast(c.prog[i].op)
                                   ? (c.prog[i].simbMask &
                                      c.validSimbMask())
                                   : 1u;
                for (u8 w = 0; w < acc.numWrites; ++w) {
                    const RegRef &ref = acc.writes[w];
                    size_t k = regs.index(ref.file, ref.idx);
                    u32 writeMask =
                        ref.file == RegFile::kCrf ? 1u : execMask;
                    if (k < regs.size() && writeMask != 0 &&
                        (live[k] & writeMask) == 0)
                        dead[i] |= u8(1u << w);
                }
            }
            mr.transfer(live, i);
        }

        std::vector<u32> written = wbIn[size_t(b)];
        for (u32 i = bb.first; i <= bb.last; ++i) {
            if (!c.valid[i]) {
                continue;
            }
            const Instruction &inst = c.prog[i];
            const AccessSet &acc = c.access[i];
            u32 execMask = isBroadcast(inst.op)
                               ? (inst.simbMask & c.validSimbMask())
                               : 1u;

            for (u8 r = 0; r < acc.numReads; ++r) {
                const RegRef &ref = acc.reads[r];
                // Branch-target reads are V08's job and the
                // zero-idiom's sources carry no value, so neither
                // trips the read-before-write lint.
                bool lintable = true;
                if (inst.op == Opcode::kJump)
                    lintable = false;
                if (inst.op == Opcode::kCjump && ref.idx == inst.dst &&
                    inst.dst != inst.src1)
                    lintable = false;
                if (isZeroIdiom(inst) && ref.idx == inst.src1)
                    lintable = false;
                size_t k = regs.index(ref.file, ref.idx);
                if (k >= regs.size())
                    continue; // out-of-bounds register: V01's problem
                u32 readMask =
                    ref.file == RegFile::kCrf ? 1u : execMask;
                u32 missing = readMask & ~written[k] & ~reported[k];
                if (lintable && missing != 0)
                    c.warning(Rule::kReadBeforeWrite, int(i),
                              cat("reads ", regFileName(ref.file), " ",
                                  ref.idx, " before any write",
                                  ref.file == RegFile::kCrf
                                      ? std::string()
                                      : cat(" on PE mask 0x", std::hex,
                                            missing, std::dec),
                                  " (holds the reset value 0): ",
                                  inst.toString()));
                reported[k] |= readMask;
            }

            // An empty simb_mask (V05's problem) or out-of-bounds
            // register (V01's) is never reported dead.
            for (u8 w = 0; w < acc.numWrites; ++w) {
                const RegRef &ref = acc.writes[w];
                if ((dead[i] & (1u << w)) == 0)
                    continue;
                if (++deadWrites <= kDeadWriteCap)
                    c.warning(Rule::kDeadWrite, int(i),
                              cat("write to ", regFileName(ref.file),
                                  " ", ref.idx,
                                  " is overwritten on every path "
                                  "before any read: ",
                                  inst.toString()));
            }

            wb.transfer(written, i);
        }
    }
    if (deadWrites > kDeadWriteCap)
        c.warning(Rule::kDeadWrite, -1,
                  cat(deadWrites - kDeadWriteCap,
                      " further dead writes (typically spill reloads "
                      "re-issued before any read of the previous one)"));
}

// =================== V13 encoding round-trip ======================

void
checkEncoding(Ctx &c)
{
    for (size_t i = 0; i < c.prog.size(); ++i) {
        if (!c.valid[i])
            continue;
        const Instruction &inst = c.prog[i];
        Instruction back;
        try {
            back = decode(encode(inst));
        } catch (const FatalError &e) {
            c.error(Rule::kEncoding, int(i),
                    cat("instruction does not survive its own wire "
                        "form: ", e.what()));
            continue;
        }
        Instruction expect = inst;
        expect.label = -1; // labels are compiler-only, never encoded
        if (!(back == expect))
            c.error(Rule::kEncoding, int(i),
                    cat("encode/decode round-trip changed the "
                        "instruction (a field is missing from the ",
                        kInstBytes, "-byte encoding): ",
                        inst.toString(), " != ", back.toString()));
    }
}

// ==================== V10 sync placement ==========================

void
checkSyncPlacement(Ctx &c)
{
    for (size_t i = 0; i < c.prog.size(); ++i) {
        if (c.valid[i] && c.prog[i].op == Opcode::kSync && c.inLoop(i))
            c.warning(Rule::kSyncPhase, int(i),
                      cat("sync inside a loop body executes once per "
                          "iteration; the static cross-vault phase "
                          "check cannot model it: ",
                          c.prog[i].toString()));
    }
}

/** Map a conflict-analysis finding kind to its verifier rule. */
Rule
conflictRule(ConflictFinding::Kind k)
{
    switch (k) {
      case ConflictFinding::Kind::kBankOverlap:
        return Rule::kConflictBank;
      case ConflictFinding::Kind::kSerdesOverlap:
        return Rule::kConflictSerdes;
      case ConflictFinding::Kind::kStagingOverlap:
        return Rule::kConflictStaging;
      case ConflictFinding::Kind::kSyncStructure:
        return Rule::kSyncStructure;
      case ConflictFinding::Kind::kReqSelf:
      default: return Rule::kReqSelf;
    }
}

bool
anyConflictRuleEnabled(const VerifierOptions &opts)
{
    return opts.isEnabled(Rule::kConflictBank) ||
           opts.isEnabled(Rule::kConflictSerdes) ||
           opts.isEnabled(Rule::kConflictStaging) ||
           opts.isEnabled(Rule::kSyncStructure) ||
           opts.isEnabled(Rule::kReqSelf);
}

void
addConflictFindings(VerifyReport &rep, const VerifierOptions &opts,
                    const std::vector<ConflictFinding> &findings)
{
    for (const ConflictFinding &f : findings) {
        Rule r = conflictRule(f.kind);
        if (!opts.isEnabled(r))
            continue;
        rep.add({Severity::kError, r, f.vault, f.index, f.message});
    }
}

/**
 * The per-program pass pipeline over @p graph, the CFG of @p prog.
 */
VerifyReport
verifyProgramImpl(const HardwareConfig &cfg,
                  const std::vector<Instruction> &prog, const Cfg &graph,
                  const VerifierOptions &opts, int vault)
{
    VerifyReport rep;
    Ctx c{cfg, prog, opts, vault, rep, {}, {}, {}, nullptr};
    checkOpcodes(c);
    if (!prog.empty())
        c.graph = &graph;
    checkRegisterBounds(c);
    checkMemoryBounds(c);
    checkPgsmStride(c);
    checkScratchBankHints(c);
    checkMasks(c);
    checkControlFlow(c); // also computes c.loopSpans
    checkSyncPlacement(c);
    checkDataflow(c);
    checkEncoding(c);
    return rep;
}

} // namespace

VerifyReport
verifyProgram(const HardwareConfig &cfg,
              const std::vector<Instruction> &prog,
              const VerifierOptions &opts, int vault)
{
    auto graph = std::make_unique<Cfg>(Cfg::build(prog));
    VerifyReport rep = verifyProgramImpl(cfg, prog, *graph, opts, vault);
    // The device-context-free conflict checks (V16/V17); verifyDevice
    // runs the full cross-vault analysis instead.
    if (!prog.empty() && anyConflictRuleEnabled(opts)) {
        ProgramAnalysis pa = analyzeProgram(cfg, std::move(graph));
        addConflictFindings(rep, opts,
                            checkProgramConflicts(pa, vault).findings);
    }
    return rep;
}

VerifyReport
verifyDevice(const HardwareConfig &cfg,
             const std::vector<std::vector<Instruction>> &perVault,
             const VerifierOptions &opts)
{
    VerifyReport rep;
    if (opts.isEnabled(Rule::kSyncPhase) &&
        perVault.size() != u64(cfg.cubes) * cfg.vaultsPerCube)
        rep.add({Severity::kError, Rule::kSyncPhase, -1, -1,
                 cat("device program has ", perVault.size(),
                     " vault programs but the device has ",
                     u64(cfg.cubes) * cfg.vaultsPerCube, " vaults")});

    // Each vault's CFG is built once and kept for the conflict analysis.
    std::vector<std::unique_ptr<Cfg>> graphs;
    graphs.reserve(perVault.size());
    for (size_t v = 0; v < perVault.size(); ++v) {
        graphs.push_back(std::make_unique<Cfg>(Cfg::build(perVault[v])));
        rep.merge(verifyProgramImpl(cfg, perVault[v], *graphs.back(),
                                    opts, int(v)));
    }

    if (!opts.isEnabled(Rule::kSyncPhase) || perVault.empty())
        return rep;

    // V10: the master/slave barrier (Sec. IV-D) completes only when
    // every vault reaches the same phase; the static per-vault sync
    // sequences must therefore agree in order and count.
    auto syncSeq = [](const std::vector<Instruction> &prog) {
        std::vector<std::pair<size_t, u32>> seq;
        for (size_t i = 0; i < prog.size(); ++i)
            if (u8(prog[i].op) < u8(Opcode::kNumOpcodes) &&
                prog[i].op == Opcode::kSync)
                seq.push_back({i, prog[i].phaseId});
        return seq;
    };
    auto ref = syncSeq(perVault[0]);
    for (size_t v = 1; v < perVault.size(); ++v) {
        auto seq = syncSeq(perVault[v]);
        size_t common = std::min(ref.size(), seq.size());
        for (size_t k = 0; k < common; ++k) {
            if (seq[k].second != ref[k].second) {
                rep.add({Severity::kError, Rule::kSyncPhase, int(v),
                         int(seq[k].first),
                         cat("sync #", k, " uses phase ",
                             seq[k].second, " but vault 0 inst ",
                             ref[k].first, " uses phase ",
                             ref[k].second,
                             "; the barrier would deadlock")});
                break;
            }
        }
        if (seq.size() != ref.size())
            rep.add({Severity::kError, Rule::kSyncPhase, int(v), -1,
                     cat("program has ", seq.size(),
                         " syncs but vault 0 has ", ref.size(),
                         "; the barrier would deadlock")});
    }

    // V14-V18: the cross-vault conflict analysis assumes well-formed
    // programs with matching barrier sequences, so it only runs once
    // everything above is clean.
    if (rep.errorCount() == 0 && anyConflictRuleEnabled(opts)) {
        std::vector<ProgramAnalysis> analyses;
        analyses.reserve(perVault.size());
        std::vector<const ProgramAnalysis *> ptrs;
        ptrs.reserve(perVault.size());
        for (size_t v = 0; v < perVault.size(); ++v) {
            analyses.push_back(analyzeProgram(
                cfg, std::move(graphs[v]), int(v / cfg.vaultsPerCube),
                int(v % cfg.vaultsPerCube)));
            ptrs.push_back(&analyses.back());
        }
        ConflictReport cr = analyzeDeviceConflicts(cfg, ptrs);
        addConflictFindings(rep, opts, cr.findings);
    }
    return rep;
}

} // namespace ipim

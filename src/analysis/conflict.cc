#include "analysis/conflict.h"

#include <algorithm>
#include <sstream>

namespace ipim {

namespace {

bool
validOp(const Instruction &inst)
{
    return u8(inst.op) < u8(Opcode::kNumOpcodes);
}

std::string
extentStr(const Extent &e)
{
    if (e.kind == Extent::kUnknown)
        return "[?]";
    std::ostringstream os;
    os << "[" << e.lo << ", " << e.hi << ")";
    return os.str();
}

/// Per-vault, per-segment instruction lists the checks iterate.
struct VaultIndex
{
    std::vector<std::vector<u32>> reqs;        ///< per segment
    std::vector<std::vector<u32>> bankWriters; ///< per segment
    std::vector<std::vector<u32>> vsmWriters;  ///< per segment
    std::vector<u32> vsmReaders;               ///< sorted, whole program
};

VaultIndex
indexVault(const ProgramAnalysis &pa)
{
    VaultIndex vi;
    int segs = pa.numSegments();
    vi.reqs.resize(size_t(segs));
    vi.bankWriters.resize(size_t(segs));
    vi.vsmWriters.resize(size_t(segs));
    const Cfg &cfg = *pa.cfg;
    for (int b = 0; b < cfg.numBlocks(); ++b) {
        const BasicBlock &bb = cfg.block(b);
        if (!bb.reachable)
            continue;
        for (u32 i = bb.first; i <= bb.last; ++i) {
            const Instruction &inst = cfg.prog()[i];
            if (!validOp(inst))
                continue;
            size_t s = size_t(pa.segmentOf(i));
            const InstMemAccess &acc = pa.extents[i];
            if (acc.isReq)
                vi.reqs[s].push_back(i);
            if (acc.bankWrite.exists())
                vi.bankWriters[s].push_back(i);
            if (acc.vsmWrite.exists())
                vi.vsmWriters[s].push_back(i);
            if (inst.op == Opcode::kRdVsm)
                vi.vsmReaders.push_back(i);
        }
    }
    std::sort(vi.vsmReaders.begin(), vi.vsmReaders.end());
    return vi;
}

bool
readerBetween(const VaultIndex &vi, u32 lo, u32 hi)
{
    // Any rd_vsm with index in (lo, hi): the boolean VSM scoreboard
    // rules (W->R waits completion, R->W waits capture) then order the
    // two writers transitively through it, whatever its address.
    auto it = std::upper_bound(vi.vsmReaders.begin(),
                               vi.vsmReaders.end(), lo);
    return it != vi.vsmReaders.end() && *it < hi;
}

/** Instruction index span [min, max] of a natural loop. */
std::pair<u32, u32>
loopSpan(const Cfg &cfg, const NaturalLoop &loop)
{
    u32 lo = ~0u, hi = 0;
    for (int b : loop.blocks) {
        lo = std::min(lo, cfg.block(b).first);
        hi = std::max(hi, cfg.block(b).last);
    }
    return {lo, hi};
}

/**
 * Writers on a common address lattice of stride s: their slots
 * interleave without touching iff the start-offset residue keeps them
 * at least a vector width apart (the loop-lattice disjointness test).
 */
bool
strideLatticeDisjoint(i64 loA, i64 loB, i64 step, i64 width)
{
    i64 s = step < 0 ? -step : step;
    if (s < width)
        return false;
    i64 m = ((loA - loB) % s + s) % s;
    return m >= width && s - m >= width;
}

/**
 * True when writer @p i's VSM footprint is provably the exact address
 * lattice {lo + k*s : 0 <= k < trips} + [0, width): the per-iteration
 * step is known and the extent span equals width + (trips-1)*s, so no
 * other variation (outer loop, identity range) contributes.  s = 0
 * means a single slot.  @p li is i's innermost loop (-1 for none).
 */
bool
latticeFootprint(const ProgramAnalysis &pa, u32 i, int li, i64 width,
                 i64 &lo, i64 &s)
{
    const InstMemAccess &acc = pa.extents[i];
    if (acc.vsmWrite.kind != Extent::kKnown)
        return false;
    lo = i64(acc.vsmWrite.lo);
    i64 span = i64(acc.vsmWrite.hi) - lo;
    const Cfg &cfg = *pa.cfg;
    if (li < 0) {
        s = 0;
        return span == width;
    }
    if (acc.vsmWriteStep == ValueRanges::kUnknownStep)
        return false;
    s = acc.vsmWriteStep < 0 ? -acc.vsmWriteStep : acc.vsmWriteStep;
    if (s == 0)
        return span == width;
    i64 trips = cfg.loops()[size_t(li)].tripCount;
    return trips > 0 && span == width + (trips - 1) * s;
}

/** V16: unordered VSM staging-write overlap within one vault. */
void
checkStagingConflicts(const ProgramAnalysis &pa, const VaultIndex &vi,
                      int vault, ConflictReport &rep)
{
    const Cfg &cfg = *pa.cfg;
    std::vector<std::pair<u32, u32>> spans; // per loop, filled on demand
    auto span = [&](int li) {
        if (spans.empty())
            for (const NaturalLoop &loop : cfg.loops())
                spans.push_back(loopSpan(cfg, loop));
        return spans[size_t(li)];
    };

    /// What the pair test needs of one writer, computed once.
    struct Writer
    {
        int loop;     ///< innermost loop, -1 outside loops
        bool lattice; ///< footprint is the exact lattice lo + k*s
        i64 lo = 0, s = 0;
    };
    const i64 w = i64(kVectorBytes);
    std::vector<Writer> facts;
    std::vector<size_t> reqAt; // positions of a segment's req writers

    for (size_t seg = 0; seg < vi.vsmWriters.size(); ++seg) {
        const std::vector<u32> &ws = vi.vsmWriters[seg];
        facts.clear();
        for (u32 i : ws) {
            Writer f{cfg.innermostLoop(cfg.blockOf(i)), false};
            f.lattice = latticeFootprint(pa, i, f.loop, w, f.lo, f.s);
            facts.push_back(f);
        }

        // Self-overlap: a req re-staging into the same (or an
        // overlapping) VSM slot on every loop iteration, with no
        // ordering read inside the loop.  Responses land on arrival,
        // so the last arrival wins nondeterministically.
        for (size_t a = 0; a < ws.size(); ++a) {
            u32 i = ws[a];
            const InstMemAccess &acc = pa.extents[i];
            if (!acc.isReq)
                continue;
            int li = facts[a].loop;
            if (li < 0)
                continue;
            const NaturalLoop &loop = cfg.loops()[size_t(li)];
            if (loop.tripCount == 1)
                continue;
            ++rep.stats.pairsChecked;
            if (acc.vsmWriteStep == ValueRanges::kUnknownStep ||
                acc.vsmWrite.kind == Extent::kUnknown ||
                loop.tripCount < 0) {
                ++rep.stats.unproved;
                continue;
            }
            i64 step = acc.vsmWriteStep;
            if (step >= i64(kVectorBytes) ||
                step <= -i64(kVectorBytes)) {
                ++rep.stats.provenDisjoint;
                continue;
            }
            auto [slo, shi] = span(li);
            if (readerBetween(vi, slo == 0 ? 0 : slo - 1, shi + 1)) {
                ++rep.stats.provenDisjoint; // ordered, not racy
                continue;
            }
            std::ostringstream os;
            os << "req staging write " << extentStr(acc.vsmWrite)
               << " advances only " << step
               << " bytes per loop iteration (" << loop.tripCount
               << " iterations, 16-byte responses) with no ordering "
                  "rd_vsm in the loop; response arrival order decides "
                  "the final value";
            rep.findings.push_back(
                {ConflictFinding::Kind::kStagingOverlap, vault, int(i),
                 vault, int(i), int(seg), os.str()});
        }

        // Pairwise: req-involved VSM writer pairs, in (a, b) order.
        // Two synchronous writers stay ordered, so a non-req writer
        // only pairs with the req writers after it.
        auto checkPair = [&](size_t a, size_t b) {
            u32 i = ws[a], j = ws[b];
            const InstMemAccess &ai = pa.extents[i];
            const InstMemAccess &aj = pa.extents[j];
            ++rep.stats.pairsChecked;
            if (ai.vsmWrite.kind == Extent::kUnknown ||
                aj.vsmWrite.kind == Extent::kUnknown) {
                ++rep.stats.unproved;
                return;
            }
            const Writer &fa = facts[a], &fb = facts[b];
            int li = fa.loop;
            bool sameLoop = li >= 0 && li == fb.loop;
            // Equal-stride lattice footprints (same loop or not) may
            // interleave disjointly even though their whole-extent
            // hulls overlap.
            if (fa.lattice && fb.lattice &&
                (fa.s == fb.s || fa.s == 0 || fb.s == 0) &&
                strideLatticeDisjoint(fa.lo, fb.lo, fa.s ? fa.s : fb.s,
                                      w)) {
                ++rep.stats.provenDisjoint;
                return;
            }
            if (!Extent::provenOverlap(ai.vsmWrite, aj.vsmWrite)) {
                ++rep.stats.provenDisjoint;
                return;
            }
            bool ordered = readerBetween(vi, i, j);
            if (ordered && sameLoop) {
                // Iterations wrap: writer j of one iteration still
                // races writer i of the next unless a reader also sits
                // on the wrap-around path.
                auto [slo, shi] = span(li);
                ordered = readerBetween(vi, j, shi + 1) ||
                          readerBetween(vi, slo == 0 ? 0 : slo - 1, i);
            }
            if (ordered) {
                ++rep.stats.provenDisjoint;
                return;
            }
            std::ostringstream os;
            os << "VSM write " << extentStr(ai.vsmWrite) << " (inst " << i
               << ") overlaps VSM write " << extentStr(aj.vsmWrite)
               << " (inst " << j << ") in sync segment " << seg
               << " with no ordering rd_vsm in between, and at least one "
                  "side is an asynchronously arriving req response";
            rep.findings.push_back({ConflictFinding::Kind::kStagingOverlap,
                                    vault, int(i), vault, int(j), int(seg),
                                    os.str()});
        };
        reqAt.clear();
        for (size_t a = 0; a < ws.size(); ++a)
            if (pa.extents[ws[a]].isReq)
                reqAt.push_back(a);
        for (size_t a = 0, k = 0; a < ws.size(); ++a) {
            while (k < reqAt.size() && reqAt[k] <= a)
                ++k;
            if (pa.extents[ws[a]].isReq)
                for (size_t b = a + 1; b < ws.size(); ++b)
                    checkPair(a, b);
            else
                for (size_t r = k; r < reqAt.size(); ++r)
                    checkPair(a, reqAt[r]);
        }
    }
}

} // namespace

const char *
conflictKindName(ConflictFinding::Kind k)
{
    switch (k) {
      case ConflictFinding::Kind::kBankOverlap: return "bank-overlap";
      case ConflictFinding::Kind::kSerdesOverlap:
        return "serdes-overlap";
      case ConflictFinding::Kind::kStagingOverlap:
        return "staging-overlap";
      case ConflictFinding::Kind::kSyncStructure:
        return "sync-structure";
      case ConflictFinding::Kind::kReqSelf: return "req-self";
      default: return "?";
    }
}

std::vector<ConflictFinding>
checkSyncStructure(const ProgramAnalysis &pa, int vault)
{
    std::vector<ConflictFinding> out;
    // V17: adjacent reachable syncs must carry distinct phase ids.
    // The master counts arrivals per phase id (Vault::deliver);
    // non-adjacent reuse is fine because every slave blocks until its
    // proceed, but two back-to-back barriers sharing an id become a
    // single conflatable counter key the moment vaults are simulated
    // (or built) out of lockstep.
    for (size_t k = 1; k < pa.syncs.size(); ++k) {
        auto [prevIdx, prevPhase] = pa.syncs[k - 1];
        auto [idx, phase] = pa.syncs[k];
        if (phase == prevPhase) {
            std::ostringstream os;
            os << "sync phase " << phase << " at inst " << idx
               << " repeats the id of the immediately preceding sync "
                  "at inst "
               << prevIdx
               << "; barrier arrival counting keys on the phase id";
            out.push_back({ConflictFinding::Kind::kSyncStructure,
                           vault, int(idx), -1, int(prevIdx), -1,
                           os.str()});
        }
    }
    return out;
}

ConflictReport
analyzeDeviceConflicts(const HardwareConfig &hw,
                       const std::vector<const ProgramAnalysis *>
                           &analyses)
{
    ConflictReport rep;
    const u32 vaultsPerCube = hw.vaultsPerCube;

    std::vector<VaultIndex> index(analyses.size());
    int maxSegs = 0;
    for (size_t v = 0; v < analyses.size(); ++v) {
        const ProgramAnalysis *pa = analyses[v];
        if (pa == nullptr)
            continue;
        auto structural = checkSyncStructure(*pa, int(v));
        rep.findings.insert(rep.findings.end(), structural.begin(),
                            structural.end());
        if (!pa->segmentable)
            rep.complete = false;
        index[v] = indexVault(*pa);
        maxSegs = std::max(maxSegs, pa->numSegments());
    }
    rep.stats.segments = u64(maxSegs);

    // V18: a req routed to the issuing vault bypasses the issuer's own
    // scoreboard (the read is serviced straight at the memory
    // controller), so local bank hazards around it are invisible.
    for (size_t v = 0; v < analyses.size(); ++v) {
        const ProgramAnalysis *pa = analyses[v];
        if (pa == nullptr)
            continue;
        for (const auto &segReqs : index[v].reqs) {
            for (u32 i : segReqs) {
                const InstMemAccess &acc = pa->extents[i];
                if (acc.dstChip >= hw.cubes ||
                    acc.dstVault >= vaultsPerCube)
                    continue; // V02 reports the bad route
                size_t owner =
                    size_t(acc.dstChip) * vaultsPerCube + acc.dstVault;
                if (owner != v)
                    continue;
                std::ostringstream os;
                os << "req targets the issuing vault itself (chip "
                   << acc.dstChip << " vault " << acc.dstVault
                   << "); the remote-read path bypasses the local "
                      "scoreboard - use ld_rf/ld_pgsm instead";
                rep.findings.push_back(
                    {ConflictFinding::Kind::kReqSelf, int(v), int(i),
                     int(v), -1, pa->segmentOf(i), os.str()});
            }
        }
    }

    if (!rep.complete)
        return rep; // segmentation failed somewhere: stop here

    // ---- V14/V15: remote bank reads vs owner bank writes ----
    for (size_t v = 0; v < analyses.size(); ++v) {
        const ProgramAnalysis *pa = analyses[v];
        if (pa == nullptr)
            continue;
        for (size_t seg = 0; seg < index[v].reqs.size(); ++seg) {
            for (u32 r : index[v].reqs[seg]) {
                const InstMemAccess &racc = pa->extents[r];
                if (racc.dstChip >= hw.cubes ||
                    racc.dstVault >= vaultsPerCube)
                    continue;
                size_t owner = size_t(racc.dstChip) * vaultsPerCube +
                               racc.dstVault;
                if (owner == v || owner >= analyses.size() ||
                    analyses[owner] == nullptr)
                    continue;
                const ProgramAnalysis &po = *analyses[owner];
                u32 peIdx =
                    racc.dstPg * hw.pesPerPg + racc.dstPe;
                if (seg >= index[owner].bankWriters.size())
                    continue;
                for (u32 w : index[owner].bankWriters[seg]) {
                    const Instruction &winst = po.cfg->prog()[w];
                    if (peIdx < 32 &&
                        (winst.simbMask & (1u << peIdx)) == 0)
                        continue; // write never lands on that bank
                    ++rep.stats.pairsChecked;
                    const Extent &re = racc.remoteBank;
                    const Extent &we = po.extents[w].bankWrite;
                    if (re.kind == Extent::kUnknown ||
                        we.kind == Extent::kUnknown) {
                        ++rep.stats.unproved;
                        continue;
                    }
                    if (!Extent::provenOverlap(re, we)) {
                        ++rep.stats.provenDisjoint;
                        continue;
                    }
                    bool sameCube =
                        racc.dstChip == u16(v / vaultsPerCube);
                    std::ostringstream os;
                    os << "req remote bank read " << extentStr(re)
                       << " at chip " << racc.dstChip << " vault "
                       << racc.dstVault << " pg " << racc.dstPg
                       << " pe " << racc.dstPe
                       << " overlaps that vault's bank write "
                       << extentStr(we) << " (inst " << w
                       << ") in the same sync segment " << seg
                       << "; the owner's scoreboard never sees "
                          "remote reads";
                    rep.findings.push_back(
                        {sameCube
                             ? ConflictFinding::Kind::kBankOverlap
                             : ConflictFinding::Kind::kSerdesOverlap,
                         int(v), int(r), int(owner), int(w),
                         int(seg), os.str()});
                }
            }
        }
    }

    // ---- V16: unordered VSM staging-write overlap, per vault ----
    for (size_t v = 0; v < analyses.size(); ++v) {
        if (analyses[v] != nullptr)
            checkStagingConflicts(*analyses[v], index[v], int(v), rep);
    }
    return rep;
}

ConflictReport
checkProgramConflicts(const ProgramAnalysis &pa, int vault)
{
    ConflictReport rep;
    auto structural = checkSyncStructure(pa, vault);
    rep.findings.insert(rep.findings.end(), structural.begin(),
                        structural.end());
    if (!pa.segmentable) {
        rep.complete = false;
        return rep;
    }
    rep.stats.segments = u64(pa.numSegments());
    VaultIndex vi = indexVault(pa);
    checkStagingConflicts(pa, vi, vault, rep);
    return rep;
}

} // namespace ipim

#include "compiler/passes.h"

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <queue>
#include <set>
#include <span>

#include "common/logging.h"

namespace ipim {

namespace {

/** Combined virtual-register key: file in the high bits. */
u32
regKey(RegFile f, u16 idx)
{
    return (u32(f) << 16) | idx;
}

RegFile
keyFile(u32 k)
{
    return RegFile(k >> 16);
}

/**
 * Visit every register field of an instruction with its role, mirroring
 * Instruction::accessSet().  The callback may rewrite the field.
 */
template <typename Fn>
void
visitRegFields(Instruction &inst, Fn &&fn)
{
    auto mem = [&](MemOperand &m) {
        if (m.indirect) {
            u16 v = u16(m.value);
            fn(RegFile::kArf, v, true, false);
            m.value = v;
        }
    };
    switch (inst.op) {
      case Opcode::kComp:
        fn(RegFile::kDrf, inst.src1, true, false);
        fn(RegFile::kDrf, inst.src2, true, false);
        fn(RegFile::kDrf, inst.dst, inst.aluOp == AluOp::kMac, true);
        break;
      case Opcode::kCalcArf:
        fn(RegFile::kArf, inst.src1, true, false);
        if (!inst.srcImm)
            fn(RegFile::kArf, inst.src2, true, false);
        fn(RegFile::kArf, inst.dst, false, true);
        break;
      case Opcode::kStRf:
        fn(RegFile::kDrf, inst.dst, true, false);
        mem(inst.dramAddr);
        break;
      case Opcode::kLdRf:
        mem(inst.dramAddr);
        fn(RegFile::kDrf, inst.dst, false, true);
        break;
      case Opcode::kStPgsm:
      case Opcode::kLdPgsm:
        mem(inst.dramAddr);
        mem(inst.pgsmAddr);
        break;
      case Opcode::kRdPgsm:
        mem(inst.pgsmAddr);
        fn(RegFile::kDrf, inst.dst, false, true);
        break;
      case Opcode::kWrPgsm:
        mem(inst.pgsmAddr);
        fn(RegFile::kDrf, inst.dst, true, false);
        break;
      case Opcode::kRdVsm:
        mem(inst.vsmAddr);
        fn(RegFile::kDrf, inst.dst, false, true);
        break;
      case Opcode::kWrVsm:
        mem(inst.vsmAddr);
        fn(RegFile::kDrf, inst.dst, true, false);
        break;
      case Opcode::kMovDrfToArf:
        fn(RegFile::kDrf, inst.src1, true, false);
        fn(RegFile::kArf, inst.dst, false, true);
        break;
      case Opcode::kMovArfToDrf:
        fn(RegFile::kArf, inst.src1, true, false);
        fn(RegFile::kDrf, inst.dst, false, true);
        break;
      case Opcode::kReset:
        fn(RegFile::kDrf, inst.dst, false, true);
        break;
      case Opcode::kJump:
        fn(RegFile::kCrf, inst.dst, true, false);
        break;
      case Opcode::kCjump:
        fn(RegFile::kCrf, inst.src1, true, false);
        fn(RegFile::kCrf, inst.dst, true, false);
        break;
      case Opcode::kCalcCrf:
        fn(RegFile::kCrf, inst.src1, true, false);
        if (!inst.srcImm)
            fn(RegFile::kCrf, inst.src2, true, false);
        fn(RegFile::kCrf, inst.dst, false, true);
        break;
      case Opcode::kSetiCrf:
        fn(RegFile::kCrf, inst.dst, false, true);
        break;
      case Opcode::kReq: {
        // Core-side indirection resolves through the CtrlRF.
        if (inst.dramAddr.indirect) {
            u16 v = u16(inst.dramAddr.value);
            fn(RegFile::kCrf, v, true, false);
            inst.dramAddr.value = v;
        }
        if (inst.vsmAddr.indirect) {
            u16 v = u16(inst.vsmAddr.value);
            fn(RegFile::kCrf, v, true, false);
            inst.vsmAddr.value = v;
        }
        break;
      }
      default:
        break; // seti_vsm, sync, halt, nop: no register fields
    }
}

bool
isBlockEnder(Opcode op)
{
    return op == Opcode::kJump || op == Opcode::kCjump ||
           op == Opcode::kSync || op == Opcode::kHalt;
}

struct Block
{
    size_t begin = 0; ///< index into the instruction vector
    size_t end = 0;   ///< one past the last instruction
    std::vector<int> succs;
};

struct Cfg
{
    std::vector<Block> blocks;
    std::map<i32, int> labelBlock; ///< label id -> block index
};

Cfg
buildCfg(const BuilderProgram &prog)
{
    std::set<size_t> starts;
    starts.insert(0);
    for (const auto &[label, pos] : prog.labelPos)
        starts.insert(pos);
    for (size_t i = 0; i < prog.insts.size(); ++i)
        if (isBlockEnder(prog.insts[i].op))
            starts.insert(i + 1);
    starts.erase(prog.insts.size());

    Cfg cfg;
    std::map<size_t, int> blockAt;
    for (auto it = starts.begin(); it != starts.end(); ++it) {
        Block b;
        b.begin = *it;
        auto next = std::next(it);
        b.end = next == starts.end() ? prog.insts.size() : *next;
        blockAt[b.begin] = int(cfg.blocks.size());
        cfg.blocks.push_back(b);
    }
    for (const auto &[label, pos] : prog.labelPos)
        cfg.labelBlock[label] = blockAt.at(pos);

    // Map branch-target CRF registers to labels via their seti_crf.
    std::map<u16, i32> targetRegLabel;
    for (const Instruction &inst : prog.insts)
        if (inst.op == Opcode::kSetiCrf && inst.label >= 0)
            targetRegLabel[inst.dst] = inst.label;

    for (size_t bi = 0; bi < cfg.blocks.size(); ++bi) {
        Block &b = cfg.blocks[bi];
        if (b.begin == b.end)
            continue;
        const Instruction &last = prog.insts[b.end - 1];
        auto labelSucc = [&](u16 reg) {
            auto it = targetRegLabel.find(reg);
            if (it == targetRegLabel.end())
                fatal("branch target register c", reg,
                      " has no label-bearing seti_crf");
            b.succs.push_back(cfg.labelBlock.at(it->second));
        };
        switch (last.op) {
          case Opcode::kJump:
            labelSucc(last.dst);
            break;
          case Opcode::kCjump:
            labelSucc(last.dst);
            if (bi + 1 < cfg.blocks.size())
                b.succs.push_back(int(bi + 1));
            break;
          case Opcode::kHalt:
            break;
          default:
            if (bi + 1 < cfg.blocks.size())
                b.succs.push_back(int(bi + 1));
            break;
        }
    }
    return cfg;
}

/** Register operands of one instruction, as register keys. */
struct UseDef
{
    std::array<u32, 4> uses{};
    std::array<u32, 2> defs{};
    u8 numUses = 0;
    u8 numDefs = 0;
};

UseDef
useDef(const Instruction &inst)
{
    UseDef ud;
    visitRegFields(const_cast<Instruction &>(inst),
                   [&](RegFile f, u16 &idx, bool r, bool w) {
                       if (r) {
                           if (ud.numUses == ud.uses.size())
                               panic("useDef: too many register reads");
                           ud.uses[ud.numUses++] = regKey(f, idx);
                       }
                       if (w) {
                           if (ud.numDefs == ud.defs.size())
                               panic("useDef: too many register writes");
                           ud.defs[ud.numDefs++] = regKey(f, idx);
                       }
                   });
    return ud;
}

bool
isReservedArf(u32 key)
{
    return keyFile(key) == RegFile::kArf && (key & 0xFFFF) < kNumReservedArf;
}

/**
 * One allocation round's register operands over dense register indices.
 * Dense indices follow ascending register key, so the spill victim's
 * lowest-key tie-break is a lowest-index one.  The identity registers
 * A0-A3 are never colored and are left out.  Instruction i's defs are
 * ops[defBegin[i], useBegin[i]) and its uses ops[useBegin[i],
 * defBegin[i + 1]).
 */
struct Operands
{
    std::vector<u32> keys; ///< dense index -> register key
    std::vector<u32> ops;
    std::vector<u32> defBegin;
    std::vector<u32> useBegin;

    RegFile file(u32 v) const { return keyFile(keys[v]); }
};

Operands
collectOperands(const BuilderProgram &prog)
{
    Operands o;
    size_t n = prog.insts.size();
    o.defBegin.resize(n + 1);
    o.useBegin.resize(n);
    for (size_t i = 0; i < n; ++i) {
        UseDef ud = useDef(prog.insts[i]);
        o.defBegin[i] = u32(o.ops.size());
        for (u8 k = 0; k < ud.numDefs; ++k) {
            u32 d = ud.defs[k];
            if (isReservedArf(d))
                fatal("program writes reserved identity register A",
                      d & 0xFFFF);
            o.ops.push_back(d);
        }
        o.useBegin[i] = u32(o.ops.size());
        for (u8 k = 0; k < ud.numUses; ++k)
            if (!isReservedArf(ud.uses[k]))
                o.ops.push_back(ud.uses[k]);
    }
    o.defBegin[n] = u32(o.ops.size());

    // Key -> dense index through one table per register file, each as
    // long as the file's highest index used.
    std::array<u32, 4> base{};
    for (u32 k : o.ops)
        base[size_t(k >> 16) + 1] =
            std::max(base[size_t(k >> 16) + 1], (k & 0xFFFF) + 1);
    for (size_t f = 1; f < base.size(); ++f)
        base[f] += base[f - 1];
    auto at = [&](u32 k) { return base[k >> 16] + (k & 0xFFFF); };
    constexpr u32 kAbsent = ~0u;
    std::vector<u32> dense(base.back(), kAbsent);
    for (u32 k : o.ops)
        dense[at(k)] = 0;
    for (u32 f = 0; f + 1 < base.size(); ++f)
        for (u32 i = base[f]; i < base[f + 1]; ++i)
            if (dense[i] != kAbsent) {
                dense[i] = u32(o.keys.size());
                o.keys.push_back(regKey(RegFile(f), u16(i - base[f])));
            }
    for (u32 &k : o.ops)
        k = dense[at(k)];
    return o;
}

/** Set over [0, n): O(1) insert, erase and clear, O(size) iteration. */
class SparseSet
{
  public:
    explicit SparseSet(size_t n) : pos_(n, 0) {}

    void clear() { items_.clear(); }

    bool
    contains(u32 v) const
    {
        u32 p = pos_[v];
        return p < items_.size() && items_[p] == v;
    }

    void
    insert(u32 v)
    {
        if (contains(v))
            return;
        pos_[v] = u32(items_.size());
        items_.push_back(v);
    }

    void
    erase(u32 v)
    {
        if (!contains(v))
            return;
        u32 last = items_.back();
        items_[pos_[v]] = last;
        pos_[last] = pos_[v];
        items_.pop_back();
    }

    const std::vector<u32> &items() const { return items_; }

  private:
    std::vector<u32> pos_;
    std::vector<u32> items_;
};

/**
 * Interference graph in compressed sparse rows: the neighbours of v are
 * nbr[begin[v], begin[v + 1]), de-duplicated, in no particular order.
 */
struct InterferenceGraph
{
    std::vector<u32> begin;
    std::vector<u32> nbr;

    std::span<const u32>
    neighbours(u32 v) const
    {
        return {nbr.data() + begin[v], nbr.data() + begin[v + 1]};
    }

    size_t degree(u32 v) const { return begin[v + 1] - begin[v]; }
};

/**
 * Global backward liveness, solved per block on bitsets, then one
 * backward walk per block that makes every def interfere with what is
 * live after it (and with its instruction's other defs) in the same
 * register file.
 */
InterferenceGraph
interference(const Operands &o, const Cfg &cfg)
{
    size_t k = o.keys.size();
    size_t words = (k + 63) / 64;
    size_t nb = cfg.blocks.size();
    auto bit = [](std::vector<u64> &set, size_t base, u32 v, bool on) {
        u64 m = u64(1) << (v % 64);
        u64 &w = set[base + v / 64];
        w = on ? (w | m) : (w & ~m);
    };

    // gen = upward-exposed uses, kill = defs, per block.
    std::vector<u64> gen(nb * words, 0), kill(nb * words, 0);
    for (size_t bi = 0; bi < nb; ++bi) {
        const Block &b = cfg.blocks[bi];
        size_t base = bi * words;
        for (size_t i = b.end; i-- > b.begin;) {
            for (u32 j = o.defBegin[i]; j < o.useBegin[i]; ++j) {
                bit(kill, base, o.ops[j], true);
                bit(gen, base, o.ops[j], false);
            }
            for (u32 j = o.useBegin[i]; j < o.defBegin[i + 1]; ++j)
                bit(gen, base, o.ops[j], true);
        }
    }

    std::vector<u64> liveIn(nb * words, 0);
    std::vector<u64> out(words);
    auto liveOut = [&](size_t bi) {
        std::fill(out.begin(), out.end(), 0);
        for (int s : cfg.blocks[bi].succs)
            for (size_t w = 0; w < words; ++w)
                out[w] |= liveIn[size_t(s) * words + w];
    };
    for (bool changed = true; changed;) {
        changed = false;
        for (size_t bi = nb; bi-- > 0;) {
            liveOut(bi);
            size_t base = bi * words;
            for (size_t w = 0; w < words; ++w) {
                u64 in = gen[base + w] | (out[w] & ~kill[base + w]);
                if (in != liveIn[base + w]) {
                    liveIn[base + w] = in;
                    changed = true;
                }
            }
        }
    }

    std::vector<std::pair<u32, u32>> edges; // (def, live); may repeat
    SparseSet live(k);
    for (size_t bi = 0; bi < nb; ++bi) {
        liveOut(bi);
        live.clear();
        for (size_t w = 0; w < words; ++w)
            for (u64 m = out[w]; m; m &= m - 1)
                live.insert(u32(w * 64 + size_t(std::countr_zero(m))));
        const Block &b = cfg.blocks[bi];
        for (size_t i = b.end; i-- > b.begin;) {
            u32 d0 = o.defBegin[i], u0 = o.useBegin[i];
            for (u32 j = d0; j < u0; ++j) {
                u32 d = o.ops[j];
                auto link = [&](u32 l) {
                    if (l != d && o.file(l) == o.file(d))
                        edges.push_back({d, l});
                };
                for (u32 l : live.items())
                    link(l);
                for (u32 j2 = d0; j2 < u0; ++j2)
                    link(o.ops[j2]);
            }
            for (u32 j = d0; j < u0; ++j)
                live.erase(o.ops[j]);
            for (u32 j = u0; j < o.defBegin[i + 1]; ++j)
                live.insert(o.ops[j]);
        }
    }

    // Both directions into rows, then drop repeats within each row.
    InterferenceGraph g;
    g.begin.assign(k + 1, 0);
    for (auto [a, b] : edges) {
        ++g.begin[a + 1];
        ++g.begin[b + 1];
    }
    for (size_t v = 0; v < k; ++v)
        g.begin[v + 1] += g.begin[v];
    g.nbr.resize(g.begin[k]);
    std::vector<u32> fill(g.begin.begin(), g.begin.end() - 1);
    for (auto [a, b] : edges) {
        g.nbr[fill[a]++] = b;
        g.nbr[fill[b]++] = a;
    }
    std::vector<u32> seenBy(k, ~0u);
    u32 w = 0;
    for (u32 v = 0; v < k; ++v) {
        u32 first = g.begin[v], last = g.begin[v + 1];
        g.begin[v] = w;
        for (u32 i = first; i < last; ++i)
            if (seenBy[g.nbr[i]] != v) {
                seenBy[g.nbr[i]] = v;
                g.nbr[w++] = g.nbr[i];
            }
    }
    g.begin[k] = w;
    g.nbr.resize(w);
    return g;
}

/** Result of a coloring attempt. */
struct Coloring
{
    std::vector<i32> colorOfKey; ///< register key -> physical, -1 if none
    std::vector<u32> spills;     ///< uncolorable DRF virtuals
    u32 maxDrfColor = 0;
};

/**
 * Color the program's virtual registers in first-appearance order.
 * DRF virtuals numbered @p firstSpillTemp and up are reload/store
 * temporaries of earlier rounds.
 */
Coloring
colorRegisters(const HardwareConfig &cfg, const BuilderProgram &prog,
               const Cfg &cfgBlocks, bool maxPolicy, u32 firstSpillTemp)
{
    Operands o = collectOperands(prog);
    InterferenceGraph g = interference(o, cfgBlocks);
    size_t k = o.keys.size();

    // Coloring order = first appearance, defs before uses.
    std::vector<u32> order;
    order.reserve(k);
    std::vector<char> seen(k, 0);
    for (u32 v : o.ops)
        if (!seen[v]) {
            seen[v] = 1;
            order.push_back(v);
        }

    auto isTemp = [&](u32 v) {
        return o.file(v) == RegFile::kDrf &&
               (o.keys[v] & 0xFFFF) >= firstSpillTemp;
    };

    const u32 numColors[3] = {cfg.dataRfEntries(), cfg.addrRfEntries(),
                              cfg.ctrlRfEntries};
    // Per-file recency stamps for the max policy.
    std::vector<u64> lastAssign[3];
    for (int f = 0; f < 3; ++f)
        lastAssign[f].assign(numColors[f], 0);
    u64 stamp = 1;
    // takenBy[c] == v + 1: color c is held by a neighbour of v.
    std::vector<u32> takenBy(
        *std::max_element(std::begin(numColors), std::end(numColors)), 0);

    Coloring result;
    std::vector<i32> color(k, -1);
    auto assign = [&](u32 v, u32 c) {
        RegFile f = o.file(v);
        color[v] = i32(c);
        lastAssign[int(f)][c] = stamp++;
        if (f == RegFile::kDrf)
            result.maxDrfColor = std::max(result.maxDrfColor, c);
    };

    for (u32 v : order) {
        RegFile f = o.file(v);
        u32 n = numColors[int(f)];
        u32 firstColor = f == RegFile::kArf ? kNumReservedArf : 0;
        for (u32 nb : g.neighbours(v))
            if (color[nb] >= 0)
                takenBy[size_t(color[nb])] = v + 1;

        i64 best = -1;
        if (maxPolicy) {
            // Least-recently-assigned free color: scatters registers and
            // avoids anti/output dependences on the in-order core.
            u64 bestStamp = ~0ull;
            for (u32 c = firstColor; c < n; ++c) {
                if (takenBy[c] == v + 1)
                    continue;
                if (lastAssign[int(f)][c] < bestStamp) {
                    bestStamp = lastAssign[int(f)][c];
                    best = c;
                }
            }
        } else {
            for (u32 c = firstColor; c < n; ++c) {
                if (takenBy[c] != v + 1) {
                    best = c;
                    break;
                }
            }
        }

        if (best < 0) {
            if (f != RegFile::kDrf)
                fatal("out of ", f == RegFile::kArf ? "AddrRF" : "CtrlRF",
                      " registers (", n, ") and spilling is only "
                      "supported for the DataRF");
            // Pick a spill victim with the widest interference that is
            // not itself a reload/store temp from a previous round —
            // re-spilling temps would live-lock the allocator.  A colored
            // neighbour must be strictly wider than v; ties between
            // neighbours go to the lowest register key.
            u32 victim = v;
            size_t bestDegree = isTemp(v) ? 0 : g.degree(v);
            for (u32 nb : g.neighbours(v)) {
                if (isTemp(nb) || color[nb] < 0)
                    continue;
                size_t deg = g.degree(nb);
                if (deg > bestDegree ||
                    (deg == bestDegree && victim != v && nb < victim)) {
                    bestDegree = deg;
                    victim = nb;
                }
            }
            if (isTemp(victim))
                fatal("DataRF too small even for spill temporaries (", n,
                      " registers)");
            result.spills.push_back(o.keys[victim]);
            if (victim != v) {
                // Free the victim's color and give it to v.
                u32 c = u32(color[victim]);
                color[victim] = -1;
                assign(v, c);
            }
            continue;
        }
        assign(v, u32(best));
    }

    result.colorOfKey.assign(o.keys.empty() ? 0 : o.keys.back() + 1, -1);
    for (size_t v = 0; v < k; ++v)
        result.colorOfKey[o.keys[v]] = color[v];
    return result;
}

/** Rewrite the program to spill the given DRF virtuals to DRAM. */
BuilderProgram
insertSpills(const BuilderProgram &prog, const std::vector<u32> &spills,
             u64 spillBase, u32 &nextVirtual, u32 fullMask,
             std::map<u32, u32> &spillSlots)
{
    std::set<u32> spillSet(spills.begin(), spills.end());
    for (u32 v : spills)
        if (!spillSlots.count(v))
            spillSlots[v] = u32(spillSlots.size());

    BuilderProgram out;
    out.name = prog.name;
    // Recompute label positions while copying.
    std::map<size_t, std::vector<i32>> labelsAt;
    for (const auto &[label, pos] : prog.labelPos)
        labelsAt[pos].push_back(label);

    for (size_t i = 0; i < prog.insts.size(); ++i) {
        if (auto it = labelsAt.find(i); it != labelsAt.end())
            for (i32 l : it->second)
                out.labelPos[l] = out.insts.size();

        Instruction inst = prog.insts[i];
        bool reads = false, writes = false;
        std::map<u16, u16> replacement;
        visitRegFields(inst, [&](RegFile f, u16 &idx, bool r, bool w) {
            if (f != RegFile::kDrf)
                return;
            u32 key = regKey(f, idx);
            if (!spillSet.count(key))
                return;
            auto rep = replacement.find(idx);
            u16 fresh;
            if (rep == replacement.end()) {
                if (nextVirtual > 0xFFFF)
                    fatal("kernel '", prog.name, "': spill temporaries "
                          "exhaust the 65536 virtual DRF registers");
                fresh = u16(nextVirtual++);
                replacement[idx] = fresh;
            } else {
                fresh = rep->second;
            }
            if (r)
                reads = true;
            if (w)
                writes = true;
            idx = fresh;
        });

        if (reads) {
            for (const auto &[oldIdx, fresh] : replacement) {
                u64 addr = spillBase +
                           u64(spillSlots.at(regKey(RegFile::kDrf,
                                                    oldIdx))) *
                               kVectorBytes;
                out.insts.push_back(Instruction::memRf(
                    false, MemOperand::direct(u32(addr)), fresh,
                    fullMask));
            }
        }
        out.insts.push_back(inst);
        if (writes) {
            for (const auto &[oldIdx, fresh] : replacement) {
                u64 addr = spillBase +
                           u64(spillSlots.at(regKey(RegFile::kDrf,
                                                    oldIdx))) *
                               kVectorBytes;
                out.insts.push_back(Instruction::memRf(
                    true, MemOperand::direct(u32(addr)), fresh,
                    fullMask));
            }
        }
    }
    // Labels bound at the very end.
    for (const auto &[label, pos] : prog.labelPos)
        if (pos == prog.insts.size())
            out.labelPos[label] = out.insts.size();
    return out;
}

/** Estimated execution latency for the reordering priority function. */
u32
estLatency(const HardwareConfig &cfg, const Instruction &inst)
{
    switch (inst.op) {
      case Opcode::kComp:
        switch (inst.aluOp) {
          case AluOp::kAdd:
          case AluOp::kSub: return cfg.latency.addSub;
          case AluOp::kMul: return cfg.latency.mul;
          case AluOp::kMac: return cfg.latency.mac;
          case AluOp::kDiv: return 2 * cfg.latency.mul;
          default: return cfg.latency.logic;
        }
      case Opcode::kCalcArf:
        return cfg.latency.intAlu + cfg.latency.addrRf;
      case Opcode::kLdRf:
      case Opcode::kStRf:
      case Opcode::kLdPgsm:
      case Opcode::kStPgsm:
        return cfg.timing.tRCD + cfg.timing.tCL;
      case Opcode::kRdPgsm:
      case Opcode::kWrPgsm:
        return cfg.latency.peBus + cfg.latency.pgsm + cfg.latency.dataRf;
      case Opcode::kRdVsm:
      case Opcode::kWrVsm:
        return cfg.latency.tsv + cfg.latency.vsm + cfg.latency.dataRf;
      case Opcode::kReq:
        return 40;
      default:
        return 1;
    }
}

bool
isBankOp(const Instruction &inst)
{
    return accessesBank(inst.op);
}

bool
isLoadOp(const Instruction &inst)
{
    return inst.op == Opcode::kLdRf || inst.op == Opcode::kLdPgsm;
}

/** May two bank accesses touch the same bank address on some PE? */
bool
banksMayAlias(const Instruction &a, const AccessSet &sa, const Instruction &b,
              const AccessSet &sb)
{
    if ((a.simbMask & b.simbMask) == 0)
        return false;
    if (!sa.writesBank && !sb.writesBank)
        return false;
    if (a.dramAddr.indirect || b.dramAddr.indirect)
        return true;
    return a.dramAddr.value == b.dramAddr.value;
}

/**
 * The most recent run of readers and of writers of one scratchpad
 * location class (the VSM, or one PGSM partition).  A reader is ordered
 * after the writers run, a writer after the readers run; every older
 * reader/writer pair is ordered through a chain of kept edges
 * (DESIGN.md Sec. 20).
 */
struct ScratchpadRuns
{
    std::vector<int> readers;
    std::vector<int> writers;
    bool writersNewer = false;

    template <typename AddEdge>
    void
    read(int j, AddEdge &&addEdge)
    {
        for (int w : writers)
            addEdge(w, j);
        if (writersNewer)
            readers.clear();
        writersNewer = false;
        readers.push_back(j);
    }

    template <typename AddEdge>
    void
    write(int j, AddEdge &&addEdge)
    {
        for (int r : readers)
            addEdge(r, j);
        if (!writersNewer)
            writers.clear();
        writersNewer = true;
        writers.push_back(j);
    }
};

/**
 * Dependence graph of one block, then Algorithm 1 list scheduling; the
 * scheduled block is appended to @p out.  The final instruction (a block
 * ender, if any) is pinned last.
 */
void
scheduleBlock(const HardwareConfig &cfg, std::span<const Instruction> insts,
              const CompilerOptions &opts, std::vector<Instruction> &out)
{
    size_t n = insts.size();
    bool pinned = n > 0 && isBlockEnder(insts[n - 1].op);
    size_t m = pinned ? n - 1 : n;
    if (m <= 1 || !opts.reorder) {
        out.insert(out.end(), insts.begin(), insts.end());
        return;
    }

    // Edges carry whether data flows along them: true data dependences
    // propagate the producer's latency into T(v); pure ordering edges
    // (anti/output, scratchpad, memory-order) only constrain sequence.
    struct Edge
    {
        int from;
        int to;
        bool data;
    };
    std::vector<Edge> edges;
    std::vector<int> indeg(m, 0);
    std::vector<AccessSet> acc(m);
    for (size_t i = 0; i < m; ++i)
        acc[i] = insts[i].accessSet();

    // orderedInto[i] == j: an ordering edge i -> j already exists.
    std::vector<int> orderedInto(m, -1);
    auto addEdge = [&](int from, int to, bool data = false) {
        if (from == to)
            return;
        if (!data) {
            if (orderedInto[size_t(from)] == to)
                return;
            orderedInto[size_t(from)] = to;
        }
        edges.push_back({from, to, data});
        ++indeg[size_t(to)];
    };

    // Last writer / readers since that write per physical register.
    const u32 fileBase[3] = {0, cfg.dataRfEntries(),
                             cfg.dataRfEntries() + cfg.addrRfEntries()};
    size_t numRegs = fileBase[2] + cfg.ctrlRfEntries;
    auto slot = [&](u32 key) {
        size_t s = fileBase[int(keyFile(key))] + (key & 0xFFFF);
        if (s >= numRegs)
            panic("reorder: register key ", key, " is not physical");
        return s;
    };
    std::vector<int> lastWrite(numRegs, -1);
    std::vector<std::vector<int>> readsSince(numRegs);

    ScratchpadRuns vsm;
    ScratchpadRuns pgsm[2]; // one per PGSM partition bit
    std::vector<int> bankOps;
    int lastBankLoad = -1, lastBankStore = -1;

    for (size_t jj = 0; jj < m; ++jj) {
        int j = int(jj);
        UseDef ud = useDef(insts[jj]);
        for (u8 k = 0; k < ud.numUses; ++k) {
            size_t u = slot(ud.uses[k]);
            if (lastWrite[u] >= 0)
                addEdge(lastWrite[u], j, true); // RAW
            readsSince[u].push_back(j);
        }
        for (u8 k = 0; k < ud.numDefs; ++k) {
            size_t d = slot(ud.defs[k]);
            if (lastWrite[d] >= 0)
                addEdge(lastWrite[d], j); // WAW
            for (int r : readsSince[d])
                addEdge(r, j); // WAR
            readsSince[d].clear();
            lastWrite[d] = j;
        }

        const AccessSet &aj = acc[jj];
        for (int bit = 0; bit < 2; ++bit) {
            if (aj.readsPgsm && (aj.pgsmReadMask >> bit & 1))
                pgsm[bit].read(j, addEdge);
            if (aj.writesPgsm && (aj.pgsmWriteMask >> bit & 1))
                pgsm[bit].write(j, addEdge);
        }
        if (aj.readsVsm)
            vsm.read(j, addEdge);
        if (aj.writesVsm)
            vsm.write(j, addEdge);

        if (isBankOp(insts[jj])) {
            // Bank aliasing correctness edges (read-modify-write chains).
            for (int i : bankOps)
                if (banksMayAlias(insts[size_t(i)], acc[size_t(i)],
                                  insts[jj], aj))
                    addEdge(i, j);
            // Memory-order enforcement: keep each DRAM access stream
            // (loads, stores) in program order so the scheduler cannot
            // destroy the tile-sequential row-buffer locality of the
            // lowered code, while still letting the load stream batch
            // ahead of the store stream (Sec. V-C, Fig. 5).
            if (opts.memOrder) {
                bool isLoad = isLoadOp(insts[jj]);
                int &prev = isLoad ? lastBankLoad : lastBankStore;
                if (prev >= 0)
                    addEdge(prev, j);
                prev = j;
            }
            bankOps.push_back(j);
        }
    }

    // Successor lists: succ[succBegin[i], succBegin[i + 1]) leave node i.
    std::vector<u32> succBegin(m + 1, 0);
    for (const Edge &e : edges)
        ++succBegin[size_t(e.from) + 1];
    for (size_t i = 0; i < m; ++i)
        succBegin[i + 1] += succBegin[i];
    std::vector<Edge> succ(edges.size());
    std::vector<u32> fill(succBegin.begin(), succBegin.end() - 1);
    for (const Edge &e : edges)
        succ[fill[size_t(e.from)]++] = e;

    // Algorithm 1.  Priority: the ready load of smallest index whose
    // T <= step, else the ready node of smallest (T, index).  A node's T
    // is final once it is ready, so both choices are heap minima:
    // `byT` holds every ready node, `loadsWaiting` the ready loads whose
    // T is still above the step and `loadsDue` those at or below it.
    // Picked nodes are dropped from the other heaps lazily.
    using Keyed = std::pair<u64, size_t>;
    std::priority_queue<Keyed, std::vector<Keyed>, std::greater<>> byT,
        loadsWaiting;
    std::priority_queue<size_t, std::vector<size_t>, std::greater<>>
        loadsDue;
    std::vector<u64> T(m, 0);
    std::vector<char> scheduled(m, 0);
    auto makeReady = [&](size_t i) {
        byT.push({T[i], i});
        if (isLoadOp(insts[i]))
            loadsWaiting.push({T[i], i});
    };
    for (size_t i = 0; i < m; ++i)
        if (indeg[i] == 0)
            makeReady(i);

    for (size_t step = 1; step <= m; ++step) {
        while (!loadsWaiting.empty() && loadsWaiting.top().first <= step) {
            loadsDue.push(loadsWaiting.top().second);
            loadsWaiting.pop();
        }
        while (!loadsDue.empty() && scheduled[loadsDue.top()])
            loadsDue.pop();
        while (!byT.empty() && scheduled[byT.top().second])
            byT.pop();
        size_t pick;
        if (!loadsDue.empty()) {
            pick = loadsDue.top();
            loadsDue.pop();
        } else {
            if (byT.empty())
                panic("reorder: dependency cycle in block");
            pick = byT.top().second;
            byT.pop();
        }
        scheduled[pick] = 1;
        out.push_back(insts[pick]);
        u64 start = std::max<u64>(T[pick], step);
        u64 done = start + estLatency(cfg, insts[pick]);
        for (u32 k = succBegin[pick]; k < succBegin[pick + 1]; ++k) {
            const Edge &e = succ[k];
            size_t s2 = size_t(e.to);
            T[s2] = std::max(T[s2], e.data ? done : start + 1);
            if (--indeg[s2] == 0)
                makeReady(s2);
        }
    }
    if (pinned)
        out.push_back(insts[n - 1]);
}

} // namespace

std::vector<Instruction>
runBackend(const HardwareConfig &cfg, BuilderProgram prog,
           const CompilerOptions &opts, u64 spillBase, BackendStats *stats)
{
    // Spill temporaries are numbered from the first free DRF virtual up.
    u32 nextVirtual = 0;
    for (Instruction &inst : prog.insts) {
        visitRegFields(inst, [&](RegFile f, u16 &idx, bool, bool) {
            if (f == RegFile::kDrf)
                nextVirtual = std::max(nextVirtual, u32(idx) + 1);
        });
    }
    const u32 firstSpillTemp = nextVirtual;

    // Iterate coloring + spilling to a fixed point.
    std::map<u32, u32> spillSlots;
    Coloring coloring;
    for (int round = 0;; ++round) {
        if (round > 64)
            fatal("register allocation did not converge; the DataRF is "
                  "too small for this kernel");
        Cfg cfgBlocks = buildCfg(prog);
        coloring = colorRegisters(cfg, prog, cfgBlocks,
                                  opts.maxRegAlloc, firstSpillTemp);
        if (coloring.spills.empty())
            break;
        prog = insertSpills(prog, coloring.spills, spillBase, nextVirtual,
                            (cfg.pesPerVault() >= 32)
                                ? 0xFFFFFFFFu
                                : ((1u << cfg.pesPerVault()) - 1),
                            spillSlots);
    }

    // Apply the coloring.
    for (Instruction &inst : prog.insts) {
        visitRegFields(inst, [&](RegFile f, u16 &idx, bool, bool) {
            if (f == RegFile::kArf && idx < kNumReservedArf)
                return;
            u32 key = regKey(f, idx);
            if (key >= coloring.colorOfKey.size() ||
                coloring.colorOfKey[key] < 0)
                fatal("virtual register without a color: file ", int(f),
                      " idx ", idx);
            idx = u16(coloring.colorOfKey[key]);
        });
    }

    // Per-block dependence graph + memory-order edges + reordering.
    Cfg cfgBlocks = buildCfg(prog);
    std::vector<Instruction> final;
    final.reserve(prog.insts.size());
    std::vector<size_t> blockStart(cfgBlocks.blocks.size());
    for (size_t bi = 0; bi < cfgBlocks.blocks.size(); ++bi) {
        const Block &b = cfgBlocks.blocks[bi];
        blockStart[bi] = final.size();
        scheduleBlock(cfg,
                      std::span<const Instruction>(prog.insts).subspan(
                          b.begin, b.end - b.begin),
                      opts, final);
    }

    // Resolve labels into seti_crf immediates.
    for (Instruction &inst : final) {
        if (inst.op == Opcode::kSetiCrf && inst.label >= 0) {
            auto it = cfgBlocks.labelBlock.find(inst.label);
            if (it == cfgBlocks.labelBlock.end())
                fatal("unbound label L", inst.label);
            inst.imm = i32(blockStart[size_t(it->second)]);
            inst.label = -1;
        }
    }

    if (stats) {
        stats->spilledRegs = u32(spillSlots.size());
        stats->physicalDrfUsed = coloring.maxDrfColor + 1;
        stats->instructions = u32(final.size());
    }
    return final;
}

} // namespace ipim

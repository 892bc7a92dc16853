#include "analysis/cfg.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"

namespace ipim {

namespace {

bool
validOp(const Instruction &inst)
{
    return u8(inst.op) < u8(Opcode::kNumOpcodes);
}

bool
isBranch(const Instruction &inst)
{
    return validOp(inst) &&
           (inst.op == Opcode::kJump || inst.op == Opcode::kCjump);
}

/**
 * The reaching definition of every branch's target register: the last
 * seti_crf/calc_crf writing it in program order.  Returns, per
 * instruction, the resolved target index for a branch, or -1 when the
 * target is dynamic (calc_crf), missing, or out of range (and for every
 * non-branch).  Mirrors the verifier's V08 reaching-definition
 * convention: physical CRF registers are reused after coloring, so only
 * the last write may be judged.
 */
std::vector<int>
resolveTargets(const std::vector<Instruction> &prog)
{
    std::vector<int> targets(prog.size(), -1);
    std::vector<int> lastDef; // per CRF register, the target it holds
    for (size_t i = 0; i < prog.size(); ++i) {
        const Instruction &inst = prog[i];
        if (!validOp(inst))
            continue;
        if (isBranch(inst)) {
            if (inst.dst < lastDef.size())
                targets[i] = lastDef[inst.dst];
        } else if (inst.op == Opcode::kSetiCrf ||
                   inst.op == Opcode::kCalcCrf) {
            if (inst.dst >= lastDef.size())
                lastDef.resize(size_t(inst.dst) + 1, -1);
            bool inRange = inst.op == Opcode::kSetiCrf && inst.imm >= 0 &&
                           u64(inst.imm) < prog.size();
            lastDef[inst.dst] = inRange ? int(inst.imm) : -1;
        }
    }
    return targets;
}

} // namespace

bool
NaturalLoop::contains(int blockId) const
{
    return std::binary_search(blocks.begin(), blocks.end(), blockId);
}

Cfg
Cfg::build(const std::vector<Instruction> &prog)
{
    Cfg g;
    g.prog_ = prog;
    if (prog.empty())
        return g;

    // ---- leaders ----
    std::vector<int> targets = resolveTargets(prog);
    std::vector<bool> leader(prog.size(), false);
    leader[0] = true;
    for (size_t i = 0; i < prog.size(); ++i) {
        const Instruction &inst = prog[i];
        if (!validOp(inst))
            continue;
        if (isBranch(inst)) {
            if (targets[i] >= 0)
                leader[size_t(targets[i])] = true;
            if (i + 1 < prog.size())
                leader[i + 1] = true;
        } else if (inst.op == Opcode::kHalt ||
                   inst.op == Opcode::kSync) {
            // halt ends control flow; sync is kept a block terminator so
            // sync-phase segments align with block boundaries.
            if (i + 1 < prog.size())
                leader[i + 1] = true;
        }
    }

    // ---- blocks ----
    g.blockOf_.assign(prog.size(), -1);
    for (u32 first = 0; first < prog.size();) {
        u32 next = first + 1;
        while (next < prog.size() && !leader[next])
            ++next;
        BasicBlock bb;
        bb.id = int(g.blocks_.size());
        bb.first = first;
        bb.last = next - 1;
        std::fill(g.blockOf_.begin() + first, g.blockOf_.begin() + next,
                  bb.id);
        g.blocks_.push_back(std::move(bb));
        first = next;
    }

    // ---- edges ----
    auto addEdge = [&](int from, int to) {
        g.blocks_[size_t(from)].succs.push_back(to);
        g.blocks_[size_t(to)].preds.push_back(from);
    };
    for (BasicBlock &bb : g.blocks_) {
        const Instruction &term = prog[bb.last];
        bool fallsThrough = true;
        if (isBranch(term)) {
            fallsThrough = term.op == Opcode::kCjump;
            int tgt = targets[bb.last];
            if (tgt >= 0) {
                addEdge(bb.id, g.blockOf_[size_t(tgt)]);
            } else {
                bb.unresolvedTarget = true;
                g.targetsResolved_ = false;
            }
        } else if (validOp(term) && term.op == Opcode::kHalt) {
            fallsThrough = false;
        }
        if (fallsThrough && bb.id + 1 < int(g.blocks_.size()))
            addEdge(bb.id, bb.id + 1);
    }

    g.computeRpo();
    g.computeDominators();
    g.findLoops();
    return g;
}

void
Cfg::computeRpo()
{
    std::vector<int> post;
    std::vector<u8> state(blocks_.size(), 0); // 0 new, 1 open, 2 done
    std::vector<int> stack{0};
    while (!stack.empty()) {
        int b = stack.back();
        if (state[size_t(b)] == 0) {
            state[size_t(b)] = 1;
            blocks_[size_t(b)].reachable = true;
            for (int s : blocks_[size_t(b)].succs)
                if (state[size_t(s)] == 0)
                    stack.push_back(s);
        } else {
            stack.pop_back();
            if (state[size_t(b)] == 1) {
                state[size_t(b)] = 2;
                post.push_back(b);
            }
        }
    }
    rpo_.assign(post.rbegin(), post.rend());
}

void
Cfg::computeDominators()
{
    if (rpo_.empty())
        return;
    // Cooper/Harvey/Kennedy iterative dominators over RPO numbers.
    std::vector<int> rpoNum(blocks_.size(), -1);
    for (size_t k = 0; k < rpo_.size(); ++k)
        rpoNum[size_t(rpo_[k])] = int(k);

    std::vector<int> idom(blocks_.size(), -1);
    int entry = rpo_[0];
    idom[size_t(entry)] = entry;

    auto intersect = [&](int a, int b) {
        while (a != b) {
            while (rpoNum[size_t(a)] > rpoNum[size_t(b)])
                a = idom[size_t(a)];
            while (rpoNum[size_t(b)] > rpoNum[size_t(a)])
                b = idom[size_t(b)];
        }
        return a;
    };

    bool changed = true;
    while (changed) {
        changed = false;
        for (size_t k = 1; k < rpo_.size(); ++k) {
            int b = rpo_[k];
            int newIdom = -1;
            for (int p : blocks_[size_t(b)].preds) {
                if (idom[size_t(p)] < 0)
                    continue; // unprocessed or unreachable
                newIdom = newIdom < 0 ? p : intersect(p, newIdom);
            }
            if (newIdom >= 0 && idom[size_t(b)] != newIdom) {
                idom[size_t(b)] = newIdom;
                changed = true;
            }
        }
    }
    for (BasicBlock &bb : blocks_)
        bb.idom = bb.id == entry ? -1 : idom[size_t(bb.id)];
}

bool
Cfg::dominates(int a, int b) const
{
    if (!blocks_[size_t(a)].reachable || !blocks_[size_t(b)].reachable)
        return false;
    int x = b;
    while (x >= 0) {
        if (x == a)
            return true;
        x = blocks_[size_t(x)].idom;
    }
    return false;
}

void
Cfg::findLoops()
{
    // Back edges u->h with h dominating u; loops sharing a header merge.
    std::vector<std::pair<int, int>> backEdges;
    for (const BasicBlock &bb : blocks_) {
        if (!bb.reachable)
            continue;
        for (int s : bb.succs)
            if (dominates(s, bb.id))
                backEdges.push_back({bb.id, s});
    }

    std::vector<int> headerLoop(blocks_.size(), -1);
    // mark[b] == e: block b is in the body being built for back edge e.
    std::vector<int> mark(blocks_.size(), -1);
    for (size_t e = 0; e < backEdges.size(); ++e) {
        auto [latch, header] = backEdges[e];
        int li = headerLoop[size_t(header)];
        if (li < 0) {
            li = int(loops_.size());
            headerLoop[size_t(header)] = li;
            loops_.push_back({});
            loops_[size_t(li)].header = header;
            loops_[size_t(li)].blocks.push_back(header);
        }
        NaturalLoop &loop = loops_[size_t(li)];
        loop.latches.push_back(latch);
        // Body: blocks reaching the latch backwards without crossing
        // the header (which is already in the body, stopping the walk).
        for (int b : loop.blocks)
            mark[size_t(b)] = int(e);
        std::vector<int> stack{latch};
        size_t known = loop.blocks.size();
        while (!stack.empty()) {
            int b = stack.back();
            stack.pop_back();
            if (mark[size_t(b)] == int(e))
                continue;
            mark[size_t(b)] = int(e);
            loop.blocks.push_back(b);
            for (int p : blocks_[size_t(b)].preds)
                stack.push_back(p);
        }
        if (loop.blocks.size() != known)
            std::sort(loop.blocks.begin(), loop.blocks.end());
    }
    buildLoopTable();

    // Nesting: the parent of L is the smallest other loop containing
    // L's header (the lowest index among equals).
    for (NaturalLoop &loop : loops_) {
        loop.parent = -1;
        size_t h = size_t(loop.header);
        for (int k = blockLoopsBegin_[h]; k < blockLoopsBegin_[h + 1];
             ++k) {
            const NaturalLoop &other = loops_[size_t(blockLoops_[k])];
            if (other.blocks.size() <= loop.blocks.size())
                continue; // equal-size would be the loop itself
            if (loop.parent < 0 ||
                other.blocks.size() <
                    loops_[size_t(loop.parent)].blocks.size())
                loop.parent = blockLoops_[k];
        }
    }
    for (NaturalLoop &loop : loops_) {
        loop.depth = 1;
        for (int p = loop.parent; p >= 0; p = loops_[size_t(p)].parent)
            ++loop.depth;
    }
}

void
Cfg::buildLoopTable()
{
    const size_t n = blocks_.size();
    blockLoopsBegin_.assign(n + 1, 0);
    for (const NaturalLoop &loop : loops_)
        for (int b : loop.blocks)
            ++blockLoopsBegin_[size_t(b) + 1];
    for (size_t b = 0; b < n; ++b)
        blockLoopsBegin_[b + 1] += blockLoopsBegin_[b];
    blockLoops_.resize(size_t(blockLoopsBegin_[n]));
    std::vector<int> fill(blockLoopsBegin_.begin(),
                          blockLoopsBegin_.end() - 1);
    innermost_.assign(n, -1);
    for (size_t li = 0; li < loops_.size(); ++li) {
        for (int b : loops_[li].blocks) {
            blockLoops_[size_t(fill[size_t(b)]++)] = int(li);
            int &best = innermost_[size_t(b)];
            if (best < 0 ||
                loops_[li].blocks.size() < loops_[size_t(best)].blocks.size())
                best = int(li);
        }
    }
}

f64
Cfg::frequency(int blockId) const
{
    f64 freq = 1.0;
    for (int k = blockLoopsBegin_[size_t(blockId)];
         k < blockLoopsBegin_[size_t(blockId) + 1]; ++k) {
        i64 trips = loops_[size_t(blockLoops_[size_t(k)])].tripCount;
        if (trips > 0)
            freq *= f64(trips);
    }
    return freq;
}

std::string
Cfg::toDot(const std::string &name) const
{
    std::ostringstream os;
    os << "digraph \"" << name << "\" {\n"
       << "  node [shape=box, fontname=\"monospace\"];\n";
    for (const BasicBlock &bb : blocks_) {
        os << "  b" << bb.id << " [label=\"B" << bb.id << " ["
           << bb.first << ".." << bb.last << "]";
        int li = innermostLoop(bb.id);
        if (li >= 0 && loops_[size_t(li)].header == bb.id) {
            os << "\\nloop";
            if (loops_[size_t(li)].tripCount > 0)
                os << " x" << loops_[size_t(li)].tripCount;
        }
        const Instruction &term = prog_[bb.last];
        if (u8(term.op) < u8(Opcode::kNumOpcodes))
            os << "\\n" << opcodeName(term.op);
        os << "\"";
        if (!bb.reachable)
            os << ", style=dashed";
        os << "];\n";
    }
    for (const BasicBlock &bb : blocks_) {
        for (int s : bb.succs) {
            os << "  b" << bb.id << " -> b" << s;
            if (dominates(s, bb.id) && bb.reachable)
                os << " [style=bold, color=firebrick]"; // back edge
            os << ";\n";
        }
        if (bb.unresolvedTarget)
            os << "  b" << bb.id
               << " -> unresolved [style=dotted];\n";
    }
    os << "}\n";
    return os.str();
}

} // namespace ipim

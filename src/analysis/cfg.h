/**
 * @file
 * Control-flow graph over a finalized SIMB vault program.
 *
 * The control core is a single-issue in-order machine whose only
 * control transfers are jump/cjump through CRF-held targets
 * (Sec. IV-B).  Compiler-emitted programs materialize every target with
 * a seti_crf whose definition dominates the branch, so targets resolve
 * with a linear reaching-definition scan; a target defined by calc_crf
 * (or not at all) leaves the branch "unresolved" and downstream
 * path-sensitive analyses must refuse the program (V08 reports it).
 *
 * The graph carries the structure every analysis in this directory
 * shares: basic blocks, edges, reverse postorder, dominators, natural
 * loops, and — once dataflow has run (see dataflow.h) — static loop
 * trip counts and block execution frequencies.
 */
#ifndef IPIM_ANALYSIS_CFG_H_
#define IPIM_ANALYSIS_CFG_H_

#include <string>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"

namespace ipim {

/** One maximal straight-line instruction range [first, last]. */
struct BasicBlock
{
    int id = -1;
    u32 first = 0; ///< index of the leader instruction
    u32 last = 0;  ///< index of the terminator (inclusive)
    std::vector<int> succs;
    std::vector<int> preds;
    /// Immediate dominator block id; -1 for the entry block and for
    /// unreachable blocks.
    int idom = -1;
    bool reachable = false;
    /// Terminator is a jump/cjump whose target could not be resolved to
    /// a static instruction index (its edge is missing from succs).
    bool unresolvedTarget = false;
};

/** One natural loop (back edge whose target dominates its source). */
struct NaturalLoop
{
    int header = -1;          ///< header block id
    std::vector<int> latches; ///< back-edge source blocks
    std::vector<int> blocks;  ///< member block ids, sorted ascending
    int parent = -1;          ///< index of the enclosing loop, -1 if top
    int depth = 1;            ///< nesting depth (1 = outermost)

    /// Static iteration count derived from the builder's counted-loop
    /// idiom (seti_crf N / calc_crf add c,c,step / cjump c): -1 when
    /// not derivable.  Filled by deriveTripCounts() in dataflow.h.
    i64 tripCount = -1;
    u16 counterCrf = 0xFFFF; ///< loop-counter CRF register when derived
    i64 counterStep = 0;     ///< per-iteration counter increment

    bool contains(int blockId) const;
};

/** CFG plus derived structure for one finalized vault program. */
class Cfg
{
  public:
    /**
     * Partition @p prog into blocks and build edges/dominators/loops.
     * The graph owns a copy of @p prog, so callers may pass a
     * temporary.  Instructions with out-of-ISA opcode bytes terminate
     * analysis value-wise but still belong to a block, mirroring the
     * verifier's "report once, then skip" convention.
     */
    static Cfg build(const std::vector<Instruction> &prog);

    const std::vector<Instruction> &prog() const { return prog_; }
    int numBlocks() const { return int(blocks_.size()); }
    const BasicBlock &block(int id) const { return blocks_[size_t(id)]; }
    BasicBlock &block(int id) { return blocks_[size_t(id)]; }
    const std::vector<BasicBlock> &blocks() const { return blocks_; }

    /** Block containing instruction @p instIdx. */
    int blockOf(u32 instIdx) const { return blockOf_[instIdx]; }

    /** Reverse postorder over reachable blocks (entry first). */
    const std::vector<int> &rpo() const { return rpo_; }

    /** True when every branch target resolved to a static index. */
    bool targetsResolved() const { return targetsResolved_; }

    /** True when @p a dominates @p b (both reachable, reflexive). */
    bool dominates(int a, int b) const;

    const std::vector<NaturalLoop> &loops() const { return loops_; }
    std::vector<NaturalLoop> &loops() { return loops_; }

    /**
     * Innermost loop containing @p blockId, -1 when outside loops: the
     * one with the fewest blocks, the lowest loop index among equals.
     */
    int innermostLoop(int blockId) const
    {
        return innermost_[size_t(blockId)];
    }

    /** Loop nesting depth of a block (0 = not in any loop). */
    int
    loopDepth(int blockId) const
    {
        return blockLoopsBegin_[size_t(blockId) + 1] -
               blockLoopsBegin_[size_t(blockId)];
    }

    /**
     * Static execution count of a block: the product of the trip
     * counts of every enclosing loop, with unknown trip counts
     * contributing a factor of 1 (a deliberate lower bound; see
     * CostEstimate::complete).
     */
    f64 frequency(int blockId) const;

    /** Graphviz rendering (one node per block, edge per transfer). */
    std::string toDot(const std::string &name) const;

  private:
    std::vector<Instruction> prog_;
    std::vector<BasicBlock> blocks_;
    std::vector<int> blockOf_;
    std::vector<int> rpo_;
    std::vector<NaturalLoop> loops_;
    bool targetsResolved_ = true;

    /// Per-block loop table, built once with the loops: the indices of
    /// the loops containing block b, ascending, are
    /// blockLoops_[blockLoopsBegin_[b] .. blockLoopsBegin_[b + 1]).
    std::vector<int> blockLoopsBegin_;
    std::vector<int> blockLoops_;
    std::vector<int> innermost_; ///< innermostLoop() per block

    void computeRpo();
    void computeDominators();
    void findLoops();
    void buildLoopTable();
};

} // namespace ipim

#endif // IPIM_ANALYSIS_CFG_H_

#ifndef WHYQ_WHY_EXTENSIONS_H_
#define WHYQ_WHY_EXTENSIONS_H_

#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "query/query.h"
#include "rewrite/operators.h"
#include "why/question.h"
#include "why/why_algorithms.h"

namespace whyq {

/// Algorithm family per direction: kAuto picks the paper's fast variant
/// (ApproxWhy / FastWhyNot); kExact the MBS enumeration; kIso the
/// isomorphism-verified greedy baseline. Why-empty/Why-so-many have one
/// implementation each and ignore the choice.
enum class AlgoChoice { kAuto, kExact, kIso };

const char* AlgoChoiceName(AlgoChoice a);

/// The choice a front end's algorithm name selects: AlgoChoiceName's
/// auto|exact|iso, plus the paper's "approx" (Why) and "fast" (Why-not)
/// as names of kAuto. nullopt for any other name.
std::optional<AlgoChoice> ParseAlgoChoice(const std::string& name);

/// The two directions the six algorithms answer.
enum class Direction { kWhy, kWhyNot };

/// The paper's name of the algorithm `algo` selects for `dir`: ExactWhy,
/// ApproxWhy, IsoWhy, ExactWhyNot, FastWhyNot or IsoWhyNot.
const char* AlgorithmName(Direction dir, AlgoChoice algo);

/// Answers a Why (AnswerWhy) or Why-not (AnswerWhyNot) question with the
/// algorithm `algo` selects for that direction. This is the one
/// (direction x algorithm) dispatch: the service (and through it the CLI
/// and the daemon) and the experiment harness all call these.
RewriteAnswer AnswerWhy(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const WhyQuestion& w, AlgoChoice algo,
                        const AnswerConfig& cfg);
RewriteAnswer AnswerWhyNot(const Graph& g, const Query& q,
                           const std::vector<NodeId>& answers,
                           const WhyNotQuestion& w, AlgoChoice algo,
                           const AnswerConfig& cfg);

/// Why-empty (Section V "Extensions"): a Why-not question with no V_C — the
/// user only wants *some* answer. Returns a relaxation rewrite within
/// budget whose answer is non-empty, preferring cheap operator sets.
struct WhyEmptyResult {
  bool found = false;
  OperatorSet ops;
  Query rewritten;
  double cost = 0.0;
  std::vector<NodeId> sample_answers;  // up to 10 witnesses
};

WhyEmptyResult AnswerWhyEmpty(const Graph& g, const Query& q,
                              const AnswerConfig& cfg);

/// Why-so-many (Section V "Extensions"): a Why question with no V_N — the
/// user wants the answer shrunk to at most `target_k` entities. Greedy
/// refinement over the picky set with path-index screening; the final
/// rewrite is re-evaluated exactly.
struct WhySoManyResult {
  bool found = false;  // reached <= target_k within budget
  OperatorSet ops;
  Query rewritten;
  double cost = 0.0;
  size_t before = 0;  // |Q(u_o, G)|
  size_t after = 0;   // |Q'(u_o, G)|
};

WhySoManyResult AnswerWhySoMany(const Graph& g, const Query& q,
                                const std::vector<NodeId>& answers,
                                size_t target_k, const AnswerConfig& cfg);

/// Multi-output extension: a Why question over all of q.outputs(), with one
/// unexpected set per output node (aligned with q.outputs()). Closeness is
/// pooled: excluded unexpected entities over all outputs / total
/// unexpected; the guard pools collateral exclusions the same way.
/// Exact (MBS-based) algorithm; operator costs use the nearest output.
/// Both multi-output algorithms evaluate under cfg.semantics (answers must
/// come from the same semantics) and honor cfg.cancel.
RewriteAnswer ExactWhyMultiOutput(
    const Graph& g, const Query& q,
    const std::vector<std::vector<NodeId>>& answers_per_output,
    const std::vector<std::vector<NodeId>>& unexpected_per_output,
    const AnswerConfig& cfg);

/// Greedy multi-output Why (the extension keeps ApproxWhy's budgeted
/// submodular structure: the pooled closeness is a coverage function over
/// per-operator affected sets). Per-operator effects are verified exactly
/// once per output; set-level gains use their union.
RewriteAnswer ApproxWhyMultiOutput(
    const Graph& g, const Query& q,
    const std::vector<std::vector<NodeId>>& answers_per_output,
    const std::vector<std::vector<NodeId>>& unexpected_per_output,
    const AnswerConfig& cfg);

}  // namespace whyq

#endif  // WHYQ_WHY_EXTENSIONS_H_

#ifndef WHYQ_REWRITE_EVALUATION_H_
#define WHYQ_REWRITE_EVALUATION_H_

#include <vector>

#include "graph/graph.h"
#include "graph/neighborhood.h"
#include "matcher/match_engine.h"
#include "query/query.h"
#include "why/question.h"

namespace whyq {

/// Exact evaluation outcome of one candidate rewrite.
struct EvalResult {
  double closeness = 0.0;  // cl(O) per Section III-C
  size_t guard = 0;        // collateral answer changes (exact up to m+1)
  bool guard_ok = true;    // guard <= m
};

/// Exact closeness/guard evaluator for Why questions against a fixed
/// (Q, G, Q(u_o,G), V_N). This is the paper's Match procedure: it checks
/// incrementally which original answers survive the rewrite instead of
/// recomputing Q'(u_o, G) from scratch, early-terminating per node on the
/// first embedding and early-terminating the guard count beyond m.
///
/// Evaluators are per-request objects (they own a stateful MatchEngine and,
/// under isomorphism semantics, a MatchContext that memoizes candidate
/// sets across every rewrite the evaluator verifies — see
/// matcher/match_context.h); `cancel` (not owned, may be null) is forwarded
/// into the engine so verification sweeps stop mid-search once a deadline
/// passes.
class WhyEvaluator {
 public:
  WhyEvaluator(const Graph& g, std::vector<NodeId> answers,
               const WhyQuestion& w, size_t guard_m,
               MatchSemantics semantics = MatchSemantics::kIsomorphism,
               const CancelToken* cancel = nullptr);

  /// cl(O) and guard of a refinement rewrite.
  EvalResult Evaluate(const Query& rewritten) const;

  /// Guard-only check (early-terminating): does the rewrite exclude at most
  /// m desired answers? Used as the admissibility predicate of the exact
  /// guard-aware MBS enumeration.
  bool GuardOk(const Query& rewritten) const;

  /// Aff(·): original answers that are no longer matches under `rewritten`
  /// (exact; used to seed EstMatch for each single picky operator).
  std::vector<NodeId> AffectedAnswers(const Query& rewritten) const;

  const std::vector<NodeId>& answers() const { return answers_; }
  const std::vector<NodeId>& unexpected() const { return unexpected_; }
  /// Q(u_o,G) \ V_N: the answers the guard protects.
  const std::vector<NodeId>& desired() const { return desired_answers_; }
  size_t guard_m() const { return guard_m_; }
  const MatchEngine& engine() const { return *engine_; }
  const Graph& graph() const { return g_; }

  /// The evaluator's candidate memo (null under simulation semantics).
  /// Single-thread state, like the evaluator itself.
  MatchContext* context() const { return ctx_.get(); }
  /// Cache counters (zeros when context() is null).
  MatchContext::Stats ContextStats() const {
    return ctx_ ? ctx_->stats() : MatchContext::Stats();
  }

  bool IsUnexpected(NodeId v) const { return unexpected_set_.Contains(v); }

 private:
  const Graph& g_;
  std::unique_ptr<MatchContext> ctx_;  // declared before engine_ (init order)
  std::unique_ptr<MatchEngine> engine_;
  std::vector<NodeId> answers_;
  std::vector<NodeId> unexpected_;       // V_N (deduplicated, ⊆ answers)
  std::vector<NodeId> desired_answers_;  // Q(u_o,G) \ V_N
  NodeSet unexpected_set_;
  size_t guard_m_;
};

/// Exact evaluator for Why-not questions against (Q, G, Q(u_o,G), V_C, C).
/// The missing set is filtered through C once at construction; the guard
/// |Q'(u_o,G) \ (Q(u_o,G) ∪ V_C)| is counted with early termination at
/// m + 1 via the matcher's capped answer enumeration.
class WhyNotEvaluator {
 public:
  WhyNotEvaluator(const Graph& g, std::vector<NodeId> answers,
                  const WhyNotQuestion& w, size_t guard_m,
                  MatchSemantics semantics = MatchSemantics::kIsomorphism,
                  const CancelToken* cancel = nullptr);

  EvalResult Evaluate(const Query& rewritten) const;

  /// Guard-only check: at most m matches outside Q(u_o,G) ∪ V_C.
  bool GuardOk(const Query& rewritten) const;

  /// Missing entities (post-C) that become matches under `rewritten`.
  std::vector<NodeId> NewMatches(const Query& rewritten) const;

  const std::vector<NodeId>& answers() const { return answers_; }

  /// V_C after applying the selection condition C.
  const std::vector<NodeId>& missing() const { return missing_; }

  /// Q(u_o,G) ∪ V_C (raw, pre-C): the nodes exempt from the guard.
  const NodeSet& protected_set() const { return protected_set_; }
  size_t guard_m() const { return guard_m_; }
  const MatchEngine& engine() const { return *engine_; }
  const Graph& graph() const { return g_; }

  /// The evaluator's candidate memo (null under simulation semantics).
  MatchContext* context() const { return ctx_.get(); }
  /// Cache counters (zeros when context() is null).
  MatchContext::Stats ContextStats() const {
    return ctx_ ? ctx_->stats() : MatchContext::Stats();
  }

 private:
  const Graph& g_;
  std::unique_ptr<MatchContext> ctx_;  // declared before engine_ (init order)
  std::unique_ptr<MatchEngine> engine_;
  std::vector<NodeId> answers_;
  std::vector<NodeId> missing_;  // filtered V_C
  NodeSet protected_set_;        // answers ∪ V_C (exempt from the guard)
  size_t guard_m_;
};

}  // namespace whyq

#endif  // WHYQ_REWRITE_EVALUATION_H_

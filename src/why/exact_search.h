#ifndef WHYQ_WHY_EXACT_SEARCH_H_
#define WHYQ_WHY_EXACT_SEARCH_H_

#include <algorithm>
#include <concepts>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/timer.h"
#include "matcher/match_context.h"
#include "query/query.h"
#include "rewrite/evaluation.h"
#include "rewrite/operators.h"
#include "why/mbs.h"
#include "why/question.h"

namespace whyq {

/// What the rewrite drivers call on an evaluator (P0782-style: exactly
/// the members used, nothing more). Evaluators are single-thread state, so
/// the greedy driver gives every executor slot its own instance.
///  - Evaluate(q): exact closeness and guard of a rewrite Q ⊕ O.
///  - Guard(q): the guard sweep alone, exact up to m + 1; the exact
///    search's admissibility predicate is Guard(q) <= m.
///  - Evaluate(q, guard): Evaluate(q) given guard == Guard(q); evaluators
///    whose closeness sweep is separate from the guard sweep skip the
///    latter.
///  - ContextStats: candidate-memo counters, folded into RewriteAnswer.
///  - context: the memo the path-index probes share (null when none).
template <typename E>
concept RewriteEvaluator = requires(const E& e, const Query& rewritten,
                                    size_t guard) {
  { e.Evaluate(rewritten) } -> std::same_as<EvalResult>;
  { e.Evaluate(rewritten, guard) } -> std::same_as<EvalResult>;
  { e.Guard(rewritten) } -> std::same_as<size_t>;
  { e.ContextStats() } -> std::same_as<MatchContext::Stats>;
  { e.context() } -> std::same_as<MatchContext*>;
};

static_assert(RewriteEvaluator<WhyEvaluator>);
static_assert(RewriteEvaluator<WhyNotEvaluator>);

namespace internal {

/// Outcome of the exact MBS search shared by the exact Why, Why-not and
/// multi-output algorithms: the best (closeness, cost)-lexicographic
/// verified set plus the bookkeeping the callers surface in RewriteAnswer
/// (stats.emitted is RewriteAnswer::sets_enumerated, stats.guard_checks
/// its guard_checks).
struct ExactSearchOutcome {
  double best_cl = -1.0;
  double best_cost = std::numeric_limits<double>::infinity();
  OperatorSet best_ops;
  EvalResult best_eval;
  size_t verified = 0;
  bool timed_out = false;
  MbsStats stats;
};

/// The exact search core (Fig. 3 / Section V-A): enumerate maximal bounded
/// sets over the usable picky operators, verify each with the evaluator,
/// keep the lexicographic best (higher closeness, then lower cost, then
/// earlier emission), early-terminate at closeness 1, and honor
/// deadline/time-limit truncation. A set's cost is the sum of its `costs`
/// entries in set order, the same additions CostModel::Cost(OperatorSet)
/// makes.
///
/// One serial DFS: every guard sweep runs once. The admissibility
/// predicate keeps the guard count of each set it admits, keyed by the
/// sorted index set, for the length of the search. Every non-empty emitted
/// set was admitted, so its verification reuses that count and runs only
/// the closeness sweep. cfg.threads does not apply here.
template <RewriteEvaluator Evaluator>
ExactSearchOutcome ExactMbsSearch(const Query& q,
                                  const std::vector<EditOp>& usable,
                                  const std::vector<double>& costs,
                                  const AnswerConfig& cfg,
                                  const Evaluator& eval) {
  constexpr double kEps = 1e-9;
  ExactSearchOutcome out;
  Timer exact_timer;
  auto past_deadline = [&]() {
    return CancelRequested(cfg.cancel) ||
           (cfg.exact_time_limit_ms > 0 &&
            exact_timer.ElapsedMillis() > cfg.exact_time_limit_ms);
  };

  std::unordered_map<std::vector<size_t>, size_t, IndexSetHash> admitted;
  std::vector<size_t> key;  // scratch: a sorted index set
  auto sorted_key = [&](const std::vector<size_t>& set) {
    key.assign(set.begin(), set.end());
    std::sort(key.begin(), key.end());
  };
  AdmitFn admit = [&](const std::vector<size_t>& cur, size_t next) {
    OperatorSet ops;
    ops.reserve(cur.size() + 1);
    for (size_t i : cur) ops.push_back(usable[i]);
    ops.push_back(usable[next]);
    const size_t guard = eval.Guard(ApplyOperators(q, ops));
    if (guard > cfg.guard_m) return false;
    sorted_key(cur);
    key.insert(std::upper_bound(key.begin(), key.end(), next), next);
    admitted.emplace(key, guard);
    return true;
  };

  out.stats = EnumerateMaximalBoundedSets(
      costs, BuildConflicts(usable), cfg.budget, cfg.max_mbs,
      [&](const std::vector<size_t>& set) {
        OperatorSet ops;
        ops.reserve(set.size());
        for (size_t j : set) ops.push_back(usable[j]);
        const Query rewritten = ApplyOperators(q, ops);
        // Only the empty set (nothing fits the budget) was never admitted.
        sorted_key(set);
        auto it = admitted.find(key);
        const EvalResult r = it == admitted.end()
                                 ? eval.Evaluate(rewritten)
                                 : eval.Evaluate(rewritten, it->second);
        ++out.verified;
        if (r.guard_ok) {
          double c = 0.0;
          for (size_t j : set) c += costs[j];
          if (r.closeness > out.best_cl + kEps ||
              (r.closeness > out.best_cl - kEps && c < out.best_cost)) {
            out.best_cl = r.closeness;
            out.best_cost = c;
            out.best_ops = std::move(ops);
            out.best_eval = r;
          }
        }
        if (past_deadline()) {
          out.timed_out = true;
          return false;
        }
        return out.best_cl < 1.0 - kEps;  // early termination at closeness 1
      },
      admit,
      [&]() {
        if (past_deadline()) {
          out.timed_out = true;
          return true;
        }
        return false;
      });
  return out;
}

}  // namespace internal
}  // namespace whyq

#endif  // WHYQ_WHY_EXACT_SEARCH_H_

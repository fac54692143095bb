#ifndef PERFBENCH_TOOL_ENUMERATION_H_
#define PERFBENCH_TOOL_ENUMERATION_H_

// The exact search's enumeration, replayed serially from its public parts:
// the picky set, BuildConflicts, and EnumerateMaximalBoundedSets with
// Evaluator::GuardOk as the admissibility predicate and Evaluate on every
// emitted set, stopping early at closeness 1 — the threads=1 path of
// ExactWhy / ExactWhyNot. The traced replay times it call by call; the
// exact_guard admission runs it untraced under a matcher-work bound.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "tool/trace.h"
#include "whyq.h"

namespace perfbench {

/// What one enumeration replay observed.
struct EnumerationReplay {
  size_t emitted = 0;
  size_t verified = 0;
  double best_cl = -1.0;
  size_t guard_checks = 0;
  size_t guard_repeats = 0;
  size_t guard_admits = 0;
  double guard_ms = 0.0;
  double evaluate_ms = 0.0;
  double enumerate_ms = 0.0;  // the whole EnumerateMaximalBoundedSets span
  size_t picky_ops = 0;
  double picky_ms = 0.0;
  /// Neither cfg.max_mbs nor `max_pruned` stopped the enumeration.
  bool finished = false;
};

/// Replays the enumeration for `cfg` (cfg.max_mbs caps the emitted sets).
/// The guard checks stop the enumeration once the evaluator's context has
/// skipped more than `max_pruned` candidates: max_mbs bounds emitted sets,
/// not the matcher work of the guard checks. `t` may be null (untraced).
template <typename Evaluator, typename GenPicky>
EnumerationReplay ReplayEnumeration(
    Tracer* t, uint32_t req, const whyq::Graph& g, const whyq::Query& q,
    const whyq::AnswerConfig& cfg, const Evaluator& eval,
    const char* picky_name, GenPicky&& gen_picky,
    uint64_t max_pruned = std::numeric_limits<uint64_t>::max()) {
  constexpr double kEps = 1e-9;
  EnumerationReplay r;
  std::vector<whyq::EditOp> picky;
  r.picky_ms = Timed(t, picky_name, req, [&] { picky = gen_picky(); });
  whyq::CostModel cost(q, g, cfg.weighted_cost);
  std::vector<whyq::EditOp> usable;
  std::vector<double> costs;
  for (whyq::EditOp& op : picky) {
    double c = cost.Cost(op);
    if (c <= cfg.budget + kEps) {
      usable.push_back(std::move(op));
      costs.push_back(c);
    }
  }
  r.picky_ops = usable.size();

  bool over = false;
  std::set<std::vector<size_t>> seen;
  whyq::AdmitFn admit = [&](const std::vector<size_t>& cur, size_t next) {
    over = over || eval.ContextStats().pruned > max_pruned;
    if (over) return false;
    std::vector<size_t> key = cur;
    key.push_back(next);
    std::sort(key.begin(), key.end());
    ++r.guard_checks;
    if (!seen.insert(key).second) ++r.guard_repeats;
    bool ok = false;
    r.guard_ms += Timed(t, "rewrite.GuardOk", req, [&] {
      whyq::OperatorSet ops;
      ops.reserve(key.size());
      for (size_t i : cur) ops.push_back(usable[i]);
      ops.push_back(usable[next]);
      ok = eval.GuardOk(whyq::ApplyOperators(q, ops));
    });
    if (ok) ++r.guard_admits;
    return ok;
  };
  auto visit = [&](const std::vector<size_t>& set) {
    ++r.verified;
    whyq::EvalResult res;
    r.evaluate_ms += Timed(t, "rewrite.Evaluate", req, [&] {
      whyq::OperatorSet ops;
      ops.reserve(set.size());
      for (size_t i : set) ops.push_back(usable[i]);
      res = eval.Evaluate(whyq::ApplyOperators(q, ops));
    });
    if (res.guard_ok && res.closeness > r.best_cl) r.best_cl = res.closeness;
    return r.best_cl < 1.0 - kEps;  // the search's early termination
  };
  r.enumerate_ms = Timed(t, "why.EnumerateMaximalBoundedSets", req, [&] {
    whyq::MbsStats st = whyq::EnumerateMaximalBoundedSets(
        costs, whyq::BuildConflicts(usable), cfg.budget, cfg.max_mbs, visit,
        admit, [&] { return over; });
    r.emitted = st.emitted;
    r.finished = !st.truncated && !over;
  });
  return r;
}

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_ENUMERATION_H_

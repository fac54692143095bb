#ifndef WHYQ_WHY_DRIVERS_H_
#define WHYQ_WHY_DRIVERS_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "graph/neighborhood.h"
#include "matcher/match_context.h"
#include "matcher/path_index.h"
#include "query/query.h"
#include "rewrite/cost_model.h"
#include "rewrite/evaluation.h"
#include "rewrite/operators.h"
#include "why/est_match.h"
#include "why/exact_search.h"
#include "why/mbs.h"
#include "why/question.h"
#include "why/why_algorithms.h"

// One rewrite driver per strategy, shared by Why and Why-not: the paper
// treats both as one problem (maximize cl(O) under budget B and guard m,
// searched over maximal bounded sets or by a budgeted greedy). A direction
// type `Dir` supplies only what differs between them:
//
//   Question, Evaluator                  the question and its evaluator
//   static Picky(g, q, answers, eval, cfg)
//                                        the picky generator
//   Effect(ev, single, exact)            a candidate's effect set: the
//                                        answers it excludes (Why) or the
//                                        missing entities it admits
//   Estimate(rewritten, effects, ctx)    EstimateWhy / EstimateWhyNot
//   targets(), static SoftCredit(pass)   the soft score: 1 - PassFraction
//                                        over V_N, or PassFraction over V_C
//   BestSingle(cands, &cl)               Why's single-operator answer O_1
//                                        (-1 when the direction has none)
//
// A Dir value is an aggregate of {g, pidx, eval, cfg} references built by
// the greedy driver; the exact driver only calls the static Picky. The
// drivers are instantiated in why_algorithms.cc and whynot_algorithms.cc.

namespace whyq {
namespace internal {

inline constexpr double kDriverEps = 1e-9;

// Folds accumulated candidate-memo counters into the answer's ctx_* fields.
inline void FillContextStats(RewriteAnswer& out,
                             const MatchContext::Stats& s) {
  out.ctx_hits = s.hits;
  out.ctx_misses = s.misses;
  out.ctx_delta_builds = s.delta_builds;
  out.ctx_pruned = s.pruned;
}

// Exact post-processing: greedily drop operators while the exact closeness
// does not decrease and the guard stays valid ("minimal MBS"). Every
// dropped-operator trial is a full exact evaluation, so the loop polls
// `cancel` per trial: an expiring deadline keeps the current (valid, just
// not yet minimal) rewrite.
template <RewriteEvaluator Evaluator>
void MinimizeCost(const Query& q, const Evaluator& eval, const CostModel& cost,
                  const CancelToken* cancel, OperatorSet& ops,
                  EvalResult& result, Query& rewritten) {
  bool changed = true;
  while (changed && ops.size() > 1 && !CancelRequested(cancel)) {
    changed = false;
    // Try dropping the most expensive operator first.
    std::vector<size_t> order(ops.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return cost.Cost(ops[a]) > cost.Cost(ops[b]);
    });
    for (size_t i : order) {
      if (CancelRequested(cancel)) return;
      OperatorSet trial = ops;
      trial.erase(trial.begin() + static_cast<long>(i));
      Query trial_q = ApplyOperators(q, trial);
      EvalResult trial_eval = eval.Evaluate(trial_q);
      if (trial_eval.guard_ok &&
          trial_eval.closeness >= result.closeness - kDriverEps) {
        ops = std::move(trial);
        rewritten = std::move(trial_q);
        result = trial_eval;
        changed = true;
        break;
      }
    }
  }
}

// A budget-screened picky operator as the greedy driver scores it.
struct GreedyCandidate {
  EditOp op;
  double cost = 0.0;
  std::vector<NodeId> effect;  // Dir::Effect of the operator alone
};

// The greedy driver (Fig. 4 / Section V-B): budgeted selection by marginal
// gain per unit cost. With `exact` the gains use the evaluator (IsoWhy,
// IsoWhyNot); otherwise Dir::Estimate (ApproxWhy, FastWhyNot).
template <typename Dir>
RewriteAnswer RunGreedy(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const typename Dir::Question& w,
                        const AnswerConfig& cfg, bool exact) {
  using Evaluator = typename Dir::Evaluator;
  constexpr double kEps = kDriverEps;
  RewriteAnswer out;
  out.exhaustive = true;  // greedy: nothing to truncate (unless cancelled)
  out.rewritten = q;
  Evaluator eval(g, answers, w, cfg.guard_m, cfg.semantics, cfg.cancel);
  CostModel cost(q, g, cfg.weighted_cost);
  std::optional<PathIndex> own_pidx;
  if (cfg.path_index == nullptr) own_pidx.emplace(q, cfg.path_index_paths);
  const PathIndex& pidx = cfg.path_index ? *cfg.path_index : *own_pidx;
  const Dir dir{g, pidx, eval, cfg};

  // Intra-question parallelism: evaluators own a stateful MatchEngine, so
  // each concurrent executor slot gets its own clone (slot 0 reuses `eval`).
  const size_t width = ResolveParallelWidth(cfg.threads);
  std::vector<std::unique_ptr<Evaluator>> slot_evals;  // slots 1..width-1
  for (size_t s = 1; s < width; ++s) {
    slot_evals.push_back(std::make_unique<Evaluator>(
        g, answers, w, cfg.guard_m, cfg.semantics, cfg.cancel));
  }
  auto eval_at = [&](size_t slot) -> const Evaluator& {
    return slot == 0 ? eval : *slot_evals[slot - 1];
  };
  // Sum of every evaluator's candidate-memo counters, folded into the
  // answer at each exit.
  auto finish_ctx = [&]() {
    MatchContext::Stats c = eval.ContextStats();
    for (const auto& se : slot_evals) c.Add(se->ContextStats());
    FillContextStats(out, c);
  };

  // Budget screen (cheap, serial) fixes the candidate indexing; the
  // per-candidate effect sweeps — the expensive part of prep — then run on
  // the pool, one evaluator per executor slot.
  std::vector<GreedyCandidate> cands;
  for (EditOp& op : Dir::Picky(g, q, answers, eval, cfg)) {
    double c = cost.Cost(op);
    if (c > cfg.budget + kEps) continue;
    GreedyCandidate cand;
    cand.op = std::move(op);
    cand.cost = c;
    cands.push_back(std::move(cand));
  }
  std::vector<uint8_t> prepped(cands.size(), 0);
  ThreadPool::Shared().ParallelFor(
      cands.size(), width, [&](size_t i, size_t slot) {
        if (CancelRequested(cfg.cancel)) return;  // prefix-kept below
        GreedyCandidate& cand = cands[i];
        cand.effect =
            dir.Effect(eval_at(slot), ApplyOperators(q, {cand.op}), exact);
        prepped[i] = 1;
      });
  // Cancellation mid-prep: keep the longest fully-scored prefix — exactly
  // the candidates a serial run would have kept before breaking out.
  size_t scored_prefix = 0;
  while (scored_prefix < cands.size() && prepped[scored_prefix]) {
    ++scored_prefix;
  }
  if (scored_prefix < cands.size()) {
    out.exhaustive = false;
    cands.resize(scored_prefix);
  }
  out.picky_count = cands.size();

  // Conflict adjacency: operators editing the same literal/edge cannot
  // be co-selected.
  std::vector<EditOp> cand_ops;
  cand_ops.reserve(cands.size());
  for (const auto& c : cands) cand_ops.push_back(c.op);
  std::vector<std::vector<size_t>> conflicts = BuildConflicts(cand_ops);

  // O_1: the best single operator, verified exactly (Why only).
  double cl_o1 = 0.0;
  const long best_single = dir.BestSingle(cands, &cl_o1);

  // O_2: greedy selection by (estimated) marginal gain per unit cost.
  std::vector<size_t> selected;
  NodeSet effect_union(std::vector<NodeId>{}, g.node_count());
  double spent = 0.0;
  double current_cl = 0.0;
  std::vector<uint8_t> in_pool(cands.size(), 1);
  size_t pool = cands.size();

  auto estimate = [&](const NodeSet& effects, const Query& rw,
                      size_t slot) -> CloseEstimate {
    if (exact) {
      EvalResult r = eval_at(slot).Evaluate(rw);
      CloseEstimate e;
      e.closeness = r.closeness;
      e.guard = r.guard;
      e.guard_ok = r.guard_ok;
      return e;
    }
    return dir.Estimate(rw, effects, eval_at(slot).context());
  };

  // Soft (partial-credit) progress: a single operator often moves a target
  // entity toward the goal without reaching it (an entity needs several
  // constraints changed at once); the soft score breaks zero-gain ties so
  // such combinations can bootstrap (see DESIGN.md). Runs on the scoring
  // slots too, so the caller passes its slot's context.
  auto soft_score = [&](const NodeSet& effects, const Query& rw,
                        MatchContext* ctx) {
    const std::vector<NodeId>& targets = dir.targets();
    double s = 0.0;
    for (NodeId v : targets) {
      s += effects.Contains(v)
               ? 1.0
               : Dir::SoftCredit(pidx.PassFraction(g, rw, v, ctx));
    }
    return targets.empty() ? 0.0
                           : s / static_cast<double>(targets.size());
  };
  double current_soft = soft_score(effect_union, q, eval.context());

  // The rewrite of the selected operators plus candidate `extra`.
  auto with = [&](size_t extra) {
    OperatorSet ops;
    for (size_t j : selected) ops.push_back(cands[j].op);
    ops.push_back(cands[extra].op);
    return ApplyOperators(q, ops);
  };

  while (pool > 0 && current_cl < 1.0 - kEps) {
    if (CancelRequested(cfg.cancel)) {
      out.exhaustive = false;
      break;  // keep the greedy prefix selected so far
    }
    ++out.sets_verified;
    // Score every pool candidate (parallel across executor slots), then
    // pick the winner serially in ascending candidate order — the same
    // argmax and tie-break (ratio must beat the incumbent by kEps) as the
    // serial scan, so parallel rounds select identical operators.
    std::vector<size_t> pool_idx;
    pool_idx.reserve(pool);
    for (size_t i = 0; i < cands.size(); ++i) {
      if (in_pool[i]) pool_idx.push_back(i);
    }
    struct Score {
      double ratio = -1.0;
      double gain = 0.0;
      double soft_gain = 0.0;
    };
    std::vector<Score> scores(pool_idx.size());
    ThreadPool::Shared().ParallelFor(
        pool_idx.size(), width, [&](size_t k, size_t slot) {
          size_t i = pool_idx[k];
          NodeSet effects = effect_union;
          for (NodeId v : cands[i].effect) effects.Insert(v);
          Query rw = with(i);
          CloseEstimate est = estimate(effects, rw, slot);
          Score& s = scores[k];
          s.gain = est.closeness - current_cl;
          // Hard gains dominate; soft gains break zero-gain ties.
          s.soft_gain =
              soft_score(effects, rw, eval_at(slot).context()) - current_soft;
          s.ratio = (s.gain + 1e-3 * s.soft_gain) / cands[i].cost;
        });
    long best = -1;
    double best_ratio = -1.0;
    double best_gain = 0.0;
    double best_soft_gain = 0.0;
    for (size_t k = 0; k < pool_idx.size(); ++k) {
      if (scores[k].ratio > best_ratio + kEps) {
        best_ratio = scores[k].ratio;
        best = static_cast<long>(pool_idx[k]);
        best_gain = scores[k].gain;
        best_soft_gain = scores[k].soft_gain;
      }
    }
    if (best < 0) break;
    size_t b = static_cast<size_t>(best);
    in_pool[b] = 0;
    --pool;
    if (best_gain <= kEps && best_soft_gain <= kEps) {
      continue;  // not picky w.r.t. the current set
    }
    if (spent + cands[b].cost > cfg.budget + kEps) continue;
    // Guard screening of the extended set.
    NodeSet effects = effect_union;
    for (NodeId v : cands[b].effect) effects.Insert(v);
    Query rw = with(b);
    CloseEstimate est = estimate(effects, rw, 0);
    if (!est.guard_ok) continue;
    for (size_t j : conflicts[b]) {
      if (in_pool[j]) {
        in_pool[j] = 0;
        --pool;
      }
    }
    selected.push_back(b);
    effect_union = std::move(effects);
    spent += cands[b].cost;
    current_cl = est.closeness;
    current_soft = soft_score(effect_union, rw, eval.context());
  }

  // Drop bootstrap operators that never paid off (estimated closeness
  // unchanged without them).
  bool shrunk = true;
  while (shrunk && selected.size() > 1 && !CancelRequested(cfg.cancel)) {
    shrunk = false;
    for (size_t i = 0; i < selected.size(); ++i) {
      if (CancelRequested(cfg.cancel)) break;
      std::vector<size_t> trial = selected;
      trial.erase(trial.begin() + static_cast<long>(i));
      NodeSet effects(std::vector<NodeId>{}, g.node_count());
      OperatorSet trial_ops;
      for (size_t j : trial) {
        trial_ops.push_back(cands[j].op);
        for (NodeId v : cands[j].effect) effects.Insert(v);
      }
      Query rw = ApplyOperators(q, trial_ops);
      CloseEstimate est = estimate(effects, rw, 0);
      if (est.guard_ok && est.closeness >= current_cl - kEps) {
        selected = std::move(trial);
        current_cl = est.closeness;
        shrunk = true;
        break;
      }
    }
  }

  // Return the better of O_1 and O_2 (by the optimizer's own view).
  if (best_single >= 0 && cl_o1 > current_cl + kEps) {
    selected.assign(1, static_cast<size_t>(best_single));
    current_cl = cl_o1;
  }
  if (selected.empty()) {
    out.eval = eval.Evaluate(q);
    finish_ctx();
    return out;
  }
  for (size_t j : selected) out.ops.push_back(cands[j].op);
  out.rewritten = ApplyOperators(q, out.ops);
  out.cost = cost.Cost(out.ops);
  out.eval = eval.Evaluate(out.rewritten);
  out.estimated_closeness = current_cl;
  out.found = out.eval.guard_ok && out.eval.closeness > 0.0;
  finish_ctx();
  return out;
}

// The exact driver (Fig. 3 / Section V-A): enumerates maximal bounded sets
// over the budget-screened picky set (guard-admissible, possibly parallel;
// see why/exact_search.h), falls back to the direction's estimating greedy
// when enumeration was truncated, then minimizes the winner's cost
// (cfg.minimize_cost).
template <typename Dir>
RewriteAnswer RunExact(const Graph& g, const Query& q,
                       const std::vector<NodeId>& answers,
                       const typename Dir::Question& w,
                       const AnswerConfig& cfg) {
  using Evaluator = typename Dir::Evaluator;
  constexpr double kEps = kDriverEps;
  RewriteAnswer out;
  out.rewritten = q;
  Evaluator eval(g, answers, w, cfg.guard_m, cfg.semantics, cfg.cancel);
  CostModel cost(q, g, cfg.weighted_cost);

  // Operators that alone exceed the budget can never be in a bounded set.
  std::vector<EditOp> usable;
  std::vector<double> costs;
  for (EditOp& op : Dir::Picky(g, q, answers, eval, cfg)) {
    double c = cost.Cost(op);
    if (c <= cfg.budget + kEps) {
      usable.push_back(std::move(op));
      costs.push_back(c);
    }
  }
  out.picky_count = usable.size();

  // Admissibility: the guard is monotone under pure refinement (and pure
  // relaxation), so enumerating the maximal elements of {cost <= B,
  // conflict-free, guard <= m} is exact.
  ExactSearchOutcome search = ExactMbsSearch<Evaluator>(
      q, usable, costs, cfg, eval, [&] {
        return std::make_unique<Evaluator>(g, answers, w, cfg.guard_m,
                                           cfg.semantics, cfg.cancel);
      });
  double best_cl = search.best_cl;
  double best_cost = search.best_cost;
  OperatorSet best_ops = std::move(search.best_ops);
  EvalResult best_eval = search.best_eval;
  out.sets_enumerated = search.stats.emitted;
  out.sets_verified = search.verified;
  out.exhaustive = !search.stats.truncated && !search.timed_out;
  MatchContext::Stats ctx_stats = search.ctx;  // slot evaluators' share

  // Fallback when the capped enumeration missed a solution the greedy can
  // still reach: the greedy set is a valid bounded set, so adopting it
  // keeps the exact answer at least as close as the estimating greedy's.
  // Skipped when the request itself is cancelled/past deadline — return
  // best-so-far now.
  if (!out.exhaustive && !CancelRequested(cfg.cancel)) {
    RewriteAnswer seed = RunGreedy<Dir>(g, q, answers, w, cfg,
                                        /*exact=*/false);
    ctx_stats.hits += seed.ctx_hits;  // the seeding work happened regardless
    ctx_stats.misses += seed.ctx_misses;
    ctx_stats.delta_builds += seed.ctx_delta_builds;
    ctx_stats.pruned += seed.ctx_pruned;
    if (seed.found && seed.eval.guard_ok &&
        seed.cost <= cfg.budget + kEps &&
        (seed.eval.closeness > best_cl + kEps ||
         (seed.eval.closeness > best_cl - kEps && seed.cost < best_cost))) {
      best_cl = seed.eval.closeness;
      best_cost = seed.cost;
      best_ops = std::move(seed.ops);
      best_eval = seed.eval;
    }
  }

  if (best_cl < 0.0 || best_ops.empty()) {
    // No improving set: answer with the empty rewrite (Q itself).
    out.eval = eval.Evaluate(q);
  } else {
    out.found = best_eval.closeness > 0.0;
    out.ops = std::move(best_ops);
    out.rewritten = ApplyOperators(q, out.ops);
    out.eval = best_eval;
    if (cfg.minimize_cost && !CancelRequested(cfg.cancel)) {
      MinimizeCost(q, eval, cost, cfg.cancel, out.ops, out.eval,
                   out.rewritten);
    }
    out.cost = cost.Cost(out.ops);
    out.estimated_closeness = out.eval.closeness;
  }
  ctx_stats.Add(eval.ContextStats());
  FillContextStats(out, ctx_stats);
  return out;
}

}  // namespace internal
}  // namespace whyq

#endif  // WHYQ_WHY_DRIVERS_H_

#include "why/extensions.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "matcher/match_engine.h"
#include "matcher/path_index.h"
#include "rewrite/cost_model.h"
#include "why/drivers.h"
#include "why/exact_search.h"
#include "why/mbs.h"
#include "why/picky.h"
#include "why/whynot_algorithms.h"

namespace whyq {

namespace {

constexpr double kEps = 1e-9;

// Sample up to `cap` nodes carrying the output node's label — the stand-in
// for V_C when a Why-empty question names no concrete missing entities.
std::vector<NodeId> LabelSample(const Graph& g, const Query& q, size_t cap) {
  NodeSpan all = g.NodesWithLabel(q.node(q.output()).label);
  std::vector<NodeId> out;
  size_t stride = std::max<size_t>(1, all.size() / std::max<size_t>(cap, 1));
  for (size_t i = 0; i < all.size() && out.size() < cap; i += stride) {
    out.push_back(all[i]);
  }
  return out;
}

// The multi-output Why evaluator: one WhyEvaluator per output node, each
// judging the rewrite with that node as its output. Closeness pools the
// excluded unexpected entities over all outputs (over the total
// unexpected); the guard pools the collateral exclusions the same way.
class PooledWhyEvaluator {
 public:
  PooledWhyEvaluator(
      const Graph& g, const Query& q,
      const std::vector<std::vector<NodeId>>& answers_per_output,
      const std::vector<std::vector<NodeId>>& unexpected_per_output,
      const AnswerConfig& cfg)
      : outputs_(q.outputs()), guard_m_(cfg.guard_m), cancel_(cfg.cancel) {
    evals_.reserve(outputs_.size());
    for (size_t i = 0; i < outputs_.size(); ++i) {
      evals_.emplace_back(g, answers_per_output[i],
                          WhyQuestion{unexpected_per_output[i]}, cfg.guard_m,
                          cfg.semantics, cfg.cancel);
      total_unexpected_ += evals_.back().unexpected().size();
    }
  }

  // Calls visit(output index, v, unexpected?) for every answer of each
  // output that `rewritten` excludes: one exact sweep per output, stopping
  // between outputs once the request is cancelled.
  template <typename Visit>
  void ForEachAffected(const Query& rewritten, Visit&& visit) const {
    for (size_t i = 0; i < evals_.size() && !CancelRequested(cancel_); ++i) {
      Query projected = rewritten;
      projected.SetOutput(outputs_[i]);
      const std::vector<NodeId> affected =
          evals_[i].AffectedAnswers(projected);
      for (NodeId v : affected) visit(i, v, evals_[i].IsUnexpected(v));
    }
  }

  EvalResult Evaluate(const Query& rewritten) const {
    size_t excluded = 0;
    size_t guard = 0;
    ForEachAffected(rewritten, [&](size_t, NodeId, bool unexpected) {
      ++(unexpected ? excluded : guard);
    });
    EvalResult r;
    r.closeness = static_cast<double>(excluded) /
                  static_cast<double>(total_unexpected_);
    r.guard = guard;
    r.guard_ok = guard <= guard_m_;
    return r;
  }
  // One sweep per output settles both the guard and the closeness, so
  // there is no separate guard sweep for Evaluate(q, guard) to skip.
  size_t Guard(const Query& rewritten) const {
    return Evaluate(rewritten).guard;
  }
  EvalResult Evaluate(const Query& rewritten, size_t /*guard*/) const {
    return Evaluate(rewritten);
  }
  MatchContext::Stats ContextStats() const {
    MatchContext::Stats s;
    for (const WhyEvaluator& e : evals_) s.Add(e.ContextStats());
    return s;
  }
  // Every output keeps its own memo; none is shared across outputs.
  MatchContext* context() const { return nullptr; }

  const WhyEvaluator& evaluator(size_t i) const { return evals_[i]; }
  size_t total_unexpected() const { return total_unexpected_; }

 private:
  std::vector<QNodeId> outputs_;
  std::vector<WhyEvaluator> evals_;
  size_t total_unexpected_ = 0;
  size_t guard_m_;
  const CancelToken* cancel_;
};

static_assert(RewriteEvaluator<PooledWhyEvaluator>);

// The multi-output picky set: the union of the per-output generations,
// deduplicated and budget-screened. An operator's cost is taken w.r.t. its
// *nearest* output (the max of the per-output costs, since centrality
// grows as distance shrinks).
void MultiOutputPicky(
    const Graph& g, const Query& q,
    const std::vector<std::vector<NodeId>>& answers_per_output,
    const PooledWhyEvaluator& eval, const AnswerConfig& cfg,
    std::vector<EditOp>* usable, std::vector<double>* costs) {
  std::vector<CostModel> cost_models;
  std::vector<EditOp> picky;
  for (size_t i = 0; i < q.outputs().size(); ++i) {
    Query projected = q;
    projected.SetOutput(q.outputs()[i]);
    cost_models.emplace_back(projected, g, cfg.weighted_cost);
    for (EditOp& op : GenPickyWhy(g, projected, answers_per_output[i],
                                  eval.evaluator(i).unexpected(), cfg)) {
      picky.push_back(std::move(op));
    }
  }
  for (EditOp& op : picky) {
    if (std::find(usable->begin(), usable->end(), op) != usable->end()) {
      continue;
    }
    double c = 0.0;
    for (const CostModel& m : cost_models) c = std::max(c, m.Cost(op));
    if (c <= cfg.budget + kEps) {
      usable->push_back(std::move(op));
      costs->push_back(c);
    }
  }
}

// One row per AlgoChoice (indexed by its value): its own name, then the
// paper's name and the entry point of the algorithm it selects in each
// direction.
struct AlgorithmRow {
  const char* choice_name;
  const char* why_name;
  RewriteAnswer (*why)(const Graph&, const Query&, const std::vector<NodeId>&,
                       const WhyQuestion&, const AnswerConfig&);
  const char* whynot_name;
  RewriteAnswer (*whynot)(const Graph&, const Query&,
                          const std::vector<NodeId>&, const WhyNotQuestion&,
                          const AnswerConfig&);
};

const AlgorithmRow& RowOf(AlgoChoice a) {
  static const AlgorithmRow kRows[] = {
      {"auto", "ApproxWhy", ApproxWhy, "FastWhyNot", FastWhyNot},
      {"exact", "ExactWhy", ExactWhy, "ExactWhyNot", ExactWhyNot},
      {"iso", "IsoWhy", IsoWhy, "IsoWhyNot", IsoWhyNot},
  };
  return kRows[static_cast<size_t>(a)];
}

}  // namespace

const char* AlgoChoiceName(AlgoChoice a) { return RowOf(a).choice_name; }

std::optional<AlgoChoice> ParseAlgoChoice(const std::string& name) {
  if (name == "approx" || name == "fast") return AlgoChoice::kAuto;
  for (AlgoChoice a :
       {AlgoChoice::kAuto, AlgoChoice::kExact, AlgoChoice::kIso}) {
    if (name == AlgoChoiceName(a)) return a;
  }
  return std::nullopt;
}

const char* AlgorithmName(Direction dir, AlgoChoice algo) {
  const AlgorithmRow& row = RowOf(algo);
  return dir == Direction::kWhy ? row.why_name : row.whynot_name;
}

RewriteAnswer AnswerWhy(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const WhyQuestion& w, AlgoChoice algo,
                        const AnswerConfig& cfg) {
  return RowOf(algo).why(g, q, answers, w, cfg);
}

RewriteAnswer AnswerWhyNot(const Graph& g, const Query& q,
                           const std::vector<NodeId>& answers,
                           const WhyNotQuestion& w, AlgoChoice algo,
                           const AnswerConfig& cfg) {
  return RowOf(algo).whynot(g, q, answers, w, cfg);
}

WhyEmptyResult AnswerWhyEmpty(const Graph& g, const Query& q,
                              const AnswerConfig& cfg) {
  WhyEmptyResult out;
  out.rewritten = q;
  // Emptiness is judged under the question's semantics.
  std::unique_ptr<MatchEngine> engine = MakeMatchEngine(g, cfg.semantics);
  engine->SetCancelToken(cfg.cancel);
  auto harvest = [&](const Query& rewritten) {
    std::vector<NodeId> all = engine->MatchOutput(rewritten);
    if (all.size() > 10) all.resize(10);
    out.sample_answers = std::move(all);
  };
  if (engine->HasAnyMatch(q)) {
    out.found = true;
    harvest(q);
    return out;
  }
  std::vector<NodeId> proxy = LabelSample(g, q, 64);
  if (proxy.empty()) return out;  // no node carries the label: hopeless

  CostModel cost(q, g, cfg.weighted_cost);
  std::vector<EditOp> picky = GenPickyWhyNot(g, q, proxy, cfg);
  std::vector<double> costs;
  std::vector<EditOp> usable;
  for (EditOp& op : picky) {
    double c = cost.Cost(op);
    if (c <= cfg.budget + kEps) {
      usable.push_back(std::move(op));
      costs.push_back(c);
    }
  }

  // Greedy relaxation steered by path-test pass fractions over the proxy
  // sample: each step picks the operator that moves some candidate closest
  // to a full match, per unit cost, until the answer becomes non-empty.
  std::optional<PathIndex> own_pidx;
  if (cfg.path_index == nullptr) own_pidx.emplace(q, cfg.path_index_paths);
  const PathIndex& pidx = cfg.path_index ? *cfg.path_index : *own_pidx;
  auto score = [&](const Query& rewritten) {
    double best = 0.0;
    double sum = 0.0;
    PathIndex::Probe probe = pidx.Bind(g, rewritten);
    for (NodeId v : proxy) {
      double fr = probe.PassFraction(v);
      best = std::max(best, fr);
      sum += fr;
    }
    // The max dominates (one full match suffices); the mean breaks ties.
    return best + 0.01 * sum / static_cast<double>(proxy.size());
  };
  OperatorSet selected;
  double spent = 0.0;
  double current_score = score(q);
  std::vector<uint8_t> in_pool(usable.size(), 1);
  size_t pool = usable.size();
  while (pool > 0 && !CancelRequested(cfg.cancel)) {
    long best = -1;
    double best_ratio = 0.0;
    for (size_t i = 0; i < usable.size(); ++i) {
      if (!in_pool[i]) continue;
      if (spent + costs[i] > cfg.budget + kEps) continue;
      bool conflicting = false;
      for (const EditOp& sel : selected) {
        conflicting |= OpsConflict(sel, usable[i]);
      }
      if (conflicting) continue;
      OperatorSet trial = selected;
      trial.push_back(usable[i]);
      double gain = score(ApplyOperators(q, trial)) - current_score;
      double ratio = gain / costs[i];
      if (ratio > best_ratio + kEps) {
        best_ratio = ratio;
        best = static_cast<long>(i);
      }
    }
    if (best < 0) break;
    size_t i = static_cast<size_t>(best);
    in_pool[i] = 0;
    --pool;
    selected.push_back(usable[i]);
    spent += costs[i];
    Query rewritten = ApplyOperators(q, selected);
    current_score = score(rewritten);
    if (engine->HasAnyMatch(rewritten)) {
      // Drop unnecessary operators, cheapest kept.
      bool changed = true;
      while (changed && selected.size() > 1) {
        changed = false;
        for (size_t j = 0; j < selected.size(); ++j) {
          OperatorSet trial = selected;
          trial.erase(trial.begin() + static_cast<long>(j));
          Query tq = ApplyOperators(q, trial);
          if (engine->HasAnyMatch(tq)) {
            selected = std::move(trial);
            changed = true;
            break;
          }
        }
      }
      out.found = true;
      out.ops = selected;
      out.rewritten = ApplyOperators(q, selected);
      out.cost = cost.Cost(selected);
      harvest(out.rewritten);
      return out;
    }
  }
  return out;
}

WhySoManyResult AnswerWhySoMany(const Graph& g, const Query& q,
                                const std::vector<NodeId>& answers,
                                size_t target_k, const AnswerConfig& cfg) {
  WhySoManyResult out;
  out.rewritten = q;
  out.before = answers.size();
  out.after = answers.size();
  if (answers.size() <= target_k) {
    out.found = true;
    return out;
  }
  // `after` is counted under the question's semantics, like `answers`.
  std::unique_ptr<MatchEngine> engine = MakeMatchEngine(g, cfg.semantics);
  engine->SetCancelToken(cfg.cancel);
  CostModel cost(q, g, cfg.weighted_cost);
  std::optional<PathIndex> own_pidx;
  if (cfg.path_index == nullptr) own_pidx.emplace(q, cfg.path_index_paths);
  const PathIndex& pidx = cfg.path_index ? *cfg.path_index : *own_pidx;

  // Every answer is "unexpected": generate the full refinement picky set.
  std::vector<EditOp> picky = GenPickyWhy(g, q, answers, answers, cfg);
  struct Cand {
    EditOp op;
    double cost;
  };
  std::vector<Cand> cands;
  for (EditOp& op : picky) {
    double c = cost.Cost(op);
    if (c <= cfg.budget + kEps) cands.push_back(Cand{std::move(op), c});
  }

  // Greedy: maximize estimated removals per unit cost (path screening).
  auto survivors = [&](const Query& rewritten) {
    size_t kept = 0;
    PathIndex::Probe probe = pidx.Bind(g, rewritten);
    for (NodeId v : answers) {
      if (probe.Passes(v)) ++kept;
    }
    return kept;
  };
  OperatorSet selected;
  double spent = 0.0;
  size_t current = answers.size();
  std::vector<uint8_t> in_pool(cands.size(), 1);
  size_t pool = cands.size();
  while (pool > 0 && current > target_k && !CancelRequested(cfg.cancel)) {
    long best = -1;
    double best_ratio = 0.0;
    size_t best_kept = current;
    for (size_t i = 0; i < cands.size(); ++i) {
      if (!in_pool[i]) continue;
      if (spent + cands[i].cost > cfg.budget + kEps) continue;
      bool conflicting = false;
      for (const EditOp& sel : selected) {
        conflicting |= OpsConflict(sel, cands[i].op);
      }
      if (conflicting) continue;
      OperatorSet trial = selected;
      trial.push_back(cands[i].op);
      size_t kept = survivors(ApplyOperators(q, trial));
      // "Why so many" wants fewer answers, not none: an operator that
      // empties the (estimated) answer is never a useful explanation.
      if (kept == 0) continue;
      double gain = static_cast<double>(current - kept);
      double ratio = gain / cands[i].cost;
      if (kept < current && ratio > best_ratio + kEps) {
        best_ratio = ratio;
        best = static_cast<long>(i);
        best_kept = kept;
      }
    }
    if (best < 0) break;
    size_t b = static_cast<size_t>(best);
    in_pool[b] = 0;
    --pool;
    selected.push_back(cands[b].op);
    spent += cands[b].cost;
    current = best_kept;
  }
  if (selected.empty()) return out;
  out.ops = selected;
  out.rewritten = ApplyOperators(q, selected);
  out.cost = cost.Cost(selected);
  out.after = engine->MatchOutput(out.rewritten).size();
  out.found = out.after <= target_k;
  return out;
}

RewriteAnswer ExactWhyMultiOutput(
    const Graph& g, const Query& q,
    const std::vector<std::vector<NodeId>>& answers_per_output,
    const std::vector<std::vector<NodeId>>& unexpected_per_output,
    const AnswerConfig& cfg) {
  RewriteAnswer out;
  out.rewritten = q;
  PooledWhyEvaluator eval(g, q, answers_per_output, unexpected_per_output,
                          cfg);
  if (eval.total_unexpected() == 0) return out;
  std::vector<EditOp> usable;
  std::vector<double> costs;
  MultiOutputPicky(g, q, answers_per_output, eval, cfg, &usable, &costs);
  out.picky_count = usable.size();

  internal::ExactSearchOutcome search =
      internal::ExactMbsSearch(q, usable, costs, cfg, eval);
  out.sets_enumerated = search.stats.emitted;
  out.sets_verified = search.verified;
  out.guard_checks = search.stats.guard_checks;
  out.exhaustive = !search.stats.truncated && !search.timed_out &&
                   !CancelRequested(cfg.cancel);
  if (search.best_cl <= 0.0 || search.best_ops.empty()) {
    out.eval = eval.Evaluate(q);
  } else {
    out.found = true;
    out.ops = std::move(search.best_ops);
    out.rewritten = ApplyOperators(q, out.ops);
    out.eval = search.best_eval;
    out.cost = search.best_cost;
    out.estimated_closeness = out.eval.closeness;
  }
  internal::FillContextStats(out, eval.ContextStats());
  return out;
}

RewriteAnswer ApproxWhyMultiOutput(
    const Graph& g, const Query& q,
    const std::vector<std::vector<NodeId>>& answers_per_output,
    const std::vector<std::vector<NodeId>>& unexpected_per_output,
    const AnswerConfig& cfg) {
  RewriteAnswer out;
  out.exhaustive = true;
  out.rewritten = q;
  PooledWhyEvaluator eval(g, q, answers_per_output, unexpected_per_output,
                          cfg);
  if (eval.total_unexpected() == 0) return out;
  std::vector<EditOp> usable;
  std::vector<double> costs;
  MultiOutputPicky(g, q, answers_per_output, eval, cfg, &usable, &costs);

  // Per-operator pooled effect sets, verified exactly once per output.
  struct Cand {
    EditOp op;
    double cost = 0.0;
    // (output index, node) pairs excluded by the single operator.
    std::vector<std::pair<size_t, NodeId>> excluded;
    size_t guard = 0;
  };
  std::vector<Cand> cands;
  for (size_t k = 0; k < usable.size(); ++k) {
    // Each candidate costs one exact verification per output; stop
    // (and select from what exists) once the deadline expires.
    if (CancelRequested(cfg.cancel)) {
      out.exhaustive = false;
      break;
    }
    Cand cand;
    cand.op = std::move(usable[k]);
    cand.cost = costs[k];
    eval.ForEachAffected(ApplyOperators(q, {cand.op}),
                         [&](size_t output, NodeId v, bool unexpected) {
                           if (unexpected) {
                             cand.excluded.emplace_back(output, v);
                           } else {
                             ++cand.guard;
                           }
                         });
    cands.push_back(std::move(cand));
  }
  out.picky_count = cands.size();

  std::vector<EditOp> cand_ops;
  cand_ops.reserve(cands.size());
  for (const Cand& c : cands) cand_ops.push_back(c.op);
  std::vector<std::vector<size_t>> conflicts = BuildConflicts(cand_ops);

  // Budgeted max-coverage greedy over the pooled exclusion sets.
  std::set<std::pair<size_t, NodeId>> covered;
  std::vector<size_t> selected;
  std::vector<uint8_t> in_pool(cands.size(), 1);
  size_t pool = cands.size();
  double spent = 0.0;
  size_t guard_used = 0;
  while (pool > 0) {
    ++out.sets_verified;
    long best = -1;
    double best_ratio = 0.0;
    for (size_t i = 0; i < cands.size(); ++i) {
      if (!in_pool[i]) continue;
      if (spent + cands[i].cost > cfg.budget + kEps) continue;
      if (guard_used + cands[i].guard > cfg.guard_m) continue;
      size_t gain = 0;
      for (const auto& key : cands[i].excluded) {
        gain += covered.count(key) ? 0 : 1;
      }
      double ratio = static_cast<double>(gain) / cands[i].cost;
      if (gain > 0 && ratio > best_ratio + kEps) {
        best_ratio = ratio;
        best = static_cast<long>(i);
      }
    }
    if (best < 0) break;
    size_t b = static_cast<size_t>(best);
    in_pool[b] = 0;
    --pool;
    for (size_t j : conflicts[b]) {
      if (in_pool[j]) {
        in_pool[j] = 0;
        --pool;
      }
    }
    selected.push_back(b);
    spent += cands[b].cost;
    guard_used += cands[b].guard;
    for (const auto& key : cands[b].excluded) covered.insert(key);
  }

  if (!selected.empty()) {
    for (size_t j : selected) out.ops.push_back(cands[j].op);
    out.rewritten = ApplyOperators(q, out.ops);
    out.cost = spent;
    // Exact pooled evaluation for reporting; a cancelled request reports
    // from the outputs verified so far.
    out.eval = eval.Evaluate(out.rewritten);
    if (CancelRequested(cfg.cancel)) out.exhaustive = false;
    out.estimated_closeness =
        static_cast<double>(covered.size()) /
        static_cast<double>(eval.total_unexpected());
    out.found = out.eval.guard_ok && out.eval.closeness > 0.0;
  }
  internal::FillContextStats(out, eval.ContextStats());
  return out;
}

}  // namespace whyq

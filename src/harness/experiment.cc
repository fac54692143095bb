#include "harness/experiment.h"

#include <algorithm>

#include "common/timer.h"

namespace whyq {

Workload MakeWorkload(const Graph& g, const WorkloadConfig& cfg) {
  Workload w;
  Rng rng(cfg.seed);
  size_t failures = 0;
  while (w.items.size() < cfg.items && failures < cfg.items * 8) {
    // Selective-label graphs may not support the requested literal density;
    // progressively loosen rather than return an empty workload.
    QueryGenConfig qcfg = cfg.query;
    if (failures >= cfg.items * 2) {
      qcfg.slack = std::max(qcfg.slack, 0.7);
    }
    if (failures >= cfg.items * 4) {
      qcfg.literals_per_node = std::min<size_t>(qcfg.literals_per_node, 1);
      qcfg.slack = std::max(qcfg.slack, 0.9);
    }
    if (failures >= cfg.items * 6) {
      qcfg.min_answers = std::min<size_t>(qcfg.min_answers, 4);
    }
    std::optional<GeneratedQuery> gq = GenerateQuery(g, qcfg, rng);
    if (!gq.has_value()) {
      ++failures;
      continue;
    }
    Workload::Item item;
    item.why = GenerateWhyQuestion(*gq, cfg.why_size, rng);
    std::optional<WhyNotQuestion> wn = GenerateWhyNotQuestion(
        g, *gq, cfg.whynot_size, cfg.constraint_literals, rng);
    if (item.why.unexpected.empty() || !wn.has_value() ||
        wn->missing.empty()) {
      ++failures;
      continue;
    }
    item.whynot = std::move(*wn);
    item.gq = std::move(*gq);
    w.items.push_back(std::move(item));
  }
  return w;
}

std::vector<RunResult> RunBatch(const Graph& g, const Workload& w,
                                Direction dir, AlgoChoice algo,
                                const AnswerConfig& cfg) {
  std::vector<RunResult> out;
  out.reserve(w.items.size());
  for (const Workload::Item& item : w.items) {
    const GeneratedQuery& gq = item.gq;
    Timer timer;
    RewriteAnswer ans =
        dir == Direction::kWhy
            ? AnswerWhy(g, gq.query, gq.answers, item.why, algo, cfg)
            : AnswerWhyNot(g, gq.query, gq.answers, item.whynot, algo, cfg);
    RunResult r;
    r.time_ms = timer.ElapsedMillis();
    r.closeness = ans.eval.closeness;
    r.cost = ans.cost;
    r.guard_ok = ans.eval.guard_ok;
    r.exhaustive = ans.exhaustive;
    r.picky_count = ans.picky_count;
    out.push_back(r);
  }
  return out;
}

Aggregate Summarize(const std::vector<RunResult>& results,
                    const std::vector<RunResult>* reference) {
  Aggregate a;
  a.n = results.size();
  if (results.empty()) return a;
  size_t exhaustive = 0;
  for (const RunResult& r : results) {
    a.avg_closeness += r.closeness;
    a.avg_time_ms += r.time_ms;
    a.avg_cost += r.cost;
    exhaustive += r.exhaustive ? 1 : 0;
  }
  a.exhaustive_fraction =
      static_cast<double>(exhaustive) / static_cast<double>(a.n);
  a.avg_closeness /= static_cast<double>(a.n);
  a.avg_time_ms /= static_cast<double>(a.n);
  a.avg_cost /= static_cast<double>(a.n);
  if (reference != nullptr && reference->size() == results.size()) {
    double num = 0.0;
    double den = 0.0;
    for (size_t i = 0; i < results.size(); ++i) {
      num += results[i].closeness;
      den += (*reference)[i].closeness;
    }
    a.ratio_to_ref = den > 0.0 ? num / den : 1.0;
  }
  return a;
}

}  // namespace whyq

// Ablations for the design choices called out in DESIGN.md §7:
//   1. EstMatch path-index sample count P: estimation error eps vs speed
//      (the paper reports eps <= 0.02–0.04 on average).
//   2. Weighted vs unit literal-change cost (the "Remarks" extension).
//   3. Exact post-processing (cost-minimal MBS) on/off.
//   4. Exact enumeration time budget: closeness/exhaustiveness vs latency.

#include <cmath>

#include "bench/bench_common.h"

namespace whyq::bench {
namespace {

void AblatePathIndexSamples(const Flags& flags) {
  TextTable t({"paths_P", "avg_closeness", "avg_eps", "avg_time_ms", "n"});
  Graph g = BenchGraph(DatasetProfile::kDBpedia, flags);
  Workload w = MakeWorkload(g, DefaultWorkload(flags, 8));
  for (size_t paths : {1u, 2u, 4u, 8u, 16u}) {
    AnswerConfig cfg = DefaultAnswerConfig();
    cfg.path_index_paths = paths;
    double cl = 0.0;
    double eps = 0.0;
    double ms = 0.0;
    size_t n = 0;
    for (const Workload::Item& item : w.items) {
      Timer timer;
      RewriteAnswer a =
          ApproxWhy(g, item.gq.query, item.gq.answers, item.why, cfg);
      ms += timer.ElapsedMillis();
      cl += a.eval.closeness;
      eps += std::fabs(a.estimated_closeness - a.eval.closeness);
      ++n;
    }
    if (n == 0) continue;
    t.AddRow({std::to_string(paths),
              TextTable::Num(cl / static_cast<double>(n)),
              TextTable::Num(eps / static_cast<double>(n)),
              TextTable::Num(ms / static_cast<double>(n), 1),
              std::to_string(n)});
  }
  std::printf(
      "%s\n",
      t.ToString("Ablation 1: EstMatch path samples (ApproxWhy, dbpedia)")
          .c_str());
}

void AblateWeightedCost(const Flags& flags) {
  TextTable t({"cost_model", "avg_closeness", "avg_cost", "n"});
  Graph g = BenchGraph(DatasetProfile::kDBpedia, flags);
  Workload w = MakeWorkload(g, DefaultWorkload(flags, 8));
  for (bool weighted : {true, false}) {
    AnswerConfig cfg = ExactAnswerConfig();
    cfg.weighted_cost = weighted;
    Aggregate a = Summarize(
        RunBatch(g, w, Direction::kWhyNot, AlgoChoice::kExact, cfg));
    t.AddRow({weighted ? "weighted (1+|c'-c|/range)" : "unit",
              TextTable::Num(a.avg_closeness), TextTable::Num(a.avg_cost, 2),
              std::to_string(a.n)});
  }
  std::printf(
      "%s\n",
      t.ToString("Ablation 2: weighted literal-change cost (ExactWhyNot)")
          .c_str());
}

void AblatePostProcessing(const Flags& flags) {
  TextTable t(
      {"post_processing", "avg_closeness", "avg_cost", "avg_time_ms", "n"});
  Graph g = BenchGraph(DatasetProfile::kDBpedia, flags);
  Workload w = MakeWorkload(g, DefaultWorkload(flags, 8));
  for (bool minimize : {true, false}) {
    AnswerConfig cfg = ExactAnswerConfig();
    cfg.minimize_cost = minimize;
    Aggregate a =
        Summarize(RunBatch(g, w, Direction::kWhy, AlgoChoice::kExact, cfg));
    t.AddRow({minimize ? "minimal-MBS" : "off",
              TextTable::Num(a.avg_closeness), TextTable::Num(a.avg_cost, 2),
              TextTable::Num(a.avg_time_ms, 1), std::to_string(a.n)});
  }
  std::printf(
      "%s\n",
      t.ToString("Ablation 3: exact cost-minimizing post-processing")
          .c_str());
}

void AblateTimeBudget(const Flags& flags) {
  TextTable t({"time_limit_ms", "avg_closeness", "exhaustive", "avg_time_ms",
               "n"});
  Graph g = BenchGraph(DatasetProfile::kDBpedia, flags);
  Workload w = MakeWorkload(g, DefaultWorkload(flags, 8));
  for (double limit : {100.0, 500.0, 3000.0, 10000.0}) {
    AnswerConfig cfg = ExactAnswerConfig();
    cfg.exact_time_limit_ms = limit;
    Aggregate a =
        Summarize(RunBatch(g, w, Direction::kWhy, AlgoChoice::kExact, cfg));
    t.AddRow({TextTable::Num(limit, 0), TextTable::Num(a.avg_closeness),
              TextTable::Num(a.exhaustive_fraction, 2),
              TextTable::Num(a.avg_time_ms, 1), std::to_string(a.n)});
  }
  std::printf(
      "%s\n",
      t.ToString("Ablation 4: exact enumeration time budget (ExactWhy)")
          .c_str());
}

}  // namespace
}  // namespace whyq::bench

int main(int argc, char** argv) {
  using namespace whyq::bench;
  Flags flags = ParseFlags(argc, argv);
  if (RunPart(flags, "a")) AblatePathIndexSamples(flags);
  if (RunPart(flags, "b")) AblateWeightedCost(flags);
  if (RunPart(flags, "c")) AblatePostProcessing(flags);
  if (RunPart(flags, "d")) AblateTimeBudget(flags);
  return 0;
}

#ifndef WHYQ_HARNESS_EXPERIMENT_H_
#define WHYQ_HARNESS_EXPERIMENT_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/query_gen.h"
#include "gen/question_gen.h"
#include "graph/graph.h"
#include "why/extensions.h"
#include "why/question.h"

namespace whyq {

/// A reproducible batch of (query, Why question, Why-not question) items
/// over one graph — the unit all figure benches iterate on (the paper runs
/// batches of generated Why-questions and reports averages).
struct Workload {
  struct Item {
    GeneratedQuery gq;
    WhyQuestion why;
    WhyNotQuestion whynot;
  };
  std::vector<Item> items;
};

struct WorkloadConfig {
  size_t items = 10;
  QueryGenConfig query;
  size_t why_size = 3;             // |V_N|
  size_t whynot_size = 3;          // |V_C|
  size_t constraint_literals = 0;  // literals in C (paper: up to 2)
  uint64_t seed = 42;
};

/// Builds a workload; items that cannot be generated (no viable query or
/// question) are skipped, so the result may hold fewer than `items`.
Workload MakeWorkload(const Graph& g, const WorkloadConfig& cfg);

/// Per-item measurement of one algorithm run.
struct RunResult {
  double closeness = 0.0;
  double time_ms = 0.0;
  double cost = 0.0;
  bool guard_ok = true;
  bool exhaustive = true;  // exact enumeration completed (exact algos only)
  size_t picky_count = 0;
};

/// Answers every item's Why (dir kWhy) or Why-not (dir kWhyNot) question
/// with the algorithm AlgorithmName(dir, algo) names, timing each call.
std::vector<RunResult> RunBatch(const Graph& g, const Workload& w,
                                Direction dir, AlgoChoice algo,
                                const AnswerConfig& cfg);

/// Batch aggregate. `ratio_to_ref` compares item-wise closeness against a
/// reference batch (the exact algorithm), the paper's "fraction of optimal
/// closeness preserved".
struct Aggregate {
  size_t n = 0;
  double avg_closeness = 0.0;
  double avg_time_ms = 0.0;
  double avg_cost = 0.0;
  double ratio_to_ref = 1.0;
  double exhaustive_fraction = 1.0;
};

Aggregate Summarize(const std::vector<RunResult>& results,
                    const std::vector<RunResult>* reference = nullptr);

}  // namespace whyq

#endif  // WHYQ_HARNESS_EXPERIMENT_H_

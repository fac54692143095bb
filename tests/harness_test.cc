#include <gtest/gtest.h>

#include "gen/profiles.h"
#include "harness/experiment.h"

namespace whyq {
namespace {

class HarnessTest : public testing::Test {
 protected:
  HarnessTest() : g_(GenerateProfile(DatasetProfile::kIMDb, 3000, 23)) {}
  Graph g_;
};

TEST_F(HarnessTest, MakeWorkloadProducesCompleteItems) {
  WorkloadConfig cfg;
  cfg.items = 4;
  cfg.query.edges = 3;
  Workload w = MakeWorkload(g_, cfg);
  EXPECT_GT(w.items.size(), 0u);
  EXPECT_LE(w.items.size(), 4u);
  for (const Workload::Item& item : w.items) {
    EXPECT_FALSE(item.gq.answers.empty());
    EXPECT_FALSE(item.why.unexpected.empty());
    EXPECT_FALSE(item.whynot.missing.empty());
  }
}

TEST_F(HarnessTest, WorkloadIsSeedDeterministic) {
  WorkloadConfig cfg;
  cfg.items = 3;
  cfg.query.edges = 3;
  Workload a = MakeWorkload(g_, cfg);
  Workload b = MakeWorkload(g_, cfg);
  ASSERT_EQ(a.items.size(), b.items.size());
  for (size_t i = 0; i < a.items.size(); ++i) {
    EXPECT_EQ(a.items[i].gq.answers, b.items[i].gq.answers);
    EXPECT_EQ(a.items[i].why.unexpected, b.items[i].why.unexpected);
  }
}

TEST_F(HarnessTest, RunBatchesAndSummarize) {
  WorkloadConfig cfg;
  cfg.items = 3;
  cfg.query.edges = 3;
  Workload w = MakeWorkload(g_, cfg);
  ASSERT_GT(w.items.size(), 0u);
  AnswerConfig acfg;
  acfg.budget = 4.0;
  acfg.guard_m = 2;
  acfg.max_mbs = 2000;

  std::vector<RunResult> exact =
      RunBatch(g_, w, Direction::kWhy, AlgoChoice::kExact, acfg);
  std::vector<RunResult> approx =
      RunBatch(g_, w, Direction::kWhy, AlgoChoice::kAuto, acfg);
  ASSERT_EQ(exact.size(), w.items.size());
  ASSERT_EQ(approx.size(), w.items.size());
  for (const RunResult& r : exact) {
    EXPECT_GE(r.closeness, 0.0);
    EXPECT_LE(r.closeness, 1.0);
    EXPECT_GE(r.time_ms, 0.0);
  }
  Aggregate agg = Summarize(approx, &exact);
  EXPECT_EQ(agg.n, w.items.size());
  EXPECT_GE(agg.avg_closeness, 0.0);
  EXPECT_LE(agg.avg_closeness, 1.0);

  std::vector<RunResult> fast =
      RunBatch(g_, w, Direction::kWhyNot, AlgoChoice::kAuto, acfg);
  EXPECT_EQ(fast.size(), w.items.size());
}

TEST_F(HarnessTest, SummarizeEmpty) {
  Aggregate agg = Summarize({});
  EXPECT_EQ(agg.n, 0u);
  EXPECT_DOUBLE_EQ(agg.avg_closeness, 0.0);
}

TEST_F(HarnessTest, AlgoNames) {
  EXPECT_STREQ(AlgorithmName(Direction::kWhy, AlgoChoice::kExact),
               "ExactWhy");
  EXPECT_STREQ(AlgorithmName(Direction::kWhy, AlgoChoice::kAuto),
               "ApproxWhy");
  EXPECT_STREQ(AlgorithmName(Direction::kWhy, AlgoChoice::kIso), "IsoWhy");
  EXPECT_STREQ(AlgorithmName(Direction::kWhyNot, AlgoChoice::kExact),
               "ExactWhyNot");
  EXPECT_STREQ(AlgorithmName(Direction::kWhyNot, AlgoChoice::kAuto),
               "FastWhyNot");
  EXPECT_STREQ(AlgorithmName(Direction::kWhyNot, AlgoChoice::kIso),
               "IsoWhyNot");
}

}  // namespace
}  // namespace whyq

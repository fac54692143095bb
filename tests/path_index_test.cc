#include <gtest/gtest.h>

#include "gen/figure1.h"
#include "gen/profiles.h"
#include "gen/query_gen.h"
#include "matcher/matcher.h"
#include "matcher/path_index.h"

namespace whyq {
namespace {

TEST(PathIndexTest, EnumeratesMaximalPaths) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 16);
  // The Fig. 1 query is a star with 3 leaves -> 3 maximal paths.
  EXPECT_EQ(idx.path_count(), 3u);
  EXPECT_FALSE(idx.ToString(f.graph).empty());
}

TEST(PathIndexTest, CapLimitsPaths) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 2);
  EXPECT_EQ(idx.path_count(), 2u);
}

TEST(PathIndexTest, SingleNodeQueryHasNoPaths) {
  Figure1 f = MakeFigure1();
  Query q;
  QNodeId u = q.AddNode(*f.graph.node_labels().Find("Cellphone"));
  q.SetOutput(u);
  PathIndex idx(q, 8);
  EXPECT_EQ(idx.path_count(), 0u);
  // Passes degenerates to the candidate test.
  EXPECT_TRUE(idx.Bind(f.graph, q).Passes(f.s6));
  EXPECT_FALSE(idx.Bind(f.graph, q).Passes(0));  // a Brand node
}

TEST(PathIndexTest, AnswersAlwaysPass) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 8);
  for (NodeId v : {f.a5, f.s5, f.s6}) {
    EXPECT_TRUE(idx.Bind(f.graph, f.query).Passes(v));
  }
}

TEST(PathIndexTest, NonAnswersWithBrokenPathsFail) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 8);
  // S8 fails the output literal (price), S9 additionally lacks pink.
  EXPECT_FALSE(idx.Bind(f.graph, f.query).Passes(f.s8));
  EXPECT_FALSE(idx.Bind(f.graph, f.query).Passes(f.s9));
}

TEST(PathIndexTest, RemovedEdgeNoLongerConstrains) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 8);
  Query relaxed = f.query;
  // Relax price and drop the deal edge: S8 still fails (not pink? it is
  // pink; deal was its blocker; price was the other).
  SymbolId price = *f.graph.attr_names().Find("Price");
  Literal before{price, CompareOp::kLe, Value(int64_t{650})};
  Literal after{price, CompareOp::kLe, Value(int64_t{800})};
  ASSERT_TRUE(relaxed.ReplaceLiteral(relaxed.output(), before, after));
  // The deal literal blocks.
  EXPECT_FALSE(idx.Bind(f.graph, relaxed).Passes(f.s8));
  SymbolId deal = *f.graph.edge_labels().Find("deal");
  ASSERT_TRUE(relaxed.RemoveEdge(0, 2, deal));
  EXPECT_TRUE(idx.Bind(f.graph, relaxed).Passes(f.s8));
}

TEST(PathIndexTest, PassFractionPartialCredit) {
  Figure1 f = MakeFigure1();
  PathIndex idx(f.query, 8);
  double frac_s8 = idx.Bind(f.graph, f.query).PassFraction(f.s8);
  EXPECT_GT(frac_s8, 0.0);  // brand + color paths pass
  EXPECT_LT(frac_s8, 1.0);  // candidate test + deal path fail
  EXPECT_DOUBLE_EQ(idx.Bind(f.graph, f.query).PassFraction(f.s6), 1.0);
}

// Property: the path test is a *necessary* condition for answering —
// every exact answer must pass it, for arbitrary generated queries.
TEST(PathIndexTest, PassingIsNecessaryForMatching) {
  Graph g = GenerateProfile(DatasetProfile::kIMDb, 3000, 11);
  Rng rng(13);
  Matcher m(g);
  size_t checked = 0;
  for (int i = 0; i < 5; ++i) {
    QueryGenConfig qcfg;
    qcfg.edges = 3;
    qcfg.literals_per_node = 1;
    std::optional<GeneratedQuery> gq = GenerateQuery(g, qcfg, rng);
    if (!gq.has_value()) continue;
    PathIndex idx(gq->query, 8);
    for (NodeId v : gq->answers) {
      EXPECT_TRUE(idx.Bind(g, gq->query).Passes(v));
      ++checked;
    }
  }
  EXPECT_GT(checked, 0u);
}

}  // namespace
}  // namespace whyq

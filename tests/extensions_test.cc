#include <gtest/gtest.h>

#include "gen/figure1.h"
#include "matcher/match_engine.h"
#include "matcher/matcher.h"
#include "query/query_parser.h"
#include "why/extensions.h"

namespace whyq {
namespace {

class ExtensionsTest : public testing::Test {
 protected:
  ExtensionsTest() : f_(MakeFigure1()) {
    answers_ = {f_.a5, f_.s5, f_.s6};
    price_ = *f_.graph.attr_names().Find("Price");
  }
  Figure1 f_;
  std::vector<NodeId> answers_;
  AnswerConfig cfg_;
  SymbolId price_;
};

TEST_F(ExtensionsTest, WhyEmptyTrivialWhenAnswerNonEmpty) {
  WhyEmptyResult r = AnswerWhyEmpty(f_.graph, f_.query, cfg_);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.ops.empty());
  EXPECT_EQ(r.sample_answers.size(), 3u);
}

TEST_F(ExtensionsTest, WhyEmptyRelaxesContradictoryQuery) {
  Query q = f_.query;
  // Price <= 650 AND Price > 5000 can never match.
  q.AddLiteral(q.output(),
               Literal{price_, CompareOp::kGt, Value(int64_t{5000})});
  Matcher m(f_.graph);
  ASSERT_FALSE(m.HasAnyMatch(q));
  AnswerConfig cfg = cfg_;
  cfg.budget = 6.0;
  WhyEmptyResult r = AnswerWhyEmpty(f_.graph, q, cfg);
  ASSERT_TRUE(r.found);
  EXPECT_FALSE(r.ops.empty());
  EXPECT_FALSE(r.sample_answers.empty());
  EXPECT_TRUE(m.HasAnyMatch(r.rewritten));
  EXPECT_LE(r.cost, cfg.budget + 1e-9);
}

TEST_F(ExtensionsTest, WhyEmptyHopelessLabel) {
  // A label carried by no node cannot be fixed by relaxation.
  Query q;
  QNodeId u = q.AddNode(kInvalidSymbol);
  q.SetOutput(u);
  WhyEmptyResult r = AnswerWhyEmpty(f_.graph, q, cfg_);
  EXPECT_FALSE(r.found);
}

// Two Products with one Review each, asked for a Product with two Review
// nodes: no isomorphic match exists, but under simulation both Review
// nodes map to the one review, so the answer is not empty and Why-empty
// must say so rather than search for a relaxation.
TEST(WhyEmptySemanticsTest, NonEmptyUnderSimulationIsFound) {
  GraphBuilder b;
  for (int i = 0; i < 2; ++i) {
    b.AddEdge(b.AddNode("Review"), b.AddNode("Product"), "reviewOf");
  }
  Graph g = b.Build();
  std::string error;
  std::optional<Query> q = ParseQuery(
      "node p Product\nnode r1 Review\nnode r2 Review\n"
      "edge r1 p reviewOf\nedge r2 p reviewOf\noutput p\n",
      g, &error);
  ASSERT_TRUE(q.has_value()) << error;
  ASSERT_FALSE(Matcher(g).HasAnyMatch(*q))
      << "the fixture no longer tells the semantics apart";
  AnswerConfig cfg;
  cfg.semantics = MatchSemantics::kSimulation;
  std::vector<NodeId> sim_answers =
      MakeMatchEngine(g, cfg.semantics)->MatchOutput(*q);
  ASSERT_EQ(sim_answers.size(), 2u);
  WhyEmptyResult r = AnswerWhyEmpty(g, *q, cfg);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.ops.empty());
  EXPECT_EQ(r.sample_answers, sim_answers);
}

TEST_F(ExtensionsTest, WhySoManyAlreadySmall) {
  WhySoManyResult r =
      AnswerWhySoMany(f_.graph, f_.query, answers_, 5, cfg_);
  EXPECT_TRUE(r.found);
  EXPECT_TRUE(r.ops.empty());
  EXPECT_EQ(r.before, 3u);
  EXPECT_EQ(r.after, 3u);
}

TEST_F(ExtensionsTest, WhySoManyReducesAnswer) {
  AnswerConfig cfg = cfg_;
  cfg.budget = 4.0;
  WhySoManyResult r =
      AnswerWhySoMany(f_.graph, f_.query, answers_, 1, cfg);
  EXPECT_EQ(r.before, 3u);
  EXPECT_LE(r.after, r.before);
  if (r.found) {
    EXPECT_LE(r.after, 1u);
    Matcher m(f_.graph);
    EXPECT_EQ(m.MatchOutput(r.rewritten).size(), r.after);
    for (const EditOp& op : r.ops) EXPECT_TRUE(IsRefinement(op.kind));
  }
}

// Why-so-many counts `after` under the question's semantics. Products with
// one review match "two reviews" under simulation (which drops
// injectivity) but not under isomorphism, so the two counts differ.
TEST(WhySoManySemanticsTest, AfterCountsUnderSimulation) {
  GraphBuilder b;
  for (int64_t i = 0; i < 10; ++i) {
    NodeId p = b.AddNode("Product");
    b.SetAttr(p, "a", Value(i));
    for (int64_t r = 0; r < (i % 2 == 0 ? 2 : 1); ++r) {
      b.AddEdge(b.AddNode("Review"), p, "reviewOf");
    }
  }
  Graph g = b.Build();
  std::string error;
  std::optional<Query> q = ParseQuery(
      "node p Product a >= i:0\nnode r1 Review\nnode r2 Review\n"
      "edge r1 p reviewOf\nedge r2 p reviewOf\noutput p\n",
      g, &error);
  ASSERT_TRUE(q.has_value()) << error;
  AnswerConfig cfg;
  cfg.semantics = MatchSemantics::kSimulation;
  std::unique_ptr<MatchEngine> sim = MakeMatchEngine(g, cfg.semantics);
  std::vector<NodeId> answers = sim->MatchOutput(*q);
  ASSERT_EQ(answers.size(), 10u);
  WhySoManyResult r = AnswerWhySoMany(g, *q, answers, 3, cfg);
  EXPECT_EQ(r.before, 10u);
  ASSERT_FALSE(r.ops.empty());
  size_t sim_after = sim->MatchOutput(r.rewritten).size();
  EXPECT_EQ(r.after, sim_after);
  EXPECT_NE(Matcher(g).MatchOutput(r.rewritten).size(), sim_after)
      << "the fixture no longer tells the semantics apart";
}

TEST(AlgoChoiceTest, NamesParseBackAndPaperAliasesSelectAuto) {
  for (AlgoChoice a :
       {AlgoChoice::kAuto, AlgoChoice::kExact, AlgoChoice::kIso}) {
    EXPECT_EQ(ParseAlgoChoice(AlgoChoiceName(a)), a);
  }
  EXPECT_EQ(ParseAlgoChoice("approx"), AlgoChoice::kAuto);
  EXPECT_EQ(ParseAlgoChoice("fast"), AlgoChoice::kAuto);
  EXPECT_EQ(ParseAlgoChoice("magic"), std::nullopt);
  EXPECT_EQ(ParseAlgoChoice(""), std::nullopt);
}

TEST_F(ExtensionsTest, MultiOutputWhyPoolsCloseness) {
  // Outputs: Cellphone and Color. Unexpected: {A5} for the phone output,
  // nothing for the color output.
  Query q = f_.query;
  q.AddOutput(1);
  Matcher m(f_.graph);
  std::vector<std::vector<NodeId>> per = m.MatchAllOutputs(q);
  ASSERT_EQ(per.size(), 2u);
  std::vector<std::vector<NodeId>> unexpected{{f_.a5}, {}};
  AnswerConfig cfg = cfg_;
  cfg.budget = 4.0;
  cfg.guard_m = 0;
  RewriteAnswer a = ExactWhyMultiOutput(f_.graph, q, per, unexpected, cfg);
  ASSERT_TRUE(a.found);
  EXPECT_DOUBLE_EQ(a.eval.closeness, 1.0);
  // The A5 is excluded from the phone output's answers.
  Query check = a.rewritten;
  check.SetOutput(q.outputs()[0]);
  EXPECT_FALSE(m.IsAnswer(check, f_.a5));
  EXPECT_TRUE(m.IsAnswer(check, f_.s6));
}

TEST_F(ExtensionsTest, MultiOutputNoUnexpectedIsNoop) {
  Query q = f_.query;
  q.AddOutput(1);
  Matcher m(f_.graph);
  std::vector<std::vector<NodeId>> per = m.MatchAllOutputs(q);
  RewriteAnswer a =
      ExactWhyMultiOutput(f_.graph, q, per, {{}, {}}, cfg_);
  EXPECT_FALSE(a.found);
}


TEST_F(ExtensionsTest, ApproxMultiOutputMatchesExactOnFigure1) {
  Query q = f_.query;
  q.AddOutput(1);
  Matcher m(f_.graph);
  std::vector<std::vector<NodeId>> per = m.MatchAllOutputs(q);
  std::vector<std::vector<NodeId>> unexpected{{f_.a5}, {}};
  AnswerConfig cfg = cfg_;
  cfg.budget = 4.0;
  cfg.guard_m = 0;
  RewriteAnswer exact = ExactWhyMultiOutput(f_.graph, q, per, unexpected, cfg);
  RewriteAnswer approx =
      ApproxWhyMultiOutput(f_.graph, q, per, unexpected, cfg);
  ASSERT_TRUE(approx.found);
  EXPECT_TRUE(approx.eval.guard_ok);
  EXPECT_GE(approx.eval.closeness, 0.5 * exact.eval.closeness);
  EXPECT_LE(approx.cost, cfg.budget + 1e-9);
  for (const EditOp& op : approx.ops) EXPECT_TRUE(IsRefinement(op.kind));
}

TEST(MultiOutputSemanticsTest, SingleOutputSimulationMatchesExactWhy) {
  // The query asks for an A with two B children. a1 has one B neighbor,
  // so it is an answer under simulation only, where both children may
  // share it; with the same x as a2 no refinement can exclude a1 without
  // a2. a3 differs in x, so excluding it is possible: the simulation
  // closeness for V_N = {a1, a3} is 0.5 (an isomorphism evaluator would
  // count a1 as excluded by every rewrite and report 1).
  GraphBuilder gb;
  NodeId a1 = gb.AddNode("A");
  NodeId a2 = gb.AddNode("A");
  NodeId a3 = gb.AddNode("A");
  gb.SetAttr(a1, "x", Value(int64_t{1}));
  gb.SetAttr(a2, "x", Value(int64_t{1}));
  gb.SetAttr(a3, "x", Value(int64_t{3}));
  gb.AddEdge(a1, gb.AddNode("B"), "r");
  for (NodeId a : {a2, a3}) {
    gb.AddEdge(a, gb.AddNode("B"), "r");
    gb.AddEdge(a, gb.AddNode("B"), "r");
  }
  Graph g = gb.Build();
  Query q;
  QNodeId ua = q.AddNode(*g.node_labels().Find("A"));
  QNodeId u1 = q.AddNode(*g.node_labels().Find("B"));
  QNodeId u2 = q.AddNode(*g.node_labels().Find("B"));
  SymbolId r = *g.edge_labels().Find("r");
  q.AddEdge(ua, u1, r);
  q.AddEdge(ua, u2, r);
  q.SetOutput(ua);

  AnswerConfig cfg;
  cfg.semantics = MatchSemantics::kSimulation;
  cfg.guard_m = 0;
  cfg.minimize_cost = false;  // the multi-output search has no minimizer
  std::vector<NodeId> answers =
      MakeMatchEngine(g, cfg.semantics)->MatchOutput(q);
  ASSERT_EQ(answers, (std::vector<NodeId>{a1, a2, a3}));
  WhyQuestion w{{a1, a3}};
  RewriteAnswer single = ExactWhy(g, q, answers, w, cfg);
  RewriteAnswer multi =
      ExactWhyMultiOutput(g, q, {answers}, {w.unexpected}, cfg);
  ASSERT_TRUE(single.found);
  EXPECT_DOUBLE_EQ(single.eval.closeness, 0.5);
  EXPECT_EQ(multi.found, single.found);
  EXPECT_EQ(multi.ops, single.ops);
  EXPECT_DOUBLE_EQ(multi.eval.closeness, single.eval.closeness);
  EXPECT_DOUBLE_EQ(multi.cost, single.cost);
}

TEST_F(ExtensionsTest, ApproxMultiOutputEmptyQuestionsNoop) {
  Query q = f_.query;
  q.AddOutput(1);
  Matcher m(f_.graph);
  std::vector<std::vector<NodeId>> per = m.MatchAllOutputs(q);
  RewriteAnswer a =
      ApproxWhyMultiOutput(f_.graph, q, per, {{}, {}}, cfg_);
  EXPECT_FALSE(a.found);
  EXPECT_TRUE(a.ops.empty());
}

}  // namespace
}  // namespace whyq

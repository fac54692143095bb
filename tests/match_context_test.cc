// MatchContext coverage in three layers:
//   1. unit tests of the memo itself (lookup = the IsCandidate filter,
//      hit/miss/delta accounting, literal-order-insensitive signatures,
//      Seed/Prime);
//   2. equivalence properties: over random graphs and random operator-set
//      rewrites, every matcher API answers byte-identically with and
//      without a context, under both semantics, and the path-index probes
//      bound over a shared context agree with a context-free reference;
//   3. a counter-based perf regression on a fixed BSBM fixture: the
//      context path never does more work than the context-free path, all
//      pruned work is accounted for exactly, and both paths stay under
//      recorded absolute budgets so candidate-pruning regressions fail
//      loudly instead of just slowing the benchmarks down.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/bsbm.h"
#include "gen/figure1.h"
#include "gen/profiles.h"
#include "gen/query_gen.h"
#include "graph/neighborhood.h"
#include "matcher/candidates.h"
#include "matcher/match_context.h"
#include "matcher/match_engine.h"
#include "matcher/matcher.h"
#include "matcher/path_index.h"
#include "rewrite/evaluation.h"
#include "rewrite/operators.h"
#include "why/est_match.h"
#include "why/exact_search.h"
#include "why/picky.h"
#include "why/question.h"

namespace whyq {
namespace {

// Materializes the arena-backed candidate list for vector comparisons.
std::vector<NodeId> ToVec(const MatchContext::CandidateSet& c) {
  return std::vector<NodeId>(c.begin(), c.end());
}

std::vector<NodeId> DirectFilter(const Graph& g, const QueryNode& qn) {
  std::vector<NodeId> out;
  for (NodeId v : g.NodesWithLabel(qn.label)) {
    if (IsCandidate(g, v, qn)) out.push_back(v);
  }
  return out;
}

TEST(MatchContextTest, LookupMatchesDirectFilter) {
  Figure1 f = MakeFigure1();
  MatchContext ctx(f.graph);
  for (QNodeId u = 0; u < f.query.node_count(); ++u) {
    const QueryNode& qn = f.query.node(u);
    const MatchContext::CandidateSet& c = ctx.Lookup(qn);
    std::vector<NodeId> expect = DirectFilter(f.graph, qn);
    EXPECT_EQ(ToVec(c), expect) << "query node " << u;
    // Bitmap agrees with the list on every data node.
    for (NodeId v = 0; v < f.graph.node_count(); ++v) {
      bool in_list = std::binary_search(expect.begin(), expect.end(), v);
      EXPECT_EQ(c.Test(v), in_list) << "node " << v;
    }
  }
  EXPECT_EQ(ctx.stats().hits, 0u);
  EXPECT_GT(ctx.stats().misses, 0u);
}

TEST(MatchContextTest, SecondLookupIsAHit) {
  Figure1 f = MakeFigure1();
  MatchContext ctx(f.graph);
  const QueryNode& qn = f.query.node(f.query.output());
  const MatchContext::CandidateSet& a = ctx.Lookup(qn);
  const MatchContext::CandidateSet& b = ctx.Lookup(qn);
  EXPECT_EQ(&a, &b);  // stable address
  EXPECT_EQ(ctx.stats().hits, 1u);
  EXPECT_EQ(ctx.stats().misses, 1u);
  EXPECT_EQ(ctx.entry_count(), 1u);
}

TEST(MatchContextTest, LiteralOrderDoesNotSplitEntries) {
  Figure1 f = MakeFigure1();
  QueryNode qn = f.query.node(f.query.output());
  SymbolId price = *f.graph.attr_names().Find("Price");
  Literal extra;
  extra.attr = price;
  extra.op = CompareOp::kGe;
  extra.constant = Value(int64_t{100});
  qn.literals.push_back(extra);
  QueryNode reversed = qn;
  std::reverse(reversed.literals.begin(), reversed.literals.end());
  ASSERT_GE(qn.literals.size(), 2u);

  MatchContext ctx(f.graph);
  const MatchContext::CandidateSet& a = ctx.Lookup(qn);
  const MatchContext::CandidateSet& b = ctx.Lookup(reversed);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(ctx.entry_count(), 1u);
  EXPECT_EQ(ctx.stats().hits, 1u);
}

TEST(MatchContextTest, SupersetLiteralsBuildByDelta) {
  Figure1 f = MakeFigure1();
  const QueryNode& base = f.query.node(f.query.output());
  ASSERT_FALSE(base.literals.empty());
  QueryNode refined = base;
  SymbolId price = *f.graph.attr_names().Find("Price");
  Literal tighter;
  tighter.attr = price;
  tighter.op = CompareOp::kGe;
  tighter.constant = Value(int64_t{550});
  refined.literals.push_back(tighter);

  MatchContext ctx(f.graph);
  ctx.Lookup(base);  // miss: bucket scan
  const MatchContext::CandidateSet& r = ctx.Lookup(refined);
  EXPECT_EQ(ctx.stats().misses, 1u);
  EXPECT_EQ(ctx.stats().delta_builds, 1u);
  // The delta filter must agree with the direct filter exactly.
  EXPECT_EQ(ToVec(r), DirectFilter(f.graph, refined));
}

TEST(MatchContextTest, SeedInstallsExternalResult) {
  Figure1 f = MakeFigure1();
  const QueryNode& qn = f.query.node(f.query.output());
  std::vector<NodeId> computed =
      Candidates(f.graph, f.query, f.query.output());

  MatchContext ctx(f.graph);
  ctx.Seed(qn, computed);
  EXPECT_EQ(ctx.stats().misses, 1u);  // the scan happened, just elsewhere
  const MatchContext::CandidateSet& c = ctx.Lookup(qn);
  EXPECT_EQ(ctx.stats().hits, 1u);  // served from the seeded entry
  EXPECT_EQ(ToVec(c), computed);
  // Re-seeding an existing signature is a no-op.
  ctx.Seed(qn, {});
  EXPECT_EQ(ToVec(ctx.Lookup(qn)), computed);
}

TEST(MatchContextTest, PrimeMemoizesEveryQueryNode) {
  Figure1 f = MakeFigure1();
  MatchContext ctx(f.graph);
  ctx.Prime(f.query);
  size_t entries = ctx.entry_count();
  EXPECT_GT(entries, 0u);
  uint64_t misses = ctx.stats().misses;
  // Every node resolves as a hit now.
  for (QNodeId u = 0; u < f.query.node_count(); ++u) {
    ctx.Lookup(f.query.node(u));
  }
  EXPECT_EQ(ctx.entry_count(), entries);
  EXPECT_EQ(ctx.stats().misses + ctx.stats().delta_builds,
            misses + ctx.stats().delta_builds);
  EXPECT_EQ(ctx.stats().hits, static_cast<uint64_t>(f.query.node_count()));
}

// --- Equivalence property: context vs context-free, random rewrites. ----

// Applies every matcher API with and without a context and demands
// byte-identical results.
void ExpectEquivalent(const Graph& g, const Query& q,
                      const std::vector<NodeId>& probes,
                      MatchSemantics semantics, MatchContext* ctx) {
  std::unique_ptr<MatchEngine> plain = MakeMatchEngine(g, semantics);
  std::unique_ptr<MatchEngine> memo = MakeMatchEngine(g, semantics, ctx);

  EXPECT_EQ(plain->MatchOutput(q), memo->MatchOutput(q));
  EXPECT_EQ(plain->TestAnswers(q, probes), memo->TestAnswers(q, probes));
  NodeSet exclude(probes, g.node_count());
  EXPECT_EQ(plain->CountAnswersNotIn(q, exclude, 3),
            memo->CountAnswersNotIn(q, exclude, 3));
}

// The random rewrite universe of the equivalence properties: a generated
// query over a DBpedia-profile graph, its refinement + relaxation picky
// operators (first answers as unexpected/missing stand-ins), and probe
// nodes (answers plus random nodes, a mix of members and non-members).
struct RewriteUniverse {
  Graph g;
  Query q;
  std::vector<EditOp> ops;
  std::vector<NodeId> probes;
};

RewriteUniverse MakeRewriteUniverse(uint64_t seed, Rng& rng) {
  RewriteUniverse u{GenerateProfile(DatasetProfile::kDBpedia, 1200, seed),
                    Query(), {}, {}};
  const Graph& g = u.g;
  QueryGenConfig qc;
  qc.edges = 4;
  qc.literals_per_node = 2;
  qc.min_answers = 1;
  std::optional<GeneratedQuery> gen = GenerateQuery(g, qc, rng);
  EXPECT_TRUE(gen.has_value()) << "seed " << seed;
  if (!gen.has_value()) return u;
  u.q = gen->query;

  AnswerConfig cfg;
  std::vector<NodeId> entities(gen->answers.begin(),
                               gen->answers.begin() +
                                   std::min<size_t>(2, gen->answers.size()));
  u.ops = GenPickyWhy(g, u.q, gen->answers, entities, cfg);
  std::vector<EditOp> relax = GenPickyWhyNot(g, u.q, entities, cfg);
  u.ops.insert(u.ops.end(), relax.begin(), relax.end());

  u.probes = gen->answers;
  for (int i = 0; i < 8; ++i) {
    u.probes.push_back(static_cast<NodeId>(rng.Index(g.node_count())));
  }
  return u;
}

TEST(MatchContextEquivalenceTest, RandomRewritesBothSemantics) {
  for (uint64_t seed : {11u, 23u}) {
    Rng rng(seed * 101 + 7);
    RewriteUniverse u = MakeRewriteUniverse(seed, rng);
    ASSERT_GT(u.q.node_count(), 0u) << "seed " << seed;
    const Graph& g = u.g;
    for (MatchSemantics sem :
         {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
      // One context reused across the whole rewrite sweep — the memo must
      // stay correct as signatures accumulate, exactly like inside one
      // Why/Why-not question.
      MatchContext ctx(g);
      ExpectEquivalent(g, u.q, u.probes, sem, &ctx);
      for (int trial = 0; trial < 12 && !u.ops.empty(); ++trial) {
        OperatorSet set;
        for (size_t idx : rng.SampleDistinct(u.ops.size(),
                                             1 + rng.Index(3))) {
          set.push_back(u.ops[idx]);
        }
        Query rw = ApplyOperators(u.q, set);
        ExpectEquivalent(g, rw, u.probes, sem, &ctx);
      }
    }
  }
}

// --- Path-index probes: bound view vs a context-free reference. ---------

// The context-free reference walk: step liveness (target node present,
// query edge present) and IsCandidate re-evaluated at every step of every
// probe. `dead` counts the steps it found dead.
bool ReferenceWalk(const Graph& g, const Query& rw,
                   const std::vector<PathIndex::Step>& path, size_t pos,
                   NodeId at, size_t* dead) {
  if (pos == path.size()) return true;
  const PathIndex::Step& s = path[pos];
  QueryEdge e;
  e.label = s.edge_label;
  e.src = s.forward ? s.from : s.to;
  e.dst = s.forward ? s.to : s.from;
  if (s.to >= rw.node_count() ||
      std::find(rw.edges().begin(), rw.edges().end(), e) ==
          rw.edges().end()) {
    ++*dead;
    return true;
  }
  NodeSpan span = s.forward ? g.LabeledOutNeighbors(at, s.edge_label)
                            : g.LabeledInNeighbors(at, s.edge_label);
  for (NodeId other : span) {
    if (IsCandidate(g, other, rw.node(s.to)) &&
        ReferenceWalk(g, rw, path, pos + 1, other, dead)) {
      return true;
    }
  }
  return false;
}

// Reference (Passes, PassFraction) of v under `rw`.
std::pair<bool, double> ReferencePathTest(const Graph& g, const Query& rw,
                                          const PathIndex& pidx, NodeId v,
                                          size_t* dead) {
  bool out_ok = IsCandidate(g, v, rw.node(rw.output()));
  size_t passed = out_ok ? 1 : 0;
  bool all = out_ok;
  for (const std::vector<PathIndex::Step>& path : pidx.paths()) {
    if (ReferenceWalk(g, rw, path, 0, v, dead)) {
      ++passed;
    } else {
      all = false;
    }
  }
  return {all, static_cast<double>(passed) /
                   static_cast<double>(1 + pidx.path_count())};
}

std::string Describe(const CloseEstimate& e) {
  return std::to_string(e.closeness) + "/" + std::to_string(e.guard) + "/" +
         std::to_string(e.guard_ok);
}

// Every single-operator rewrite of the universe (so each RmE and AddE is
// exercised on its own) plus random operator sets: a probe bound over one
// context shared by the whole sweep answers every Passes/PassFraction like
// the reference, and EstimateWhy/EstimateWhyNot give the same estimate
// with and without a context.
TEST(MatchContextEquivalenceTest, PathProbesMatchContextFreeReference) {
  for (uint64_t seed : {11u, 23u}) {
    Rng rng(seed * 101 + 7);
    RewriteUniverse u = MakeRewriteUniverse(seed, rng);
    ASSERT_GT(u.q.node_count(), 0u) << "seed " << seed;
    const Graph& g = u.g;
    size_t removes = 0;
    size_t adds = 0;
    std::vector<OperatorSet> sets;
    for (const EditOp& op : u.ops) {
      removes += op.kind == OpKind::kRmE ? 1 : 0;
      adds += op.kind == OpKind::kAddE ? 1 : 0;
      sets.push_back({op});
    }
    EXPECT_GT(removes, 0u) << "seed " << seed;
    EXPECT_GT(adds, 0u) << "seed " << seed;
    for (int trial = 0; trial < 24 && !u.ops.empty(); ++trial) {
      OperatorSet set;
      for (size_t idx : rng.SampleDistinct(u.ops.size(), 2 + rng.Index(3))) {
        const EditOp& op = u.ops[idx];
        if (std::none_of(set.begin(), set.end(), [&](const EditOp& in) {
              return OpsConflict(in, op);
            })) {
          set.push_back(op);
        }
      }
      sets.push_back(std::move(set));
    }

    PathIndex pidx(u.q, 8);
    MatchContext ctx(g);
    NodeSet none(std::vector<NodeId>{}, g.node_count());
    // Half the probes stand in for V_N / V_C, the rest for the guard side.
    const size_t half = u.probes.size() / 2;
    std::vector<NodeId> targets(u.probes.begin(), u.probes.begin() + half);
    std::vector<NodeId> others(u.probes.begin() + half, u.probes.end());
    NodeSet protect(targets, g.node_count());
    size_t dead = 0;
    size_t grown = 0;
    for (const OperatorSet& set : sets) {
      Query rw = ApplyOperators(u.q, set);
      grown += rw.node_count() > u.q.node_count() ? 1 : 0;
      PathIndex::Probe bound = pidx.Bind(g, rw, &ctx);
      PathIndex::Probe plain = pidx.Bind(g, rw);
      for (NodeId v : u.probes) {
        std::pair<bool, double> ref = ReferencePathTest(g, rw, pidx, v, &dead);
        EXPECT_EQ(bound.Passes(v), ref.first) << "node " << v;
        EXPECT_EQ(bound.PassFraction(v), ref.second) << "node " << v;
        EXPECT_EQ(plain.Passes(v), ref.first) << "node " << v;
        EXPECT_EQ(plain.PassFraction(v), ref.second) << "node " << v;
      }
      EXPECT_EQ(Describe(EstimateWhy(bound, none, targets, others, 1)),
                Describe(EstimateWhy(plain, none, targets, others, 1)));
      EXPECT_EQ(Describe(EstimateWhyNot(bound, none, targets, protect, 3,
                                        200)),
                Describe(EstimateWhyNot(plain, none, targets, protect, 3,
                                        200)));
    }
    EXPECT_GT(dead, 0u) << "seed " << seed;
    EXPECT_GT(grown, 0u) << "seed " << seed;
  }
}

// --- Reused guard counts: the exact search vs a fresh Evaluate. ---------

// Wraps the evaluator the exact search runs on. Each evaluation that
// reuses the admit's guard count is checked against a fresh Evaluate on
// a second evaluator with its own memo.
template <typename Evaluator>
class ReuseChecker {
 public:
  ReuseChecker(const Evaluator& searched, const Evaluator& fresh)
      : searched_(searched), fresh_(fresh) {}

  EvalResult Evaluate(const Query& rw) const { return searched_.Evaluate(rw); }
  EvalResult Evaluate(const Query& rw, size_t guard) const {
    EvalResult reused = searched_.Evaluate(rw, guard);
    EvalResult fresh = fresh_.Evaluate(rw);
    EXPECT_EQ(reused.closeness, fresh.closeness);
    EXPECT_EQ(reused.guard, fresh.guard);
    EXPECT_EQ(reused.guard_ok, fresh.guard_ok);
    ++checked;
    return reused;
  }
  size_t Guard(const Query& rw) const { return searched_.Guard(rw); }
  MatchContext::Stats ContextStats() const {
    return searched_.ContextStats();
  }
  MatchContext* context() const { return searched_.context(); }

  mutable size_t checked = 0;

 private:
  const Evaluator& searched_;
  const Evaluator& fresh_;
};

// Runs the exact search over the universe's operators whose kind passes
// `keep` and returns how many emitted sets reused a guard count.
template <typename Evaluator, typename Question>
size_t CheckReusedGuards(const RewriteUniverse& u,
                         const std::vector<NodeId>& answers,
                         const Question& w, MatchSemantics sem,
                         bool (*keep)(OpKind)) {
  AnswerConfig cfg;
  cfg.budget = 3.0;
  cfg.guard_m = 2;
  cfg.semantics = sem;
  cfg.max_mbs = 200;
  cfg.exact_time_limit_ms = 0;
  std::vector<EditOp> usable;
  std::vector<double> costs;
  for (const EditOp& op : u.ops) {
    if (!keep(op.kind)) continue;
    usable.push_back(op);
    costs.push_back(1.0);
  }
  Evaluator searched(u.g, answers, w, cfg.guard_m, sem);
  Evaluator fresh(u.g, answers, w, cfg.guard_m, sem);
  ReuseChecker<Evaluator> eval(searched, fresh);
  internal::ExactMbsSearch(u.q, usable, costs, cfg, eval);
  return eval.checked;
}

// Every set the exact search emits is verified with the guard count its
// admissibility check made; that evaluation must equal a fresh Evaluate
// (closeness, guard and verdict), for Why over the refinement operators
// and for Why-not over the relaxation operators, under both semantics.
TEST(ReusedGuardPropertyTest, EmittedSetsEvaluateLikeAFreshEvaluate) {
  for (uint64_t seed : {11u, 23u}) {
    Rng rng(seed * 101 + 7);
    RewriteUniverse u = MakeRewriteUniverse(seed, rng);
    ASSERT_GT(u.q.node_count(), 0u) << "seed " << seed;
    for (MatchSemantics sem :
         {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
      std::vector<NodeId> answers =
          MakeMatchEngine(u.g, sem)->MatchOutput(u.q);
      ASSERT_FALSE(answers.empty()) << "seed " << seed;
      WhyQuestion why{{answers.front(), answers.back()}};
      WhyNotQuestion whynot;
      for (NodeId v : u.probes) {
        if (std::find(answers.begin(), answers.end(), v) == answers.end()) {
          whynot.missing.push_back(v);
        }
      }
      EXPECT_GT(CheckReusedGuards<WhyEvaluator>(u, answers, why, sem,
                                                &IsRefinement),
                0u)
          << "seed " << seed << " Why";
      EXPECT_GT(CheckReusedGuards<WhyNotEvaluator>(u, answers, whynot, sem,
                                                   &IsRelaxation),
                0u)
          << "seed " << seed << " Why-not";
    }
  }
}

// --- Counter-based perf regression on a fixed BSBM fixture. -------------

struct RunCounters {
  std::vector<NodeId> answers;
  std::vector<uint8_t> tested;
  MatcherStats stats;
};

RunCounters RunMatch(const Graph& g, const Query& q,
                     const std::vector<NodeId>& probes, MatchContext* ctx) {
  Matcher m(g);
  m.set_context(ctx);
  RunCounters r;
  r.answers = m.MatchOutput(q);
  r.tested = m.TestAnswers(q, probes);
  r.stats = m.stats();
  return r;
}

TEST(MatchContextRegressionTest, BsbmCountersBoundedAndAccounted) {
  BsbmConfig bc;
  bc.products = 400;  // ~2.3k nodes; fixed seed -> fixed fixture
  bc.seed = 9;
  Graph g = GenerateBsbm(bc);
  Rng rng(41);
  QueryGenConfig qc;
  qc.edges = 4;
  qc.literals_per_node = 2;
  qc.min_answers = 2;
  std::optional<GeneratedQuery> gen = GenerateQuery(g, qc, rng);
  ASSERT_TRUE(gen.has_value());
  const Query& q = gen->query;
  std::vector<NodeId> probes = gen->answers;
  for (int i = 0; i < 32; ++i) {
    probes.push_back(static_cast<NodeId>(rng.Index(g.node_count())));
  }

  RunCounters free = RunMatch(g, q, probes, nullptr);
  MatchContext ctx(g);
  RunCounters memo = RunMatch(g, q, probes, &ctx);

  ASSERT_EQ(free.answers, memo.answers);
  ASSERT_EQ(free.tested, memo.tested);

  // The context path never attempts more than the context-free path ...
  EXPECT_LE(memo.stats.embeddings_tried, free.stats.embeddings_tried);
  EXPECT_LE(memo.stats.iso_tests, free.stats.iso_tests);
  // ... and on this literal-rich fixture it strictly prunes.
  EXPECT_LT(memo.stats.embeddings_tried, free.stats.embeddings_tried);
  EXPECT_GT(memo.stats.ctx_pruned, 0u);

  // Exact accounting: every attempt the context skipped is either a root
  // candidate the bucket scan would have iso-tested or an extension the
  // free path would have tried (MatchOutput + TestAnswers only — the
  // early-exit APIs may overstate root prunes).
  EXPECT_EQ(free.stats.embeddings_tried + free.stats.iso_tests,
            memo.stats.embeddings_tried + memo.stats.iso_tests +
                memo.stats.ctx_pruned);

  // Absolute budgets for the fixed fixture (recorded: 13031/1042 attempts/
  // iso-tests context-free, 3808/481 with the context; ~15-20% slack). A
  // pruning regression — candidate memo gone stale, label slices scanning
  // too wide — trips these before it would ever show up in a benchmark.
  EXPECT_LE(free.stats.embeddings_tried, 15000u);
  EXPECT_LE(free.stats.iso_tests, 1250u);
  EXPECT_LE(memo.stats.embeddings_tried, 4500u);
  EXPECT_LE(memo.stats.iso_tests, 580u);

  // Deterministic: a second identical run over a fresh context reproduces
  // the counters bit-for-bit.
  MatchContext ctx2(g);
  RunCounters memo2 = RunMatch(g, q, probes, &ctx2);
  EXPECT_EQ(memo2.stats.embeddings_tried, memo.stats.embeddings_tried);
  EXPECT_EQ(memo2.stats.iso_tests, memo.stats.iso_tests);
  EXPECT_EQ(memo2.stats.ctx_pruned, memo.stats.ctx_pruned);
  EXPECT_EQ(memo2.stats.ctx_misses, memo.stats.ctx_misses);
}

}  // namespace
}  // namespace whyq

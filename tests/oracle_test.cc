// Oracle suites: the production matcher, the dual-simulation fixpoint and
// the exact Why / Why-not algorithms are checked against brute-force
// reference implementations on randomly generated small instances — the
// strongest correctness evidence short of proofs, per seed-parameterized
// sweeps.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <set>

#include "common/rng.h"
#include "matcher/candidates.h"
#include "matcher/matcher.h"
#include "matcher/simulation.h"
#include "rewrite/cost_model.h"
#include "rewrite/operators.h"
#include "why/picky.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

namespace whyq {
namespace {

struct Instance {
  Graph g;
  Query q;
};

// Random small attributed graph + random small query over its label space.
Instance MakeInstance(uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  GraphBuilder b;
  size_t n = 5 + rng.Index(8);           // 5..12 nodes
  size_t n_labels = 2 + rng.Index(3);    // 2..4 labels
  size_t n_elabels = 1 + rng.Index(2);   // 1..2 edge labels
  for (size_t i = 0; i < n; ++i) {
    NodeId v = b.AddNode("L" + std::to_string(rng.Index(n_labels)));
    b.SetAttr(v, "x", Value(rng.Uniform(0, 4)));
    if (rng.Chance(0.5)) b.SetAttr(v, "y", Value(rng.Uniform(0, 2)));
  }
  size_t m = n + rng.Index(2 * n);
  for (size_t i = 0; i < m; ++i) {
    b.AddEdge(static_cast<NodeId>(rng.Index(n)),
              static_cast<NodeId>(rng.Index(n)),
              "r" + std::to_string(rng.Index(n_elabels)));
  }
  inst.g = b.Build();

  Query& q = inst.q;
  size_t qn = 2 + rng.Index(2);  // 2..3 query nodes
  for (size_t i = 0; i < qn; ++i) {
    SymbolId label = static_cast<SymbolId>(rng.Index(n_labels));
    q.AddNode(label);
    if (rng.Chance(0.6)) {
      Literal l;
      l.attr = 0;  // "x"
      l.op = rng.Chance(0.5) ? CompareOp::kLe : CompareOp::kGe;
      l.constant = Value(rng.Uniform(0, 4));
      q.AddLiteral(static_cast<QNodeId>(i), l);
    }
  }
  // Connected-ish edge set: a path plus an optional extra edge.
  for (size_t i = 1; i < qn; ++i) {
    QNodeId a = static_cast<QNodeId>(i - 1);
    QNodeId bq = static_cast<QNodeId>(i);
    if (rng.Chance(0.5)) std::swap(a, bq);
    q.AddEdge(a, bq, static_cast<SymbolId>(rng.Index(n_elabels)));
  }
  if (qn == 3 && rng.Chance(0.5)) {
    q.AddEdge(0, 2, static_cast<SymbolId>(rng.Index(n_elabels)));
  }
  q.SetOutput(static_cast<QNodeId>(rng.Index(qn)));
  return inst;
}

// Brute-force reference: try every injective assignment of query nodes to
// data nodes and collect the output node's images.
std::set<NodeId> BruteForceAnswers(const Graph& g, const Query& q) {
  std::set<NodeId> out;
  size_t qn = q.node_count();
  std::vector<NodeId> assign(qn, kInvalidNode);
  std::vector<uint8_t> used(g.node_count(), 0);
  std::function<void(size_t)> rec = [&](size_t u) {
    if (u == qn) {
      out.insert(assign[q.output()]);
      return;
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (used[v] || !IsCandidate(g, v, q.node(static_cast<QNodeId>(u)))) {
        continue;
      }
      assign[u] = v;
      used[v] = 1;
      bool ok = true;
      for (const QueryEdge& e : q.edges()) {
        if (e.src > u && e.dst > u) continue;
        if (e.src <= u && e.dst <= u) {
          if (!g.HasEdge(assign[e.src], assign[e.dst], e.label)) ok = false;
        }
        if (!ok) break;
      }
      if (ok) rec(u + 1);
      used[v] = 0;
      assign[u] = kInvalidNode;
    }
  };
  rec(0);
  return out;
}

class MatcherOracleTest : public testing::TestWithParam<int> {};

TEST_P(MatcherOracleTest, AgreesWithBruteForce) {
  Instance inst = MakeInstance(static_cast<uint64_t>(GetParam()) * 131 + 1);
  Matcher m(inst.g);
  std::vector<NodeId> got = m.MatchOutput(inst.q);
  std::set<NodeId> got_set(got.begin(), got.end());
  std::set<NodeId> want = BruteForceAnswers(inst.g, inst.q);
  EXPECT_EQ(got_set, want) << inst.q.ToString(inst.g);
  // IsAnswer agrees pointwise.
  for (NodeId v = 0; v < inst.g.node_count(); ++v) {
    EXPECT_EQ(m.IsAnswer(inst.q, v), want.count(v) > 0) << "node " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatcherOracleTest, testing::Range(0, 40));

// Dual-simulation oracle: the returned relation must (1) contain only
// candidates, (2) be closed under the forward/backward witness conditions,
// and (3) be maximal — no pruned candidate can be added back while keeping
// closure (checked by one round of re-insertion attempts).
class SimulationOracleTest : public testing::TestWithParam<int> {};

TEST_P(SimulationOracleTest, MaximalClosedRelation) {
  Instance inst = MakeInstance(static_cast<uint64_t>(GetParam()) * 733 + 5);
  const Graph& g = inst.g;
  const Query& q = inst.q;
  std::vector<std::vector<NodeId>> sim = DualSimulation(g, q);
  auto member = [&](QNodeId u, NodeId v) {
    return std::binary_search(sim[u].begin(), sim[u].end(), v);
  };
  auto closed_at = [&](QNodeId u, NodeId v) {
    if (!IsCandidate(g, v, q.node(u))) return false;
    for (const QueryEdge& e : q.edges()) {
      if (e.src == u) {
        bool witness = false;
        for (const HalfEdge& he : g.out_edges(v)) {
          witness |= he.label == e.label && member(e.dst, he.other);
        }
        if (!witness) return false;
      }
      if (e.dst == u) {
        bool witness = false;
        for (const HalfEdge& he : g.in_edges(v)) {
          witness |= he.label == e.label && member(e.src, he.other);
        }
        if (!witness) return false;
      }
    }
    return true;
  };
  for (QNodeId u = 0; u < q.node_count(); ++u) {
    // (1) + (2): every member is a closed candidate.
    for (NodeId v : sim[u]) EXPECT_TRUE(closed_at(u, v));
    // (3): no non-member candidate is closed w.r.t. the final relation.
    for (NodeId v = 0; v < g.node_count(); ++v) {
      if (member(u, v)) continue;
      EXPECT_FALSE(closed_at(u, v))
          << "u" << u << " could re-admit node " << v;
    }
  }
  // Simulation answers contain the isomorphism answers.
  Matcher m(g);
  for (NodeId v : m.MatchOutput(q)) {
    EXPECT_TRUE(member(q.output(), v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulationOracleTest, testing::Range(0, 40));

// Optimality oracle for the exact algorithms. For each instance, every
// conflict-free subset of the picky set within budget B is scored with
// the brute-force matcher above (exact closeness and guard). Exhaustive
// ExactWhy / ExactWhyNot must reach the best closeness (the guard-aware
// MBS enumeration with its Lemma 1 shortcuts is exact). The minimize
// post-pass must leave a rewrite no dearer than the cheapest maximal
// admissible set at that closeness, from which no single operator can be
// dropped without losing closeness. It does not always reach the cheapest
// admissible set overall: that set may lie in no cheapest maximal set
// (three of the sixty Why seeds below, e.g. seed 35: cost 1 against 0.5).
struct Optimum {
  double closeness = 0.0;     // the empty set always scores 0 within guard
  double cheapest = 0.0;      // cheapest admissible set at that closeness
  double cheapest_mbs = 0.0;  // cheapest maximal admissible set at it
};

constexpr double kOracleEps = 1e-9;

// Brute-force answers of a rewrite under the matcher's documented
// semantics for disconnected queries (RmE can split Q): only the output
// node's connected component is matched.
std::set<NodeId> BruteForceRewriteAnswers(const Graph& g, const Query& q) {
  std::vector<QNodeId> comp = q.OutputComponent();
  std::vector<QNodeId> index(q.node_count(), kInvalidQNode);
  Query sub;
  for (QNodeId u : comp) {
    index[u] = sub.AddNode(q.node(u).label);
    for (const Literal& l : q.node(u).literals) sub.AddLiteral(index[u], l);
  }
  for (const QueryEdge& e : q.edges()) {
    if (index[e.src] != kInvalidQNode && index[e.dst] != kInvalidQNode) {
      sub.AddEdge(index[e.src], index[e.dst], e.label);
    }
  }
  sub.SetOutput(index[q.output()]);
  return BruteForceAnswers(g, sub);
}

// score(rewritten, &closeness) returns whether the guard holds.
using ScoreFn = std::function<bool(const Query&, double*)>;

Optimum BruteForceOptimum(const Query& q, const std::vector<EditOp>& ops,
                          const CostModel& cost, double budget,
                          const ScoreFn& score) {
  const size_t n = ops.size();
  const size_t subsets = size_t{1} << n;
  std::vector<uint8_t> admissible(subsets, 0);
  std::vector<double> cl(subsets, 0.0), price(subsets, 0.0);
  Optimum best;
  for (size_t mask = 0; mask < subsets; ++mask) {
    OperatorSet set;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (size_t{1} << i)) set.push_back(ops[i]);
    }
    bool clash = false;
    for (size_t i = 0; i < set.size() && !clash; ++i) {
      for (size_t j = i + 1; j < set.size() && !clash; ++j) {
        clash = OpsConflict(set[i], set[j]);
      }
    }
    price[mask] = cost.Cost(set);
    if (clash || price[mask] > budget + kOracleEps) continue;
    admissible[mask] = score(ApplyOperators(q, set), &cl[mask]) ? 1 : 0;
    if (admissible[mask]) best.closeness = std::max(best.closeness, cl[mask]);
  }
  best.cheapest = best.cheapest_mbs = std::numeric_limits<double>::infinity();
  for (size_t mask = 0; mask < subsets; ++mask) {
    if (!admissible[mask] || cl[mask] < best.closeness - kOracleEps) continue;
    best.cheapest = std::min(best.cheapest, price[mask]);
    bool maximal = true;
    for (size_t j = 0; j < n && maximal; ++j) {
      size_t bigger = mask | (size_t{1} << j);
      maximal = bigger == mask || !admissible[bigger];
    }
    if (maximal) best.cheapest_mbs = std::min(best.cheapest_mbs, price[mask]);
  }
  return best;
}

AnswerConfig OracleConfig(uint64_t seed) {
  AnswerConfig cfg;
  cfg.budget = 2.0 + static_cast<double>(seed % 3);
  cfg.guard_m = seed % 2;
  cfg.max_picky_ops = 12;  // 4096 subsets at most
  cfg.threads = 1;
  return cfg;
}

// Checks an exhaustive exact answer against the brute-force optimum.
void ExpectOptimal(const RewriteAnswer& a, const Optimum& best,
                   const Query& q, const ScoreFn& score, const Graph& g) {
  ASSERT_TRUE(a.exhaustive);
  EXPECT_NEAR(a.eval.closeness, best.closeness, kOracleEps) << a.Explain(g);
  EXPECT_TRUE(a.eval.guard_ok);
  if (best.closeness <= 0.0) {
    EXPECT_FALSE(a.found);
    return;
  }
  EXPECT_TRUE(a.found);
  EXPECT_LE(a.cost, best.cheapest_mbs + 1e-6) << a.Explain(g);
  EXPECT_GE(a.cost, best.cheapest - 1e-6) << a.Explain(g);
  for (size_t i = 0; i < a.ops.size() && a.ops.size() > 1; ++i) {
    OperatorSet fewer = a.ops;
    fewer.erase(fewer.begin() + static_cast<long>(i));
    double cl = 0.0;
    bool guard_ok = score(ApplyOperators(q, fewer), &cl);
    EXPECT_FALSE(guard_ok && cl >= best.closeness - kOracleEps)
        << "minimize kept a droppable operator: " << a.Explain(g);
  }
}

class ExactOptimalityOracleTest : public testing::TestWithParam<int> {};

TEST_P(ExactOptimalityOracleTest, ExactWhyReachesBruteForceOptimum) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  // Random small queries are often empty; draw until one has answers.
  Instance inst;
  std::set<NodeId> base;
  for (uint64_t attempt = 0; attempt < 64 && base.size() < 2; ++attempt) {
    inst = MakeInstance(seed * 389 + 11 + attempt * 7919);
    base = BruteForceAnswers(inst.g, inst.q);
  }
  if (base.size() < 2) GTEST_SKIP() << "too few answers for a Why question";
  std::vector<NodeId> answers(base.begin(), base.end());
  WhyQuestion w;
  w.unexpected.push_back(answers[seed % answers.size()]);
  if (answers.size() > 3) {
    w.unexpected.push_back(answers[(seed + 1) % answers.size()]);
  }
  std::sort(w.unexpected.begin(), w.unexpected.end());
  w.unexpected.erase(std::unique(w.unexpected.begin(), w.unexpected.end()),
                     w.unexpected.end());
  AnswerConfig cfg = OracleConfig(seed);

  std::vector<EditOp> picky =
      GenPickyWhy(inst.g, inst.q, answers, w.unexpected, cfg);
  CostModel cost(inst.q, inst.g, cfg.weighted_cost);
  ScoreFn score = [&](const Query& rw, double* cl) {
    std::set<NodeId> after = BruteForceRewriteAnswers(inst.g, rw);
    size_t excluded = 0, lost = 0;
    for (NodeId v : answers) {
      bool unexpected = std::binary_search(w.unexpected.begin(),
                                           w.unexpected.end(), v);
      if (!after.count(v)) ++(unexpected ? excluded : lost);
    }
    *cl = static_cast<double>(excluded) /
          static_cast<double>(w.unexpected.size());
    return lost <= cfg.guard_m;
  };
  Optimum best = BruteForceOptimum(inst.q, picky, cost, cfg.budget, score);
  RewriteAnswer exact = ExactWhy(inst.g, inst.q, answers, w, cfg);
  ExpectOptimal(exact, best, inst.q, score, inst.g);
}

TEST_P(ExactOptimalityOracleTest, ExactWhyNotReachesBruteForceOptimum) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  // Missing entities: non-answers carrying the output node's label; draw
  // until the instance has one.
  Instance inst;
  std::set<NodeId> base;
  std::vector<NodeId> outside;
  for (uint64_t attempt = 0; attempt < 64 && outside.empty(); ++attempt) {
    inst = MakeInstance(seed * 577 + 13 + attempt * 7919);
    base = BruteForceAnswers(inst.g, inst.q);
    for (NodeId v :
         inst.g.NodesWithLabel(inst.q.node(inst.q.output()).label)) {
      if (!base.count(v)) outside.push_back(v);
    }
  }
  if (outside.empty()) GTEST_SKIP() << "no missing entity to ask about";
  std::vector<NodeId> answers(base.begin(), base.end());
  WhyNotQuestion w;
  w.missing.push_back(outside[seed % outside.size()]);
  if (outside.size() > 2) {
    w.missing.push_back(outside[(seed + 1) % outside.size()]);
  }
  std::sort(w.missing.begin(), w.missing.end());
  w.missing.erase(std::unique(w.missing.begin(), w.missing.end()),
                  w.missing.end());
  AnswerConfig cfg = OracleConfig(seed);

  std::vector<EditOp> picky = GenPickyWhyNot(inst.g, inst.q, w.missing, cfg);
  CostModel cost(inst.q, inst.g, cfg.weighted_cost);
  ScoreFn score = [&](const Query& rw, double* cl) {
    std::set<NodeId> after = BruteForceRewriteAnswers(inst.g, rw);
    size_t included = 0, extra = 0;
    for (NodeId v : after) {
      bool missing =
          std::binary_search(w.missing.begin(), w.missing.end(), v);
      if (missing) {
        ++included;
      } else if (!base.count(v)) {
        ++extra;
      }
    }
    *cl = static_cast<double>(included) /
          static_cast<double>(w.missing.size());
    return extra <= cfg.guard_m;
  };
  Optimum best = BruteForceOptimum(inst.q, picky, cost, cfg.budget, score);
  RewriteAnswer exact = ExactWhyNot(inst.g, inst.q, answers, w, cfg);
  ExpectOptimal(exact, best, inst.q, score, inst.g);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactOptimalityOracleTest,
                         testing::Range(0, 60));

}  // namespace
}  // namespace whyq

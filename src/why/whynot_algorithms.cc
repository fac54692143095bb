#include "why/whynot_algorithms.h"

#include "why/drivers.h"
#include "why/picky.h"

namespace whyq {

namespace {

// The Why-not half of the shared drivers (why/drivers.h): relaxations that
// admit V_C. A candidate's effect is the missing entities it admits:
// exact NewMatches for IsoWhyNot, path-index coverage for FastWhyNot.
struct WhyNotDirection {
  using Question = WhyNotQuestion;
  using Evaluator = WhyNotEvaluator;

  const Graph& g;
  const PathIndex& pidx;
  const WhyNotEvaluator& eval;
  const AnswerConfig& cfg;

  static std::vector<EditOp> Picky(const Graph& g, const Query& q,
                                   const std::vector<NodeId>& /*answers*/,
                                   const WhyNotEvaluator& eval,
                                   const AnswerConfig& cfg) {
    return GenPickyWhyNot(g, q, eval.missing(), cfg);
  }

  std::vector<NodeId> Effect(const WhyNotEvaluator& ev, const Query& single,
                             bool exact) const {
    if (exact) return ev.NewMatches(single);
    std::vector<NodeId> covered;
    for (NodeId v : ev.missing()) {
      if (pidx.Passes(g, single, v, ev.context())) covered.push_back(v);
    }
    return covered;
  }

  CloseEstimate Estimate(const Query& rewritten, const NodeSet& covered,
                         MatchContext* ctx) const {
    return EstimateWhyNot(g, rewritten, pidx, covered, eval.missing(),
                          eval.protected_set(), cfg.guard_m,
                          cfg.est_guard_scan, ctx);
  }

  // A missing entity is credited by how far along it is toward matching.
  const std::vector<NodeId>& targets() const { return eval.missing(); }
  static double SoftCredit(double pass_fraction) { return pass_fraction; }

  // Why-not has no single-operator candidate O_1.
  long BestSingle(const std::vector<internal::GreedyCandidate>& /*cands*/,
                  double* cl) const {
    *cl = 0.0;
    return -1;
  }
};

}  // namespace

RewriteAnswer ExactWhyNot(const Graph& g, const Query& q,
                          const std::vector<NodeId>& answers,
                          const WhyNotQuestion& w, const AnswerConfig& cfg) {
  return internal::RunExact<WhyNotDirection>(g, q, answers, w, cfg);
}

RewriteAnswer FastWhyNot(const Graph& g, const Query& q,
                         const std::vector<NodeId>& answers,
                         const WhyNotQuestion& w, const AnswerConfig& cfg) {
  return internal::RunGreedy<WhyNotDirection>(g, q, answers, w, cfg,
                                              /*exact=*/false);
}

RewriteAnswer IsoWhyNot(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const WhyNotQuestion& w, const AnswerConfig& cfg) {
  return internal::RunGreedy<WhyNotDirection>(g, q, answers, w, cfg,
                                              /*exact=*/true);
}

}  // namespace whyq

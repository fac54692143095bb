#include "why/why_algorithms.h"

#include <sstream>

#include "common/table.h"
#include "why/drivers.h"
#include "why/picky.h"

namespace whyq {

namespace {

// The Why half of the shared drivers (why/drivers.h): refinements that
// exclude V_N. A candidate's effect is its exact Aff(o), computed once per
// picky operator by both ApproxWhy and IsoWhy.
struct WhyDirection {
  using Question = WhyQuestion;
  using Evaluator = WhyEvaluator;

  const Graph& g;
  const PathIndex& pidx;
  const WhyEvaluator& eval;
  const AnswerConfig& cfg;

  static std::vector<EditOp> Picky(const Graph& g, const Query& q,
                                   const std::vector<NodeId>& answers,
                                   const WhyEvaluator& eval,
                                   const AnswerConfig& cfg) {
    return GenPickyWhy(g, q, answers, eval.unexpected(), cfg);
  }

  std::vector<NodeId> Effect(const WhyEvaluator& ev, const Query& single,
                             bool /*exact*/) const {
    return ev.AffectedAnswers(single);
  }

  CloseEstimate Estimate(const Query& rewritten, const NodeSet& excluded,
                         MatchContext* ctx) const {
    return EstimateWhy(g, rewritten, pidx, excluded, eval.unexpected(),
                       eval.desired(), cfg.guard_m, ctx);
  }

  // An unexpected entity is credited by how far it is from passing.
  const std::vector<NodeId>& targets() const { return eval.unexpected(); }
  static double SoftCredit(double pass_fraction) {
    return 1.0 - pass_fraction;
  }

  // O_1: the guard-valid single operator of highest exact closeness
  // (cheaper on ties), read off its Aff(o).
  long BestSingle(const std::vector<internal::GreedyCandidate>& cands,
                  double* cl) const {
    constexpr double kEps = internal::kDriverEps;
    long best = -1;
    *cl = 0.0;
    for (size_t i = 0; i < cands.size(); ++i) {
      size_t excluded = 0;
      size_t guard = 0;
      for (NodeId v : cands[i].effect) {
        if (eval.IsUnexpected(v)) {
          ++excluded;
        } else {
          ++guard;
        }
      }
      if (guard > cfg.guard_m) continue;
      double single_cl =
          eval.unexpected().empty()
              ? 0.0
              : static_cast<double>(excluded) /
                    static_cast<double>(eval.unexpected().size());
      if (best < 0 || single_cl > *cl + kEps ||
          (single_cl >= *cl - kEps &&
           cands[i].cost < cands[static_cast<size_t>(best)].cost)) {
        best = static_cast<long>(i);
        *cl = single_cl;
      }
    }
    return best;
  }
};

}  // namespace

std::string RewriteAnswer::Explain(const Graph& g) const {
  std::ostringstream os;
  if (!found) {
    os << "no valid rewrite within budget";
    return os.str();
  }
  os << "closeness " << TextTable::Num(eval.closeness, 3) << " at cost "
     << TextTable::Num(cost, 2) << " via { " << DescribeOperators(ops, g)
     << " }";
  return os.str();
}

RewriteAnswer ExactWhy(const Graph& g, const Query& q,
                       const std::vector<NodeId>& answers,
                       const WhyQuestion& w, const AnswerConfig& cfg) {
  return internal::RunExact<WhyDirection>(g, q, answers, w, cfg);
}

RewriteAnswer ApproxWhy(const Graph& g, const Query& q,
                        const std::vector<NodeId>& answers,
                        const WhyQuestion& w, const AnswerConfig& cfg) {
  return internal::RunGreedy<WhyDirection>(g, q, answers, w, cfg,
                                           /*exact=*/false);
}

RewriteAnswer IsoWhy(const Graph& g, const Query& q,
                     const std::vector<NodeId>& answers, const WhyQuestion& w,
                     const AnswerConfig& cfg) {
  return internal::RunGreedy<WhyDirection>(g, q, answers, w, cfg,
                                           /*exact=*/true);
}

}  // namespace whyq

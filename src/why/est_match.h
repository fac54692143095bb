#ifndef WHYQ_WHY_EST_MATCH_H_
#define WHYQ_WHY_EST_MATCH_H_

#include <vector>

#include "graph/graph.h"
#include "graph/neighborhood.h"
#include "matcher/match_context.h"
#include "matcher/path_index.h"
#include "query/query.h"

namespace whyq {

/// EstMatch (Section IV-B / V-B): polynomial-time closeness estimation that
/// replaces subgraph-isomorphism verification inside the greedy selection.
///
/// For Why: per-operator affected sets Aff(o) (exact, computed once per
/// picky operator) are combined by union; unexpected nodes not yet covered
/// are additionally screened with the sampled path index — failing a path
/// test is a *sound* proof of exclusion, so the closeness estimate only errs
/// by missing exclusions that need full isomorphism reasoning (that is the
/// epsilon of Theorem 5).
///
/// For Why-not: per-operator new-match sets are unioned (relaxation is
/// monotone, so this is sound); missing nodes not yet covered are screened
/// with path tests, which over-approximate matching — the estimate can err
/// in both directions, hence a heuristic (Section V-B).
///
/// Both estimators are pure functions of const inputs — O(|V_N| resp.
/// |V_C| + guard scan) path-index probes, each probe O(paths * path
/// length) — and are safe to call concurrently from any number of threads
/// over one shared PathIndex; the parallel greedy rounds in
/// why/drivers.h rely on exactly that.
struct CloseEstimate {
  double closeness = 0.0;
  size_t guard = 0;
  bool guard_ok = true;
};

/// Why-side estimate. `excluded_union` is the union of Aff(o) over the
/// candidate set O; `rewritten` is Q ⊕ O for the path screening.
///
/// `ctx` (optional) is forwarded to the path-index probes, which then test
/// node candidacy against the request's memoized bitmaps instead of
/// re-evaluating literals per step. Pass the evaluator of the *calling
/// executor slot* — contexts are single-threaded.
CloseEstimate EstimateWhy(const Graph& g, const Query& rewritten,
                          const PathIndex& pidx,
                          const NodeSet& excluded_union,
                          const std::vector<NodeId>& unexpected,
                          const std::vector<NodeId>& desired,
                          size_t guard_m, MatchContext* ctx = nullptr);

/// Why-not-side estimate. `included_union` is the union of per-operator new
/// matches within V_C; the guard scans output-label candidates outside
/// `protected_set` with path tests, early-stopping past guard_m and
/// visiting at most `guard_scan_cap` candidates.
CloseEstimate EstimateWhyNot(const Graph& g, const Query& rewritten,
                             const PathIndex& pidx,
                             const NodeSet& included_union,
                             const std::vector<NodeId>& missing,
                             const NodeSet& protected_set, size_t guard_m,
                             size_t guard_scan_cap,
                             MatchContext* ctx = nullptr);

}  // namespace whyq

#endif  // WHYQ_WHY_EST_MATCH_H_

#ifndef WHYQ_MATCHER_PATH_INDEX_H_
#define WHYQ_MATCHER_PATH_INDEX_H_

#include <cstddef>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "matcher/match_context.h"
#include "query/query.h"

namespace whyq {

/// A sampled path index over a query Q (the estimation backbone of the
/// paper's EstMatch): a bounded number of simple paths of Q starting at the
/// output node. A data node v "passes the path tests" for a rewrite Q' of Q
/// when v is a candidate of the output node under Q' and, for every indexed
/// path, some walk from v realizes the path's edge labels/directions with
/// every visited node a candidate of the corresponding Q' node.
///
/// Passing is necessary-but-not-sufficient for being an answer (paths drop
/// injectivity and branching constraints), which is exactly the estimation
/// error epsilon the approximation guarantee is stated against.
///
/// The index is built once from Q and then evaluated against rewrites Q⊕O,
/// relying on rewrites preserving query-node ids (rewrite application only
/// appends nodes). Steps whose query edge was removed by the rewrite (RmE)
/// terminate their path early — the tail is no longer connected through
/// this path, so it constrains nothing.
///
/// Probing: a rewrite is probed through a Probe bound to it (Bind), never
/// per call. Callers score one rewrite over many data nodes (V_N, V_C, a
/// guard scan), and everything about the rewrite that the walk needs is the
/// same for every probed node: which steps are still live, and each query
/// node's candidate set. The Probe computes step liveness once at Bind and
/// resolves a query node's MatchContext::CandidateSet the first time a walk
/// reaches it, then keeps the pointer. Resolution is lazy on purpose: the
/// context then memoizes exactly the signatures a per-node lookup would
/// have, so its misses, delta builds and arena footprint do not depend on
/// how probes are grouped; only its hit count drops, to one per (rewrite,
/// reached query node).
///
/// Thread-safety: the index is immutable after construction and shared
/// across workers (e.g. from the service's prepared-question cache); Bind
/// is const. A Probe is single-threaded mutable state, like the context it
/// borrows: each executor slot binds its own probe over its own context
/// (or none).
class PathIndex {
 public:
  struct Step {
    QNodeId from = kInvalidQNode;
    QNodeId to = kInvalidQNode;
    SymbolId edge_label = kInvalidSymbol;
    bool forward = true;  // true: (from -> to) in Q; false: (to -> from)
  };

  /// Builds the index with at most `max_paths` maximal simple paths,
  /// enumerated deterministically (DFS over undirected query edges).
  PathIndex(const Query& q, size_t max_paths);

  /// Rebuilds an index from previously sampled steps — the plan-store load
  /// path (service/plan.cc), which deserializes the exact paths a prior
  /// process enumerated so a loaded plan probes identically to the build it
  /// caches. The caller is responsible for having validated every step's
  /// query-node ids against the query the index will be probed with.
  static PathIndex FromPaths(std::vector<std::vector<Step>> paths);

  class Probe;

  /// Binds a probe of rewrite `rewritten` (see class comment). When `ctx`
  /// is given, node-candidacy tests probe the context's memoized bitmaps
  /// instead of re-evaluating literals; the outcomes are identical either
  /// way. `g`, `rewritten`, `ctx` and the index must outlive the probe.
  Probe Bind(const Graph& g, const Query& rewritten,
             MatchContext* ctx = nullptr) const;

  size_t path_count() const { return paths_.size(); }
  const std::vector<std::vector<Step>>& paths() const { return paths_; }

  /// Debug rendering of the indexed paths.
  std::string ToString(const Graph& g) const;

 private:
  PathIndex() = default;  // FromPaths

  std::vector<std::vector<Step>> paths_;
};

/// The path tests of one rewrite, bound by PathIndex::Bind.
class PathIndex::Probe {
 public:
  /// Path test of v (see the PathIndex class comment).
  bool Passes(NodeId v);

  /// Partial credit: the fraction of checks v passes — the output-node
  /// candidate test plus each indexed path, all weighted equally. 1.0 iff
  /// Passes(v). Greedy selection uses this to rank operators that make
  /// progress toward a match (or a non-match) even when no single operator
  /// flips the full test (zero-marginal-gain bootstrapping; see DESIGN.md).
  double PassFraction(NodeId v);

  const Graph& graph() const { return *g_; }
  const Query& rewritten() const { return *rewritten_; }

 private:
  friend class PathIndex;
  Probe(const PathIndex& index, const Graph& g, const Query& rewritten,
        MatchContext* ctx);

  // The memoized candidate set of query node u, resolved on first use;
  // nullptr without a context.
  const MatchContext::CandidateSet* Resolve(QNodeId u);
  // The output-node candidate test of v.
  bool OutputAdmits(NodeId v);
  // True iff some walk from `at` realizes steps [pos, live_[path]) of path
  // `path`.
  bool Walk(size_t path, size_t pos, NodeId at);

  const PathIndex* index_;
  const Graph* g_;
  const Query* rewritten_;
  MatchContext* ctx_;
  // Per path: the length of its live prefix — the steps before the first
  // one whose target node or query edge the rewrite lacks.
  std::vector<size_t> live_;
  // Per query node of the rewrite: its resolved candidate set, or nullptr
  // until a walk first reaches it (always nullptr without a context).
  std::vector<const MatchContext::CandidateSet*> cand_;
};

}  // namespace whyq

#endif  // WHYQ_MATCHER_PATH_INDEX_H_

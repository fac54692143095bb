#ifndef WHYQ_WHY_MBS_H_
#define WHYQ_WHY_MBS_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace whyq {

/// Enumeration of *maximal bounded sets* (MBS) — phase two of GenMBS.
/// Given per-operator costs, pairwise conflicts, and a budget B, an index
/// set S is an MBS when it is conflict-free, cost(S) <= B, and no operator
/// outside S could be added while keeping both properties.
///
/// Lemma 3 / Lemma 7: the optimal rewrite is induced by some MBS over the
/// picky set, so verifying MBSs only is sufficient for exactness.
///
/// `visit` receives each MBS (as index sets into `costs`); returning false
/// stops enumeration early (the paper's early termination once closeness 1
/// is reached). Enumeration is additionally capped: after `max_sets`
/// emissions, or ~64x that many explored leaves, it stops and reports
/// `truncated` so callers can surface approximateness.
struct MbsStats {
  size_t emitted = 0;
  bool truncated = false;  // stopped by a cap, not by visit() or exhaustion
  size_t guard_checks = 0;  // admit calls made (the ones that ran `admit`)
};

/// Optional admissibility predicate: admit(current, next) says whether
/// current ∪ {next} stays admissible. The guard condition is *monotone*
/// under pure refinement (and pure relaxation) sets, so the family
/// {conflict-free, cost <= B, guard <= m} is downward closed and the
/// optimum is attained at one of its maximal elements; passing the guard
/// as `admit` makes the enumeration exact under guard constraints (plain
/// budget-maximal sets can all violate a strict guard while smaller valid
/// sets exist).
///
/// Contract: `admit` must be *monotone* (if S ∪ {j} is rejected, so is
/// every superset of it) and *deterministic* (its verdict depends only on
/// the set current ∪ {next}, not on the order of `current` or on earlier
/// calls). The enumerator relies on both to skip calls whose verdict
/// Lemma 1 already settles, and never asks twice about one set:
///  - dead singletons: {j} is asked once per search, before any larger
///    set containing j; when it fails, j is rejected everywhere;
///  - path rejections: when the DFS rejects current ∪ {j} while choosing
///    j, every set below that point on the same path contains current, so
///    the maximality checks there reject j without asking;
///  - an exact-set memo: verdicts are kept per sorted index set for the
///    search's lifetime.
/// The emitted sequence is the one a call per candidate would produce.
using AdmitFn =
    std::function<bool(const std::vector<size_t>& current, size_t next)>;

/// FNV-1a over an index set: the hash of the maps keyed by sorted index
/// sets (the enumerator's verdict memo, the exact search's guard counts).
struct IndexSetHash {
  size_t operator()(const std::vector<size_t>& s) const {
    uint64_t h = 1469598103934665603ull;
    for (size_t i : s) h = (h ^ i) * 1099511628211ull;
    return static_cast<size_t>(h);
  }
};

/// `should_stop` (optional) is polled inside the DFS (every few dozen
/// nodes); returning true aborts enumeration with `truncated` set — the
/// hook wall-clock limits sit behind, since admissibility checks can be
/// expensive long before any set is emitted.
///
/// Complexity: worst-case exponential in |costs| (the DFS explores the
/// subset lattice), bounded in practice by the budget, the conflict graph,
/// `admit` pruning, and the max_sets/64x-leaf caps. Per emitted set the
/// work is O(|costs|) for the maximality check plus one `visit` call.
///
/// Thread-safety: the enumeration is single-threaded and re-entrant (no
/// shared state between calls); `visit`/`admit`/`should_stop` are invoked
/// on the caller's thread only.
MbsStats EnumerateMaximalBoundedSets(
    const std::vector<double>& costs,
    const std::vector<std::vector<size_t>>& conflicts, double budget,
    size_t max_sets,
    const std::function<bool(const std::vector<size_t>&)>& visit,
    const AdmitFn& admit = nullptr,
    const std::function<bool()>& should_stop = nullptr);

}  // namespace whyq

#endif  // WHYQ_WHY_MBS_H_

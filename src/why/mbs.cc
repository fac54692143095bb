#include "why/mbs.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <unordered_map>

#include "common/check.h"

namespace whyq {

namespace {

constexpr double kEps = 1e-9;

using VisitFn = std::function<bool(const std::vector<size_t>&)>;

// Verdict of a singleton {j}, filled lazily.
enum : uint8_t { kUnknown = 0, kAlive = 1, kDead = 2 };

struct Enumerator {
  Enumerator(const std::vector<double>& costs,
             const std::vector<std::vector<size_t>>& conflicts_in,
             const std::vector<size_t>& order_in, double budget_in,
             size_t cap, const VisitFn& visit_in, const AdmitFn& admit_in,
             const std::function<bool()>& should_stop_in)
      : cost(costs),
        conflicts(conflicts_in),
        order(order_in),
        budget(budget_in),
        max_sets(cap),
        max_visits(cap * 64),
        visit(visit_in),
        admit(admit_in),
        should_stop(should_stop_in),
        conflict_count(costs.size(), 0),
        in_set(costs.size(), 0),
        singleton(costs.size(), kUnknown),
        path_rejected(costs.size(), 0) {
    current.reserve(costs.size());
  }

  const std::vector<double>& cost;  // original indexing
  const std::vector<std::vector<size_t>>& conflicts;
  const std::vector<size_t>& order;  // ranks -> original indices (ascending)
  double budget;
  size_t max_sets;
  size_t max_visits;
  const VisitFn& visit;
  const AdmitFn& admit;
  const std::function<bool()>& should_stop;

  size_t poll_counter = 0;
  std::vector<size_t> current;          // original indices
  std::vector<size_t> conflict_count;   // per original index
  std::vector<uint8_t> in_set;          // per original index
  double current_cost = 0.0;
  size_t visits = 0;
  MbsStats stats;
  bool stop = false;

  // Lemma 1 shortcuts over a monotone `admit` (see AdmitFn).
  std::vector<uint8_t> singleton;      // per original index: kUnknown/...
  std::vector<uint8_t> path_rejected;  // set while its exclude subtree runs
  std::unordered_map<std::vector<size_t>, bool, IndexSetHash> memo;
  std::vector<size_t> key;             // scratch: sorted current ∪ {j}

  bool Ask(const std::vector<size_t>& base, size_t j) {
    ++stats.guard_checks;
    return admit(base, j);
  }

  // Is current ∪ {j} admissible? Runs `admit` only when neither a dead
  // singleton, a rejection higher up this path, nor the memo settles it.
  bool Admissible(size_t j) {
    if (!admit) return true;
    if (singleton[j] == kUnknown) singleton[j] = Ask({}, j) ? kAlive : kDead;
    if (singleton[j] == kDead) return false;
    if (current.empty()) return true;
    if (path_rejected[j]) return false;
    key.assign(current.begin(), current.end());
    key.push_back(j);
    std::sort(key.begin(), key.end());
    auto it = memo.find(key);
    if (it != memo.end()) return it->second;
    bool ok = Ask(current, j);
    memo.emplace(key, ok);
    return ok;
  }

  void Include(size_t idx) {
    current.push_back(idx);
    in_set[idx] = 1;
    current_cost += cost[idx];
    for (size_t j : conflicts[idx]) ++conflict_count[j];
  }

  void Exclude(size_t idx) {
    current.pop_back();
    in_set[idx] = 0;
    current_cost -= cost[idx];
    for (size_t j : conflicts[idx]) --conflict_count[j];
  }

  bool Maximal() {
    for (size_t j = 0; j < cost.size(); ++j) {
      if (in_set[j] || conflict_count[j] > 0) continue;
      if (current_cost + cost[j] > budget + kEps) continue;
      if (!Admissible(j)) continue;  // inadmissible extension
      return false;
    }
    return true;
  }

  void Recurse(size_t rank) {
    if (stop) return;
    if (should_stop && (++poll_counter & 63u) == 0 && should_stop()) {
      stats.truncated = true;
      stop = true;
      return;
    }
    if (rank == cost.size()) {
      if (++visits > max_visits) {
        stats.truncated = true;
        stop = true;
        return;
      }
      if (Maximal()) {
        ++stats.emitted;
        if (!visit(current)) {
          stop = true;
          return;
        }
        if (stats.emitted >= max_sets) {
          stats.truncated = true;
          stop = true;
        }
      }
      return;
    }
    size_t idx = order[rank];
    if (conflict_count[idx] == 0 &&
        current_cost + cost[idx] <= budget + kEps) {
      if (!Admissible(idx)) {
        // Below here `current` only grows, so current ∪ {idx} stays
        // rejected for every leaf of the exclude subtree.
        path_rejected[idx] = 1;
        Recurse(rank + 1);
        path_rejected[idx] = 0;
        return;
      }
      Include(idx);
      Recurse(rank + 1);
      Exclude(idx);
      if (stop) return;
    }
    Recurse(rank + 1);
  }
};

}  // namespace

MbsStats EnumerateMaximalBoundedSets(
    const std::vector<double>& costs,
    const std::vector<std::vector<size_t>>& conflicts, double budget,
    size_t max_sets, const VisitFn& visit, const AdmitFn& admit,
    const std::function<bool()>& should_stop) {
  WHYQ_CHECK(conflicts.size() == costs.size());
  std::vector<size_t> order(costs.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return costs[a] < costs[b]; });

  Enumerator e(costs, conflicts, order, budget, std::max<size_t>(max_sets, 1),
               visit, admit, should_stop);
  if (costs.empty()) {
    // The empty set is trivially the only MBS.
    e.stats.emitted = 1;
    visit({});
    return e.stats;
  }
  e.Recurse(0);
  return e.stats;
}

}  // namespace whyq

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <vector>

#include "why/mbs.h"

namespace whyq {
namespace {

using IndexSet = std::set<size_t>;

std::vector<IndexSet> Enumerate(const std::vector<double>& costs,
                                const std::vector<std::vector<size_t>>& conf,
                                double budget, size_t cap = 100000) {
  std::vector<IndexSet> out;
  EnumerateMaximalBoundedSets(costs, conf, budget, cap,
                              [&](const std::vector<size_t>& s) {
                                out.emplace_back(s.begin(), s.end());
                                return true;
                              });
  return out;
}

// Brute-force reference: all subsets, keep the maximal ones among the
// bounded, conflict-free and (when given) admissible sets.
std::vector<IndexSet> BruteForce(
    const std::vector<double>& costs,
    const std::vector<std::vector<size_t>>& conf, double budget,
    const std::function<bool(const IndexSet&)>& admissible = nullptr) {
  size_t n = costs.size();
  auto ok = [&](const IndexSet& s) {
    double c = 0.0;
    for (size_t i : s) c += costs[i];
    if (c > budget + 1e-9) return false;
    for (size_t i : s) {
      for (size_t j : conf[i]) {
        if (s.count(j)) return false;
      }
    }
    return !admissible || admissible(s);
  };
  std::vector<IndexSet> bounded;
  for (size_t mask = 0; mask < (1u << n); ++mask) {
    IndexSet s;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (1u << i)) s.insert(i);
    }
    if (ok(s)) bounded.push_back(s);
  }
  std::vector<IndexSet> maximal;
  for (const IndexSet& s : bounded) {
    bool is_max = true;
    for (size_t j = 0; j < n && is_max; ++j) {
      if (s.count(j)) continue;
      IndexSet bigger = s;
      bigger.insert(j);
      if (ok(bigger)) is_max = false;
    }
    if (is_max) maximal.push_back(s);
  }
  return maximal;
}

void ExpectSameSets(std::vector<IndexSet> a, std::vector<IndexSet> b) {
  auto key = [](const IndexSet& s) {
    std::string k;
    for (size_t i : s) k += std::to_string(i) + ",";
    return k;
  };
  auto cmp = [&](const IndexSet& x, const IndexSet& y) {
    return key(x) < key(y);
  };
  std::sort(a.begin(), a.end(), cmp);
  std::sort(b.begin(), b.end(), cmp);
  EXPECT_EQ(a, b);
}

std::vector<std::vector<size_t>> NoConflicts(size_t n) {
  return std::vector<std::vector<size_t>>(n);
}

TEST(MbsTest, EmptyInputEmitsEmptySet) {
  std::vector<IndexSet> sets = Enumerate({}, {}, 4.0);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_TRUE(sets[0].empty());
}

TEST(MbsTest, SingleOpWithinBudget) {
  std::vector<IndexSet> sets = Enumerate({2.0}, NoConflicts(1), 4.0);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_EQ(sets[0], IndexSet{0});
}

TEST(MbsTest, SingleOpOverBudgetLeavesEmptyMaximal) {
  std::vector<IndexSet> sets = Enumerate({5.0}, NoConflicts(1), 4.0);
  ASSERT_EQ(sets.size(), 1u);
  EXPECT_TRUE(sets[0].empty());
}

TEST(MbsTest, MatchesBruteForceUniformCosts) {
  std::vector<double> costs(6, 1.0);
  ExpectSameSets(Enumerate(costs, NoConflicts(6), 3.0),
                 BruteForce(costs, NoConflicts(6), 3.0));
}

TEST(MbsTest, MatchesBruteForceMixedCosts) {
  std::vector<double> costs{0.5, 1.0, 1.5, 2.0, 2.5, 3.0};
  ExpectSameSets(Enumerate(costs, NoConflicts(6), 4.0),
                 BruteForce(costs, NoConflicts(6), 4.0));
}

TEST(MbsTest, MatchesBruteForceWithConflicts) {
  std::vector<double> costs{1.0, 1.0, 2.0, 0.5};
  std::vector<std::vector<size_t>> conf(4);
  conf[0] = {1};
  conf[1] = {0};
  conf[2] = {3};
  conf[3] = {2};
  ExpectSameSets(Enumerate(costs, conf, 3.0), BruteForce(costs, conf, 3.0));
}

// Parameterized property sweep: enumerator == brute force on pseudo-random
// instances of varying size/budget.
class MbsPropertyTest : public testing::TestWithParam<int> {};

TEST_P(MbsPropertyTest, MatchesBruteForce) {
  int seed = GetParam();
  // Simple deterministic LCG so the instance derives from the seed.
  uint64_t state = static_cast<uint64_t>(seed) * 2654435761u + 1;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % 1000;
  };
  size_t n = 3 + next() % 8;  // 3..10 ops
  std::vector<double> costs(n);
  for (double& c : costs) c = 0.25 + static_cast<double>(next() % 16) / 4.0;
  double budget = 1.0 + static_cast<double>(next() % 12) / 2.0;
  std::vector<std::vector<size_t>> conf(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (next() % 10 == 0) {
        conf[i].push_back(j);
        conf[j].push_back(i);
      }
    }
  }
  ExpectSameSets(Enumerate(costs, conf, budget),
                 BruteForce(costs, conf, budget));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbsPropertyTest, testing::Range(0, 25));

TEST(MbsTest, AllEmittedSetsAreBoundedAndConflictFree) {
  std::vector<double> costs{0.5, 0.5, 1.0, 1.5, 2.5};
  std::vector<std::vector<size_t>> conf(5);
  conf[1] = {2};
  conf[2] = {1};
  double budget = 3.0;
  EnumerateMaximalBoundedSets(
      costs, conf, budget, 100000, [&](const std::vector<size_t>& s) {
        double c = 0.0;
        for (size_t i : s) c += costs[i];
        EXPECT_LE(c, budget + 1e-9);
        for (size_t i : s) {
          for (size_t j : conf[i]) {
            EXPECT_EQ(std::count(s.begin(), s.end(), j), 0);
          }
        }
        return true;
      });
}

TEST(MbsTest, VisitReturningFalseStopsEnumeration) {
  std::vector<double> costs(8, 1.0);
  size_t seen = 0;
  MbsStats stats = EnumerateMaximalBoundedSets(
      costs, NoConflicts(8), 2.0, 100000, [&](const std::vector<size_t>&) {
        ++seen;
        return seen < 3;
      });
  EXPECT_EQ(seen, 3u);
  EXPECT_EQ(stats.emitted, 3u);
  EXPECT_FALSE(stats.truncated);
}

TEST(MbsTest, MaxSetsTruncates) {
  std::vector<double> costs(10, 1.0);
  MbsStats stats = EnumerateMaximalBoundedSets(
      costs, NoConflicts(10), 3.0, 5,
      [](const std::vector<size_t>&) { return true; });
  EXPECT_EQ(stats.emitted, 5u);
  EXPECT_TRUE(stats.truncated);
}

// A random *monotone* admissibility predicate: a set is admissible unless
// it contains one of a few random forbidden subsets (so the admissible
// family is downward closed, as the guard is under Lemma 1). The
// enumerator must emit exactly the maximal admissible bounded sets, and
// its Lemma 1 shortcuts must keep it from asking about one set twice,
// about a superset of a dead singleton, or about a superset of a set it
// was told is inadmissible higher up the same DFS path. `current` is the
// DFS stack, so "the same path" is visible from outside: a later request
// whose `current` extends the rejected request's `current`.
class MbsAdmitPropertyTest : public testing::TestWithParam<int> {};

TEST_P(MbsAdmitPropertyTest, MatchesBruteForceAndSkipsSettledChecks) {
  uint64_t state = static_cast<uint64_t>(GetParam()) * 2654435761u + 7;
  auto next = [&]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % 1000;
  };
  size_t n = 3 + next() % 9;  // 3..11 ops
  std::vector<double> costs(n);
  for (double& c : costs) c = 0.25 + static_cast<double>(next() % 8) / 4.0;
  double budget = 1.0 + static_cast<double>(next() % 12) / 2.0;
  std::vector<std::vector<size_t>> conf(n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      if (next() % 12 == 0) {
        conf[i].push_back(j);
        conf[j].push_back(i);
      }
    }
  }
  // Forbidden subsets of size 1..3; singletons make dead operators.
  std::vector<IndexSet> forbidden(1 + next() % 5);
  for (IndexSet& f : forbidden) {
    size_t size = 1 + next() % 3;
    while (f.size() < size) f.insert(next() % n);
  }
  auto admissible = [&](const IndexSet& s) {
    for (const IndexSet& f : forbidden) {
      if (std::includes(s.begin(), s.end(), f.begin(), f.end())) return false;
    }
    return true;
  };

  struct Rejection {
    std::vector<size_t> current;
    size_t next;
  };
  std::vector<Rejection> rejected;
  std::set<IndexSet> asked;
  size_t repeats = 0;
  size_t settled = 0;  // asked although an earlier rejection settled it
  AdmitFn admit = [&](const std::vector<size_t>& cur, size_t j) {
    IndexSet s(cur.begin(), cur.end());
    s.insert(j);
    if (!asked.insert(s).second) ++repeats;
    for (const Rejection& r : rejected) {
      bool same_path = r.current.size() <= cur.size() &&
                       std::equal(r.current.begin(), r.current.end(),
                                  cur.begin());
      if (same_path && s.count(r.next)) ++settled;
    }
    bool ok = admissible(s);
    if (!ok) rejected.push_back({cur, j});
    return ok;
  };
  std::vector<IndexSet> emitted;
  MbsStats stats = EnumerateMaximalBoundedSets(
      costs, conf, budget, 100000,
      [&](const std::vector<size_t>& s) {
        emitted.emplace_back(s.begin(), s.end());
        return true;
      },
      admit);
  EXPECT_EQ(repeats, 0u);
  EXPECT_EQ(settled, 0u);
  EXPECT_EQ(stats.guard_checks, asked.size());

  ExpectSameSets(emitted, BruteForce(costs, conf, budget, admissible));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MbsAdmitPropertyTest, testing::Range(0, 40));

}  // namespace
}  // namespace whyq

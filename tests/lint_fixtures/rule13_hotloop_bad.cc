// Fixture (never compiled): allocations inside the loops of hot-path
// functions — rule "hot-loop-alloc" must flag each allocation or
// container-growth token inside a loop of Extend / SearchFrom / Recurse /
// Maximal / Walk / EstimateWhy / EstimateWhyNot.
#include <vector>

namespace whyq {

bool Extend(std::vector<int>& scratch, int n) {
  for (int v = 0; v < n; ++v) {
    scratch.push_back(v);  // BAD: growth per embedding step
  }
  return false;
}

bool SearchFrom(std::vector<int*>& slots, int n) {
  while (n > 0) {
    slots[0] = new int(n);  // BAD: allocation per candidate root
    --n;
  }
  return true;
}

bool Walk(std::vector<int>& trail, int n) {
  for (int v = 0; v < n; ++v) {
    trail.emplace_back(v);  // BAD: growth per visited neighbor
  }
  return false;
}

int EstimateWhy(std::vector<int>& live, const std::vector<int>& nodes) {
  int passed = 0;
  for (int v : nodes) {
    live.assign(4, v);  // BAD: a per-rewrite binding rebuilt per probed node
    passed += live[0];
  }
  return passed;
}

}  // namespace whyq

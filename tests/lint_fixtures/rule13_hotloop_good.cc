// Fixture (never compiled): rule "hot-loop-alloc" negative cases — the
// hot path pre-sizes its scratch before entering the loop, and growth in
// cold functions (or outside any loop) is fine.
#include <vector>

namespace whyq {

bool Extend(std::vector<int>& scratch, int n) {
  scratch.reserve(static_cast<size_t>(n));  // ok: outside the loop
  for (int v = 0; v < n; ++v) {
    scratch[static_cast<size_t>(v)] = v;  // ok: pre-sized slot write
  }
  return false;
}

int EstimateWhyNot(std::vector<int>& live, const std::vector<int>& nodes) {
  live.assign(4, 0);  // ok: the per-rewrite binding, before the node loop
  int passed = 0;
  for (int v : nodes) {
    passed += live[static_cast<size_t>(v) % 4];  // ok: no growth per node
  }
  return passed;
}

std::vector<int> CollectMatches(int n) {
  std::vector<int> out;
  for (int v = 0; v < n; ++v) {
    out.push_back(v);  // ok: cold function, growth is the point
  }
  return out;
}

}  // namespace whyq

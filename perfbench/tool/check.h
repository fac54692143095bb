#ifndef PERFBENCH_TOOL_CHECK_H_
#define PERFBENCH_TOOL_CHECK_H_

// Answer check: every distinct (request, response) pair the daemon
// produced is re-derived independently and compared field by field.

#include <string>
#include <vector>

#include "whyq.h"

namespace perfbench {

struct CheckVerdict {
  bool ok = false;
  std::string error;        // first mismatch, empty when ok
  bool why_family = false;  // why / why-not (closeness/cost meaningful)
  double closeness = 0.0;   // reported closeness (0 when not found)
  double cost = 0.0;        // reported editing cost
  double library_ms = 0.0;  // in-process threads=1 call
};

/// Checks one pair against graph `g` (the workload's base graph; the
/// serve_update writes are answer-preserving by construction):
///  - the rewritten query is re-parsed and re-evaluated with
///    WhyEvaluator / WhyNotEvaluator::Evaluate: closeness must match the
///    reported one, the guard must hold, and cost <= B;
///  - found, explanation (the operator set), rewritten query, closeness and
///    cost must equal the in-process library call at threads=1;
///  - the reported base answer count must equal Matcher::MatchOutput.
CheckVerdict CheckPair(const whyq::Graph& g, const std::string& request,
                       const std::string& response);

/// Checks all pairs on up to `threads` threads (each check is serial).
std::vector<CheckVerdict> CheckPairs(
    const whyq::Graph& g,
    const std::vector<std::pair<std::string, std::string>>& pairs,
    size_t threads);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_CHECK_H_

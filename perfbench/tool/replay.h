#ifndef PERFBENCH_TOOL_REPLAY_H_
#define PERFBENCH_TOOL_REPLAY_H_

// The traced per-layer replay: times the public function of each layer on
// the workload's own generated inputs, from outside the library, and
// records one span per call.

#include <map>
#include <string>
#include <vector>

#include "tool/trace.h"

namespace perfbench {

struct ReplayInputs {
  std::string graph_path;
  std::vector<std::string> requests;   // the workload's wire request pool
  std::vector<std::string> questions;  // why/why-not lines for the searches
  std::vector<std::string> updates;    // update lines (may be empty)
  size_t cache_capacity = 0;           // the daemon's prepared-cache size
};

struct ReplayResult {
  std::map<std::string, double> metrics;  // per-layer metric name -> value
  std::vector<Span> spans;
  /// Every question's serial replay emitted the same number of sets and
  /// reached the same best closeness as ExactWhy / ExactWhyNot at
  /// threads=1.
  bool reconciled = true;
  std::string reconcile_error;
};

bool RunReplay(const ReplayInputs& in, ReplayResult* out, std::string* error);

/// Writes the spans as one JSON array (one object per line).
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_REPLAY_H_

#ifndef PERFBENCH_TOOL_LOAD_H_
#define PERFBENCH_TOOL_LOAD_H_

// The load generator: closed-loop clients that draw every request from one
// shared sequence (each keeping up to `inflight` requests outstanding, the
// next sent only when one completes), plus an optional open-loop update
// writer (one batch every kUpdatePeriodMs), all talking to one daemon over
// loopback TCP.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct LoadConfig {
  uint16_t port = 0;
  std::vector<std::string> requests;  // the pool (wire lines without "id")
  std::vector<std::string> updates;   // sent in order by the writer
  size_t clients = 1;
  size_t inflight = 1;        // outstanding requests per client connection
  bool zipf = false;          // Zipf(1) popularity draws (else permutations)
  double seconds = 1.0;
  uint64_t seed = 1;
};

/// One closed-loop request. `answer` indexes LoadResult::answers (the
/// distinct (pool index, answer) pairs), or is -1 when the exchange
/// failed at the transport level.
struct RequestRecord {
  uint32_t pool_index = 0;
  uint64_t draw = 0;    // position in the shared sequence (pass = draw / n)
  int64_t send_ns = 0;  // relative to the run start
  int64_t recv_ns = 0;
  int32_t answer = -1;
  bool ok = false;          // status "ok"
  bool truncated = false;
  double latency_ms = 0.0;  // the daemon's own per-request figures
  double queue_ms = 0.0;
  double parse_ms = 0.0;
  double prepare_ms = 0.0;
  double search_ms = 0.0;
};

struct UpdateRecord {
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  bool ok = false;
};

struct LoadResult {
  std::vector<RequestRecord> requests;  // in send order
  std::vector<UpdateRecord> updates;
  /// Distinct (pool index, answer) pairs for the answer check: the answer
  /// is the response object without its id and "stats".
  std::vector<std::pair<uint32_t, std::string>> answers;
};

/// Runs the load for cfg.seconds; false (with `error`) when a connection
/// cannot be opened.
bool RunLoad(const LoadConfig& cfg, LoadResult* out, std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_LOAD_H_

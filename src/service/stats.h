#ifndef WHYQ_SERVICE_STATS_H_
#define WHYQ_SERVICE_STATS_H_

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"

namespace whyq {

/// Latency summary over one request class, derived from a
/// StreamingHistogram covering the whole process lifetime: count/min/mean/
/// max are exact, the percentiles are log-bucketed (<= 12.5% relative
/// resolution) and always reflect *all* traffic — they cannot freeze on a
/// warmup sample buffer.
struct LatencySummary {
  uint64_t count = 0;
  double min_ms = 0.0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;

  /// Non-empty histogram buckets as (lower bound ms, count) pairs, for
  /// machine-readable export; bucket upper bound = next bucket's lower.
  std::vector<std::pair<double, uint64_t>> buckets;
};

/// Wall-clock totals (ms) summed over every completed request, one slot
/// per RequestTrace stage plus the end-to-end latency they decompose.
/// queue + parse + prepare + search ~= latency (small bookkeeping residue).
struct StageTotals {
  double queue_ms = 0.0;
  double parse_ms = 0.0;
  double prepare_ms = 0.0;
  double candidates_ms = 0.0;    // prepare sub-stage (cache misses only)
  double answer_match_ms = 0.0;  // prepare sub-stage (cache misses only)
  double path_index_ms = 0.0;    // prepare sub-stage (cache misses only)
  double search_ms = 0.0;
  double latency_ms = 0.0;
};

/// Hot-loop work totals summed over every completed request.
struct WorkTotals {
  uint64_t matcher_candidates = 0;
  uint64_t mbs_enumerated = 0;
  uint64_t mbs_verified = 0;
  uint64_t guard_checks = 0;
  uint64_t greedy_rounds = 0;
  // Candidate-memo (MatchContext) totals — see RequestTrace.
  uint64_t ctx_hits = 0;
  uint64_t ctx_misses = 0;
  uint64_t ctx_delta_builds = 0;
  uint64_t ctx_pruned = 0;
};

/// One slow request retained by the bounded slow-query log.
struct SlowQueryEntry {
  uint64_t seq = 0;  // completion index (1-based) when it was recorded
  std::string klass;
  double latency_ms = 0.0;
  bool truncated = false;
  bool cache_hit = false;
  RequestTrace trace;
};

/// A consistent copy of the service counters, snapshotable at any time.
///
/// Reconciliation invariants (exact once the service is drained; received
/// may transiently exceed the terminal counts while requests are in
/// flight, never the reverse):
///   received  == completed + bad_requests
///   completed == cache_hits + cache_misses
/// and every Submit() call lands in exactly one of received / rejected /
/// shutdown.
struct StatsSnapshot {
  uint64_t received = 0;   // accepted into the queue (or executed inline)
  uint64_t rejected = 0;   // backpressure: bounded queue was full
  uint64_t shutdown = 0;   // submitted after Stop(), resolved kShutdown
  uint64_t completed = 0;  // ok responses produced
  uint64_t truncated = 0;  // ... of which deadline/cancellation clipped
  uint64_t bad_requests = 0;  // invalid input or contained internal error
  uint64_t cache_hits = 0;    // prepared-question artifacts reused
  uint64_t cache_misses = 0;  // built fresh (and inserted when complete)

  /// Graph-update counters (docs/ARCHITECTURE.md "Mutable graphs &
  /// epochs"). graph_generation is the published epoch's generation();
  /// for a text-loaded graph it equals updates_applied (every successful
  /// ApplyUpdate bumps both by one). cache_invalidated counts prepared
  /// entries dropped because their footprint intersected an update delta
  /// — each will cost a later cache miss if its query returns, so
  /// cache_invalidated <= cache_misses once those queries have re-run.
  /// cache_rekeyed counts entries carried across an epoch verbatim.
  uint64_t updates_applied = 0;    // successful ApplyUpdate publishes
  uint64_t graph_generation = 0;   // generation() of the published epoch
  uint64_t cache_invalidated = 0;  // prepared entries dropped by updates
  uint64_t cache_rekeyed = 0;      // prepared entries carried across epochs

  /// Plan-store counters (service/plan.h), merged in by WhyqService::Stats
  /// when a store is configured; all zero otherwise. Every cache miss makes
  /// exactly one store probe, so with a store enabled
  ///   plan_store_hits + plan_store_misses == cache_misses
  /// (tools/check_stats_json.sh reconciles this on a live run).
  uint64_t plan_store_hits = 0;    // store probes serving a validated plan
  uint64_t plan_store_misses = 0;  // store probes finding nothing usable
  uint64_t plan_store_writes = 0;  // plan files durably written
  uint64_t plan_store_evictions = 0;  // files dropped by the byte budget
  uint64_t plan_store_invalid = 0;    // files rejected or update-staled

  /// Keyed by "<kind>/<algo>" (e.g. "why/auto", "whynot/exact").
  std::map<std::string, LatencySummary> latency;

  StageTotals stages;  // where completed requests spent their time
  WorkTotals work;     // how much hot-loop work they did

  double slow_threshold_ms = 0.0;     // 0 = slow-query log disabled
  std::vector<SlowQueryEntry> slow;   // oldest first, newest last

  /// Multi-line human-readable rendering (one row per request class).
  std::string ToString() const;

  /// Machine-readable JSON object mirroring every field above (stable
  /// key names documented in docs/ARCHITECTURE.md "Stats glossary").
  std::string ToJson() const;
};

/// Thread-safe counter block shared by the workers. Latencies feed one
/// StreamingHistogram per request class — O(1) memory, whole-lifetime
/// percentiles — so snapshots track current traffic forever (the old
/// first-65536-samples buffer froze min/mean/p95/max after warmup).
class ServiceStats {
 public:
  /// Slow-query log: completed requests with latency >= threshold_ms are
  /// retained (newest `capacity`, ring-buffer style). threshold_ms <= 0
  /// disables the log; capacity 0 clamps to 1 when enabled.
  void ConfigureSlowLog(double threshold_ms, size_t capacity)
      WHYQ_EXCLUDES(mu_);

  void RecordReceived() { received_.Add(); }
  void RecordRejected() { rejected_.Add(); }
  void RecordShutdown() { shutdown_.Add(); }
  void RecordBadRequest() { bad_requests_.Add(); }
  void RecordCompleted(const std::string& klass, double latency_ms,
                       bool truncated, bool cache_hit,
                       const RequestTrace& trace) WHYQ_EXCLUDES(mu_);
  /// Convenience for callers without a trace (tests, ad-hoc use).
  void RecordCompleted(const std::string& klass, double latency_ms,
                       bool truncated, bool cache_hit) {
    RecordCompleted(klass, latency_ms, truncated, cache_hit, RequestTrace());
  }
  /// One successful ApplyUpdate publish: the new epoch's generation and
  /// the cache ApplyDelta outcome (entries dropped / carried over).
  void RecordUpdate(uint64_t generation, size_t invalidated, size_t rekeyed)
      WHYQ_EXCLUDES(mu_);

  StatsSnapshot Snapshot() const WHYQ_EXCLUDES(mu_);

 private:
  /// Drops the oldest slow-log entries beyond slow_capacity_ — the shared
  /// tail of ConfigureSlowLog (capacity shrank) and RecordCompleted (one
  /// entry appended). Caller holds mu_.
  void TrimSlowLocked() WHYQ_REQUIRES(mu_);

  // Monotonic submission-side counters: lock-free Counters, each exact on
  // its own. Snapshot() reads them *after* copying the mutex-guarded
  // terminal counts, so received >= completed + bad_requests holds in
  // every snapshot (each completion's RecordReceived happened before it).
  Counter received_;
  Counter rejected_;
  Counter shutdown_;
  Counter bad_requests_;

  mutable Mutex mu_;  // guards everything below
  uint64_t completed_ WHYQ_GUARDED_BY(mu_) = 0;
  uint64_t truncated_ WHYQ_GUARDED_BY(mu_) = 0;
  uint64_t cache_hits_ WHYQ_GUARDED_BY(mu_) = 0;
  uint64_t cache_misses_ WHYQ_GUARDED_BY(mu_) = 0;
  uint64_t updates_applied_ WHYQ_GUARDED_BY(mu_) = 0;
  uint64_t graph_generation_ WHYQ_GUARDED_BY(mu_) = 0;
  uint64_t cache_invalidated_ WHYQ_GUARDED_BY(mu_) = 0;
  uint64_t cache_rekeyed_ WHYQ_GUARDED_BY(mu_) = 0;
  StageTotals stages_ WHYQ_GUARDED_BY(mu_);
  WorkTotals work_ WHYQ_GUARDED_BY(mu_);
  std::map<std::string, StreamingHistogram> latency_ WHYQ_GUARDED_BY(mu_);
  double slow_threshold_ms_ WHYQ_GUARDED_BY(mu_) = 0.0;
  size_t slow_capacity_ WHYQ_GUARDED_BY(mu_) = 0;
  std::deque<SlowQueryEntry> slow_ WHYQ_GUARDED_BY(mu_);
};

}  // namespace whyq

#endif  // WHYQ_SERVICE_STATS_H_

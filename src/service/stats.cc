#include "service/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "common/table.h"

namespace whyq {

namespace {

// Minimal JSON emission helpers (the snapshot's strings are request-class
// labels and never exotic, but escape defensively anyway).
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void AppendStages(std::ostringstream& os, const StageTotals& s) {
  os << "{\"queue\":" << JsonNum(s.queue_ms)
     << ",\"parse\":" << JsonNum(s.parse_ms)
     << ",\"prepare\":" << JsonNum(s.prepare_ms)
     << ",\"candidates\":" << JsonNum(s.candidates_ms)
     << ",\"answer_match\":" << JsonNum(s.answer_match_ms)
     << ",\"path_index\":" << JsonNum(s.path_index_ms)
     << ",\"search\":" << JsonNum(s.search_ms)
     << ",\"latency\":" << JsonNum(s.latency_ms) << "}";
}

void AppendWork(std::ostringstream& os, const WorkTotals& w) {
  os << "{\"matcher_candidates\":" << w.matcher_candidates
     << ",\"mbs_enumerated\":" << w.mbs_enumerated
     << ",\"mbs_verified\":" << w.mbs_verified
     << ",\"guard_checks\":" << w.guard_checks
     << ",\"greedy_rounds\":" << w.greedy_rounds
     << ",\"ctx_hits\":" << w.ctx_hits << ",\"ctx_misses\":" << w.ctx_misses
     << ",\"ctx_delta_builds\":" << w.ctx_delta_builds
     << ",\"ctx_pruned\":" << w.ctx_pruned << "}";
}

StageTotals TraceStages(const RequestTrace& t, double latency_ms) {
  StageTotals s;
  s.queue_ms = t.queue_ms;
  s.parse_ms = t.parse_ms;
  s.prepare_ms = t.prepare_ms;
  s.candidates_ms = t.candidates_ms;
  s.answer_match_ms = t.answer_match_ms;
  s.path_index_ms = t.path_index_ms;
  s.search_ms = t.search_ms;
  s.latency_ms = latency_ms;
  return s;
}

}  // namespace

void ServiceStats::TrimSlowLocked() {
  while (slow_.size() > slow_capacity_) slow_.pop_front();
}

void ServiceStats::ConfigureSlowLog(double threshold_ms, size_t capacity) {
  MutexLock lock(mu_);
  slow_threshold_ms_ = threshold_ms > 0 ? threshold_ms : 0.0;
  slow_capacity_ = slow_threshold_ms_ > 0 ? std::max<size_t>(capacity, 1) : 0;
  TrimSlowLocked();
}

void ServiceStats::RecordCompleted(const std::string& klass,
                                   double latency_ms, bool truncated,
                                   bool cache_hit,
                                   const RequestTrace& trace) {
  MutexLock lock(mu_);
  ++completed_;
  if (truncated) ++truncated_;
  if (cache_hit) {
    ++cache_hits_;
  } else {
    ++cache_misses_;
  }
  latency_[klass].Record(latency_ms);
  stages_.queue_ms += trace.queue_ms;
  stages_.parse_ms += trace.parse_ms;
  stages_.prepare_ms += trace.prepare_ms;
  stages_.candidates_ms += trace.candidates_ms;
  stages_.answer_match_ms += trace.answer_match_ms;
  stages_.path_index_ms += trace.path_index_ms;
  stages_.search_ms += trace.search_ms;
  stages_.latency_ms += latency_ms;
  work_.matcher_candidates += trace.matcher_candidates;
  work_.mbs_enumerated += trace.mbs_enumerated;
  work_.mbs_verified += trace.mbs_verified;
  work_.guard_checks += trace.guard_checks;
  work_.greedy_rounds += trace.greedy_rounds;
  work_.ctx_hits += trace.ctx_hits;
  work_.ctx_misses += trace.ctx_misses;
  work_.ctx_delta_builds += trace.ctx_delta_builds;
  work_.ctx_pruned += trace.ctx_pruned;
  if (slow_threshold_ms_ > 0 && latency_ms >= slow_threshold_ms_) {
    SlowQueryEntry e;
    e.seq = completed_;
    e.klass = klass;
    e.latency_ms = latency_ms;
    e.truncated = truncated;
    e.cache_hit = cache_hit;
    e.trace = trace;
    slow_.push_back(std::move(e));
    TrimSlowLocked();
  }
}

void ServiceStats::RecordUpdate(uint64_t generation, size_t invalidated,
                                size_t rekeyed) {
  MutexLock lock(mu_);
  ++updates_applied_;
  graph_generation_ = generation;
  cache_invalidated_ += invalidated;
  cache_rekeyed_ += rekeyed;
}

StatsSnapshot ServiceStats::Snapshot() const {
  StatsSnapshot out;
  {
    MutexLock lock(mu_);
    out.completed = completed_;
    out.truncated = truncated_;
    out.cache_hits = cache_hits_;
    out.cache_misses = cache_misses_;
    out.updates_applied = updates_applied_;
    out.graph_generation = graph_generation_;
    out.cache_invalidated = cache_invalidated_;
    out.cache_rekeyed = cache_rekeyed_;
    out.stages = stages_;
    out.work = work_;
    out.slow_threshold_ms = slow_threshold_ms_;
    out.slow.assign(slow_.begin(), slow_.end());
    for (const auto& [klass, hist] : latency_) {
      if (hist.count() == 0) continue;
      LatencySummary s;
      s.count = hist.count();
      s.min_ms = hist.min();
      s.mean_ms = hist.mean();
      s.p50_ms = hist.Quantile(0.50);
      s.p95_ms = hist.Quantile(0.95);
      s.p99_ms = hist.Quantile(0.99);
      s.max_ms = hist.max();
      for (size_t i = 0; i < StreamingHistogram::kBucketCount; ++i) {
        if (hist.BucketCount(i) > 0) {
          s.buckets.emplace_back(StreamingHistogram::BucketLowerBound(i),
                                 hist.BucketCount(i));
        }
      }
      out.latency[klass] = std::move(s);
    }
  }
  // Read the submission-side counters *after* the terminal counts so
  // received >= completed + bad_requests in every snapshot (each
  // completion's RecordReceived happened strictly before it).
  out.bad_requests = bad_requests_.Value();
  out.rejected = rejected_.Value();
  out.shutdown = shutdown_.Value();
  out.received = received_.Value();
  return out;
}

std::string StatsSnapshot::ToString() const {
  std::ostringstream os;
  os << "requests: received=" << received << " rejected=" << rejected
     << " completed=" << completed << " truncated=" << truncated
     << " bad=" << bad_requests << " shutdown=" << shutdown << "\n";
  os << "prepared cache: hits=" << cache_hits << " misses=" << cache_misses;
  uint64_t looked_up = cache_hits + cache_misses;
  if (looked_up > 0) {
    os << " (" << TextTable::Num(100.0 * static_cast<double>(cache_hits) /
                                     static_cast<double>(looked_up),
                                 1)
       << "% hit rate)";
  }
  os << "\n";
  if (plan_store_hits + plan_store_misses + plan_store_writes +
          plan_store_evictions + plan_store_invalid >
      0) {
    os << "plan store: hits=" << plan_store_hits
       << " misses=" << plan_store_misses << " writes=" << plan_store_writes
       << " evictions=" << plan_store_evictions
       << " invalid=" << plan_store_invalid << "\n";
  }
  if (updates_applied > 0) {
    os << "updates: applied=" << updates_applied
       << " generation=" << graph_generation
       << " cache-invalidated=" << cache_invalidated
       << " cache-rekeyed=" << cache_rekeyed << "\n";
  }
  for (const auto& [klass, s] : latency) {
    os << "  " << klass << ": n=" << s.count << " min="
       << TextTable::Num(s.min_ms, 2) << "ms mean="
       << TextTable::Num(s.mean_ms, 2) << "ms p50="
       << TextTable::Num(s.p50_ms, 2) << "ms p95="
       << TextTable::Num(s.p95_ms, 2) << "ms p99="
       << TextTable::Num(s.p99_ms, 2) << "ms max="
       << TextTable::Num(s.max_ms, 2) << "ms\n";
  }
  if (completed > 0) {
    os << "stage totals: queue=" << TextTable::Num(stages.queue_ms, 1)
       << "ms parse=" << TextTable::Num(stages.parse_ms, 1)
       << "ms prepare=" << TextTable::Num(stages.prepare_ms, 1)
       << "ms (candidates=" << TextTable::Num(stages.candidates_ms, 1)
       << "ms match=" << TextTable::Num(stages.answer_match_ms, 1)
       << "ms path-index=" << TextTable::Num(stages.path_index_ms, 1)
       << "ms) search=" << TextTable::Num(stages.search_ms, 1)
       << "ms | latency=" << TextTable::Num(stages.latency_ms, 1) << "ms\n";
    os << "work totals: candidates=" << work.matcher_candidates
       << " mbs-enumerated=" << work.mbs_enumerated
       << " mbs-verified=" << work.mbs_verified
       << " guard-checks=" << work.guard_checks
       << " greedy-rounds=" << work.greedy_rounds << "\n";
    os << "ctx totals: hits=" << work.ctx_hits
       << " misses=" << work.ctx_misses
       << " delta-builds=" << work.ctx_delta_builds
       << " pruned=" << work.ctx_pruned;
    uint64_t lookups = work.ctx_hits + work.ctx_misses + work.ctx_delta_builds;
    if (lookups > 0) {
      os << " (" << TextTable::Num(100.0 * static_cast<double>(work.ctx_hits) /
                                       static_cast<double>(lookups),
                                   1)
         << "% hit rate)";
    }
    os << "\n";
  }
  if (slow_threshold_ms > 0) {
    os << "slow queries (>= " << TextTable::Num(slow_threshold_ms, 1)
       << "ms): " << slow.size() << " retained\n";
    for (const SlowQueryEntry& e : slow) {
      os << "  #" << e.seq << " " << e.klass << " "
         << TextTable::Num(e.latency_ms, 2) << "ms"
         << (e.truncated ? " truncated" : "")
         << (e.cache_hit ? " cached" : "") << "\n";
      std::istringstream lines(e.trace.ToString());
      std::string line;
      while (std::getline(lines, line)) os << "    " << line << "\n";
    }
  }
  return os.str();
}

std::string StatsSnapshot::ToJson() const {
  std::ostringstream os;
  os << "{\"counters\":{\"received\":" << received
     << ",\"rejected\":" << rejected << ",\"shutdown\":" << shutdown
     << ",\"completed\":" << completed << ",\"truncated\":" << truncated
     << ",\"bad_requests\":" << bad_requests
     << ",\"cache_hits\":" << cache_hits
     << ",\"cache_misses\":" << cache_misses
     << ",\"updates_applied\":" << updates_applied
     << ",\"graph_generation\":" << graph_generation
     << ",\"cache_invalidated\":" << cache_invalidated
     << ",\"cache_rekeyed\":" << cache_rekeyed
     << ",\"plan_store_hits\":" << plan_store_hits
     << ",\"plan_store_misses\":" << plan_store_misses
     << ",\"plan_store_writes\":" << plan_store_writes
     << ",\"plan_store_evictions\":" << plan_store_evictions
     << ",\"plan_store_invalid\":" << plan_store_invalid << "}";
  os << ",\"latency_ms\":{";
  bool first = true;
  for (const auto& [klass, s] : latency) {
    if (!first) os << ",";
    first = false;
    os << "\"" << JsonEscape(klass) << "\":{\"count\":" << s.count
       << ",\"min\":" << JsonNum(s.min_ms) << ",\"mean\":" << JsonNum(s.mean_ms)
       << ",\"p50\":" << JsonNum(s.p50_ms) << ",\"p95\":" << JsonNum(s.p95_ms)
       << ",\"p99\":" << JsonNum(s.p99_ms) << ",\"max\":" << JsonNum(s.max_ms)
       << ",\"buckets\":[";
    for (size_t i = 0; i < s.buckets.size(); ++i) {
      if (i > 0) os << ",";
      os << "[" << JsonNum(s.buckets[i].first) << "," << s.buckets[i].second
         << "]";
    }
    os << "]}";
  }
  os << "}";
  os << ",\"stage_totals_ms\":";
  AppendStages(os, stages);
  os << ",\"work\":";
  AppendWork(os, work);
  os << ",\"slow_queries\":{\"threshold_ms\":" << JsonNum(slow_threshold_ms)
     << ",\"entries\":[";
  for (size_t i = 0; i < slow.size(); ++i) {
    const SlowQueryEntry& e = slow[i];
    if (i > 0) os << ",";
    os << "{\"seq\":" << e.seq << ",\"class\":\"" << JsonEscape(e.klass)
       << "\",\"latency_ms\":" << JsonNum(e.latency_ms)
       << ",\"truncated\":" << (e.truncated ? "true" : "false")
       << ",\"cache_hit\":" << (e.cache_hit ? "true" : "false")
       << ",\"stages_ms\":";
    AppendStages(os, TraceStages(e.trace, e.latency_ms));
    os << ",\"work\":";
    WorkTotals w;
    w.matcher_candidates = e.trace.matcher_candidates;
    w.mbs_enumerated = e.trace.mbs_enumerated;
    w.mbs_verified = e.trace.mbs_verified;
    w.guard_checks = e.trace.guard_checks;
    w.greedy_rounds = e.trace.greedy_rounds;
    w.ctx_hits = e.trace.ctx_hits;
    w.ctx_misses = e.trace.ctx_misses;
    w.ctx_delta_builds = e.trace.ctx_delta_builds;
    w.ctx_pruned = e.trace.ctx_pruned;
    AppendWork(os, w);
    os << "}";
  }
  os << "]}}";
  return os.str();
}

}  // namespace whyq

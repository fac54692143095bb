#include "tool/load.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <numeric>
#include <thread>
#include <unordered_map>

#include "common/net.h"
#include "common/rng.h"
#include "tool/inputs.h"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// A blocking loopback connection speaking newline-delimited lines.
class Conn {
 public:
  bool Open(uint16_t port, std::string* error) {
    fd_ = whyq::ConnectTcp(port, error);
    if (!fd_.valid()) return false;
    int one = 1;
    ::setsockopt(fd_.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return true;
  }

  /// Sends `line` (newline included); false on a transport failure.
  bool Send(const std::string& line) {
    for (size_t sent = 0; sent < line.size();) {
      ssize_t n = ::send(fd_.get(), line.data() + sent, line.size() - sent,
                         MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one reply line into `reply` (newline stripped); false on a
  /// transport failure.
  bool Read(std::string* reply) {
    for (;;) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        reply->assign(buf_, 0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[65536];
      ssize_t n = ::recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  whyq::UniqueFd fd_;
  std::string buf_;
};

// The one request sequence every client draws from: seeded permutations of
// the pool, or seeded Zipf(1) draws where pool entry i has popularity rank
// i (the ranking is part of the workload, not of the seed, so every run
// caches the same hot set).
class Sequence {
 public:
  Sequence(size_t n, bool zipf, uint64_t seed)
      : n_(n), zipf_(zipf), rng_(seed * 7919 + 1) {}

  /// The next pool index; `*draw` receives its position in the sequence.
  uint32_t Next(uint64_t* draw) {
    std::lock_guard<std::mutex> lock(mu_);
    *draw = draws_++;
    if (zipf_) return static_cast<uint32_t>(rng_.Zipf(n_, 1.0));
    if (pending_.empty()) {
      pending_.resize(n_);
      std::iota(pending_.begin(), pending_.end(), 0);
      std::shuffle(pending_.begin(), pending_.end(), rng_.engine());
    }
    uint32_t i = static_cast<uint32_t>(pending_.back());
    pending_.pop_back();
    return i;
  }

 private:
  std::mutex mu_;
  size_t n_;
  bool zipf_;
  whyq::Rng rng_;
  uint64_t draws_ = 0;
  std::vector<size_t> pending_;
};

double StatField(const std::string& stats, const char* key) {
  size_t at = stats.find(key);
  if (at == std::string::npos) return 0.0;
  return std::strtod(stats.c_str() + at + std::char_traits<char>::length(key),
                     nullptr);
}

// The response as a JSON object without its id and trailing "stats"
// object: what the answer check and the answer digest look at.
// (EncodeResponse writes "id" first, "stats" last.) `stats` receives the
// stats object.
std::string AnswerKey(const std::string& resp, std::string* stats) {
  size_t start = resp.find(",\"status\"");
  if (start == std::string::npos) return resp;
  size_t st = resp.rfind(",\"stats\":{");
  if (st == std::string::npos || st < start) {
    return "{" + resp.substr(start + 1);
  }
  *stats = resp.substr(st);
  return "{" + resp.substr(start + 1, st - start - 1) + "}";
}

}  // namespace

bool RunLoad(const LoadConfig& cfg, LoadResult* out, std::string* error) {
  // One connection per client, plus the writer's.
  std::vector<Conn> conns(cfg.clients + (cfg.updates.empty() ? 0 : 1));
  for (Conn& c : conns) {
    if (!c.Open(cfg.port, error)) return false;
  }
  Sequence seq(cfg.requests.size(), cfg.zipf, cfg.seed);
  std::atomic<uint64_t> next_id{1};
  const Clock::time_point t0 = Clock::now();
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(cfg.seconds));
  auto rel = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - t0)
        .count();
  };

  std::vector<std::vector<RequestRecord>> per_client(cfg.clients);
  std::vector<std::vector<std::string>> replies(cfg.clients);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      // Up to cfg.inflight requests outstanding on this connection; each
      // reply (matched by id: workers finish out of order) frees one slot
      // for the next draw.
      std::unordered_map<uint64_t, size_t> pending;  // id -> record index
      auto send_next = [&] {
        RequestRecord r;
        r.pool_index = seq.Next(&r.draw);
        uint64_t id = next_id++;
        std::string line = "{\"id\":" + std::to_string(id) + "," +
                           cfg.requests[r.pool_index].substr(1) + "\n";
        r.send_ns = rel(Clock::now());
        pending[id] = per_client[c].size();
        per_client[c].push_back(r);
        replies[c].emplace_back();
        return conns[c].Send(line);
      };
      bool alive = true;
      for (size_t k = 0; k < cfg.inflight && alive; ++k) alive = send_next();
      std::string reply;
      while (alive && !pending.empty()) {
        constexpr size_t kIdAt = sizeof("{\"id\":") - 1;
        if (!conns[c].Read(&reply) || reply.size() < kIdAt) break;
        int64_t now = rel(Clock::now());
        auto it =
            pending.find(std::strtoull(reply.c_str() + kIdAt, nullptr, 10));
        if (it == pending.end()) break;  // not a reply to this client
        per_client[c][it->second].recv_ns = now;
        replies[c][it->second] = reply;
        pending.erase(it);
        if (Clock::now() < end) alive = send_next();
      }
      for (const auto& [id, index] : pending) {  // lost with the connection
        per_client[c][index].recv_ns = rel(Clock::now());
      }
    });
  }
  if (!cfg.updates.empty()) {
    threads.emplace_back([&] {
      Conn& conn = conns[cfg.clients];
      std::string reply;
      for (size_t k = 0; k < cfg.updates.size(); ++k) {
        auto due = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double, std::milli>(
                                double(k) * kUpdatePeriodMs));
        if (due >= end) break;
        std::this_thread::sleep_until(due);
        UpdateRecord u;
        u.due_ns = rel(due);
        u.send_ns = rel(Clock::now());
        bool ok = conn.Send("{\"id\":" + std::to_string(k + 1) + "," +
                            cfg.updates[k].substr(1) + "\n") &&
                  conn.Read(&reply);
        u.recv_ns = rel(Clock::now());
        u.ok = ok && reply.find("\"status\":\"ok\"") != std::string::npos;
        out->updates.push_back(u);
        if (!u.ok) break;  // later batches assume this one applied
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::map<std::pair<uint32_t, std::string>, int32_t> distinct;
  for (size_t c = 0; c < cfg.clients; ++c) {
    for (size_t i = 0; i < per_client[c].size(); ++i) {
      RequestRecord r = per_client[c][i];
      const std::string& resp = replies[c][i];
      if (!resp.empty()) {
        std::string stats;
        std::string key = AnswerKey(resp, &stats);
        r.ok = key.find("\"status\":\"ok\"") != std::string::npos;
        r.truncated = key.find("\"truncated\":true") != std::string::npos;
        r.latency_ms = StatField(stats, "\"latency_ms\":");
        r.queue_ms = StatField(stats, "\"queue_ms\":");
        r.parse_ms = StatField(stats, "\"parse_ms\":");
        r.prepare_ms = StatField(stats, "\"prepare_ms\":");
        r.search_ms = StatField(stats, "\"search_ms\":");
        auto [it, fresh] = distinct.emplace(
            std::make_pair(r.pool_index, key),
            static_cast<int32_t>(out->answers.size()));
        if (fresh) out->answers.emplace_back(r.pool_index, std::move(key));
        r.answer = it->second;
      }
      out->requests.push_back(r);
    }
  }
  std::sort(out->requests.begin(), out->requests.end(),
            [](const RequestRecord& a, const RequestRecord& b) {
              return a.send_ns < b.send_ns;
            });
  return true;
}

}  // namespace perfbench

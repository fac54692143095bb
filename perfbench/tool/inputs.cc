#include "tool/inputs.h"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "server/json.h"
#include "server/wire.h"
#include "tool/enumeration.h"

namespace perfbench {

using whyq::server::JsonEscape;

namespace {

// The ROADMAP's pinned question (BSBM-2000): ~1.1 s of guard checks that
// emit only 2 sets.
constexpr const char* kPinnedQuery =
    "node r Review rating >= i:5\nnode p Product\nedge r p reviewOf\n"
    "output r\n";
constexpr const char* kPinnedEntities = "[6536,6537]";
constexpr size_t kPinnedGuard = 400;

// Paper defaults (Section VI; bench/bench_common.h DefaultWorkload and
// DefaultAnswerConfig): |E_Q| = 4, two literals per node, 8..100 answers,
// |V_N| = |V_C| = 3, B = 4, m = 2.
constexpr int kBudget = 4;
constexpr size_t kGuard = 2;
// why-so-many target far above any generated answer size (<= 100): the
// search is trivial, the read exercises parse + prepare + encode only.
constexpr size_t kReadTargetK = 1000000;
// The generator is a serial random walk per item, so universes are drawn
// as kGenChunks independent chunks on one thread each. The count is fixed,
// so the data never depends on the host.
constexpr size_t kGenChunks = 4;
// Non-exact workloads replay the search layers on at most this many of
// their pool questions.
constexpr size_t kReplayQuestions = 8;
// Marks universe lines the load generator never sends.
constexpr const char* kReplayMarker = "{\"bench\":\"replay\",";

whyq::WorkloadConfig DefaultWorkload(size_t items, uint64_t seed) {
  whyq::WorkloadConfig w;
  w.items = items;
  w.query.edges = 4;
  w.query.literals_per_node = 2;
  w.query.slack = 0.6;
  w.query.min_answers = 8;
  w.query.max_answers = 100;
  w.why_size = 3;
  w.whynot_size = 3;
  w.seed = seed;
  return w;
}

std::string IdList(const std::vector<whyq::NodeId>& ids) {
  std::string s = "[";
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) s += ",";
    s += std::to_string(ids[i]);
  }
  return s + "]";
}

std::string QuestionLine(const char* kind, const std::string& query,
                         const std::string& entities, bool exact,
                         size_t guard, size_t max_mbs) {
  std::string s = "{\"question\":\"" + std::string(kind) + "\",\"query\":\"" +
                  JsonEscape(query) + "\",\"entities\":" + entities +
                  ",\"algo\":\"" + (exact ? "exact" : "auto") +
                  "\",\"budget\":" + std::to_string(kBudget) +
                  ",\"guard\":" + std::to_string(guard);
  if (exact) s += ",\"max_mbs\":" + std::to_string(max_mbs);
  return s + "}";
}

std::string ReadLine(const std::string& query) {
  return "{\"question\":\"whysomany\",\"query\":\"" + JsonEscape(query) +
         "\",\"target_k\":" + std::to_string(kReadTargetK) + "}";
}

bool IsReplayOnly(const std::string& line) {
  return line.rfind(kReplayMarker, 0) == 0;
}

std::string MarkReplayOnly(const std::string& line) {
  return kReplayMarker + line.substr(1);
}

// Generated items of kGenChunks independent chunks, in chunk order.
std::vector<whyq::Workload::Item> GenerateItems(const whyq::Graph& g,
                                                size_t items, uint64_t seed,
                                                bool queries_only) {
  std::vector<std::vector<whyq::Workload::Item>> chunks(kGenChunks);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kGenChunks; ++c) {
    threads.emplace_back([&, c] {
      whyq::WorkloadConfig wc =
          DefaultWorkload(items / kGenChunks, seed * kGenChunks * 4 + c);
      if (!queries_only) {
        chunks[c] = whyq::MakeWorkload(g, wc).items;
        return;
      }
      whyq::Rng rng(wc.seed);  // reads need no why / why-not draws
      for (size_t i = 0; i < wc.items; ++i) {
        std::optional<whyq::GeneratedQuery> gq =
            whyq::GenerateQuery(g, wc.query, rng);
        if (!gq.has_value()) continue;
        whyq::Workload::Item item;
        item.gq = std::move(*gq);
        chunks[c].push_back(std::move(item));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<whyq::Workload::Item> out;
  for (auto& chunk : chunks) {
    for (auto& item : chunk) out.push_back(std::move(item));
  }
  return out;
}

// Admits an exact question when its serial search (the enumeration replay)
// finishes under two deterministic work bounds: the emitted sets stay below
// the wire cap minus room for a parallel run, which may enumerate one batch
// past the serial early stop; and the matcher work of the guard checks —
// max_mbs does not bound it — stays within kMaxPrunedAttempts
// candidate-bitmap skips (the pinned question needs ~23M; one generated
// question needs 4.3G before its 2404th check).
bool ExactFinishesWithinCap(const whyq::Graph& g, const std::string& line) {
  constexpr size_t kParallelSlack = 64;
  constexpr uint64_t kMaxPrunedAttempts = 50000000;
  whyq::server::WireRequest wr;
  std::string err;
  if (!whyq::server::ParseWireRequest(line, &wr, &err)) return false;
  const whyq::ServiceRequest& r = wr.request;
  if (r.config.max_mbs <= kParallelSlack) return false;
  std::optional<whyq::Query> q = whyq::ParseQuery(r.query_text, g, &err);
  if (!q.has_value()) return false;
  std::vector<whyq::NodeId> answers = whyq::Matcher(g).MatchOutput(*q);
  whyq::AnswerConfig cfg = r.config;
  cfg.max_mbs -= kParallelSlack;
  if (r.kind == whyq::RequestKind::kWhy) {
    whyq::WhyEvaluator eval(g, answers, whyq::WhyQuestion{r.entities},
                            cfg.guard_m, cfg.semantics);
    return ReplayEnumeration(
               nullptr, 0, g, *q, cfg, eval, "why.GenPickyWhy",
               [&] {
                 return whyq::GenPickyWhy(g, *q, answers, eval.unexpected(),
                                          cfg);
               },
               kMaxPrunedAttempts)
        .finished;
  }
  whyq::WhyNotQuestion w;
  w.missing = r.entities;
  whyq::WhyNotEvaluator eval(g, answers, w, cfg.guard_m, cfg.semantics);
  return ReplayEnumeration(
             nullptr, 0, g, *q, cfg, eval, "why.GenPickyWhyNot",
             [&] { return whyq::GenPickyWhyNot(g, *q, eval.missing(), cfg); },
             kMaxPrunedAttempts)
      .finished;
}

// The why and why-not question of every item, as exact questions capped
// at `max_mbs`, keeping those the admission accepts (in item order).
std::vector<std::string> AdmittedExact(
    const whyq::Graph& g, const std::vector<whyq::Workload::Item>& items,
    size_t max_mbs) {
  std::vector<std::string> candidates;
  for (const whyq::Workload::Item& item : items) {
    std::string text = whyq::WriteQuery(item.gq.query, g);
    candidates.push_back(QuestionLine("why", text, IdList(item.why.unexpected),
                                      true, kGuard, max_mbs));
    candidates.push_back(QuestionLine(
        "whynot", text, IdList(item.whynot.missing), true, kGuard, max_mbs));
  }
  std::vector<char> admit(candidates.size(), 0);
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (size_t c = 0; c < kGenChunks; ++c) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < candidates.size(); i = next++) {
        admit[i] = ExactFinishesWithinCap(g, candidates[i]);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  std::vector<std::string> out;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (admit[i]) out.push_back(candidates[i]);
  }
  return out;
}

}  // namespace

size_t HostCores() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

bool LookupWorkload(const std::string& name, WorkloadSpec* out) {
  const size_t cores = HostCores();
  WorkloadSpec s;
  s.name = name;
  if (name == "exact_guard") {
    // One question at a time, searched by the intra-question pool.
    s.bsbm_products = 2000;
    s.items = 24;
    s.exact = true;
    s.max_mbs = 1000;
    s.pinned = true;
    s.threads = cores;
    s.tail_ceiling = 90.0;
  } else if (name == "greedy_mix") {
    // One question per worker, one worker per client.
    s.bsbm_products = 2000;
    s.items = 24;
    s.max_mbs = 1000;
    s.replay_exact = 4;
    s.workers = cores;
    s.clients = cores;
    s.tail_ceiling = 95.0;
  } else if (name == "serve_update") {
    // One core is left to the writer. A ~0.1 ms cache hit would leave the
    // workers idle between the reads of a one-at-a-time client, so each
    // keeps 8 outstanding.
    s.bsbm_products = 10000;
    s.items = 64;  // about twice the daemon's prepared-cache capacity
    s.reads = true;
    s.max_mbs = 1000;
    s.replay_exact = 4;
    s.workers = std::max<size_t>(1, cores - 1);
    s.cache = 32;
    s.clients = s.workers;
    s.inflight = 8;
    s.tail_ceiling = 99.0;
    s.window = 1000;
  } else {
    return false;
  }
  *out = s;
  return true;
}

whyq::Graph MakeGraph(const WorkloadSpec& spec) {
  whyq::BsbmConfig bc;
  bc.products = spec.bsbm_products;
  bc.seed = spec.graph_seed;
  return whyq::GenerateBsbm(bc);
}

std::vector<std::string> MakeUniverse(const WorkloadSpec& spec,
                                      const whyq::Graph& g,
                                      uint64_t generator_seed) {
  std::vector<std::string> out;
  std::vector<whyq::Workload::Item> items =
      GenerateItems(g, spec.items, generator_seed, spec.reads);
  if (spec.reads) {
    std::set<std::string> seen;
    for (const whyq::Workload::Item& item : items) {
      std::string text = whyq::WriteQuery(item.gq.query, g);
      if (seen.insert(text).second) out.push_back(ReadLine(text));
    }
  } else if (spec.exact) {
    if (spec.pinned) {
      out.push_back(QuestionLine("why", kPinnedQuery, kPinnedEntities, true,
                                 kPinnedGuard, spec.max_mbs));
    }
    for (std::string& l : AdmittedExact(g, items, spec.max_mbs)) {
      out.push_back(std::move(l));
    }
  } else {
    for (const whyq::Workload::Item& item : items) {
      std::string text = whyq::WriteQuery(item.gq.query, g);
      out.push_back(QuestionLine("why", text, IdList(item.why.unexpected),
                                 false, kGuard, 0));
      out.push_back(QuestionLine("whynot", text, IdList(item.whynot.missing),
                                 false, kGuard, 0));
    }
  }
  if (spec.replay_exact > 0) {
    // Exact questions for the search-layer replay of a workload whose pool
    // has none (greedy_mix) or no why / why-not questions (serve_update).
    std::vector<whyq::Workload::Item> extra =
        spec.reads ? GenerateItems(g, 2 * kGenChunks, generator_seed, false)
                   : items;
    std::vector<std::string> admitted = AdmittedExact(g, extra, spec.max_mbs);
    for (size_t i = 0; i < admitted.size() && i < spec.replay_exact; ++i) {
      out.push_back(MarkReplayOnly(admitted[i]));
    }
  }
  return out;
}

Generated Generate(const WorkloadSpec& spec, const whyq::Graph& g,
                   const std::vector<std::string>& universe, double seconds,
                   size_t limit) {
  Generated out;
  for (const std::string& line : universe) {
    if (IsReplayOnly(line)) {
      out.replay.push_back(line);
    } else if (limit == 0 || out.requests.size() < limit) {
      out.requests.push_back(line);
    }
  }
  size_t pool_replays = 0;
  for (const std::string& line : out.requests) {
    if (spec.reads) break;
    if (!spec.exact && pool_replays == kReplayQuestions) break;
    out.replay.push_back(line);
    ++pool_replays;
  }
  if (!spec.reads) return out;

  // serve_update: the touched queries rotate in pool order, so every run
  // invalidates the same entries at the same points of its schedule.
  std::vector<whyq::Query> queries;
  for (const std::string& line : out.requests) {
    whyq::server::WireRequest wr;
    std::string err;
    if (!whyq::server::ParseWireRequest(line, &wr, &err)) continue;
    std::optional<whyq::Query> q =
        whyq::ParseQuery(wr.request.query_text, g, &err);
    if (q.has_value()) queries.push_back(std::move(*q));
  }
  const size_t batches =
      static_cast<size_t>(seconds * 1000.0 / kUpdatePeriodMs) + 2;
  whyq::NodeId next = static_cast<whyq::NodeId>(g.node_count());
  for (size_t k = 0; k < batches; ++k) {
    out.updates.push_back(UpdateLine(MakeUpdate(g, queries, k, &next)));
  }
  return out;
}

whyq::UpdateBatch MakeUpdate(const whyq::Graph& g,
                             const std::vector<whyq::Query>& queries,
                             size_t k, whyq::NodeId* next_id) {
  whyq::UpdateBatch b;
  whyq::NodeId id = (*next_id)++;
  if (k % 2 == 0 || queries.empty()) {
    // Footprint-disjoint: a label and an attribute no query mentions, so
    // every cached entry is carried to the new epoch (rekeyed).
    b.ops.push_back(whyq::UpdateOp::AddNode("PerfbenchAux"));
    b.ops.push_back(whyq::UpdateOp::SetAttr(
        id, "perfbench_tag", whyq::Value(static_cast<int64_t>(k))));
    return b;
  }
  // Footprint-touching, answer-preserving: an isolated node carrying a
  // pool query's label and literal. Every generated query has edges, so an
  // isolated node never becomes an answer, yet the cache must drop (and
  // later rebuild) every entry whose footprint holds that label/attribute.
  const whyq::Query& q = queries[(k / 2) % queries.size()];
  whyq::QNodeId u = q.output();
  for (whyq::QNodeId v = 0; v < q.node_count(); ++v) {
    if (q.node(u).literals.empty() && !q.node(v).literals.empty()) u = v;
  }
  b.ops.push_back(whyq::UpdateOp::AddNode(g.NodeLabelName(q.node(u).label)));
  if (!q.node(u).literals.empty()) {
    const whyq::Literal& lit = q.node(u).literals.front();
    b.ops.push_back(
        whyq::UpdateOp::SetAttr(id, g.AttrName(lit.attr), lit.constant));
  }
  return b;
}

std::string UpdateLine(const whyq::UpdateBatch& batch) {
  std::ostringstream os;
  whyq::WriteUpdateBatch(batch, os);
  std::istringstream is(os.str());
  std::string line;
  std::string out = "{\"op\":\"update\",\"ops\":[";
  bool first = true;
  while (std::getline(is, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(line) + "\"";
  }
  return out + "]}";
}

bool WriteLines(const std::string& path,
                const std::vector<std::string>& lines) {
  std::ofstream os(path);
  for (const std::string& l : lines) os << l << "\n";
  return static_cast<bool>(os);
}

bool ReadLines(const std::string& path, std::vector<std::string>* lines) {
  std::ifstream is(path);
  if (!is) return false;
  std::string l;
  while (std::getline(is, l)) {
    if (!l.empty() && l[0] != '#') lines->push_back(l);
  }
  return true;
}

}  // namespace perfbench

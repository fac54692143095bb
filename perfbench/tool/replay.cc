#include "tool/replay.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <memory>
#include <set>

#include "server/json.h"
#include "server/wire.h"
#include "tool/enumeration.h"
#include "tool/inputs.h"
#include "whyq.h"

namespace perfbench {

namespace {

// Passes over the request pool for the microsecond-scale calls (wire
// parse/encode, query parse) so their means rest on many calls.
constexpr int kMicroPasses = 5;
// Update batches replayed through Graph/WhyqService::ApplyUpdate.
constexpr size_t kReplayUpdates = 32;
// Graph loads timed (the median is reported).
constexpr int kGraphLoads = 3;

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct Sums {
  std::map<std::string, double> sum;
  std::map<std::string, double> count;
  void Add(const std::string& k, double v) {
    sum[k] += v;
    count[k] += 1;
  }
  double Mean(const std::string& k) const {
    auto it = sum.find(k);
    return it == sum.end() ? 0.0 : it->second / count.at(k);
  }
};

bool SameCloseness(double replay_best, double library) {
  return std::fabs(std::max(replay_best, 0.0) - library) <= 1e-9;
}

}  // namespace

bool RunReplay(const ReplayInputs& in, ReplayResult* out, std::string* error) {
  Tracer t;
  Sums s;
  auto& m = out->metrics;

  // --- graph: load ------------------------------------------------------
  std::shared_ptr<const whyq::Graph> graph;
  {
    std::vector<double> loads;
    uint32_t req = t.Request("replay/graph");
    for (int i = 0; i < kGraphLoads; ++i) {
      std::optional<whyq::Graph> g;
      loads.push_back(Timed(&t, "graph.ReadGraphFromFile", req, [&] {
        g = whyq::ReadGraphFromFile(in.graph_path, error);
      }));
      if (!g.has_value()) return false;
      if (graph == nullptr) {
        graph = std::make_shared<const whyq::Graph>(std::move(*g));
      }
    }
    m["graph.load_ms"] = Median(loads);
  }
  const whyq::Graph& g = *graph;

  // --- server + query: wire parse, query parse ---------------------------
  std::vector<whyq::server::WireRequest> parsed(in.requests.size());
  {
    double wire_ms = 0.0;
    double query_ms = 0.0;
    size_t calls = 0;
    for (int pass = 0; pass < kMicroPasses; ++pass) {
      for (size_t i = 0; i < in.requests.size(); ++i) {
        uint32_t req = t.Request("replay/request/" + std::to_string(i));
        whyq::server::WireRequest wr;
        std::string err;
        bool ok = false;
        wire_ms += Timed(&t, "server.ParseWireRequest", req, [&] {
          ok = whyq::server::ParseWireRequest(in.requests[i], &wr, &err);
        });
        if (!ok) {
          *error = "request " + std::to_string(i) + ": " + err;
          return false;
        }
        std::optional<whyq::Query> q;
        query_ms += Timed(&t, "query.ParseQuery", req, [&] {
          q = whyq::ParseQuery(wr.request.query_text, g, &err);
        });
        if (!q.has_value()) {
          *error = "request " + std::to_string(i) + ": " + err;
          return false;
        }
        ++calls;
        if (pass == 0) parsed[i] = std::move(wr);
      }
    }
    m["server.parse_us"] = 1e3 * Ratio(wire_ms, double(calls));
    m["query.parse_us"] = 1e3 * Ratio(query_ms, double(calls));
  }

  // --- service + matcher: PrepareQuery, Matcher::MatchOutput -------------
  std::vector<whyq::Query> queries;
  std::set<std::string> seen_queries;
  for (size_t i = 0; i < parsed.size(); ++i) {
    const whyq::ServiceRequest& sr = parsed[i].request;
    if (!seen_queries.insert(sr.query_text).second) continue;
    uint32_t req = t.Request("replay/query/" + std::to_string(i));
    std::string err;
    whyq::Query q = *whyq::ParseQuery(sr.query_text, g, &err);
    queries.push_back(q);
    bool complete = false;
    std::shared_ptr<const whyq::PreparedQuery> prepared;
    s.Add("prepare", Timed(&t, "service.PrepareQuery", req, [&] {
      prepared = whyq::PrepareQuery(g, q, sr.config.semantics,
                                    sr.config.path_index_paths, nullptr,
                                    &complete, 1);
    }));
    whyq::Matcher matcher(g);
    s.Add("match", Timed(&t, "matcher.Matcher::MatchOutput", req,
                         [&] { matcher.MatchOutput(q); }));
  }
  m["service.prepare_query_ms"] = s.Mean("prepare");
  m["matcher.match_output_ms"] = s.Mean("match");

  // --- graph + service: ApplyUpdate ---------------------------------------
  {
    std::vector<whyq::UpdateBatch> batches;
    if (!in.updates.empty()) {
      for (size_t k = 0; k < in.updates.size() && k < kReplayUpdates; ++k) {
        whyq::server::WireRequest wr;
        std::string err;
        if (!whyq::server::ParseWireRequest(in.updates[k], &wr, &err) ||
            !wr.is_update) {
          *error = "update " + std::to_string(k) + ": " + err;
          return false;
        }
        batches.push_back(std::move(wr.update));
      }
    } else {
      // The workload sends no updates; replay the serve_update batch
      // shapes against this graph and these queries instead.
      whyq::NodeId next = static_cast<whyq::NodeId>(g.node_count());
      for (size_t k = 0; k < kReplayUpdates; ++k) {
        batches.push_back(MakeUpdate(g, queries, k, &next));
      }
    }
    uint32_t req = t.Request("replay/updates");
    std::shared_ptr<const whyq::Graph> cur = graph;
    for (const whyq::UpdateBatch& b : batches) {
      auto next = std::make_shared<whyq::Graph>();
      whyq::UpdateResult ur;
      bool ok = false;
      s.Add("graph_update", Timed(&t, "graph.Graph::ApplyUpdate", req, [&] {
        ok = cur->ApplyUpdate(b, next.get(), &ur);
      }));
      if (!ok) {
        *error = "Graph::ApplyUpdate: " + ur.error;
        return false;
      }
      cur = std::move(next);
    }
    whyq::ServiceConfig sc;
    sc.workers = 1;
    sc.cache_capacity = in.cache_capacity;
    whyq::WhyqService svc(graph, sc);
    for (const whyq::Query& q : queries) {  // warm the prepared cache
      whyq::ServiceRequest warm;
      warm.kind = whyq::RequestKind::kWhySoMany;
      warm.query_text = whyq::WriteQuery(q, g);
      warm.target_k = g.node_count();
      svc.Execute(warm);
    }
    for (const whyq::UpdateBatch& b : batches) {
      whyq::UpdateResult ur;
      bool ok = false;
      s.Add("service_update",
            Timed(&t, "service.WhyqService::ApplyUpdate", req,
                  [&] { ok = svc.ApplyUpdate(b, &ur); }));
      if (!ok) {
        *error = "WhyqService::ApplyUpdate: " + ur.error;
        return false;
      }
    }
  }
  m["graph.apply_update_ms"] = s.Mean("graph_update");
  m["service.apply_update_ms"] = s.Mean("service_update");

  // --- why + rewrite + matcher + common: the search layers ---------------
  // Responses to encode: the library answers of every question, plus the
  // why-so-many answers of the read pool.
  struct Encodable {
    whyq::RequestKind kind;
    whyq::ServiceResponse resp;
  };
  std::vector<Encodable> encodables;
  uint64_t ctx_hits = 0;
  uint64_t ctx_lookups = 0;
  uint64_t ctx_pruned = 0;
  size_t guard_checks = 0, guard_repeats = 0, guard_admits = 0;
  size_t emitted = 0, verified = 0, picky_ops = 0, greedy_rounds = 0;
  double t1_total = 0.0, tn_total = 0.0;
  for (size_t i = 0; i < in.questions.size(); ++i) {
    whyq::server::WireRequest wr;
    std::string err;
    if (!whyq::server::ParseWireRequest(in.questions[i], &wr, &err)) {
      *error = "question " + std::to_string(i) + ": " + err;
      return false;
    }
    const whyq::ServiceRequest& sr = wr.request;
    const bool why = sr.kind == whyq::RequestKind::kWhy;
    uint32_t req = t.Request("replay/question/" + std::to_string(i));
    std::optional<whyq::Query> q = whyq::ParseQuery(sr.query_text, g, &err);
    if (!q.has_value()) {
      *error = "question " + std::to_string(i) + ": " + err;
      return false;
    }
    bool complete = false;
    std::shared_ptr<const whyq::PreparedQuery> prepared = whyq::PrepareQuery(
        g, *q, sr.config.semantics, sr.config.path_index_paths, nullptr,
        &complete, 1);
    const std::vector<whyq::NodeId>& answers = prepared->answers;
    whyq::AnswerConfig cfg = sr.config;
    cfg.threads = 1;
    cfg.path_index = &prepared->path_index;
    whyq::AnswerConfig cfg_n = cfg;
    cfg_n.threads = HostCores();
    whyq::WhyQuestion wq{sr.entities};
    whyq::WhyNotQuestion wn;
    wn.missing = sr.entities;

    // Every question replays picky generation and its greedy algorithm;
    // exact questions also replay the exact search (serially, traced) and
    // run it at threads=1 and threads=N.
    const bool exact = sr.algo == whyq::AlgoChoice::kExact;
    EnumerationReplay er;
    whyq::RewriteAnswer exact1, greedy;
    double t1 = 0.0, tn = 0.0;
    if (why) {
      whyq::WhyEvaluator eval(g, answers, wq, cfg.guard_m, cfg.semantics);
      auto picky = [&] {
        return whyq::GenPickyWhy(g, prepared->query, answers,
                                 eval.unexpected(), cfg);
      };
      if (exact) {
        er = ReplayEnumeration(&t, req, g, prepared->query, cfg, eval,
                               "why.GenPickyWhy", picky);
        t1 = Timed(&t, "why.ExactWhy", req, [&] {
          exact1 = whyq::ExactWhy(g, prepared->query, answers, wq, cfg);
        });
        tn = Timed(&t, "why.ExactWhy.threads_n", req, [&] {
          whyq::ExactWhy(g, prepared->query, answers, wq, cfg_n);
        });
        s.Add("exact_why", t1);
      } else {
        std::vector<whyq::EditOp> ops;
        er.picky_ms = Timed(&t, "why.GenPickyWhy", req, [&] { ops = picky(); });
        er.picky_ops = ops.size();
      }
      s.Add("approx_why", Timed(&t, "why.ApproxWhy", req, [&] {
        greedy = whyq::ApproxWhy(g, prepared->query, answers, wq, cfg);
      }));
      // Aff(o) of every picky operator, as ApproxWhy seeds EstMatch.
      double aff = 0.0;
      for (const whyq::EditOp& op : picky()) {
        aff += Timed(&t, "rewrite.WhyEvaluator::AffectedAnswers", req, [&] {
          eval.AffectedAnswers(whyq::ApplyOperators(prepared->query, {op}));
        });
      }
      s.Add("affected", aff);
    } else {
      whyq::WhyNotEvaluator eval(g, answers, wn, cfg.guard_m, cfg.semantics);
      auto picky = [&] {
        return whyq::GenPickyWhyNot(g, prepared->query, eval.missing(), cfg);
      };
      if (exact) {
        er = ReplayEnumeration(&t, req, g, prepared->query, cfg, eval,
                               "why.GenPickyWhyNot", picky);
        t1 = Timed(&t, "why.ExactWhyNot", req, [&] {
          exact1 = whyq::ExactWhyNot(g, prepared->query, answers, wn, cfg);
        });
        tn = Timed(&t, "why.ExactWhyNot.threads_n", req, [&] {
          whyq::ExactWhyNot(g, prepared->query, answers, wn, cfg_n);
        });
        s.Add("exact_whynot", t1);
      } else {
        std::vector<whyq::EditOp> ops;
        er.picky_ms =
            Timed(&t, "why.GenPickyWhyNot", req, [&] { ops = picky(); });
        er.picky_ops = ops.size();
      }
      s.Add("fast_whynot", Timed(&t, "why.FastWhyNot", req, [&] {
        greedy = whyq::FastWhyNot(g, prepared->query, answers, wn, cfg);
      }));
    }
    s.Add("picky", er.picky_ms);
    picky_ops += er.picky_ops;
    greedy_rounds += greedy.sets_verified;
    if (exact) {
      // Replay reconciliation against the library's own serial search.
      if (er.emitted != exact1.sets_enumerated ||
          (exact1.exhaustive &&
           !SameCloseness(er.best_cl, exact1.eval.closeness))) {
        out->reconciled = false;
        if (out->reconcile_error.empty()) {
          out->reconcile_error =
              "question " + std::to_string(i) + ": replay emitted " +
              std::to_string(er.emitted) + " sets, best closeness " +
              std::to_string(er.best_cl) + "; library emitted " +
              std::to_string(exact1.sets_enumerated) + ", closeness " +
              std::to_string(exact1.eval.closeness);
        }
      }
      s.Add("guard", er.guard_ms);
      s.Add("evaluate", er.evaluate_ms);
      s.Add("enumerate_self", er.enumerate_ms - er.guard_ms - er.evaluate_ms);
      guard_checks += er.guard_checks;
      guard_repeats += er.guard_repeats;
      guard_admits += er.guard_admits;
      emitted += er.emitted;
      verified += er.verified;
      t1_total += t1;
      tn_total += tn;
      ctx_hits += exact1.ctx_hits;
      ctx_lookups +=
          exact1.ctx_hits + exact1.ctx_misses + exact1.ctx_delta_builds;
      ctx_pruned += exact1.ctx_pruned;
    }

    Encodable e;
    e.kind = sr.kind;
    e.resp.answer = exact ? std::move(exact1) : std::move(greedy);
    e.resp.base_answers = answers;
    encodables.push_back(std::move(e));
  }
  m["why.picky_ms"] = s.Mean("picky");
  m["why.picky_ops"] = double(picky_ops);
  m["why.enumerate_self_ms"] = s.Mean("enumerate_self");
  m["why.mbs_enumerated"] = double(emitted);
  m["why.mbs_verified"] = double(verified);
  m["why.exact_why_ms"] = s.Mean("exact_why");
  m["why.exact_whynot_ms"] = s.Mean("exact_whynot");
  m["why.approx_why_ms"] = s.Mean("approx_why");
  m["why.fast_whynot_ms"] = s.Mean("fast_whynot");
  m["why.greedy_rounds"] = double(greedy_rounds);
  m["rewrite.guard_checks"] = double(guard_checks);
  m["rewrite.guard_repeat_ratio"] =
      Ratio(double(guard_repeats), double(guard_checks));
  m["rewrite.guard_admit_ratio"] =
      Ratio(double(guard_admits), double(guard_checks));
  m["rewrite.guard_ms"] = s.Mean("guard");
  m["rewrite.evaluate_ms"] = s.Mean("evaluate");
  m["rewrite.affected_ms"] = s.Mean("affected");
  m["matcher.ctx_hit_ratio"] = Ratio(double(ctx_hits), double(ctx_lookups));
  m["matcher.ctx_pruned"] = double(ctx_pruned);
  m["common.exact_parallel_speedup"] = Ratio(t1_total, tn_total);

  // --- server: EncodeResponse ---------------------------------------------
  for (const whyq::server::WireRequest& wr : parsed) {
    if (wr.request.kind != whyq::RequestKind::kWhySoMany) continue;
    std::string err;
    whyq::Query q = *whyq::ParseQuery(wr.request.query_text, g, &err);
    Encodable e;
    e.kind = wr.request.kind;
    e.resp.base_answers = whyq::Matcher(g).MatchOutput(q);
    e.resp.why_so_many = whyq::AnswerWhySoMany(g, q, e.resp.base_answers,
                                               wr.request.target_k,
                                               wr.request.config);
    encodables.push_back(std::move(e));
  }
  {
    double encode_ms = 0.0;
    size_t calls = 0;
    uint32_t req = t.Request("replay/encode");
    for (int pass = 0; pass < kMicroPasses; ++pass) {
      for (const Encodable& e : encodables) {
        encode_ms += Timed(&t, "server.EncodeResponse", req, [&] {
          whyq::server::EncodeResponse("1", e.kind, e.resp, g);
        });
        ++calls;
      }
    }
    m["server.encode_us"] = 1e3 * Ratio(encode_ms, double(calls));
  }
  out->spans = t.Export();
  return true;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream os(path);
  os << "[\n";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    os << "{\"id\":" << sp.id << ",\"parent\":" << sp.parent
       << ",\"name\":\"" << whyq::server::JsonEscape(sp.name)
       << "\",\"request\":\"" << whyq::server::JsonEscape(sp.request)
       << "\",\"start_ms\":" << whyq::server::JsonNumber(sp.start_ms)
       << ",\"end_ms\":" << whyq::server::JsonNumber(sp.end_ms) << "}"
       << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  os << "]\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench

#include "tool/check.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "server/json.h"
#include "server/limits.h"
#include "server/wire.h"

namespace perfbench {

namespace {

using whyq::server::JsonValue;

bool Near(double a, double b) {
  // The wire prints non-integers with 10 significant digits.
  return std::fabs(a - b) <= 1e-8 * std::max(1.0, std::fabs(b));
}

double Num(const JsonValue* v) {
  return v != nullptr && v->is_number() ? v->as_number() : NAN;
}

std::string Str(const JsonValue* v) {
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

bool Bool(const JsonValue* v) {
  return v != nullptr && v->is_bool() && v->as_bool();
}

CheckVerdict Fail(CheckVerdict v, const std::string& msg) {
  v.ok = false;
  v.error = msg;
  return v;
}

}  // namespace

CheckVerdict CheckPair(const whyq::Graph& g, const std::string& request,
                       const std::string& response) {
  CheckVerdict v;
  whyq::server::WireRequest wr;
  std::string err;
  if (!whyq::server::ParseWireRequest(request, &wr, &err)) {
    return Fail(v, "request does not parse: " + err);
  }
  JsonValue doc;
  if (!whyq::server::ParseJson(response, whyq::server::kMaxJsonDepth, &doc,
                               &err)) {
    return Fail(v, "response is not JSON: " + err);
  }
  if (Str(doc.Find("status")) != "ok") return Fail(v, "status not ok");
  if (Bool(doc.Find("truncated"))) return Fail(v, "truncated answer");
  const JsonValue* ans = doc.Find("answer");
  if (ans == nullptr || !ans->is_object()) return Fail(v, "no answer object");

  const whyq::ServiceRequest& req = wr.request;
  std::optional<whyq::Query> q = whyq::ParseQuery(req.query_text, g, &err);
  if (!q.has_value()) return Fail(v, "query does not parse: " + err);
  whyq::AnswerConfig cfg = req.config;
  cfg.threads = 1;
  bool complete = false;
  std::shared_ptr<const whyq::PreparedQuery> prepared = whyq::PrepareQuery(
      g, *q, cfg.semantics, cfg.path_index_paths, nullptr, &complete, 1);
  const std::vector<whyq::NodeId>& answers = prepared->answers;
  if (whyq::Matcher(g).MatchOutput(*q) != answers) {
    return Fail(v, "PrepareQuery answers differ from Matcher::MatchOutput");
  }
  if (Num(doc.Find("base_answers")) != static_cast<double>(answers.size())) {
    return Fail(v, "base_answers differs from the re-derived answer set");
  }
  cfg.path_index = &prepared->path_index;  // as the service passes it

  bool found = Bool(ans->Find("found"));
  double cost = found ? Num(ans->Find("cost")) : 0.0;
  v.cost = cost;
  whyq::Timer lib_timer;
  if (req.kind == whyq::RequestKind::kWhySoMany) {
    whyq::WhySoManyResult r =
        whyq::AnswerWhySoMany(g, prepared->query, answers, req.target_k, cfg);
    v.library_ms = lib_timer.ElapsedMillis();
    if (found != r.found) return Fail(v, "found differs from the library");
    if (Num(ans->Find("before")) != static_cast<double>(r.before) ||
        Num(ans->Find("after")) != static_cast<double>(r.after)) {
      return Fail(v, "before/after differ from the library");
    }
    if (!Near(Num(ans->Find("cost")), r.cost)) {
      return Fail(v, "cost differs from the library");
    }
    v.ok = true;
    return v;
  }
  if (req.kind != whyq::RequestKind::kWhy &&
      req.kind != whyq::RequestKind::kWhyNot) {
    return Fail(v, "unexpected question kind");
  }

  v.why_family = true;
  const bool why = req.kind == whyq::RequestKind::kWhy;
  const bool exact = req.algo == whyq::AlgoChoice::kExact;
  whyq::WhyQuestion wq{req.entities};
  whyq::WhyNotQuestion wn;
  wn.missing = req.entities;
  whyq::RewriteAnswer lib =
      why ? (exact ? whyq::ExactWhy(g, prepared->query, answers, wq, cfg)
                   : whyq::ApproxWhy(g, prepared->query, answers, wq, cfg))
          : (exact ? whyq::ExactWhyNot(g, prepared->query, answers, wn, cfg)
                   : whyq::FastWhyNot(g, prepared->query, answers, wn, cfg));
  v.library_ms = lib_timer.ElapsedMillis();
  if (found != lib.found) return Fail(v, "found differs from the library");
  if (!found) {
    v.ok = true;
    return v;
  }

  // Independent re-evaluation of the returned rewrite.
  double closeness = Num(ans->Find("closeness"));
  v.closeness = closeness;
  std::optional<whyq::Query> rw =
      whyq::ParseQuery(Str(ans->Find("rewritten")), g, &err);
  if (!rw.has_value()) return Fail(v, "rewritten query does not parse: " + err);
  whyq::EvalResult re =
      why ? whyq::WhyEvaluator(g, answers, wq, cfg.guard_m, cfg.semantics)
                .Evaluate(*rw)
          : whyq::WhyNotEvaluator(g, answers, wn, cfg.guard_m, cfg.semantics)
                .Evaluate(*rw);
  if (!Near(closeness, re.closeness)) {
    return Fail(v, "reported closeness " + std::to_string(closeness) +
                       " but re-evaluation gives " +
                       std::to_string(re.closeness));
  }
  if (!re.guard_ok) return Fail(v, "rewrite violates the guard");
  if (!(cost <= cfg.budget + 1e-9)) return Fail(v, "cost exceeds the budget");

  // Same answer as the in-process library call.
  if (Str(ans->Find("explain")) != lib.Explain(g)) {
    return Fail(v, "operator set differs from the library");
  }
  if (Str(ans->Find("rewritten")) != whyq::WriteQuery(lib.rewritten, g)) {
    return Fail(v, "rewritten query differs from the library");
  }
  if (!Near(closeness, lib.eval.closeness) || !Near(cost, lib.cost)) {
    return Fail(v, "closeness/cost differ from the library");
  }
  v.ok = true;
  return v;
}

std::vector<CheckVerdict> CheckPairs(
    const whyq::Graph& g,
    const std::vector<std::pair<std::string, std::string>>& pairs,
    size_t threads) {
  std::vector<CheckVerdict> out(pairs.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    for (size_t i = next++; i < pairs.size(); i = next++) {
      out[i] = CheckPair(g, pairs[i].first, pairs[i].second);
    }
  };
  std::vector<std::thread> pool;
  for (size_t t = 1; t < threads && t < pairs.size(); ++t) {
    pool.emplace_back(work);
  }
  work();
  for (std::thread& t : pool) t.join();
  return out;
}

}  // namespace perfbench

// perfbench_tool: the in-process half of the repository benchmark
// (perfbench/run.py drives it; see perfbench/README.md).
//
//   perfbench_tool info
//       build provenance as one JSON line
//   perfbench_tool universe --workload=W --out=FILE
//       generates the workload's fixed question universe
//       (perfbench/data/W.jsonl)
//   perfbench_tool gen --workload=W --universe=FILE --dir=D --seconds=S
//                      [--limit=N]
//       writes D/graph.txt, D/requests.jsonl, D/replay.jsonl and
//       D/updates.jsonl (serve_update: S seconds of batches) for one run,
//       and prints the workload's daemon flags and summary shape
//   perfbench_tool load --workload=W --dir=D --port=P --seconds=S --seed=N
//                       --out=PREFIX
//       the load generator (tool/load.h); writes PREFIX.records,
//       PREFIX.updates and PREFIX.pairs (the distinct answers, as
//       request/answer line pairs)
//   perfbench_tool check --dir=D --pairs=FILE
//       FILE alternates request and answer lines; prints one JSON
//       verdict line per pair
//   perfbench_tool replay --workload=W --dir=D --spans=FILE
//       the traced per-layer replay; prints one JSON object of metrics
//       and writes the replay's spans to FILE

#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "server/json.h"
#include "tool/check.h"
#include "tool/inputs.h"
#include "tool/load.h"
#include "tool/replay.h"

namespace {

using perfbench::ReadLines;
using perfbench::WriteLines;
using whyq::server::JsonEscape;
using whyq::server::JsonNumber;

// The question generator's seed: the repository's default workload seed
// (bench/bench_common.h Flags).
constexpr uint64_t kGeneratorSeed = 42;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> f;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    const char* eq = std::strchr(a, '=');
    if (std::strncmp(a, "--", 2) != 0 || eq == nullptr) {
      std::fprintf(stderr, "perfbench_tool: bad argument %s\n", a);
      std::exit(2);
    }
    f[std::string(a + 2, eq)] = eq + 1;
  }
  return f;
}

std::string Need(const std::map<std::string, std::string>& f,
                 const char* key) {
  auto it = f.find(key);
  if (it == f.end()) {
    std::fprintf(stderr, "perfbench_tool: missing --%s\n", key);
    std::exit(2);
  }
  return it->second;
}

int CmdInfo() {
#if defined(__OPTIMIZE__)
  const bool optimized = true;
#else
  const bool optimized = false;
#endif
#if defined(NDEBUG)
  const bool ndebug = true;
#else
  const bool ndebug = false;
#endif
  std::printf(
      "{\"build_type\":\"%s\",\"compiler\":\"%s\",\"optimized\":%s,"
      "\"ndebug\":%s}\n",
      JsonEscape(PERFBENCH_BUILD_TYPE).c_str(),
      JsonEscape(PERFBENCH_COMPILER).c_str(), optimized ? "true" : "false",
      ndebug ? "true" : "false");
  return 0;
}

perfbench::WorkloadSpec Spec(const std::map<std::string, std::string>& f) {
  perfbench::WorkloadSpec spec;
  if (!perfbench::LookupWorkload(Need(f, "workload"), &spec)) {
    std::fprintf(stderr, "perfbench_tool: unknown workload\n");
    std::exit(2);
  }
  return spec;
}

int CmdUniverse(const std::map<std::string, std::string>& f) {
  perfbench::WorkloadSpec spec = Spec(f);
  whyq::Graph g = perfbench::MakeGraph(spec);
  std::vector<std::string> lines =
      perfbench::MakeUniverse(spec, g, kGeneratorSeed);
  std::vector<std::string> out = {
      "# " + spec.name + " question universe: perfbench_tool universe "
      "--workload=" + spec.name + " (generator seed " +
          std::to_string(kGeneratorSeed) + ")",
      "# graph BSBM products=" + std::to_string(spec.bsbm_products) +
          " seed=" + std::to_string(spec.graph_seed) + ", " +
          std::to_string(g.node_count()) + " nodes; generator items=" +
          std::to_string(spec.items)};
  out.insert(out.end(), lines.begin(), lines.end());
  if (!WriteLines(Need(f, "out"), out)) {
    std::fprintf(stderr, "perfbench_tool: cannot write universe\n");
    return 1;
  }
  std::printf("{\"lines\":%zu}\n", lines.size());
  return 0;
}

int CmdGen(const std::map<std::string, std::string>& f) {
  perfbench::WorkloadSpec spec = Spec(f);
  double seconds = std::stod(Need(f, "seconds"));
  size_t limit = f.count("limit") ? std::stoul(f.at("limit")) : 0;
  std::string dir = Need(f, "dir");
  std::vector<std::string> universe;
  if (!ReadLines(Need(f, "universe"), &universe) || universe.empty()) {
    std::fprintf(stderr, "perfbench_tool: cannot read the universe\n");
    return 1;
  }
  whyq::Timer timer;
  whyq::Graph g = perfbench::MakeGraph(spec);
  perfbench::Generated gen =
      perfbench::Generate(spec, g, universe, seconds, limit);
  if (gen.requests.empty()) {
    std::fprintf(stderr, "perfbench_tool: the universe has no requests\n");
    return 1;
  }
  if (!whyq::WriteGraphToFile(g, dir + "/graph.txt") ||
      !WriteLines(dir + "/requests.jsonl", gen.requests) ||
      !WriteLines(dir + "/replay.jsonl", gen.replay) ||
      !WriteLines(dir + "/updates.jsonl", gen.updates)) {
    std::fprintf(stderr, "perfbench_tool: cannot write inputs to %s\n",
                 dir.c_str());
    return 1;
  }
  std::printf(
      "{\"nodes\":%zu,\"edges\":%zu,\"requests\":%zu,\"replay\":%zu,"
      "\"updates\":%zu,\"gen_ms\":%s,\"workers\":%zu,\"threads\":%zu,"
      "\"cache\":%zu,\"tail_ceiling\":%s,\"window\":%zu}\n",
      g.node_count(), g.edge_count(), gen.requests.size(), gen.replay.size(),
      gen.updates.size(), JsonNumber(timer.ElapsedMillis()).c_str(),
      spec.workers, spec.threads, spec.cache,
      JsonNumber(spec.tail_ceiling).c_str(), spec.window);
  return 0;
}

std::optional<whyq::Graph> LoadGraph(const std::string& dir) {
  std::string err;
  std::optional<whyq::Graph> g =
      whyq::ReadGraphFromFile(dir + "/graph.txt", &err);
  if (!g.has_value()) std::fprintf(stderr, "perfbench_tool: %s\n", err.c_str());
  return g;
}

int CmdCheck(const std::map<std::string, std::string>& f) {
  std::string dir = Need(f, "dir");
  std::optional<whyq::Graph> g = LoadGraph(dir);
  if (!g.has_value()) return 1;
  std::vector<std::string> lines;
  if (!ReadLines(Need(f, "pairs"), &lines) || lines.size() % 2 != 0) {
    std::fprintf(stderr, "perfbench_tool: bad pairs file\n");
    return 1;
  }
  std::vector<std::pair<std::string, std::string>> pairs;
  for (size_t i = 0; i < lines.size(); i += 2) {
    pairs.emplace_back(lines[i], lines[i + 1]);
  }
  std::vector<perfbench::CheckVerdict> verdicts =
      perfbench::CheckPairs(*g, pairs, perfbench::HostCores());
  for (size_t i = 0; i < verdicts.size(); ++i) {
    const perfbench::CheckVerdict& v = verdicts[i];
    std::printf(
        "{\"pair\":%zu,\"ok\":%s,\"why_family\":%s,\"closeness\":%s,"
        "\"cost\":%s,\"library_ms\":%s,\"error\":\"%s\"}\n",
        i, v.ok ? "true" : "false", v.why_family ? "true" : "false",
        JsonNumber(v.closeness).c_str(), JsonNumber(v.cost).c_str(),
        JsonNumber(v.library_ms).c_str(), JsonEscape(v.error).c_str());
  }
  return 0;
}

int CmdLoad(const std::map<std::string, std::string>& f) {
  perfbench::WorkloadSpec spec = Spec(f);
  std::string dir = Need(f, "dir");
  perfbench::LoadConfig cfg;
  cfg.port = static_cast<uint16_t>(std::stoul(Need(f, "port")));
  cfg.clients = spec.clients;
  cfg.inflight = spec.inflight;
  cfg.zipf = spec.reads;
  cfg.seconds = std::stod(Need(f, "seconds"));
  cfg.seed = std::stoull(Need(f, "seed"));
  if (!ReadLines(dir + "/requests.jsonl", &cfg.requests) ||
      (spec.reads && !ReadLines(dir + "/updates.jsonl", &cfg.updates))) {
    std::fprintf(stderr, "perfbench_tool: cannot read inputs in %s\n",
                 dir.c_str());
    return 1;
  }
  perfbench::LoadResult r;
  std::string err;
  if (!perfbench::RunLoad(cfg, &r, &err)) {
    std::fprintf(stderr, "perfbench_tool: load failed: %s\n", err.c_str());
    return 1;
  }
  std::string out = Need(f, "out");
  FILE* rec = std::fopen((out + ".records").c_str(), "w");
  FILE* upd = std::fopen((out + ".updates").c_str(), "w");
  if (rec == nullptr || upd == nullptr) return 1;
  for (const perfbench::RequestRecord& q : r.requests) {
    std::fprintf(rec, "%u %llu %lld %lld %d %d %d %.6f %.6f %.6f %.6f %.6f\n",
                 q.pool_index, static_cast<unsigned long long>(q.draw),
                 static_cast<long long>(q.send_ns),
                 static_cast<long long>(q.recv_ns), q.answer, q.ok ? 1 : 0,
                 q.truncated ? 1 : 0, q.latency_ms, q.queue_ms, q.parse_ms,
                 q.prepare_ms, q.search_ms);
  }
  for (const perfbench::UpdateRecord& u : r.updates) {
    std::fprintf(upd, "%lld %lld %lld %d\n", static_cast<long long>(u.due_ns),
                 static_cast<long long>(u.send_ns),
                 static_cast<long long>(u.recv_ns), u.ok ? 1 : 0);
  }
  std::fclose(rec);
  std::fclose(upd);
  std::vector<std::string> pairs;
  for (const auto& [idx, resp] : r.answers) {
    pairs.push_back(cfg.requests[idx]);
    pairs.push_back(resp);
  }
  if (!WriteLines(out + ".pairs", pairs)) return 1;
  return 0;
}

int CmdReplay(const std::map<std::string, std::string>& f) {
  perfbench::WorkloadSpec spec = Spec(f);
  std::string dir = Need(f, "dir");
  perfbench::ReplayInputs in;
  in.cache_capacity = spec.cache;
  in.graph_path = dir + "/graph.txt";
  if (!ReadLines(dir + "/requests.jsonl", &in.requests) ||
      !ReadLines(dir + "/replay.jsonl", &in.questions) ||
      !ReadLines(dir + "/updates.jsonl", &in.updates)) {
    std::fprintf(stderr, "perfbench_tool: cannot read inputs in %s\n",
                 dir.c_str());
    return 1;
  }
  perfbench::ReplayResult r;
  std::string err;
  if (!perfbench::RunReplay(in, &r, &err)) {
    std::fprintf(stderr, "perfbench_tool: replay failed: %s\n", err.c_str());
    return 1;
  }
  if (!perfbench::WriteSpans(r.spans, Need(f, "spans"))) {
    std::fprintf(stderr, "perfbench_tool: cannot write spans\n");
    return 1;
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    if (!first) out += ",";
    first = false;
    out += "\"" + JsonEscape(name) + "\":" + JsonNumber(value);
  }
  out += ",\"reconciled\":";
  out += r.reconciled ? "true" : "false";
  out += ",\"reconcile_error\":\"" + JsonEscape(r.reconcile_error) + "\"}";
  std::printf("%s\n", out.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_tool "
                 "info|universe|gen|load|check|replay ...\n");
    return 2;
  }
  std::string cmd = argv[1];
  std::map<std::string, std::string> f = ParseFlags(argc, argv);
  if (cmd == "info") return CmdInfo();
  if (cmd == "universe") return CmdUniverse(f);
  if (cmd == "gen") return CmdGen(f);
  if (cmd == "load") return CmdLoad(f);
  if (cmd == "check") return CmdCheck(f);
  if (cmd == "replay") return CmdReplay(f);
  std::fprintf(stderr, "perfbench_tool: unknown command %s\n", cmd.c_str());
  return 2;
}

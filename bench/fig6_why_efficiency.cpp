// Reproduces Figure 6 (Exp-2, "Answering Why questions: Efficiency"):
//   (a) runtime of ExactWhy / ApproxWhy / IsoWhy across the five datasets
//   (b) scalability vs |G| on BSBM synthetic graphs
//   (c) runtime vs query size (|E_Q| x literals per node)
//   (d) runtime vs query topology (tree / acyclic / cyclic)
//   (e) runtime vs editing budget B
//   (f) runtime vs |V_N|
//
// Expected shapes (paper): ApproxWhy is fastest (the paper reports ~9.7x
// over ExactWhy and ~7.7x over IsoWhy on average) and the least sensitive
// to |G|, |Q|, and B; tree queries are cheapest; runtime grows with |G|,
// |Q|, B and |V_N|.

#include "bench/bench_common.h"

namespace whyq::bench {
namespace {

constexpr Direction kDir = Direction::kWhy;

constexpr AlgoChoice kAlgos[] = {AlgoChoice::kExact, AlgoChoice::kAuto,
                                 AlgoChoice::kIso};

AnswerConfig ConfigFor(AlgoChoice algo) {
  return algo == AlgoChoice::kExact ? ExactAnswerConfig()
                                    : DefaultAnswerConfig();
}

void PartA(const Flags& flags) {
  TextTable t({"dataset", "algorithm", "avg_time_ms", "speedup_vs_exact",
               "exhaustive", "n"});
  for (DatasetProfile p : kAllProfiles) {
    Graph g = BenchGraph(p, flags);
    Workload w = MakeWorkload(g, DefaultWorkload(flags, 6));
    double exact_ms = 0.0;
    for (AlgoChoice algo : kAlgos) {
      Aggregate a = Summarize(RunBatch(g, w, kDir, algo, ConfigFor(algo)));
      if (algo == AlgoChoice::kExact) exact_ms = a.avg_time_ms;
      double speedup = a.avg_time_ms > 0 ? exact_ms / a.avg_time_ms : 0.0;
      t.AddRow({DatasetProfileName(p), AlgorithmName(kDir, algo),
                TextTable::Num(a.avg_time_ms, 1), TextTable::Num(speedup, 1),
                TextTable::Num(a.exhaustive_fraction, 2),
                std::to_string(a.n)});
    }
  }
  std::printf("%s\n",
              t.ToString("Fig 6(a): Why runtime by dataset").c_str());
}

void PartB(const Flags& flags) {
  TextTable t({"|V|", "|E|", "algorithm", "avg_time_ms", "n"});
  for (size_t products : {1000u, 2500u, 5000u, 10000u}) {
    BsbmConfig bc;
    bc.products = static_cast<size_t>(products * flags.scale);
    Graph g = GenerateBsbm(bc);
    Workload w = MakeWorkload(g, DefaultWorkload(flags, 3));
    for (AlgoChoice algo : kAlgos) {
      // The scalability sweep halves the picky cap: greedy selection is
      // quadratic in it, and the |G| trend is what this part shows.
      AnswerConfig cfg = ConfigFor(algo);
      cfg.max_picky_ops = 96;
      Aggregate a = Summarize(RunBatch(g, w, kDir, algo, cfg));
      t.AddRow({std::to_string(g.node_count()),
                std::to_string(g.edge_count()), AlgorithmName(kDir, algo),
                TextTable::Num(a.avg_time_ms, 1), std::to_string(a.n)});
    }
  }
  std::printf("%s\n",
              t.ToString("Fig 6(b): Why runtime vs |G| (BSBM)").c_str());
}

void PartC(const Flags& flags) {
  TextTable t({"|E_Q|", "L", "algorithm", "avg_time_ms", "n"});
  Graph g = BenchGraph(DatasetProfile::kYago, flags);
  for (size_t edges : {2u, 4u, 6u}) {
    for (size_t lits : {2u, 3u}) {
      WorkloadConfig wc = DefaultWorkload(flags, 5);
      wc.query.edges = edges;
      wc.query.literals_per_node = lits;
      Workload w = MakeWorkload(g, wc);
      for (AlgoChoice algo : kAlgos) {
        Aggregate a = Summarize(RunBatch(g, w, kDir, algo, ConfigFor(algo)));
        t.AddRow({std::to_string(edges), std::to_string(lits),
                  AlgorithmName(kDir, algo), TextTable::Num(a.avg_time_ms, 1),
                  std::to_string(a.n)});
      }
    }
  }
  std::printf("%s\n",
              t.ToString("Fig 6(c): Why runtime vs query size (yago)")
                  .c_str());
}

void PartD(const Flags& flags) {
  TextTable t({"topology", "algorithm", "avg_time_ms", "n"});
  Graph g = BenchGraph(DatasetProfile::kDBpedia, flags);
  for (QueryTopology topo : {QueryTopology::kTree, QueryTopology::kAcyclic,
                             QueryTopology::kCyclic}) {
    WorkloadConfig wc = DefaultWorkload(flags, 5);
    wc.query.topology = topo;
    Workload w = MakeWorkload(g, wc);
    for (AlgoChoice algo : kAlgos) {
      Aggregate a = Summarize(RunBatch(g, w, kDir, algo, ConfigFor(algo)));
      t.AddRow({QueryTopologyName(topo), AlgorithmName(kDir, algo),
                TextTable::Num(a.avg_time_ms, 1), std::to_string(a.n)});
    }
  }
  std::printf("%s\n",
              t.ToString("Fig 6(d): Why runtime vs topology (dbpedia)")
                  .c_str());
}

void PartE(const Flags& flags) {
  TextTable t({"B", "algorithm", "avg_time_ms", "n"});
  Graph g = BenchGraph(DatasetProfile::kYago, flags);
  Workload w = MakeWorkload(g, DefaultWorkload(flags, 6));
  for (double budget : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    for (AlgoChoice algo : kAlgos) {
      AnswerConfig cfg = ConfigFor(algo);
      cfg.budget = budget;
      Aggregate a = Summarize(RunBatch(g, w, kDir, algo, cfg));
      t.AddRow({TextTable::Num(budget, 0), AlgorithmName(kDir, algo),
                TextTable::Num(a.avg_time_ms, 1), std::to_string(a.n)});
    }
  }
  std::printf("%s\n",
              t.ToString("Fig 6(e): Why runtime vs budget B (yago)")
                  .c_str());
}

void PartF(const Flags& flags) {
  TextTable t({"|V_N|", "algorithm", "avg_time_ms", "n"});
  Graph g = BenchGraph(DatasetProfile::kYago, flags);
  WorkloadConfig wc = DefaultWorkload(flags, 6);
  wc.why_size = 1;
  wc.query.min_answers = 8;
  Workload w = MakeWorkload(g, wc);
  Rng rng(flags.seed + 1);
  for (size_t size = 1; size <= 5; ++size) {
    for (AlgoChoice algo : kAlgos) {
      Aggregate a = Summarize(RunBatch(g, w, kDir, algo, ConfigFor(algo)));
      t.AddRow({std::to_string(size), AlgorithmName(kDir, algo),
                TextTable::Num(a.avg_time_ms, 1), std::to_string(a.n)});
    }
    for (Workload::Item& item : w.items) {
      GrowWhyQuestion(item.gq, &item.why, rng);
    }
  }
  std::printf("%s\n",
              t.ToString("Fig 6(f): Why runtime vs |V_N| (yago)").c_str());
}

}  // namespace
}  // namespace whyq::bench

int main(int argc, char** argv) {
  using namespace whyq::bench;
  Flags flags = ParseFlags(argc, argv);
  if (RunPart(flags, "a")) PartA(flags);
  if (RunPart(flags, "b")) PartB(flags);
  if (RunPart(flags, "c")) PartC(flags);
  if (RunPart(flags, "d")) PartD(flags);
  if (RunPart(flags, "e")) PartE(flags);
  if (RunPart(flags, "f")) PartF(flags);
  return 0;
}

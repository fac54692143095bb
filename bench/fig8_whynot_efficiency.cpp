// Reproduces Figure 8 (Exp-4, "Answering Why-not questions: Efficiency"):
//   (a) runtime of ExactWhyNot / IsoWhyNot / FastWhyNot across datasets
//   (b) scalability vs |G| (BSBM) and vs |E_Q|
//
// Expected shapes (paper): FastWhyNot is the fastest (~15.7x over
// ExactWhyNot, ~11x over IsoWhyNot on the paper's setup) and scales best
// with |G| and |E_Q|.

#include "bench/bench_common.h"

namespace whyq::bench {
namespace {

constexpr Direction kDir = Direction::kWhyNot;

constexpr AlgoChoice kAlgos[] = {AlgoChoice::kExact, AlgoChoice::kIso,
                                 AlgoChoice::kAuto};

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
              t.ToString("Fig 8(a): Why-not runtime by dataset").c_str());
}

void PartB(const Flags& flags) {
  TextTable t({"sweep", "x", "algorithm", "avg_time_ms", "n"});
  // Scalability vs |G| on BSBM.
  for (size_t products : {1000u, 2500u, 5000u, 10000u}) {
    BsbmConfig bc;
    bc.products = static_cast<size_t>(products * flags.scale);
    Graph g = GenerateBsbm(bc);
    Workload w = MakeWorkload(g, DefaultWorkload(flags, 3));
    for (AlgoChoice algo : kAlgos) {
      AnswerConfig cfg = ConfigFor(algo);
      cfg.max_picky_ops = 96;
      Aggregate a = Summarize(RunBatch(g, w, kDir, algo, cfg));
      t.AddRow({"|V|", std::to_string(g.node_count()),
                AlgorithmName(kDir, algo),
                TextTable::Num(a.avg_time_ms, 1), std::to_string(a.n)});
    }
  }
  // Scalability vs |E_Q| on Yago.
  Graph g = BenchGraph(DatasetProfile::kYago, flags);
  for (size_t edges : {2u, 4u, 6u, 8u}) {
    WorkloadConfig wc = DefaultWorkload(flags, 5);
    wc.query.edges = edges;
    Workload w = MakeWorkload(g, wc);
    for (AlgoChoice algo : kAlgos) {
      Aggregate a = Summarize(RunBatch(g, w, kDir, algo, ConfigFor(algo)));
      t.AddRow({"|E_Q|", std::to_string(edges), AlgorithmName(kDir, algo),
                TextTable::Num(a.avg_time_ms, 1), std::to_string(a.n)});
    }
  }
  std::printf(
      "%s\n",
      t.ToString("Fig 8(b): Why-not runtime vs |G| (BSBM) and |E_Q| (yago)")
          .c_str());
}

}  // namespace
}  // namespace whyq::bench

int main(int argc, char** argv) {
  using namespace whyq::bench;
  Flags flags = ParseFlags(argc, argv);
  if (RunPart(flags, "a")) PartA(flags);
  if (RunPart(flags, "b")) PartB(flags);
  return 0;
}

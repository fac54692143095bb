// Reproduces Figure 7 (Exp-3, "Answering Why-not questions: Effectiveness")
// plus the two sweeps the paper describes in text only:
//   (a) closeness of ExactWhyNot / FastWhyNot / IsoWhyNot across datasets
//   (b) closeness vs query size (|E_Q| x literals per node)
//   (c) closeness vs budget B        (text: "consistent with Why")
//   (d) closeness vs |V_C|           (text: "consistent with Why")
//
// Expected shapes (paper): ExactWhyNot covers almost all of V_C at B = 4
// (average closeness > 0.95 there); FastWhyNot stays >= ~84% of exact;
// closeness decreases with |Q| and |V_C| and grows with B.

#include "bench/bench_common.h"

namespace whyq::bench {
namespace {

constexpr Direction kDir = Direction::kWhyNot;

constexpr AlgoChoice kAlgos[] = {AlgoChoice::kExact, AlgoChoice::kAuto,
                                 AlgoChoice::kIso};

AnswerConfig ConfigFor(AlgoChoice algo) {
  return algo == AlgoChoice::kExact ? ExactAnswerConfig()
                                    : DefaultAnswerConfig();
}

void PartA(const Flags& flags) {
  TextTable t({"dataset", "algorithm", "avg_closeness", "ratio_to_exact",
               "n"});
  for (DatasetProfile p : kAllProfiles) {
    Graph g = BenchGraph(p, flags);
    WorkloadConfig wc = DefaultWorkload(flags, 6);
    wc.constraint_literals = 2;  // paper: C has up to two literals
    Workload w = MakeWorkload(g, wc);
    std::vector<RunResult> exact =
        RunBatch(g, w, kDir, AlgoChoice::kExact, ConfigFor(AlgoChoice::kExact));
    for (AlgoChoice algo : kAlgos) {
      std::vector<RunResult> r =
          algo == AlgoChoice::kExact
              ? exact
              : RunBatch(g, w, kDir, algo, ConfigFor(algo));
      Aggregate a = Summarize(r, &exact);
      t.AddRow({DatasetProfileName(p), AlgorithmName(kDir, algo),
                TextTable::Num(a.avg_closeness),
                TextTable::Num(a.ratio_to_ref), std::to_string(a.n)});
    }
  }
  std::printf("%s\n",
              t.ToString("Fig 7(a): Why-not closeness by dataset").c_str());
}

void PartB(const Flags& flags) {
  TextTable t({"|E_Q|", "L", "algorithm", "avg_closeness", "n"});
  Graph g = BenchGraph(DatasetProfile::kYago, flags);
  for (size_t edges : {1u, 2u, 4u, 6u, 8u}) {
    for (size_t lits : {2u, 3u}) {
      WorkloadConfig wc = DefaultWorkload(flags, 5);
      wc.query.edges = edges;
      wc.query.literals_per_node = lits;
      Workload w = MakeWorkload(g, wc);
      for (AlgoChoice algo : kAlgos) {
        Aggregate a = Summarize(RunBatch(g, w, kDir, algo, ConfigFor(algo)));
        t.AddRow({std::to_string(edges), std::to_string(lits),
                  AlgorithmName(kDir, algo), TextTable::Num(a.avg_closeness),
                  std::to_string(a.n)});
      }
    }
  }
  std::printf(
      "%s\n",
      t.ToString("Fig 7(b): Why-not closeness vs query size (yago)")
          .c_str());
}

void PartC(const Flags& flags) {
  TextTable t({"B", "algorithm", "avg_closeness", "n"});
  Graph g = BenchGraph(DatasetProfile::kYago, flags);
  Workload w = MakeWorkload(g, DefaultWorkload(flags, 6));
  for (double budget : {1.0, 2.0, 3.0, 4.0, 5.0}) {
    for (AlgoChoice algo : kAlgos) {
      AnswerConfig cfg = ConfigFor(algo);
      cfg.budget = budget;
      Aggregate a = Summarize(RunBatch(g, w, kDir, algo, cfg));
      t.AddRow({TextTable::Num(budget, 0), AlgorithmName(kDir, algo),
                TextTable::Num(a.avg_closeness), std::to_string(a.n)});
    }
  }
  std::printf("%s\n",
              t.ToString("Fig 7(c): Why-not closeness vs budget B (yago)")
                  .c_str());
}

void PartD(const Flags& flags) {
  TextTable t({"|V_C|", "algorithm", "avg_closeness", "n"});
  Graph g = BenchGraph(DatasetProfile::kYago, flags);
  for (size_t size = 1; size <= 5; ++size) {
    WorkloadConfig wc = DefaultWorkload(flags, 6);
    wc.whynot_size = size;
    Workload w = MakeWorkload(g, wc);
    for (AlgoChoice algo : kAlgos) {
      Aggregate a = Summarize(RunBatch(g, w, kDir, algo, ConfigFor(algo)));
      t.AddRow({std::to_string(size), AlgorithmName(kDir, algo),
                TextTable::Num(a.avg_closeness), std::to_string(a.n)});
    }
  }
  std::printf("%s\n",
              t.ToString("Fig 7(d): Why-not closeness vs |V_C| (yago)")
                  .c_str());
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
  return 0;
}

// Parallel-vs-serial determinism: with an untruncated search, every
// algorithm must return *identical* answers at threads = 4 and threads = 1
// (same operators, rewritten query text, closeness, guard, cost, and even
// sets_verified) — the contract documented in why/exact_search.h. Also
// covers cancellation: a parallel question past its deadline unwinds
// without leaking tasks into the shared pool. Test names carry "Parallel"
// so the CI thread-sanitizer job picks the whole file up. PinnedAnswersTest
// holds the serial reference itself: literal fingerprints of every
// algorithm's answer, so refactors of the drivers cannot drift unnoticed.

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/cancel.h"
#include "common/thread_pool.h"
#include "gen/figure1.h"
#include "gen/profiles.h"
#include "harness/experiment.h"
#include "matcher/candidates.h"
#include "matcher/match_engine.h"
#include "matcher/matcher.h"
#include "query/query_parser.h"
#include "rewrite/operators.h"
#include "service/service.h"
#include "why/extensions.h"
#include "why/why_algorithms.h"
#include "why/whynot_algorithms.h"

namespace whyq {
namespace {

std::shared_ptr<const Graph> SweepGraphPtr() {
  static std::shared_ptr<const Graph>* g = new std::shared_ptr<const Graph>(
      std::make_shared<const Graph>(
          GenerateProfile(DatasetProfile::kDBpedia, 2500, 31)));
  return *g;
}

const Graph& SweepGraph() { return *SweepGraphPtr(); }

Workload SweepWorkload(const Graph& g) {
  WorkloadConfig wc;
  wc.items = 2;
  wc.query.edges = 3;
  wc.query.min_answers = 4;
  wc.query.slack = 0.6;
  wc.seed = 77;
  return MakeWorkload(g, wc);
}

AnswerConfig BaseConfig(size_t threads) {
  AnswerConfig cfg;
  cfg.budget = 4.0;
  cfg.guard_m = 2;
  cfg.max_picky_ops = 96;
  // Determinism holds modulo wall-clock truncation; rule it out by using
  // the deterministic emission cap only.
  cfg.exact_time_limit_ms = 0;
  cfg.max_mbs = 20000;
  cfg.threads = threads;
  return cfg;
}

// Everything observable about an answer, flattened for exact comparison.
std::string Fingerprint(const Graph& g, const RewriteAnswer& a) {
  std::string s;
  s += a.found ? "found" : "not-found";
  s += "|ops=" + DescribeOperators(a.ops, g);
  s += "|rw=" + WriteQuery(a.rewritten, g);
  s += "|cl=" + std::to_string(a.eval.closeness);
  s += "|guard=" + std::to_string(a.eval.guard);
  s += "|cost=" + std::to_string(a.cost);
  s += "|est=" + std::to_string(a.estimated_closeness);
  s += "|verified=" + std::to_string(a.sets_verified);
  s += "|picky=" + std::to_string(a.picky_count);
  s += a.exhaustive ? "|exhaustive" : "|truncated";
  return s;
}

// Pinned answers. Each entry names (fixture/semantics/algorithm[/item])
// and holds the Fingerprint the algorithm returned when the pins were
// recorded; any difference is a change in the answers the engine gives.
using Pins = std::vector<std::pair<std::string, std::string>>;

const char* SemanticsTag(MatchSemantics s) {
  return s == MatchSemantics::kIsomorphism ? "iso" : "sim";
}

// All six algorithms on the Figure 1 Why (V_N = {A5, S5}) and Why-not
// (V_C = {S8, S9}) questions; answers follow the semantics under test.
Pins Figure1Pins(MatchSemantics semantics) {
  Figure1 f = MakeFigure1();
  std::vector<NodeId> answers =
      MakeMatchEngine(f.graph, semantics)->MatchOutput(f.query);
  AnswerConfig cfg = BaseConfig(1);
  cfg.semantics = semantics;
  const std::string tag = std::string("fig1/") + SemanticsTag(semantics);
  Pins pins;
  WhyQuestion why{{f.a5, f.s5}};
  cfg.guard_m = 0;
  pins.emplace_back(tag + "/ExactWhy",
                    Fingerprint(f.graph, ExactWhy(f.graph, f.query, answers,
                                                  why, cfg)));
  pins.emplace_back(tag + "/ApproxWhy",
                    Fingerprint(f.graph, ApproxWhy(f.graph, f.query,
                                                   answers, why, cfg)));
  pins.emplace_back(tag + "/IsoWhy",
                    Fingerprint(f.graph, IsoWhy(f.graph, f.query, answers,
                                                why, cfg)));
  WhyNotQuestion whynot;
  whynot.missing = {f.s8, f.s9};
  cfg.budget = 5.0;
  cfg.guard_m = 2;
  pins.emplace_back(tag + "/ExactWhyNot",
                    Fingerprint(f.graph, ExactWhyNot(f.graph, f.query,
                                                     answers, whynot, cfg)));
  pins.emplace_back(tag + "/FastWhyNot",
                    Fingerprint(f.graph, FastWhyNot(f.graph, f.query,
                                                    answers, whynot, cfg)));
  pins.emplace_back(tag + "/IsoWhyNot",
                    Fingerprint(f.graph, IsoWhyNot(f.graph, f.query,
                                                   answers, whynot, cfg)));
  return pins;
}

// All six algorithms on every sweep-workload item.
Pins SweepPins(MatchSemantics semantics) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  AnswerConfig cfg = BaseConfig(1);
  cfg.semantics = semantics;
  Pins pins;
  for (size_t k = 0; k < w.items.size(); ++k) {
    const Workload::Item& item = w.items[k];
    std::vector<NodeId> answers =
        MakeMatchEngine(g, semantics)->MatchOutput(item.gq.query);
    if (answers.empty()) continue;
    const std::string tag = std::string("sweep/") + SemanticsTag(semantics) +
                            "/" + std::to_string(k) + "/";
    WhyQuestion why{{answers[0]}};
    const Query& q = item.gq.query;
    pins.emplace_back(tag + "ExactWhy",
                      Fingerprint(g, ExactWhy(g, q, answers, why, cfg)));
    pins.emplace_back(tag + "ApproxWhy",
                      Fingerprint(g, ApproxWhy(g, q, answers, why, cfg)));
    pins.emplace_back(tag + "IsoWhy",
                      Fingerprint(g, IsoWhy(g, q, answers, why, cfg)));
    pins.emplace_back(tag + "ExactWhyNot",
                      Fingerprint(g, ExactWhyNot(g, q, answers, item.whynot,
                                                 cfg)));
    pins.emplace_back(tag + "FastWhyNot",
                      Fingerprint(g, FastWhyNot(g, q, answers, item.whynot,
                                                cfg)));
    pins.emplace_back(tag + "IsoWhyNot",
                      Fingerprint(g, IsoWhyNot(g, q, answers, item.whynot,
                                               cfg)));
  }
  return pins;
}

// Both multi-output algorithms on Figure 1 with outputs {Cellphone, Color}
// and V_N = {A5} on the phone output (isomorphism only).
Pins MultiOutputPins() {
  Figure1 f = MakeFigure1();
  Query q = f.query;
  q.AddOutput(1);
  std::vector<std::vector<NodeId>> per = Matcher(f.graph).MatchAllOutputs(q);
  std::vector<std::vector<NodeId>> unexpected{{f.a5}, {}};
  AnswerConfig cfg = BaseConfig(1);
  cfg.guard_m = 0;
  Pins pins;
  pins.emplace_back(
      "fig1-multi/iso/ExactWhyMultiOutput",
      Fingerprint(f.graph,
                  ExactWhyMultiOutput(f.graph, q, per, unexpected, cfg)));
  pins.emplace_back(
      "fig1-multi/iso/ApproxWhyMultiOutput",
      Fingerprint(f.graph,
                  ApproxWhyMultiOutput(f.graph, q, per, unexpected, cfg)));
  return pins;
}

// Fingerprints recorded with every algorithm at its serial reference.
const Pins& ExpectedSixAlgorithmPins() {
  static const Pins* pins = new Pins{
    {"fig1/iso/ExactWhy",
     "found|ops=AddL(u0.Price > 250)"
     "|rw=node n0 Cellphone Price <= i:650 Price > i:250\n"
     "node n1 Color val = s:pink\n"
     "node n2 Deal carrier = s:AT&T\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=2.000000|est=1.000000|verified=2|picky=12"
     "|exhaustive"},
    {"fig1/iso/ApproxWhy",
     "found|ops=AddL(u0.Price > 250)"
     "|rw=node n0 Cellphone Price <= i:650 Price > i:250\n"
     "node n1 Color val = s:pink\n"
     "node n2 Deal carrier = s:AT&T\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=2.000000|est=1.000000|verified=3|picky=12"
     "|exhaustive"},
    {"fig1/iso/IsoWhy",
     "found|ops=AddL(u0.Price > 250)"
     "|rw=node n0 Cellphone Price <= i:650 Price > i:250\n"
     "node n1 Color val = s:pink\n"
     "node n2 Deal carrier = s:AT&T\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=2.000000|est=1.000000|verified=1|picky=12"
     "|exhaustive"},
    {"fig1/iso/ExactWhyNot",
     "found"
     "|ops=RmL(u1.val = pink), RmL(u2.carrier = AT&T), RmL(u0.Price <= 650)"
     "|rw=node n0 Cellphone\n"
     "node n1 Color\n"
     "node n2 Deal\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=4.000000|est=1.000000|verified=4|picky=15"
     "|exhaustive"},
    {"fig1/iso/FastWhyNot",
     "found"
     "|ops=RmL(u2.carrier = AT&T), RmL(u0.Price <= 650), RmL(u1.val = pink)"
     "|rw=node n0 Cellphone\n"
     "node n1 Color\n"
     "node n2 Deal\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=4.000000|est=1.000000|verified=3|picky=15"
     "|exhaustive"},
    {"fig1/iso/IsoWhyNot",
     "found"
     "|ops=RmL(u2.carrier = AT&T), RmL(u0.Price <= 650), RmL(u1.val = pink)"
     "|rw=node n0 Cellphone\n"
     "node n1 Color\n"
     "node n2 Deal\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=4.000000|est=1.000000|verified=3|picky=15"
     "|exhaustive"},
    {"sweep/iso/0/ExactWhy",
     "not-found|ops=AddL(u0.a36 > 0)|rw=node n0 L4 a36 <= i:170 a36 > i:0\n"
     "node n1 L25 a182 <= i:86\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n1 r95\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=0.000000|guard=0|cost=1.000000|est=0.000000|verified=1|picky=96"
     "|exhaustive"},
    {"sweep/iso/0/ApproxWhy",
     "not-found|ops=|rw=node n0 L4 a36 <= i:170\n"
     "node n1 L25 a182 <= i:86\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n1 r95\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=0.000000|guard=0|cost=0.000000|est=0.000000|verified=96|picky=96"
     "|exhaustive"},
    {"sweep/iso/0/IsoWhy",
     "not-found|ops=|rw=node n0 L4 a36 <= i:170\n"
     "node n1 L25 a182 <= i:86\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n1 r95\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=0.000000|guard=0|cost=0.000000|est=0.000000|verified=96|picky=96"
     "|exhaustive"},
    {"sweep/iso/0/ExactWhyNot",
     "found|ops=RmE(u0 -r95-> u1)|rw=node n0 L4 a36 <= i:170\n"
     "node n1 L25 a182 <= i:86\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=1.000000|guard=0|cost=0.750000|est=1.000000|verified=1|picky=8"
     "|exhaustive"},
    {"sweep/iso/0/FastWhyNot",
     "found|ops=RmL(u1.a182 <= 86)|rw=node n0 L4 a36 <= i:170\n"
     "node n1 L25\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n1 r95\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=1.000000|guard=0|cost=0.750000|est=1.000000|verified=1|picky=8"
     "|exhaustive"},
    {"sweep/iso/0/IsoWhyNot",
     "found|ops=RmL(u1.a182 <= 86)|rw=node n0 L4 a36 <= i:170\n"
     "node n1 L25\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n1 r95\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=1.000000|guard=0|cost=0.750000|est=1.000000|verified=1|picky=8"
     "|exhaustive"},
    {"sweep/iso/1/ExactWhy",
     "found|ops=AddL(u1.a104 < 183)|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72 a104 < i:183\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "edge n3 n1 r47\n"
     "output n2\n"
     "|cl=1.000000|guard=1|cost=1.000000|est=1.000000|verified=1|picky=96"
     "|exhaustive"},
    {"sweep/iso/1/ApproxWhy",
     "found|ops=AddL(u1.a104 < 61)|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72 a104 < i:61\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "edge n3 n1 r47\n"
     "output n2\n"
     "|cl=1.000000|guard=1|cost=1.000000|est=1.000000|verified=4|picky=96"
     "|exhaustive"},
    {"sweep/iso/1/IsoWhy",
     "found|ops=AddL(u1.a104 < 61)|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72 a104 < i:61\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "edge n3 n1 r47\n"
     "output n2\n"
     "|cl=1.000000|guard=1|cost=1.000000|est=1.000000|verified=1|picky=96"
     "|exhaustive"},
    {"sweep/iso/1/ExactWhyNot",
     "not-found|ops=RmE(u3 -r47-> u1)|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "output n2\n"
     "|cl=0.000000|guard=0|cost=0.750000|est=0.000000|verified=1|picky=7"
     "|exhaustive"},
    {"sweep/iso/1/FastWhyNot",
     "not-found|ops=|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "edge n3 n1 r47\n"
     "output n2\n"
     "|cl=0.000000|guard=0|cost=0.000000|est=0.000000|verified=7|picky=7"
     "|exhaustive"},
    {"sweep/iso/1/IsoWhyNot",
     "not-found|ops=|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "edge n3 n1 r47\n"
     "output n2\n"
     "|cl=0.000000|guard=0|cost=0.000000|est=0.000000|verified=7|picky=7"
     "|exhaustive"},
    {"fig1/sim/ExactWhy",
     "found|ops=AddL(u0.Price > 250)"
     "|rw=node n0 Cellphone Price <= i:650 Price > i:250\n"
     "node n1 Color val = s:pink\n"
     "node n2 Deal carrier = s:AT&T\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=2.000000|est=1.000000|verified=2|picky=12"
     "|exhaustive"},
    {"fig1/sim/ApproxWhy",
     "found|ops=AddL(u0.Price > 250)"
     "|rw=node n0 Cellphone Price <= i:650 Price > i:250\n"
     "node n1 Color val = s:pink\n"
     "node n2 Deal carrier = s:AT&T\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=2.000000|est=1.000000|verified=3|picky=12"
     "|exhaustive"},
    {"fig1/sim/IsoWhy",
     "found|ops=AddL(u0.Price > 250)"
     "|rw=node n0 Cellphone Price <= i:650 Price > i:250\n"
     "node n1 Color val = s:pink\n"
     "node n2 Deal carrier = s:AT&T\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=2.000000|est=1.000000|verified=1|picky=12"
     "|exhaustive"},
    {"fig1/sim/ExactWhyNot",
     "found"
     "|ops=RmL(u1.val = pink), RmL(u2.carrier = AT&T), RmL(u0.Price <= 650)"
     "|rw=node n0 Cellphone\n"
     "node n1 Color\n"
     "node n2 Deal\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=4.000000|est=1.000000|verified=4|picky=15"
     "|exhaustive"},
    {"fig1/sim/FastWhyNot",
     "found"
     "|ops=RmL(u2.carrier = AT&T), RmL(u0.Price <= 650), RmL(u1.val = pink)"
     "|rw=node n0 Cellphone\n"
     "node n1 Color\n"
     "node n2 Deal\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=4.000000|est=1.000000|verified=3|picky=15"
     "|exhaustive"},
    {"fig1/sim/IsoWhyNot",
     "found"
     "|ops=RmL(u2.carrier = AT&T), RmL(u0.Price <= 650), RmL(u1.val = pink)"
     "|rw=node n0 Cellphone\n"
     "node n1 Color\n"
     "node n2 Deal\n"
     "node n3 Brand name = s:Samsung\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "output n0\n"
     "|cl=1.000000|guard=0|cost=4.000000|est=1.000000|verified=3|picky=15"
     "|exhaustive"},
    {"sweep/sim/0/ExactWhy",
     "not-found|ops=AddL(u0.a36 > 0)|rw=node n0 L4 a36 <= i:170 a36 > i:0\n"
     "node n1 L25 a182 <= i:86\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n1 r95\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=0.000000|guard=0|cost=1.000000|est=0.000000|verified=1|picky=96"
     "|exhaustive"},
    {"sweep/sim/0/ApproxWhy",
     "not-found|ops=|rw=node n0 L4 a36 <= i:170\n"
     "node n1 L25 a182 <= i:86\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n1 r95\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=0.000000|guard=0|cost=0.000000|est=0.000000|verified=96|picky=96"
     "|exhaustive"},
    {"sweep/sim/0/IsoWhy",
     "not-found|ops=|rw=node n0 L4 a36 <= i:170\n"
     "node n1 L25 a182 <= i:86\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n1 r95\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=0.000000|guard=0|cost=0.000000|est=0.000000|verified=96|picky=96"
     "|exhaustive"},
    {"sweep/sim/0/ExactWhyNot",
     "found|ops=RmE(u0 -r95-> u1)|rw=node n0 L4 a36 <= i:170\n"
     "node n1 L25 a182 <= i:86\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=1.000000|guard=0|cost=0.750000|est=1.000000|verified=1|picky=8"
     "|exhaustive"},
    {"sweep/sim/0/FastWhyNot",
     "found|ops=RmL(u1.a182 <= 86)|rw=node n0 L4 a36 <= i:170\n"
     "node n1 L25\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n1 r95\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=1.000000|guard=0|cost=0.750000|est=1.000000|verified=1|picky=8"
     "|exhaustive"},
    {"sweep/sim/0/IsoWhyNot",
     "found|ops=RmL(u1.a182 <= 86)|rw=node n0 L4 a36 <= i:170\n"
     "node n1 L25\n"
     "node n2 L27 a198 >= i:63\n"
     "node n3 L2 a20 <= i:658\n"
     "edge n0 n1 r95\n"
     "edge n0 n2 r102\n"
     "edge n3 n2 r92\n"
     "output n3\n"
     "|cl=1.000000|guard=0|cost=0.750000|est=1.000000|verified=1|picky=8"
     "|exhaustive"},
    {"sweep/sim/1/ExactWhy",
     "found|ops=AddL(u1.a104 < 183)|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72 a104 < i:183\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "edge n3 n1 r47\n"
     "output n2\n"
     "|cl=1.000000|guard=1|cost=1.000000|est=1.000000|verified=1|picky=96"
     "|exhaustive"},
    {"sweep/sim/1/ApproxWhy",
     "found|ops=AddL(u1.a104 < 61)|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72 a104 < i:61\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "edge n3 n1 r47\n"
     "output n2\n"
     "|cl=1.000000|guard=1|cost=1.000000|est=1.000000|verified=4|picky=96"
     "|exhaustive"},
    {"sweep/sim/1/IsoWhy",
     "found|ops=AddL(u1.a104 < 61)|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72 a104 < i:61\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "edge n3 n1 r47\n"
     "output n2\n"
     "|cl=1.000000|guard=1|cost=1.000000|est=1.000000|verified=1|picky=96"
     "|exhaustive"},
    {"sweep/sim/1/ExactWhyNot",
     "not-found|ops=RmE(u3 -r47-> u1)|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "output n2\n"
     "|cl=0.000000|guard=0|cost=0.750000|est=0.000000|verified=1|picky=7"
     "|exhaustive"},
    {"sweep/sim/1/FastWhyNot",
     "not-found|ops=|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "edge n3 n1 r47\n"
     "output n2\n"
     "|cl=0.000000|guard=0|cost=0.000000|est=0.000000|verified=7|picky=7"
     "|exhaustive"},
    {"sweep/sim/1/IsoWhyNot",
     "not-found|ops=|rw=node n0 L3 a33 >= i:13\n"
     "node n1 L14 a104 >= i:-72\n"
     "node n2 L0 a3 >= i:-89\n"
     "node n3 L1 a14 >= i:-43\n"
     "edge n0 n1 r58\n"
     "edge n2 n0 r9\n"
     "edge n3 n1 r47\n"
     "output n2\n"
     "|cl=0.000000|guard=0|cost=0.000000|est=0.000000|verified=7|picky=7"
     "|exhaustive"},
  };
  return *pins;
}

const Pins& ExpectedMultiOutputPins() {
  static const Pins* pins = new Pins{
    {"fig1-multi/iso/ExactWhyMultiOutput",
     "found|ops=AddE(u0 -series-> new:Series[val = S])"
     "|rw=node n0 Cellphone Price <= i:650\n"
     "node n1 Color val = s:pink\n"
     "node n2 Deal carrier = s:AT&T\n"
     "node n3 Brand name = s:Samsung\n"
     "node n4 Series val = s:S\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "edge n0 n4 series\n"
     "output n0 n1\n"
     "|cl=1.000000|guard=0|cost=2.000000|est=1.000000|verified=2|picky=11"
     "|exhaustive"},
    {"fig1-multi/iso/ApproxWhyMultiOutput",
     "found|ops=AddE(u0 -series-> new:Series[val = S])"
     "|rw=node n0 Cellphone Price <= i:650\n"
     "node n1 Color val = s:pink\n"
     "node n2 Deal carrier = s:AT&T\n"
     "node n3 Brand name = s:Samsung\n"
     "node n4 Series val = s:S\n"
     "edge n0 n1 color\n"
     "edge n0 n2 deal\n"
     "edge n0 n3 brand\n"
     "edge n0 n4 series\n"
     "output n0 n1\n"
     "|cl=1.000000|guard=0|cost=2.000000|est=1.000000|verified=2|picky=11"
     "|exhaustive"},
  };
  return *pins;
}

void ExpectPins(const Pins& actual, const Pins& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].first, expected[i].first);
    EXPECT_EQ(actual[i].second, expected[i].second) << actual[i].first;
  }
}

TEST(PinnedAnswersTest, SixAlgorithmsOnFigure1AndSweep) {
  Pins actual;
  for (auto s : {MatchSemantics::kIsomorphism, MatchSemantics::kSimulation}) {
    for (auto& p : Figure1Pins(s)) actual.push_back(std::move(p));
    for (auto& p : SweepPins(s)) actual.push_back(std::move(p));
  }
  ExpectPins(actual, ExpectedSixAlgorithmPins());
}

TEST(PinnedAnswersTest, MultiOutputOnFigure1) {
  ExpectPins(MultiOutputPins(), ExpectedMultiOutputPins());
}

TEST(ParallelDeterminismTest, WhyAlgorithmsMatchSerial) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  ASSERT_FALSE(w.items.empty());
  size_t compared = 0;
  for (const Workload::Item& item : w.items) {
    Matcher m(g);
    std::vector<NodeId> answers = m.MatchOutput(item.gq.query);
    if (answers.empty()) continue;
    WhyQuestion why{{answers[0]}};
    for (auto algo : {&ExactWhy, &ApproxWhy, &IsoWhy}) {
      RewriteAnswer serial =
          algo(g, item.gq.query, answers, why, BaseConfig(1));
      RewriteAnswer parallel =
          algo(g, item.gq.query, answers, why, BaseConfig(4));
      EXPECT_EQ(Fingerprint(g, serial), Fingerprint(g, parallel));
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(ParallelDeterminismTest, WhyNotAlgorithmsMatchSerial) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  ASSERT_FALSE(w.items.empty());
  size_t compared = 0;
  for (const Workload::Item& item : w.items) {
    Matcher m(g);
    std::vector<NodeId> answers = m.MatchOutput(item.gq.query);
    if (answers.empty()) continue;
    for (auto algo : {&ExactWhyNot, &FastWhyNot, &IsoWhyNot}) {
      RewriteAnswer serial =
          algo(g, item.gq.query, answers, item.whynot, BaseConfig(1));
      RewriteAnswer parallel =
          algo(g, item.gq.query, answers, item.whynot, BaseConfig(4));
      EXPECT_EQ(Fingerprint(g, serial), Fingerprint(g, parallel));
      ++compared;
    }
  }
  EXPECT_GT(compared, 0u);
}

TEST(ParallelDeterminismTest, CandidateFilterMatchesSerial) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  ASSERT_FALSE(w.items.empty());
  for (const Workload::Item& item : w.items) {
    const Query& q = item.gq.query;
    for (QNodeId u = 0; u < q.node_count(); ++u) {
      EXPECT_EQ(Candidates(g, q, u), Candidates(g, q, u, 4));
    }
  }
}

// An already-cancelled parallel question must return promptly with a
// truncated answer and leave nothing queued in the shared pool — the
// synchronous-ParallelFor guarantee a deadline-driven service relies on.
TEST(ParallelDeterminismTest, CancelledParallelSearchLeaksNoTasks) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  ASSERT_FALSE(w.items.empty());
  Matcher m(g);
  std::vector<NodeId> answers = m.MatchOutput(w.items[0].gq.query);
  ASSERT_FALSE(answers.empty());
  CancelToken token;
  token.Cancel();
  AnswerConfig cfg = BaseConfig(4);
  cfg.cancel = &token;
  WhyQuestion why{{answers[0]}};
  RewriteAnswer a = ExactWhy(g, w.items[0].gq.query, answers, why, cfg);
  EXPECT_FALSE(a.exhaustive);
  RewriteAnswer b =
      FastWhyNot(g, w.items[0].gq.query, answers, w.items[0].whynot, cfg);
  EXPECT_FALSE(b.exhaustive);
  for (int i = 0; i < 100 && ThreadPool::Shared().queued_tasks() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ThreadPool::Shared().queued_tasks(), 0u);
}

// The service's intra_threads knob must not change responses either: the
// synchronous Execute path at intra_threads = 4 matches intra_threads = 1.
TEST(ParallelDeterminismTest, ServiceIntraThreadsKeepsResponsesIdentical) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  ASSERT_FALSE(w.items.empty());
  std::shared_ptr<const Graph> shared = SweepGraphPtr();

  auto run = [&](size_t intra) {
    ServiceConfig sc;
    sc.workers = 1;
    sc.intra_threads = intra;
    WhyqService service(shared, sc);
    std::vector<std::string> out;
    for (const Workload::Item& item : w.items) {
      Matcher m(g);
      std::vector<NodeId> answers = m.MatchOutput(item.gq.query);
      if (answers.empty()) continue;
      ServiceRequest req;
      req.kind = RequestKind::kWhy;
      req.query_text = WriteQuery(item.gq.query, g);
      req.entities = {answers[0]};
      req.config = BaseConfig(0);  // 0: let the service decide
      ServiceResponse r = service.Execute(req);
      EXPECT_EQ(r.status, ResponseStatus::kOk);
      out.push_back(Fingerprint(g, r.answer));
    }
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

// Concurrent per-worker MatchContexts over one shared Graph: each thread
// owns its own context (the documented confinement contract) while all of
// them read the same label-partitioned adjacency concurrently. Every
// thread's answers must equal the serial context-free baseline; run under
// the CI thread-sanitizer job, this also proves the Graph's slice arrays
// are genuinely immutable shared state.
TEST(ParallelDeterminismTest, PerWorkerContextsMatchContextFree) {
  const Graph& g = SweepGraph();
  Workload w = SweepWorkload(g);
  ASSERT_FALSE(w.items.empty());
  const Query& q = w.items[0].gq.query;

  Matcher baseline_m(g);
  std::vector<NodeId> baseline = baseline_m.MatchOutput(q);
  std::vector<NodeId> probes = baseline;
  for (NodeId v = 0; v < 16 && v < g.node_count(); ++v) probes.push_back(v);
  std::vector<uint8_t> baseline_tested = baseline_m.TestAnswers(q, probes);

  constexpr int kThreads = 4;
  std::vector<int> ok(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      MatchContext ctx(g);  // thread-confined memo
      Matcher m(g);
      m.set_context(&ctx);
      bool good = true;
      for (int round = 0; round < 3; ++round) {
        good = good && m.MatchOutput(q) == baseline;
        good = good && m.TestAnswers(q, probes) == baseline_tested;
      }
      ok[t] = good ? 1 : 0;
    });
  }
  for (std::thread& th : workers) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(ok[t], 1) << "thread " << t;
}

}  // namespace
}  // namespace whyq

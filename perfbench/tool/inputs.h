#ifndef PERFBENCH_TOOL_INPUTS_H_
#define PERFBENCH_TOOL_INPUTS_H_

// Inputs of the three benchmark workloads.
//
// Each workload's question universe is fixed data (perfbench/data/*.jsonl,
// written once by `perfbench_tool universe`): the paper's default
// generator at the repository's default workload seed, so every commit is
// measured on the same questions — including the exact_guard admission,
// whose verdict depends on the engine's own work and therefore must not
// be recomputed by the code under test. Per run, `gen` rebuilds the BSBM
// graph and the update schedule; the run's seed drives the request
// sequence of the load generator (tool/load.h).

#include <cstdint>
#include <string>
#include <vector>

#include "whyq.h"

namespace perfbench {

/// Fixed shape of one workload: its inputs, the daemon's flags, the load
/// generator's clients, and how run.py summarizes the records. This is the
/// one table of workload shapes; `gen` prints the daemon and summary parts
/// for run.py, and `load` / `replay` look the rest up by name.
struct WorkloadSpec {
  std::string name;
  size_t bsbm_products = 0;  // BSBM scale (products); nodes ~= 5.75x
  uint64_t graph_seed = 7;   // the repository's standard BSBM graph
  size_t items = 0;          // generated (query, why, why-not) items
  bool exact = false;        // pool questions use algo "exact" (else "auto")
  size_t max_mbs = 0;        // wire max_mbs cap of exact questions
  bool pinned = false;       // add the pinned guard-heavy question
  /// Why-so-many reads with Zipf(1) popularity, beside an open-loop writer
  /// that sends one update batch every kUpdatePeriodMs.
  bool reads = false;
  size_t replay_exact = 0;   // extra admitted exact questions, replay only
  // whyq_cli serve --workers / --threads / --cache.
  size_t workers = 1;
  size_t threads = 1;
  size_t cache = 64;
  // Closed-loop client connections (never more than the cores), and the
  // requests each keeps outstanding.
  size_t clients = 1;
  size_t inflight = 1;
  // The highest tail percentile the run's sample count supports, and the
  // summary window in draws of the request sequence (0: one pool pass).
  double tail_ceiling = 90.0;
  size_t window = 0;
};

/// The writer's period on `reads` workloads. The daemon applies each batch
/// inline on its event loop (~15-20 ms on BSBM-10000), so closer spacing
/// stalls the reads behind it.
constexpr double kUpdatePeriodMs = 250.0;

/// The cores this process may run on.
size_t HostCores();

/// Known workloads: exact_guard, greedy_mix, serve_update.
bool LookupWorkload(const std::string& name, WorkloadSpec* out);

/// The workload's graph (BSBM at spec scale and seed).
whyq::Graph MakeGraph(const WorkloadSpec& spec);

/// Generates the question universe as wire lines (no "id"). Lines used only
/// by the traced replay carry "bench":"replay". Exact questions are
/// admitted only when their serial search finishes within the wire cap
/// and a fixed matcher-work bound (see ExactFinishesWithinCap in
/// inputs.cc).
std::vector<std::string> MakeUniverse(const WorkloadSpec& spec,
                                      const whyq::Graph& g,
                                      uint64_t generator_seed);

/// One run's inputs, derived from the universe.
struct Generated {
  std::vector<std::string> requests;  // the load generator's pool
  std::vector<std::string> replay;    // why/why-not lines for the replay
  std::vector<std::string> updates;   // serve_update: ordered update lines
};

/// Update batches cover `seconds` of the writer's schedule; `limit` > 0
/// keeps only the first `limit` pool requests (smoke runs).
Generated Generate(const WorkloadSpec& spec, const whyq::Graph& g,
                   const std::vector<std::string>& universe, double seconds,
                   size_t limit);

/// The serve_update batch generator, usable on any graph: batch `k`
/// alternates between a footprint-disjoint batch (an isolated node of a
/// label no query uses) and a footprint-touching but answer-preserving one
/// (an isolated node carrying the label and one literal of
/// `queries[k/2 % |queries|]`). `next_id` is the id the batch's node will
/// receive; it is advanced past it.
whyq::UpdateBatch MakeUpdate(const whyq::Graph& g,
                             const std::vector<whyq::Query>& queries,
                             size_t k, whyq::NodeId* next_id);

/// Wire form of an update batch ({"op":"update","ops":[...]}).
std::string UpdateLine(const whyq::UpdateBatch& batch);

/// Writes `lines` one per line; false on I/O failure.
bool WriteLines(const std::string& path, const std::vector<std::string>& lines);
/// Reads non-empty lines, skipping '#' comments; false on I/O failure.
bool ReadLines(const std::string& path, std::vector<std::string>* lines);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_INPUTS_H_

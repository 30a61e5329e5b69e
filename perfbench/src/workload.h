#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// Workload definitions and seeded input generation. Every input the
// program under test receives — the graph, the update stream and its
// arrival schedule — is a pure function of (workload, seed); the program
// never sees the seed itself.

#include <cstdint>
#include <string>
#include <vector>

#include "bc/dynamic_bc.h"
#include "graph/edge_stream.h"
#include "graph/graph.h"

namespace perfbench {

enum class Deployment { kService, kCluster };
enum class StreamShape { kMixed, kChurn };

struct WorkloadSpec {
  std::string name;
  Deployment deployment = Deployment::kService;
  sobc::BcVariant variant = sobc::BcVariant::kMemory;
  std::size_t vertices = 0;
  StreamShape stream = StreamShape::kMixed;
  /// kMixed: share of removals. kChurn: size of the toggled edge pool.
  double remove_fraction = 0.2;
  std::size_t churn_pool = 0;
  /// Fixed open-loop offered rate (updates/s) and the log-normal sigma of
  /// the inter-arrival gaps; the gap mean is 1/rate whatever the sigma.
  double offered_rate = 0.0;
  double gap_sigma = 0.0;
  /// Updates submitted closed-loop after the open-loop phase drained.
  std::size_t saturated_block = 0;
  /// Apply threads of the single-process service (shards run 1 each);
  /// 0 = nproc - 1, leaving one core to the load generator.
  int apply_threads = 1;
  std::size_t shards = 0;
  /// WAL + periodic checkpoints (every this many consumed updates).
  bool durable = false;
  std::size_t checkpoint_every_updates = 0;
  /// Out-of-core store tuning.
  std::size_t cache_mb = 0;
  bool delta_codec = false;
  bool prefetch = false;
  /// Bring-ups per run; setup_s is their median.
  int setup_reps = 3;
};

/// The three workloads, by name; null when unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// Generated inputs of one run.
struct Inputs {
  sobc::Graph graph;
  /// open_count open-loop updates followed by the saturated block.
  sobc::EdgeStream stream;
  std::size_t open_count = 0;
  /// Due time of each open-loop update, seconds after the schedule start.
  std::vector<double> due;
};

/// Inputs for `spec` at `seed` with an open-loop phase of `seconds`.
/// Workloads sharing a graph size and stream shape get identical inputs
/// for one seed (cluster-mixed replays mo-mixed's stream).
Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  double seconds);

/// Initial graph with every stream update applied: the reference state
/// the final snapshot is checked against.
sobc::Graph FinalGraph(const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

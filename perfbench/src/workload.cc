#include "workload.h"

#include <cmath>
#include <cstdlib>

#include "common/rng.h"
#include "gen/generators.h"
#include "gen/social_generator.h"
#include "gen/stream_generators.h"

namespace perfbench {

namespace {

// Offered rates are fixed constants, set on a 4-core x86-64 host (Release
// build) so that unbatched apply keeps the writer 20-35% busy: a faster
// commit then shows as lower latency at the same load rather than as a
// changed load. Near half load, the host's own speed swings of 10-15%
// moved update_p99_ms by half through queueing, and runs did not repeat.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kWorkloads = [] {
    std::vector<WorkloadSpec> all;

    // The paper's online scenario on the default deployment: distinct
    // random edges barely coalesce, so the engine, the prefilter and the
    // sharded parallel drain do the work; storage and queue do little.
    WorkloadSpec mo;
    mo.name = "mo-mixed";
    mo.deployment = Deployment::kService;
    mo.variant = sobc::BcVariant::kMemory;
    mo.vertices = 1000;
    mo.stream = StreamShape::kMixed;
    mo.remove_fraction = 0.2;
    mo.offered_rate = 70.0;
    mo.gap_sigma = 0.5;
    mo.saturated_block = 1500;
    mo.apply_threads = 0;  // nproc - 1
    mo.durable = true;
    mo.checkpoint_every_updates = 2000;
    mo.setup_reps = 7;
    all.push_back(mo);

    // Out-of-core storage under a cache budget well below the decoded
    // working set, on a churn stream that coalesces: time sits in the BD
    // store's read/decode/encode/write and in the queue. Serial apply, so
    // the thread pool is bypassed.
    WorkloadSpec churn;
    churn.name = "do-churn";
    churn.deployment = Deployment::kService;
    churn.variant = sobc::BcVariant::kOutOfCore;
    churn.vertices = 500;
    churn.stream = StreamShape::kChurn;
    churn.churn_pool = 300;
    churn.offered_rate = 60.0;
    churn.gap_sigma = 0.5;
    churn.saturated_block = 1500;
    churn.apply_threads = 1;
    churn.cache_mb = 1;
    churn.delta_codec = true;
    churn.prefetch = true;
    churn.setup_reps = 7;
    all.push_back(churn);

    // mo-mixed's stream and rate through the cluster plane: replicate,
    // fan-out, slowest-shard ack, partial transfer and merge run only here.
    WorkloadSpec cluster = mo;
    cluster.name = "cluster-mixed";
    cluster.deployment = Deployment::kCluster;
    cluster.apply_threads = 1;
    cluster.shards = 3;
    cluster.durable = false;
    cluster.checkpoint_every_updates = 0;
    // A coordinator batch carries ~5 ms of fixed cost (full partials in
    // every ack, merge, publish), so how many batches a closed-loop part
    // splits into swings its rate; longer parts amortize that.
    cluster.saturated_block = 3000;
    all.push_back(cluster);
    return all;
  }();
  return kWorkloads;
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Workloads()) names.push_back(spec.name);
  return names;
}

Inputs MakeInputs(const WorkloadSpec& spec, std::uint64_t seed,
                  double seconds) {
  Inputs inputs;
  // Independent streams per input so that changing one generator (say,
  // the arrival process) never reshuffles the others.
  sobc::Rng graph_rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  sobc::Rng stream_rng(seed * 0x9E3779B97F4A7C15ULL + 2);
  sobc::Rng gap_rng(seed * 0x9E3779B97F4A7C15ULL + 3);

  // Growth generators number vertices in attachment order; relabeling
  // spreads hubs over the id space so contiguous shard ranges balance.
  const sobc::Graph grown = sobc::GenerateSocialGraph(
      spec.vertices, sobc::SocialGraphParams::PaperDefaults(), &graph_rng);
  inputs.graph = sobc::RelabelRandom(grown, &graph_rng);

  inputs.open_count = static_cast<std::size_t>(
      std::ceil(spec.offered_rate * seconds));
  const std::size_t total = inputs.open_count + spec.saturated_block;
  inputs.stream =
      spec.stream == StreamShape::kMixed
          ? sobc::MixedUpdateStream(inputs.graph, total, spec.remove_fraction,
                                    &stream_rng)
          : sobc::ChurnStream(inputs.graph, total, spec.churn_pool,
                              &stream_rng);

  // Log-normal gaps with mean 1/rate: mu = ln(1/rate) - sigma^2/2.
  const double sigma = spec.gap_sigma;
  const double mu = std::log(1.0 / spec.offered_rate) - 0.5 * sigma * sigma;
  inputs.due.resize(inputs.open_count);
  double t = 0.0;
  for (std::size_t i = 0; i < inputs.open_count; ++i) {
    inputs.due[i] = t;
    t += gap_rng.LogNormal(mu, sigma);
  }
  return inputs;
}

sobc::Graph FinalGraph(const Inputs& inputs) {
  sobc::Graph graph = inputs.graph;
  for (const sobc::EdgeUpdate& update : inputs.stream) {
    if (!sobc::ApplyToGraph(&graph, update).ok()) std::abort();
  }
  return graph;
}

}  // namespace perfbench

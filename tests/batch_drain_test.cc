// Per-update ≡ per-batch differential for the chunk-major batch drain
// (DESIGN.md §8). ApplyBatch repairs every step of a batch in one drain:
// each chunk of sources walks the batch's updates in order, reading the
// graph of each step through a StepView of the final snapshot. The same
// stream applied in batches of 1, 2, 7, 64 and 256 must publish, after
// every batch, the scores the per-update run publishes at that position
// and from-scratch Brandes on that graph, at 1e-7 — for every storage
// variant, thread count, kernel and prefilter setting and record codec,
// for directed graphs, for a partition-scoped shard and for the sampled
// mode. The batches hold an add->remove->add of one edge, a bridge removal
// that splits the graph and its re-add, and vertices that arrive mid-batch.
// The suite also pins the step views themselves, the sharder's chunk cap
// and the contract for an update the graph refuses mid-batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bc/bd_store_disk.h"
#include "bc/brandes.h"
#include "bc/dynamic_bc.h"
#include "common/rng.h"
#include "gen/stream_generators.h"
#include "graph/csr_view.h"
#include "graph/step_view.h"
#include "parallel/source_sharder.h"
#include "tests/test_util.h"
#include "tests/testlib/scenarios.h"

namespace sobc {
namespace {

using testutil::ExpectScoresNear;

constexpr double kTol = 1e-7;
constexpr std::size_t kBatchSizes[] = {1, 2, 7, 64, 256};

/// A stream whose batches hit every case the step views must get right.
/// The undirected base is two clusters joined by one bridge, and the
/// stream opens by cutting and re-adding the bridge with churn in between.
/// Then, between two stretches of mixed churn, it toggles one fresh edge
/// add -> remove -> add and attaches two new vertices (the second arrival
/// links the first one to an old vertex). The churn fills a 256-update
/// batch.
testlib::Scenario BatchScenario(std::uint64_t seed, bool directed) {
  Rng rng(seed);
  testlib::Scenario scenario;
  if (directed) {
    scenario.base = testlib::RandomGraph(24, 80, &rng, /*directed=*/true);
  } else {
    scenario = testlib::DisconnectScenario(seed, 12, 6, /*cycles=*/6,
                                           /*churn_per_cycle=*/3);
  }
  Graph graph = scenario.base;
  auto append = [&](const EdgeStream& part) {
    for (const EdgeUpdate& update : part) {
      EXPECT_TRUE(ApplyToGraph(&graph, update).ok());
      scenario.stream.push_back(update);
    }
  };
  for (const EdgeUpdate& update : scenario.stream) {
    EXPECT_TRUE(ApplyToGraph(&graph, update).ok());
  }
  append(MixedUpdateStream(graph, 20, 0.35, &rng));
  VertexId b = 2;
  while (graph.HasEdge(1, b)) ++b;
  const auto fresh = static_cast<VertexId>(graph.NumVertices());
  append({{1, b, EdgeOp::kAdd, 0.0},
          {1, b, EdgeOp::kRemove, 0.0},
          {1, b, EdgeOp::kAdd, 0.0},
          {3, fresh, EdgeOp::kAdd, 0.0},
          {fresh + 1, fresh, EdgeOp::kAdd, 0.0},
          {fresh + 1, 5, EdgeOp::kAdd, 0.0},
          {3, fresh, EdgeOp::kRemove, 0.0}});
  append(MixedUpdateStream(graph, 240, 0.35, &rng));
  return scenario;
}

struct DrainConfig {
  BcVariant variant = BcVariant::kMemory;
  int threads = 1;
  bool msbfs = true;
  bool prefilter = true;
  RecordCodecId codec = RecordCodecId::kRaw;
  VertexId source_begin = 0;
  VertexId source_end = kInvalidVertex;
  std::size_t approx_samples = 0;
};

std::string ConfigName(const DrainConfig& config) {
  std::string name;
  switch (config.variant) {
    case BcVariant::kMemory: name = "mo"; break;
    case BcVariant::kMemoryPredecessors: name = "mp"; break;
    case BcVariant::kOutOfCore: name = "do"; break;
  }
  name += "_t" + std::to_string(config.threads);
  name += config.msbfs ? "_msbfs" : "_scalar";
  if (!config.prefilter) name += "_noprefilter";
  if (config.variant == BcVariant::kOutOfCore) {
    name += std::string("_") + RecordCodecName(config.codec);
  }
  if (config.source_begin != 0 || config.source_end != kInvalidVertex) {
    name += "_scope" + std::to_string(config.source_begin);
  }
  if (config.approx_samples > 0) {
    name += "_k" + std::to_string(config.approx_samples);
  }
  return name;
}

std::unique_ptr<DynamicBc> MakeBc(const Graph& graph,
                                  const DrainConfig& config,
                                  const std::string& tag) {
  DynamicBcOptions options;
  options.variant = config.variant;
  options.num_threads = config.threads;
  options.msbfs = config.msbfs;
  options.prefilter = config.prefilter;
  options.source_begin = config.source_begin;
  options.source_end = config.source_end;
  options.approx_samples = config.approx_samples;
  options.approx_epsilon = 0.95;
  if (config.variant == BcVariant::kOutOfCore) {
    options.storage_path = ::testing::TempDir() + "/batch_drain_" +
                           ConfigName(config) + "_" + tag + ".bd";
    std::remove(options.storage_path.c_str());
    options.store_codec = config.codec;
    options.cache_mb = 1;
    options.prefetch = true;
  }
  auto bc = DynamicBc::Create(graph, options);
  EXPECT_TRUE(bc.ok()) << bc.status().ToString();
  return bc.ok() ? std::move(*bc) : nullptr;
}

/// The oracle of a framework's maintained sums: from-scratch Brandes
/// restricted to the sources the framework owns (all, a scoped range, or
/// the sample set).
BcScores Oracle(const Graph& graph, const DrainConfig& config,
                const DynamicBc& bc) {
  BcScores scores;
  scores.vbc.assign(graph.NumVertices(), 0.0);
  if (config.approx_samples > 0) {
    for (const VertexId s : bc.sample_sources()) {
      SourceBcData data;
      BrandesSingleSource(graph, s, BrandesOptions{}, &data, &scores);
    }
    return scores;
  }
  const auto end = static_cast<VertexId>(
      std::min<std::size_t>(config.source_end, graph.NumVertices()));
  if (config.source_begin < end) {
    ComputeBrandesRange(graph, config.source_begin, end, BrandesOptions{},
                        &scores);
  }
  return scores;
}

/// Oracle scores by stream position, shared by the configurations of one
/// scenario and source scope (the sampled mode's oracle depends on the
/// framework's samples and is never cached).
using OracleCache = std::vector<std::optional<BcScores>>;

/// Replays `scenario` per update, then in batches of every size, checking
/// each batch boundary against the per-update run and the oracle.
void ExpectBatchesMatchPerUpdate(const testlib::Scenario& scenario,
                                 const DrainConfig& config,
                                 std::span<const std::size_t> batch_sizes,
                                 OracleCache* cache = nullptr) {
  const std::string name = ConfigName(config);
  const EdgeStream& stream = scenario.stream;
  std::vector<BcScores> per_update;
  {
    auto ref = MakeBc(scenario.base, config, "ref");
    ASSERT_NE(ref, nullptr);
    per_update.push_back(ref->scores());
    for (const EdgeUpdate& update : stream) {
      ASSERT_TRUE(ref->Apply(update).ok()) << name;
      per_update.push_back(ref->scores());
    }
    if (config.approx_samples > 0) {
      // Resampling is scheduled per ApplyBatch call; the comparison is
      // only meaningful while the sample set holds still.
      ASSERT_EQ(ref->approx_status().source_swaps, 0u) << name;
    }
  }
  for (const std::size_t size : batch_sizes) {
    const std::string label = name + " batch " + std::to_string(size);
    auto bc = MakeBc(scenario.base, config, "b" + std::to_string(size));
    ASSERT_NE(bc, nullptr);
    Graph graph = scenario.base;
    for (std::size_t pos = 0; pos < stream.size(); pos += size) {
      const std::size_t len = std::min(size, stream.size() - pos);
      const std::span<const EdgeUpdate> batch =
          std::span<const EdgeUpdate>(stream).subspan(pos, len);
      ASSERT_TRUE(bc->ApplyBatch(batch).ok()) << label << " at " << pos;
      for (const EdgeUpdate& update : batch) {
        ASSERT_TRUE(ApplyToGraph(&graph, update).ok());
      }
      const std::string at = label + " after " + std::to_string(pos + len);
      ExpectScoresNear(per_update[pos + len], bc->scores(), kTol,
                       at + " vs per-update");
      std::optional<BcScores> fresh;
      std::optional<BcScores>& oracle =
          cache != nullptr ? (*cache)[pos + len] : fresh;
      if (!oracle) oracle = Oracle(graph, config, *bc);
      ExpectScoresNear(*oracle, bc->scores(), kTol,
                       at + " vs Brandes");
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_LE(bc->graph().csr().stats().builds, 1u) << label;
  }
}

TEST(StepViewTest, EveryStepReadsTheGraphAsItStoodAfterThatUpdate) {
  for (const bool directed : {false, true}) {
    const testlib::Scenario scenario = BatchScenario(11, directed);
    for (const bool use_csr : {true, false}) {
      Graph graph = scenario.base;
      graph.csr();
      const std::span<const EdgeUpdate> batch =
          std::span<const EdgeUpdate>(scenario.stream).first(120);
      std::vector<Graph> after;
      for (const EdgeUpdate& update : batch) {
        ASSERT_TRUE(ApplyToGraph(&graph, update).ok());
        after.push_back(graph);
      }
      BatchSteps steps;
      steps.Build(graph, batch, use_csr);
      ASSERT_EQ(steps.num_steps(), batch.size());
      auto sorted = [](std::span<const VertexId> list) {
        std::vector<VertexId> out(list.begin(), list.end());
        std::sort(out.begin(), out.end());
        return out;
      };
      auto check = [&](const auto& base) {
        for (std::size_t step = 0; step < batch.size(); ++step) {
          const StepView view(base, steps, step);
          const Graph& expected = after[step];
          ASSERT_EQ(view.NumVertices(), graph.NumVertices());
          for (VertexId v = 0; v < graph.NumVertices(); ++v) {
            const bool known = v < expected.NumVertices();
            const std::vector<VertexId> none;
            EXPECT_EQ(sorted(view.OutNeighbors(v)),
                      known ? sorted(expected.OutNeighbors(v)) : none)
                << "step " << step << " vertex " << v;
            EXPECT_EQ(sorted(view.InNeighbors(v)),
                      known ? sorted(expected.InNeighbors(v)) : none)
                << "step " << step << " vertex " << v;
            EXPECT_EQ(view.OutDegree(v), view.OutNeighbors(v).size());
          }
          if (::testing::Test::HasFailure()) return;
        }
      };
      if (use_csr) {
        check(graph.csr());
      } else {
        check(GraphAdjacency(graph));
      }
    }
  }
}

TEST(SourceSharderTest, ChunkCapBoundsEveryChunk) {
  std::vector<VertexId> worklist(200);
  for (VertexId i = 0; i < worklist.size(); ++i) worklist[i] = 3 * i;
  const std::vector<std::uint64_t> weights(worklist.size(), 9);
  // {cap, alignment, expected chunk length}: a cap below the alignment
  // wins over it; a larger one is rounded down to a multiple of it.
  const std::size_t cases[][3] = {{24, 64, 24}, {100, 64, 64}, {0, 64, 200}};
  for (const auto& c : cases) {
    SourceSharderOptions options;
    options.chunks_per_worker = 1;
    options.batch_align = c[1];
    options.max_chunk_sources = c[0];
    SourceSharder sharder;
    sharder.Reset(worklist, weights, options);
    std::size_t covered = 0;
    std::span<const VertexId> chunk;
    while (sharder.Next(&chunk)) {
      EXPECT_EQ(chunk.data(), worklist.data() + covered);
      EXPECT_EQ(chunk.size(), std::min(c[2], worklist.size() - covered));
      covered += chunk.size();
    }
    EXPECT_EQ(covered, worklist.size());
  }
}

TEST(BatchDrainTest, BatchesMatchPerUpdateForEveryVariantAndKnob) {
  const testlib::Scenario scenario = BatchScenario(3, /*directed=*/false);
  OracleCache brandes(scenario.stream.size() + 1);
  for (const BcVariant variant :
       {BcVariant::kMemoryPredecessors, BcVariant::kMemory,
        BcVariant::kOutOfCore}) {
    const std::vector<RecordCodecId> codecs =
        variant == BcVariant::kOutOfCore
            ? std::vector<RecordCodecId>{RecordCodecId::kRaw,
                                         RecordCodecId::kDelta}
            : std::vector<RecordCodecId>{RecordCodecId::kRaw};
    for (const RecordCodecId codec : codecs) {
      for (const int threads : {1, 4}) {
        for (const bool msbfs : {true, false}) {
          for (const bool prefilter : {true, false}) {
            DrainConfig config;
            config.variant = variant;
            config.codec = codec;
            config.threads = threads;
            config.msbfs = msbfs;
            config.prefilter = prefilter;
            ExpectBatchesMatchPerUpdate(scenario, config, kBatchSizes,
                                        &brandes);
            if (::testing::Test::HasFailure()) return;
          }
        }
      }
    }
  }
}

TEST(BatchDrainTest, DirectedBatchesMatchPerUpdate) {
  const testlib::Scenario scenario = BatchScenario(5, /*directed=*/true);
  OracleCache brandes(scenario.stream.size() + 1);
  for (const BcVariant variant :
       {BcVariant::kMemoryPredecessors, BcVariant::kMemory,
        BcVariant::kOutOfCore}) {
    for (const int threads : {1, 4}) {
      DrainConfig config;
      config.variant = variant;
      config.threads = threads;
      config.codec = RecordCodecId::kDelta;
      ExpectBatchesMatchPerUpdate(scenario, config, kBatchSizes, &brandes);
    }
  }
}

TEST(BatchDrainTest, ScopedShardBatchesMatchPerUpdate) {
  // One shard's share, as a cluster shard runs it: the partials of the
  // owned range must match its per-update run and Brandes over the range.
  const testlib::Scenario scenario = BatchScenario(7, /*directed=*/false);
  OracleCache low_brandes(scenario.stream.size() + 1);
  OracleCache high_brandes(scenario.stream.size() + 1);
  for (const BcVariant variant : {BcVariant::kMemory, BcVariant::kOutOfCore}) {
    for (const int threads : {1, 4}) {
      DrainConfig low;
      low.variant = variant;
      low.threads = threads;
      low.source_end = 9;
      DrainConfig high = low;
      high.source_begin = 9;
      high.source_end = kInvalidVertex;
      ExpectBatchesMatchPerUpdate(scenario, low, kBatchSizes, &low_brandes);
      ExpectBatchesMatchPerUpdate(scenario, high, kBatchSizes, &high_brandes);
    }
  }
}

TEST(BatchDrainTest, SampledBatchesMatchPerUpdate) {
  // A short stream, so the drift ledger never starts a resampling round
  // and both runs keep the same sample set.
  testlib::Scenario scenario = testlib::ChurnScenario(13, 40, 30, 50);
  for (const BcVariant variant : {BcVariant::kMemory, BcVariant::kOutOfCore}) {
    for (const int threads : {1, 4}) {
      for (const bool prefilter : {true, false}) {
        DrainConfig config;
        config.variant = variant;
        config.threads = threads;
        config.prefilter = prefilter;
        config.approx_samples = 12;
        const std::size_t sizes[] = {1, 7, 50};
        ExpectBatchesMatchPerUpdate(scenario, config, sizes);
      }
    }
  }
}

TEST(BatchDrainTest, ThreadedOutOfCoreDrainUnderEvictionAndPrefetch) {
  // Records large against the 1 MiB cache (three per shard), so the batch
  // drain runs its capped chunks and read-ahead against real eviction and
  // write-back traffic from four workers and the prefetch thread.
  Rng rng(17);
  const Graph base = testlib::RandomConnectedGraph(1000, 400, &rng);
  const EdgeStream stream = MixedUpdateStream(base, 16, 0.4, &rng);
  for (const int threads : {1, 4}) {
    DrainConfig config;
    config.variant = BcVariant::kOutOfCore;
    config.codec = RecordCodecId::kDelta;
    config.threads = threads;
    auto ref = MakeBc(base, config, "evict_ref");
    auto bc = MakeBc(base, config, "evict_batch");
    ASSERT_NE(ref, nullptr);
    ASSERT_NE(bc, nullptr);
    ASSERT_GT(bc->disk_store()->CachedRecordSlots(), 0u);
    ASSERT_LT(bc->disk_store()->CachedRecordSlots(), 100u);
    for (const EdgeUpdate& update : stream) ASSERT_TRUE(ref->Apply(update).ok());
    ASSERT_TRUE(bc->ApplyBatch(stream).ok());
    ExpectScoresNear(ref->scores(), bc->scores(), kTol,
                     "threads " + std::to_string(threads));
  }
}

TEST(BatchDrainTest, RefusedUpdateKeepsThePrefixAppliedAndReturnsTheError) {
  const testlib::Scenario scenario = testlib::ChurnScenario(19, 30, 20, 12);
  Graph prefix = scenario.base;
  for (const EdgeUpdate& update : scenario.stream) {
    ASSERT_TRUE(ApplyToGraph(&prefix, update).ok());
  }
  // An absent-edge remove in the middle of the batch.
  VertexId a = 0;
  VertexId b = 1;
  while (prefix.HasEdge(a, b)) ++b;
  EdgeStream batch = scenario.stream;
  batch.push_back({a, b, EdgeOp::kRemove, 0.0});
  batch.push_back({a, b, EdgeOp::kAdd, 0.0});
  for (const BcVariant variant : {BcVariant::kMemory, BcVariant::kOutOfCore}) {
    for (const int threads : {1, 4}) {
      DrainConfig config;
      config.variant = variant;
      config.threads = threads;
      auto bc = MakeBc(scenario.base, config, "refused");
      ASSERT_NE(bc, nullptr);
      EXPECT_FALSE(bc->ApplyBatch(batch).ok());
      EXPECT_EQ(bc->graph().NumEdges(), prefix.NumEdges());
      EXPECT_FALSE(bc->graph().HasEdge(a, b));
      ExpectScoresNear(ComputeBrandes(prefix), bc->scores(), kTol,
                       ConfigName(config) + " prefix vs Brandes");
    }
  }
}

}  // namespace
}  // namespace sobc

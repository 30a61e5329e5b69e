// The layered BD storage engine (codec x shared cache x prefetch), driven
// through the same scenarios under both record codecs:
//   * store semantics (initial state, put/view/apply/peek, reopen, grow)
//     must be codec-invariant;
//   * handles sharing one backing file must observe each other's writes
//     with no manual invalidation — the epoch protocol that replaced
//     BdStore::InvalidateCache;
//   * Grow must retire every decoded record across all handles (cache
//     generation), and grown sources must decode as isolated vertices;
//   * the prefetcher must populate the shared cache (Hint + Quiesce is
//     deterministic) and never affect results;
//   * the full DO framework must stay exact against from-scratch Brandes
//     across growth under either codec, serial and sharded.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bc/bd_store.h"
#include "bc/bd_store_disk.h"
#include "bc/brandes.h"
#include "bc/dynamic_bc.h"
#include "bc/source_prefilter.h"
#include "common/rng.h"
#include "gen/stream_generators.h"
#include "tests/test_util.h"

namespace sobc {
namespace {

using testutil::ExpectScoresNear;
using testutil::RandomConnectedGraph;

class StorageEngineTest : public ::testing::TestWithParam<RecordCodecId> {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }
  std::string TempPath(const std::string& name) {
    std::string p = ::testing::TempDir() + "/sobc_engine_" +
                    std::string(RecordCodecName(GetParam())) + "_" + name;
    paths_.push_back(p);
    std::remove(p.c_str());
    return p;
  }
  DiskBdStoreOptions Options(std::size_t cache_bytes = 1 << 20,
                             bool prefetch = false) const {
    DiskBdStoreOptions options;
    options.codec = GetParam();
    options.cache_bytes = cache_bytes;
    options.prefetch = prefetch;
    return options;
  }
  std::vector<std::string> paths_;
};

TEST_P(StorageEngineTest, InitialStateIsIsolatedVertices) {
  auto store = DiskBdStore::Create(TempPath("init.bin"), 5, 0, 0,
                                   kInvalidVertex, Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  EXPECT_EQ((*store)->codec(), GetParam());
  for (VertexId s = 0; s < 5; ++s) {
    SourceView view;
    ASSERT_TRUE((*store)->View(s, &view).ok());
    ASSERT_EQ(view.n, 5u);
    for (VertexId v = 0; v < 5; ++v) {
      if (v == s) {
        EXPECT_EQ(view.d[v], 0u);
        EXPECT_EQ(view.sigma[v], 1u);
      } else {
        EXPECT_EQ(view.d[v], kUnreachable);
        EXPECT_EQ(view.sigma[v], 0u);
      }
      EXPECT_DOUBLE_EQ(view.delta[v], 0.0);
    }
  }
}

TEST_P(StorageEngineTest, PutViewApplyPeekRoundTrip) {
  auto store =
      DiskBdStore::Create(TempPath("rw.bin"), 4, 0, 0, kInvalidVertex,
                          Options());
  ASSERT_TRUE(store.ok());
  SourceBcData data;
  data.Resize(4);
  data.d = {0, 1, 2, kUnreachable};
  data.sigma = {1, 2, 3, 0};
  data.delta = {0.5, 1.5, 0.0, 0.0};
  ASSERT_TRUE((*store)->PutInitial(0, std::move(data)).ok());

  Distance da = 0;
  Distance db = 0;
  ASSERT_TRUE((*store)->PeekDistances(0, 2, 3, &da, &db).ok());
  EXPECT_EQ(da, 2u);
  EXPECT_EQ(db, kUnreachable);

  SourceView view;
  ASSERT_TRUE((*store)->View(0, &view).ok());
  EXPECT_EQ(view.sigma[2], 3u);
  EXPECT_DOUBLE_EQ(view.delta[1], 1.5);

  ASSERT_TRUE(
      (*store)->Apply(0, {BdPatch{1, 5, 9, 2.25}}, PredPatchList{}).ok());
  ASSERT_TRUE((*store)->View(0, &view).ok());
  EXPECT_EQ(view.d[1], 5u);
  EXPECT_EQ(view.sigma[1], 9u);
  EXPECT_DOUBLE_EQ(view.delta[1], 2.25);
  // Peek after apply sees the patched distance too (cache-served).
  ASSERT_TRUE((*store)->PeekDistances(0, 1, 2, &da, &db).ok());
  EXPECT_EQ(da, 5u);
}

TEST_P(StorageEngineTest, PersistsAcrossProcessStyleReopen) {
  const std::string path = TempPath("reopen.bin");
  {
    auto store =
        DiskBdStore::Create(path, 3, 0, 0, kInvalidVertex, Options());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        (*store)->Apply(1, {BdPatch{2, 4, 6, 1.0}}, PredPatchList{}).ok());
    ASSERT_TRUE((*store)->Flush().ok());
  }
  // A fresh Open must pick the codec from the header, not from options.
  DiskBdStoreOptions open_options;
  open_options.codec = GetParam() == RecordCodecId::kRaw
                           ? RecordCodecId::kDelta
                           : RecordCodecId::kRaw;
  auto second = DiskBdStore::Open(path, open_options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->codec(), GetParam());
  EXPECT_EQ((*second)->num_vertices(), 3u);
  SourceView view;
  ASSERT_TRUE((*second)->View(1, &view).ok());
  EXPECT_EQ(view.d[2], 4u);
  EXPECT_EQ(view.sigma[2], 6u);
}

TEST_P(StorageEngineTest, SharedHandlesSeeWritesWithoutInvalidation) {
  // The regression for the deleted InvalidateCache protocol: handle B
  // caches a decode of source 1; handle A rewrites source 1; handle B's
  // next read must be fresh with no manual call in between.
  auto root = DiskBdStore::Create(TempPath("shared.bin"), 6, 0, 0,
                                  kInvalidVertex, Options());
  ASSERT_TRUE(root.ok());
  auto a = (*root)->OpenShared();
  auto b = (*root)->OpenShared();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  SourceView view;
  ASSERT_TRUE((*b)->View(1, &view).ok());
  EXPECT_EQ(view.d[3], kUnreachable);

  ASSERT_TRUE(
      (*a)->Apply(1, {BdPatch{3, 2, 7, 0.5}}, PredPatchList{}).ok());

  ASSERT_TRUE((*b)->View(1, &view).ok());
  EXPECT_EQ(view.d[3], 2u);
  EXPECT_EQ(view.sigma[3], 7u);
  Distance da = 0;
  Distance db = 0;
  ASSERT_TRUE((*root)->PeekDistances(1, 3, 0, &da, &db).ok());
  EXPECT_EQ(da, 2u);
}

TEST_P(StorageEngineTest, GrowKeepsRecordsAndIsolatesNewSources) {
  for (const bool beyond_capacity : {false, true}) {
    const std::string name =
        beyond_capacity ? "grow_rebuild.bin" : "grow_inplace.bin";
    auto store = DiskBdStore::Create(TempPath(name), 3,
                                     beyond_capacity ? 3 : 16, 0,
                                     kInvalidVertex, Options());
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE(
        (*store)->Apply(0, {BdPatch{1, 1, 7, 0.25}}, PredPatchList{}).ok());
    ASSERT_TRUE((*store)->Grow(6).ok());
    EXPECT_EQ((*store)->num_vertices(), 6u);
    EXPECT_GE((*store)->vertex_capacity(), 6u);
    SourceView view;
    ASSERT_TRUE((*store)->View(0, &view).ok());
    ASSERT_EQ(view.n, 6u);
    EXPECT_EQ(view.sigma[1], 7u);  // survived
    EXPECT_DOUBLE_EQ(view.delta[1], 0.25);
    EXPECT_EQ(view.d[5], kUnreachable);  // grown tail
    // Grown sources decode as isolated vertices under either codec.
    ASSERT_TRUE((*store)->View(5, &view).ok());
    EXPECT_EQ(view.d[5], 0u);
    EXPECT_EQ(view.sigma[5], 1u);
    EXPECT_EQ(view.d[0], kUnreachable);
  }
}

TEST_P(StorageEngineTest, GrowInvalidatesDecodedRecordsAcrossHandles) {
  auto root = DiskBdStore::Create(TempPath("grow_shared.bin"), 4, 16, 0,
                                  kInvalidVertex, Options());
  ASSERT_TRUE(root.ok());
  auto worker = (*root)->OpenShared();
  ASSERT_TRUE(worker.ok());
  SourceView view;
  ASSERT_TRUE((*worker)->View(2, &view).ok());  // cached at n=4
  EXPECT_EQ(view.n, 4u);

  ASSERT_TRUE((*root)->Grow(6).ok());
  // The worker handle missed the Grow: its reads must fail loudly instead
  // of decoding undersized records into the shared cache.
  SourceView stale;
  EXPECT_EQ((*worker)->View(2, &stale).code(),
            StatusCode::kFailedPrecondition);
  // And the old 4-entry decode must never be served for a 6-entry view.
  ASSERT_TRUE((*root)->View(2, &view).ok());
  ASSERT_EQ(view.n, 6u);
  EXPECT_EQ(view.d[2], 0u);
  EXPECT_EQ(view.d[5], kUnreachable);

  auto reopened = (*root)->OpenShared();
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->num_vertices(), 6u);
  ASSERT_TRUE((*reopened)->View(5, &view).ok());
  EXPECT_EQ(view.d[5], 0u);
  EXPECT_EQ(view.sigma[5], 1u);
}

TEST_P(StorageEngineTest, CacheEvictsUnderTinyBudgetAndStaysCorrect) {
  // Budget fits roughly two decoded records per cache shard (a 64-vertex
  // record decodes to ~1.3 KiB); correctness must not depend on residency.
  auto store = DiskBdStore::Create(TempPath("evict.bin"), 64, 0, 0,
                                   kInvalidVertex, Options(/*cache=*/48 << 10));
  ASSERT_TRUE(store.ok());
  for (VertexId s = 0; s < 64; ++s) {
    ASSERT_TRUE((*store)
                    ->Apply(s, {BdPatch{static_cast<VertexId>(63 - s), 3,
                                        s + 1, 0.125}},
                            PredPatchList{})
                    .ok());
  }
  for (VertexId s = 0; s < 64; ++s) {
    SourceView view;
    ASSERT_TRUE((*store)->View(s, &view).ok());
    EXPECT_EQ(view.d[63 - s], 3u);
    EXPECT_EQ(view.sigma[63 - s], s + 1u);
  }
  const RecordCache::Stats stats = (*store)->cache_stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.bytes, stats.capacity_bytes);
}

TEST_P(StorageEngineTest, ViewBatchPinsAllRecordsAtOnce) {
  auto store = DiskBdStore::Create(TempPath("batch.bin"), 8, 0, 0,
                                   kInvalidVertex, Options());
  ASSERT_TRUE(store.ok());
  for (VertexId s = 0; s < 8; ++s) {
    ASSERT_TRUE(
        (*store)
            ->Apply(s, {BdPatch{0, s + 1, 2, 0.5}}, PredPatchList{})
            .ok());
  }
  const std::vector<VertexId> sources = {6, 1, 3};
  std::vector<SourceView> views;
  ASSERT_TRUE((*store)->ViewBatch(sources, &views).ok());
  ASSERT_EQ(views.size(), 3u);
  // All three views are readable together — a single-buffer store would
  // have clobbered the earlier ones.
  EXPECT_EQ(views[0].d[0], 7u);
  EXPECT_EQ(views[1].d[0], 2u);
  EXPECT_EQ(views[2].d[0], 4u);
  EXPECT_EQ(views[0].d[6], 0u);
  EXPECT_EQ(views[1].sigma[1], 1u);
}

TEST_P(StorageEngineTest, HintPrefetchesIntoSharedCache) {
  auto store = DiskBdStore::Create(TempPath("prefetch.bin"), 32, 0, 0,
                                   kInvalidVertex,
                                   Options(1 << 20, /*prefetch=*/true));
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE((*store)->prefetch_enabled());
  std::vector<VertexId> sources;
  for (VertexId s = 0; s < 32; ++s) sources.push_back(s);
  (*store)->Hint(sources);
  // Wait for the background reader to drain the hinted batch (bounded).
  for (int round = 0; round < 5000; ++round) {
    const PrefetchStats stats = (*store)->prefetch_stats();
    if (stats.fetched + stats.already_cached + stats.failed >= 32) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const RecordCache::Stats before = (*store)->cache_stats();
  SourceView view;
  for (VertexId s = 0; s < 32; ++s) {
    ASSERT_TRUE((*store)->View(s, &view).ok());
    EXPECT_EQ(view.d[s], 0u);
  }
  const RecordCache::Stats after = (*store)->cache_stats();
  EXPECT_GT(after.hits, before.hits);  // prefetch (or pins) produced hits
  const PrefetchStats pf = (*store)->prefetch_stats();
  EXPECT_GT(pf.hinted, 0u);
  EXPECT_GT(pf.fetched + pf.already_cached, 0u);
}

TEST_P(StorageEngineTest, LongPathDistancesWidenOrReject) {
  // A 70000-vertex path graph's BD column for source 0: d[v] = v runs far
  // past the 16-bit ceiling. One source record is enough (partition
  // [0, 1)); Brandes over such a graph would take minutes, the storage
  // behavior is what's under test.
  const std::size_t n = 70000;
  auto store = DiskBdStore::Create(TempPath("longpath.bin"), n, 0, 0,
                                   /*source_limit=*/1, Options());
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  SourceBcData data;
  data.Resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    data.d[v] = static_cast<Distance>(v);
    data.sigma[v] = 1;
    data.delta[v] = static_cast<double>(n - 1 - v);
  }
  const Status put = (*store)->PutInitial(0, std::move(data));
  if (GetParam() == RecordCodecId::kRaw) {
    // The raw codec must refuse loudly (the silent 16-bit wrap regression).
    EXPECT_EQ(put.code(), StatusCode::kOutOfRange) << put.ToString();
    // Patches past the ceiling are refused too.
    EXPECT_EQ((*store)
                  ->Apply(0, {BdPatch{1, 70000, 1, 0.0}}, PredPatchList{})
                  .code(),
              StatusCode::kOutOfRange);
  } else {
    ASSERT_TRUE(put.ok()) << put.ToString();
    SourceView view;
    ASSERT_TRUE((*store)->View(0, &view).ok());
    EXPECT_EQ(view.d[65535], 65535u);
    EXPECT_EQ(view.d[n - 1], static_cast<Distance>(n - 1));
    Distance da = 0;
    Distance db = 0;
    ASSERT_TRUE((*store)->PeekDistances(0, 65533, 69999, &da, &db).ok());
    EXPECT_EQ(da, 65533u);
    EXPECT_EQ(db, 69999u);
  }
}

// --- full-framework differential: DO x codec x growth x threads -----------

void RunGrowthDifferential(RecordCodecId codec, int threads, bool prefetch,
                           const std::string& tag) {
  Rng rng(515 + threads);
  Graph base = RandomConnectedGraph(30, 20, &rng);
  const std::size_t n0 = base.NumVertices();

  DynamicBcOptions options;
  options.variant = BcVariant::kOutOfCore;
  options.storage_path = ::testing::TempDir() + "/sobc_engine_diff_" + tag +
                         ".bd";
  std::remove(options.storage_path.c_str());
  options.store_codec = codec;
  options.cache_mb = 4;
  options.prefetch = prefetch;
  options.num_threads = threads;
  // Force growth through both regimes: a little slack, then far past it.
  options.vertex_capacity = n0 + 2;

  auto bc = DynamicBc::Create(base, options);
  ASSERT_TRUE(bc.ok()) << bc.status().ToString();

  // Mixed stream: churn on existing vertices plus arrivals that push the
  // vertex set past the reserved capacity (forcing a rebuild).
  EdgeStream stream = RandomAdditionStream(base, 6, &rng);
  for (std::size_t i = 0; i < 8; ++i) {
    const auto fresh = static_cast<VertexId>(n0 + i);
    const auto anchor = static_cast<VertexId>(rng.Uniform(n0));
    stream.push_back(EdgeUpdate{anchor, fresh, EdgeOp::kAdd, 0.0});
  }
  stream.push_back(EdgeUpdate{stream.back().u, stream.back().v,
                              EdgeOp::kRemove, 0.0});

  Graph replay = base;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    ASSERT_TRUE(ApplyToGraph(&replay, stream[i]).ok()) << tag << " " << i;
    ASSERT_TRUE((*bc)->Apply(stream[i]).ok()) << tag << " update " << i;
    const BcScores expected = ComputeBrandes(replay);
    ExpectScoresNear(expected, (*bc)->scores(), 1e-7,
                     tag + " update " + std::to_string(i));
  }
  std::remove(options.storage_path.c_str());
}

TEST_P(StorageEngineTest, DynamicBcExactAcrossGrowthSerial) {
  RunGrowthDifferential(GetParam(), 1, /*prefetch=*/true,
                        std::string("serial_") + RecordCodecName(GetParam()));
}

TEST_P(StorageEngineTest, DynamicBcExactAcrossGrowthSharded) {
  RunGrowthDifferential(GetParam(), 4, /*prefetch=*/true,
                        std::string("sharded_") + RecordCodecName(GetParam()));
}

TEST_P(StorageEngineTest, DynamicBcExactWithoutPrefetchOrCache) {
  Rng rng(99);
  Graph base = RandomConnectedGraph(24, 16, &rng);
  DynamicBcOptions options;
  options.variant = BcVariant::kOutOfCore;
  options.storage_path = ::testing::TempDir() + "/sobc_engine_nocache_" +
                         std::string(RecordCodecName(GetParam())) + ".bd";
  std::remove(options.storage_path.c_str());
  options.store_codec = GetParam();
  options.cache_mb = 0;  // every lookup misses; epochs alone keep coherence
  options.prefetch = false;
  auto bc = DynamicBc::Create(base, options);
  ASSERT_TRUE(bc.ok()) << bc.status().ToString();
  Graph replay = base;
  const EdgeStream stream = RandomAdditionStream(base, 8, &rng);
  for (const EdgeUpdate& update : stream) {
    ASSERT_TRUE(ApplyToGraph(&replay, update).ok());
    ASSERT_TRUE((*bc)->Apply(update).ok());
  }
  ExpectScoresNear(ComputeBrandes(replay), (*bc)->scores(), 1e-7,
                   "no-cache replay");
  std::remove(options.storage_path.c_str());
}

TEST_P(StorageEngineTest, BatchDrainReadsAndWritesEachRecordOncePerBatch) {
  // Records large against the cache: 1 MiB holds two decoded 1400-vertex
  // records per shard. The batch drain caps its chunks and read-ahead by
  // that budget, so a source's record stays cached while its chunk walks
  // every update of the batch: one load per repaired source (prefetch or
  // compute path) plus what shard imbalance evicts early, and for the
  // write-back codec at most one encode per repaired source.
  Rng rng(707);
  const Graph base = RandomConnectedGraph(1400, 600, &rng);
  const EdgeStream batch = MixedUpdateStream(base, 16, 0.3, &rng);
  DynamicBcOptions options;
  options.variant = BcVariant::kOutOfCore;
  options.storage_path = TempPath("batch_drain.bd");
  options.store_codec = GetParam();
  options.cache_mb = 1;
  options.prefetch = true;
  auto bc = DynamicBc::Create(base, options);
  ASSERT_TRUE(bc.ok()) << bc.status().ToString();
  DiskBdStore* disk = (*bc)->disk_store();
  ASSERT_GT(disk->CachedRecordSlots(), 0u);
  ASSERT_LT(disk->CachedRecordSlots(), 64u);
  // The batch's distinct repaired sources: the union of every step's
  // prefilter worklist (the prefilter and the engine's skip test agree).
  Graph replay = base;
  SourcePrefilter prefilter;
  std::vector<VertexId> worklist;
  std::vector<bool> repaired(base.NumVertices(), false);
  std::size_t pairs = 0;
  for (const EdgeUpdate& update : batch) {
    ASSERT_TRUE(ApplyToGraph(&replay, update).ok());
    ASSERT_TRUE(prefilter.Build(replay, update, true, &worklist).ok());
    pairs += worklist.size();
    for (const VertexId s : worklist) repaired[s] = true;
  }
  const auto distinct = static_cast<std::uint64_t>(
      std::count(repaired.begin(), repaired.end(), true));
  ASSERT_GT(pairs, 4 * distinct);  // the batch revisits its sources a lot

  ASSERT_TRUE(disk->Flush().ok());  // no Step-1 record left to write back
  const DiskIoStats before = disk->io_stats();
  ASSERT_TRUE((*bc)->ApplyBatch(batch).ok());
  const DiskIoStats during = disk->io_stats();
  EXPECT_LE(during.records_loaded - before.records_loaded,
            distinct + distinct / 8);
  if (GetParam() != RecordCodecId::kRaw) {
    EXPECT_LE(during.records_written - before.records_written, distinct);
    ASSERT_TRUE(disk->Flush().ok());
    EXPECT_LE(disk->io_stats().records_written - before.records_written,
              distinct);
  }
  ExpectScoresNear(ComputeBrandes(replay), (*bc)->scores(), 1e-7,
                   "batch under a small cache");
}

INSTANTIATE_TEST_SUITE_P(Codecs, StorageEngineTest,
                         ::testing::Values(RecordCodecId::kRaw,
                                           RecordCodecId::kDelta),
                         [](const auto& info) {
                           return std::string(RecordCodecName(info.param));
                         });

}  // namespace
}  // namespace sobc

#ifndef SOBC_BC_DYNAMIC_BC_H_
#define SOBC_BC_DYNAMIC_BC_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "bc/bc_types.h"
#include "bc/bd_store.h"
#include "bc/brandes.h"
#include "bc/incremental.h"
#include "bc/online_approx.h"
#include "bc/source_prefilter.h"
#include "common/status.h"
#include "graph/edge_stream.h"
#include "graph/graph.h"
#include "graph/step_view.h"
#include "parallel/source_sharder.h"
#include "parallel/thread_pool.h"
#include "storage/record_codec.h"

namespace sobc {

class DiskBdStore;

/// Execution variants benchmarked in the paper (Section 6.1, Fig. 5).
enum class BcVariant {
  kMemoryPredecessors,  // MP: in memory, with predecessor lists
  kMemory,              // MO: in memory, neighbor scan
  kOutOfCore,           // DO: on disk, neighbor scan
};

/// Per-deployment configuration of the framework: which storage variant
/// runs, how its out-of-core engine is tuned, and how each update's
/// source loop is driven (CSR, prefilter, worker count).
struct DynamicBcOptions {
  BcVariant variant = BcVariant::kMemory;
  /// Backing file for the kOutOfCore variant.
  std::string storage_path;
  /// Extra vertex capacity reserved in the out-of-core file so new vertices
  /// do not force a rebuild.
  std::size_t vertex_capacity = 0;
  /// Record codec of the out-of-core store file: kRaw is the paper's
  /// fixed-width layout, kDelta the compressed one (storage/record_codec.h).
  /// Recorded in the file header at Create; Resume follows the header.
  RecordCodecId store_codec = RecordCodecId::kRaw;
  /// Shared hot-record cache budget of the out-of-core store, in MiB; every
  /// worker handle of the file shares it (0 disables caching).
  std::size_t cache_mb = 64;
  /// Decode upcoming dirty-source records into the shared cache on a
  /// background thread, overlapping read-ahead with compute (out-of-core
  /// only; see storage/prefetcher.h).
  bool prefetch = true;
  /// Traverse via the graph's packed CsrView snapshot (default). The
  /// adjacency-list path remains selectable so the CSR win stays
  /// measurable (bench/micro_core.cc).
  bool use_csr = true;
  /// Workers the batch's source loop fans out across (the sharded
  /// parallel apply of DESIGN.md §9). 1 keeps the loop on the calling
  /// thread; 0 resolves to the hardware concurrency. Every worker owns a
  /// private engine and score partial, so results are identical to the
  /// serial loop up to floating-point summation order.
  int num_threads = 1;
  /// Skip unaffected sources via two endpoint BFS traversals before the
  /// source loop (Proposition 3.1 evaluated graph-side; see
  /// source_prefilter.h). Off = probe BD[s] per source, the paper's
  /// original discipline — kept selectable so the win stays measurable.
  bool prefilter = true;
  /// Drive the traversal hot paths — the endpoint prefilter, the engine's
  /// structural re-BFS batches, and the Step-1 rebuild — through the
  /// bit-parallel MS-BFS kernel (graph/msbfs.h, DESIGN.md §14). Off =
  /// per-source scalar BFS everywhere, the paper's original discipline.
  bool msbfs = true;
  /// Direction-optimizing switch threshold (Beamer's alpha): a BFS level
  /// expands bottom-up once frontier_edges * alpha exceeds the unexplored
  /// edge count. <= 0 pins the kernel top-down.
  double do_switch_threshold = 14.0;
  /// Contiguous source partition [source_begin, source_end) this framework
  /// owns — one shard's share of the cluster embodiment (Section 5.2). The
  /// default owns every source. A scoped framework stores BD[s] and
  /// accumulates score *partials* only for its owned sources; summing the
  /// partials across a covering set of shards reproduces the full scores.
  /// source_end == kInvalidVertex keeps the partition open-ended, adopting
  /// every source the graph grows (give this to the last shard so new
  /// vertex ids always have an owner).
  VertexId source_begin = 0;
  VertexId source_end = kInvalidVertex;
  /// Online sampled approximation (DESIGN.md §15): maintain BD[s] for only
  /// this many seeded uniformly sampled sources through the exact
  /// incremental machinery and publish n/k-scaled estimates, with drift
  /// tracking and adaptive resampling. 0 (the default) = exact mode.
  /// Incompatible with a scoped source partition — shards stay exact.
  std::size_t approx_samples = 0;
  /// Accuracy target epsilon in (0, 1) of the approx mode: the drift
  /// ledger starts a resampling round when its staleness estimate reaches
  /// this bound (see OnlineApproxState).
  double approx_epsilon = 0.1;
  /// Seed of the approx sampling schedule (initial draw + replacements).
  std::uint64_t approx_seed = 42;
  /// Source swaps a resampling round performs per applied batch (approx
  /// mode; the latency-amortization knob).
  std::size_t approx_max_swaps_per_batch = 4;
  /// Serialized OnlineApproxState to restore instead of drawing fresh —
  /// the recovery path hands the checkpointed sample state through here.
  /// Empty = fresh draw from approx_seed.
  std::string approx_restore_blob;
};

/// The full framework of Figure 1: Step 1 runs Brandes once to build BD[s]
/// for every source; Step 2 applies stream updates one edge at a time,
/// keeping vertex and edge betweenness exact after every update.
///
/// Typical use:
///
///   auto bc = DynamicBc::Create(graph, {});
///   for (const EdgeUpdate& e : stream) bc->Apply(e);
///   double score = bc->vbc()[v];
///
/// With options.num_threads > 1 every Apply/ApplyBatch fans the per-source
/// work of the batch out across an internal thread pool (prefiltered
/// dirty-source worklists, degree-weighted dynamic chunks, per-worker score
/// partials reduced tree-wise); the caller-facing contract is unchanged
/// and all public methods must still be called from one thread at a time.
class DynamicBc {
 public:
  /// Builds the framework over `graph` (Step 1, O(nm)).
  static Result<std::unique_ptr<DynamicBc>> Create(
      Graph graph, const DynamicBcOptions& options);

  /// Reopens a checkpointed out-of-core deployment: the BD structures come
  /// from the existing store file at options.storage_path and the scores
  /// from `scores_path`, skipping the O(nm) Step 1 entirely. `graph` must
  /// be the graph state at checkpoint time (persist it with
  /// WriteEdgeList). Only valid for BcVariant::kOutOfCore.
  static Result<std::unique_ptr<DynamicBc>> Resume(
      Graph graph, const DynamicBcOptions& options,
      const std::string& scores_path);

  /// Persists the current scores (binary sidecar) and flushes the store,
  /// making Resume possible after a restart. The graph itself is
  /// checkpointed separately with WriteEdgeList.
  Status Checkpoint(const std::string& scores_path);

  /// Replaces the maintained scores wholesale. The recovery path of the
  /// in-memory variants installs checkpointed scores over a freshly
  /// initialized framework: Create rebuilt the BD structures with Brandes,
  /// but the scores must be the checkpoint's (they already include every
  /// pre-checkpoint update). vbc must match the graph's vertex count.
  Status RestoreScores(BcScores scores);

  /// Applies one edge addition or removal (Step 2). New endpoint ids grow
  /// the vertex set automatically, entering with zero betweenness.
  Status Apply(const EdgeUpdate& update);

  /// Applies a whole stream in order.
  Status ApplyAll(const EdgeStream& stream);

  /// Applies one (typically coalesced) batch in a single call — the unit
  /// the serving layer's writer thread drains from its update queue.
  /// Score-equivalent to calling Apply per element, but the source loop
  /// runs once per batch: each chunk of affected sources walks all of the
  /// batch's updates in order while its BD records stay hot, and store
  /// growth, fork/join and the partial reduction are paid once
  /// (DESIGN.md §8). If update k is refused by the graph, updates [0, k)
  /// stay applied and the error is returned. last_update_stats()
  /// afterwards covers the whole batch.
  Status ApplyBatch(std::span<const EdgeUpdate> batch);

  const Graph& graph() const { return graph_; }
  const std::vector<double>& vbc() const { return scores_.vbc; }
  const EbcMap& ebc() const { return scores_.ebc; }
  const BcScores& scores() const { return scores_; }

  /// Edge betweenness of (u, v); zero when the edge is absent.
  double EdgeScore(VertexId u, VertexId v) const;

  /// Counters for the most recent Apply/ApplyBatch call.
  const UpdateStats& last_update_stats() const { return last_stats_; }

  /// Apply workers actually in use (1 when serial).
  int num_threads() const;

  /// Capacity-growth events summed over every MS-BFS scratch the framework
  /// owns (the drain workers' engines and the prefilter). Test hook for
  /// the reuse guarantee: once the drains are warmed this must stop
  /// moving — steady-state traversal allocates nothing.
  std::uint64_t MsBfsScratchAllocations() const;

  BdStore* store() { return store_.get(); }

  /// The out-of-core storage engine behind this framework, or null for the
  /// in-memory variants. In approx mode store() is the slot-translating
  /// sample adapter; this reaches through it to the actual disk store
  /// (footprint reports, checkpoint byte copies).
  DiskBdStore* disk_store() { return disk_root_; }

  /// Whether this framework maintains sampled estimates instead of exact
  /// scores.
  bool approx() const { return approx_ != nullptr; }
  /// Estimate scale factor n/k applied at publish time (1.0 in exact mode).
  double approx_scale() const {
    return approx_ == nullptr ? 1.0 : approx_->scale(graph_.NumVertices());
  }
  /// The current sampled source ids (empty in exact mode). Slot order is
  /// stable across updates; entries change only via resampling swaps.
  std::span<const VertexId> sample_sources() const {
    return approx_ == nullptr ? std::span<const VertexId>()
                              : approx_->samples().ids();
  }
  /// Progress gauges of the approximation (zeros in exact mode).
  ApproxStatus approx_status() const {
    return approx_ == nullptr ? ApproxStatus{} : approx_->status();
  }
  /// Serialized sample state for the checkpoint protocol ("" exact).
  std::string SerializeApproxState() const {
    return approx_ == nullptr ? std::string() : approx_->Serialize();
  }

  /// The published estimates: scores() scaled by n/k. In exact mode this
  /// is a plain copy of scores(). The maintained sums themselves stay
  /// unscaled so incremental repairs and checkpoint round trips never
  /// compound a changing scale into them.
  BcScores EstimatedScores() const;

 private:
  /// One lane of the batch drain: a private engine (scratch is not
  /// shareable) and, when the drain fans out, a private score partial and
  /// — for the out-of-core variant — a private store handle, so the drain
  /// runs without a single lock (BD columns of distinct sources never
  /// alias). A lone worker uses the root store and scores directly.
  struct ApplyWorker {
    std::unique_ptr<IncrementalEngine> engine;
    std::unique_ptr<BdStore> disk_store;  // kOutOfCore only
    BcScores delta;
    UpdateStats stats;
    Status status;
  };

  DynamicBc(Graph graph, std::unique_ptr<BdStore> store, PredMode pred_mode,
            const DynamicBcOptions& options)
      : options_(options),
        graph_(std::move(graph)),
        store_(std::move(store)),
        pred_mode_(pred_mode) {}

  /// Step 1 of the approx mode: sweeps each sampled source into the
  /// maintained sums and its BD slot.
  Status InitializeSampled(const BrandesOptions& brandes);
  /// Brandes configuration matching the engine, for resampling sweeps.
  BrandesOptions SweepOptions() const;
  /// Appends the worklist of one update to the batch's step worklists;
  /// `graph_` must already reflect the update.
  Status CollectWorklist(const EdgeUpdate& update);
  /// The sources of `chunk` that step `step` repairs.
  std::span<const VertexId> StepSlice(std::size_t step,
                                      std::span<const VertexId> chunk) const;
  /// Repairs every step of `batch` (already applied to `graph_`, step
  /// worklists collected): one chunk-major drain across the workers, then
  /// one fold of the partials.
  Status Drain(std::span<const EdgeUpdate> batch);
  /// Sizes worker slots for `w` workers over an `n`-vertex graph: engines,
  /// and for a fan-out the score partials and per-worker DO handles.
  Status EnsureWorkers(std::size_t w, std::size_t n);

  DynamicBcOptions options_;
  Graph graph_;
  /// Sample bookkeeping + drift ledger of the approx mode; null when
  /// exact. Declared before store_: the sampled store adapter holds a
  /// pointer into the SampleSet, so the set must outlive it.
  std::unique_ptr<OnlineApproxState> approx_;
  std::unique_ptr<BdStore> store_;
  /// store_ downcast when the variant is out-of-core (hint/prefetch entry
  /// points live on the disk store); null otherwise.
  DiskBdStore* disk_root_ = nullptr;
  PredMode pred_mode_;
  BcScores scores_;
  UpdateStats last_stats_;

  // Batch-drain state; the pool is null while num_threads <= 1.
  std::unique_ptr<ThreadPool> pool_;
  std::vector<ApplyWorker> workers_;
  SourcePrefilter prefilter_;
  SourceSharder sharder_;
  BatchSteps steps_;
  std::vector<VertexId> worklist_;  // one update's prefilter output
  /// Every step's worklist, ascending: step i is worklists_[first, second)
  /// of step_ranges_[i].
  std::vector<VertexId> worklists_;
  std::vector<std::pair<std::size_t, std::size_t>> step_ranges_;
  std::vector<VertexId> sources_;     // union of the step worklists
  std::vector<std::uint32_t> hits_;   // per vertex: steps listing it
  std::vector<std::uint64_t> weights_;
};

}  // namespace sobc

#endif  // SOBC_BC_DYNAMIC_BC_H_

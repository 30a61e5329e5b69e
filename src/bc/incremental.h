#ifndef SOBC_BC_INCREMENTAL_H_
#define SOBC_BC_INCREMENTAL_H_

#include <cstdint>
#include <span>
#include <unordered_set>
#include <vector>

#include "bc/bc_types.h"
#include "bc/bd_store.h"
#include "common/status.h"
#include "graph/edge_stream.h"
#include "graph/graph.h"
#include "graph/msbfs.h"

namespace sobc {

class BatchSteps;

/// Per-update observability counters. Aggregated across sources; used by
/// the ablation bench and by the online scheduler's cost model.
struct UpdateStats {
  std::uint64_t sources_total = 0;
  /// Sources skipped because both endpoints sit at the same level
  /// (Proposition 3.1) or the update cannot affect any path from s.
  std::uint64_t sources_skipped = 0;
  /// Subset of sources_skipped eliminated by the endpoint-BFS prefilter
  /// (source_prefilter.h) without ever probing their BD column — the DO
  /// variant's biggest win, and the skip-rate `sobc_cli serve` reports.
  std::uint64_t sources_prefiltered = 0;
  /// Sources handled by the no-level-change path (Section 4.1, Alg. 2).
  std::uint64_t sources_non_structural = 0;
  /// Sources with structural SPdag changes (Sections 4.2-4.4, Alg. 4-9).
  std::uint64_t sources_structural = 0;
  /// Sources where the update split off a component (Section 4.5, Alg. 10):
  /// at least one vertex became unreachable.
  std::uint64_t sources_disconnected = 0;
  /// Vertices whose BD[s] entry was rewritten, summed over sources.
  std::uint64_t vertices_touched = 0;
  /// Bit-parallel MS-BFS batches run for this update (engine structural
  /// batches plus the prefilter's 2-lane call) and how many of their
  /// levels expanded bottom-up (the direction-optimizing dense levels).
  std::uint64_t msbfs_batches = 0;
  std::uint64_t bottom_up_levels = 0;

  void Merge(const UpdateStats& other) {
    sources_total += other.sources_total;
    sources_skipped += other.sources_skipped;
    sources_prefiltered += other.sources_prefiltered;
    sources_non_structural += other.sources_non_structural;
    sources_structural += other.sources_structural;
    sources_disconnected += other.sources_disconnected;
    vertices_touched += other.vertices_touched;
    msbfs_batches += other.msbfs_batches;
    bottom_up_levels += other.bottom_up_levels;
  }
};

/// The incremental update engine of Sections 3-4: given a graph that
/// already reflects one edge addition or removal, it revises the stored
/// BD[s] of each source and produces vertex/edge betweenness deltas.
///
/// Implementation note (see DESIGN.md §5): the paper's per-case pseudocode
/// (Alg. 2-10) is realized here as one pipeline per source —
///   1. distance repair   (addition: relax-BFS from uL; removal: orphan
///      classification + pivot-seeded re-BFS, Def. 3.2),
///   2. sigma repair      (level-ordered recount over the affected region),
///   3. dependency re-accumulation (level-descending sweep with old-value
///      subtraction so untouched contributions stay embedded).
/// The engine is stateless across updates except for reusable scratch
/// buffers; one instance must not be shared between threads.
///
/// Traversal reads the graph's packed CsrView snapshot by default (the
/// repair pipeline is BFS-shaped, so neighbor locality dominates); passing
/// use_csr=false walks the mutable adjacency lists instead — the baseline
/// path kept for the before/after microbenchmark.
class IncrementalEngine {
 public:
  explicit IncrementalEngine(PredMode pred_mode = PredMode::kScanNeighbors,
                             bool use_csr = true)
      : pred_mode_(pred_mode), use_csr_(use_csr) {}

  /// Processes every source for one update. `graph` must already include
  /// (addition) or exclude (removal) the updated edge; for removals the old
  /// edge's endpoints come from `update`. Score deltas are accumulated into
  /// `scores` (which may hold partition partials) and BD patches are
  /// applied to `store`.
  Status ApplyUpdate(const Graph& graph, const EdgeUpdate& update,
                     BdStore* store, BcScores* scores, UpdateStats* stats);

  /// Same, restricted to sources in [begin, end): the unit of work of one
  /// mapper in the paper's static-partition embodiment (Section 5.2).
  Status ApplyUpdateRange(const Graph& graph, const EdgeUpdate& update,
                          VertexId begin, VertexId end, BdStore* store,
                          BcScores* scores, UpdateStats* stats);

  /// Same, restricted to an explicit source worklist — the unit one worker
  /// chunk of the sharded parallel apply processes (a prefiltered
  /// dirty-source list sliced by SourceSharder). `scores` may hold a
  /// worker's partial sums, exactly like a mapper partition's.
  Status ApplyUpdateForSources(const Graph& graph, const EdgeUpdate& update,
                               std::span<const VertexId> sources,
                               BdStore* store, BcScores* scores,
                               UpdateStats* stats);

  /// Same, for step `step` of a batch that `graph` already reflects in
  /// full: the traversal reads the graph as it stood right after that
  /// step, through a StepView of the final snapshot, so one chunk of
  /// sources can walk every step of the batch while its records stay hot
  /// (DESIGN.md §8). The last step reads the final graph directly.
  Status ApplyStepForSources(const Graph& graph, const BatchSteps& steps,
                             std::size_t step,
                             std::span<const VertexId> sources, BdStore* store,
                             BcScores* scores, UpdateStats* stats);

  /// Processes a single source (Algorithm 1's loop body).
  Status ApplyUpdateForSource(const Graph& graph, const EdgeUpdate& update,
                              VertexId s, BdStore* store, BcScores* scores,
                              UpdateStats* stats);

  PredMode pred_mode() const { return pred_mode_; }
  bool use_csr() const { return use_csr_; }

  /// Selects the structural-repair traversal: bit-parallel MS-BFS batches
  /// (default) or the paper's per-source relax-BFS. The span entry points
  /// batch the structural sources of their chunk — up to 64 per kernel
  /// call — compute their final new distances in one pass, and seed the
  /// repair pipeline with them, so the sigma/dependency phases run
  /// unchanged (DESIGN.md §14). Results are equivalent up to
  /// floating-point summation order; distances and sigmas are identical.
  void ConfigureMsBfs(bool enabled, const MsBfsOptions& options) {
    msbfs_enabled_ = enabled;
    msbfs_options_ = options;
  }
  bool msbfs_enabled() const { return msbfs_enabled_; }

  /// Scratch of the batched kernel — exposed so the parallel-apply tests
  /// can assert steady-state updates allocate nothing (each worker owns
  /// its engine, hence its scratch).
  const MsBfsScratch& msbfs_scratch() const { return msbfs_scratch_; }

 private:
  enum VertexState : std::uint8_t {
    kPending = 0,  // touched, waiting for its sigma-repair pop
    kDn,           // d or sigma changed; dependency rebuilt from scratch
    kUp,           // unchanged d/sigma; dependency corrected from old value
  };
  enum OrphanState : std::uint8_t {
    kOrphan = 0,   // lost every shortest path; distance must grow
    kSurvivor,     // kept a predecessor outside the orphaned region (pivot)
  };

  struct SourceContext {
    bool directed = false;
    VertexId s = kInvalidVertex;
    SourceView view;
    // Update description, oriented for this source: for undirected graphs
    // u_high is the endpoint closer to s.
    VertexId u_high = kInvalidVertex;
    VertexId u_low = kInvalidVertex;
    bool is_addition = true;
    EdgeKey update_key;
    BcScores* scores = nullptr;
  };

  // --- overlay helpers (epoch-stamped so per-source reset is O(1)) ---
  bool IsTouched(VertexId v) const { return stamp_[v] == epoch_; }
  Distance EffD(const SourceContext& cx, VertexId v) const {
    return IsTouched(v) ? overlay_[v].d : cx.view.d[v];
  }
  PathCount EffSigma(const SourceContext& cx, VertexId v) const {
    return IsTouched(v) ? overlay_[v].sigma : cx.view.sigma[v];
  }
  void Touch(const SourceContext& cx, VertexId v, std::uint8_t state);
  void PullUp(const SourceContext& cx, VertexId v);

  // --- pipeline phases ---
  // Templated over the adjacency provider (CsrView or GraphAdjacency) so
  // the inner neighbor loops are monomorphized against flat spans; the
  // public entry points dispatch once per source range, not per edge.
  /// `peeked` carries the endpoint distances when the caller already
  /// probed them (the batched span drains peek once, during deferral
  /// classification). `new_d` (n entries) carries the source's final
  /// post-update distances when a MS-BFS batch precomputed them; null
  /// falls back to the per-source relax-BFS.
  template <class Adj>
  Status RunForSource(const Adj& adj, const EdgeUpdate& update, VertexId s,
                      BdStore* store, BcScores* scores, UpdateStats* stats,
                      bool peeked = false, Distance peek_du = 0,
                      Distance peek_dv = 0, const Distance* new_d = nullptr);
  /// Drives a source span through the batched MS-BFS path (or the scalar
  /// loop when batching is off / pointless).
  template <class Adj>
  Status RunForSourceSpan(const Adj& adj, const EdgeUpdate& update,
                          std::span<const VertexId> sources, BdStore* store,
                          BcScores* scores, UpdateStats* stats);
  /// Seeds the repair queues from precomputed final distances: every moved
  /// vertex (addition) or classified orphan (removal) enters at its final
  /// level, so RepairSigmas' relaxation never fires and the sweep is a
  /// pure recount.
  void SeedMovedFromDistances(const SourceContext& cx, std::size_t n,
                              const Distance* new_d);
  void SeedOrphansFromDistances(const SourceContext& cx,
                                const Distance* new_d);
  template <class Adj>
  void ClassifyOrphans(const Adj& adj, const SourceContext& cx);
  template <class Adj>
  void RepairDistancesRemoval(const Adj& adj, const SourceContext& cx);
  template <class Adj>
  void RepairSigmas(const Adj& adj, const SourceContext& cx);
  template <class Adj>
  void Accumulate(const Adj& adj, const SourceContext& cx,
                  UpdateStats* stats);
  template <class Adj>
  void PreScanStaleEdges(const Adj& adj, const SourceContext& cx);
  Status EmitPatches(const SourceContext& cx, BdStore* store,
                     UpdateStats* stats);

  // Old-DAG relation of current edge (a, b): +1 if a was predecessor of b,
  // -1 if b was predecessor of a, 0 otherwise. The freshly added edge is
  // forced to 0 (it carried nothing before the update).
  int OldRelation(const SourceContext& cx, VertexId a, VertexId b) const;
  int NewRelation(const SourceContext& cx, VertexId a, VertexId b) const;

  void EnsureScratch(std::size_t n);
  void BeginSource();
  void PushRepair(VertexId v, Distance level);
  void PushLq(VertexId v, Distance level);

  PredMode pred_mode_;
  bool use_csr_ = true;

  /// Batched-kernel state (see ConfigureMsBfs). `deferred_` holds the
  /// structural candidates of the current span with their peeked endpoint
  /// distances; the lane slab inside the scratch carries each batch's
  /// per-source final distances.
  struct DeferredSource {
    VertexId s;
    Distance du;
    Distance dv;
  };
  bool msbfs_enabled_ = true;
  MsBfsOptions msbfs_options_;
  MsBfsScratch msbfs_scratch_;
  std::vector<DeferredSource> deferred_;
  std::vector<VertexId> batch_sources_;
  std::vector<Distance*> batch_dist_;
  std::vector<VertexId> range_sources_;

  /// Per-vertex overlay record for touched vertices, packed so one Touch
  /// (and every EffD/EffSigma read of a touched vertex) costs one cache
  /// line instead of scattering across five parallel arrays. The epoch
  /// stamp lives in its own dense column instead: IsTouched runs against
  /// every scanned neighbor — almost always missing — and a 4-byte column
  /// packs 16 entries per line where neighbor-id clustering gives reuse.
  /// `pred_idx` is the index into pred_patches_ for vertices whose
  /// predecessor list was recomputed this source (MP mode), or
  /// kNoPredPatch.
  struct Overlay {
    Distance d = 0;
    std::uint32_t pred_idx = 0;
    PathCount sigma = 0;
    double delta = 0.0;
    std::uint8_t state = 0;
  };
  static_assert(sizeof(Overlay) == 32, "overlay record must stay packed");
  /// Orphan classification mark (removal phase 1), same epoch trick.
  struct OrphanMark {
    std::uint32_t stamp = 0;
    std::uint8_t state = 0;
  };

  // Scratch (sized to the graph; reused across sources and updates).
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> stamp_;
  std::vector<Overlay> overlay_;
  std::vector<OrphanMark> orphan_;

  // Bucket queues (index = level). Only levels in *_used_ are dirty.
  std::vector<std::vector<VertexId>> repair_q_;
  std::vector<Distance> repair_used_;
  std::vector<std::vector<VertexId>> lq_;
  std::vector<Distance> lq_used_;
  std::vector<std::vector<VertexId>> orphan_q_;
  std::vector<Distance> orphan_used_;
  Distance repair_max_ = 0;
  Distance lq_max_ = 0;
  std::vector<VertexId> unreachable_;
  std::vector<VertexId> touched_list_;
  std::vector<VertexId> moved_list_;
  std::unordered_set<EdgeKey, EdgeKeyHash> stale_seen_;
  std::vector<BdPatch> patches_;
  PredPatchList pred_patches_;
};

}  // namespace sobc

#endif  // SOBC_BC_INCREMENTAL_H_

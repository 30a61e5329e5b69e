#ifndef SOBC_PARALLEL_SOURCE_SHARDER_H_
#define SOBC_PARALLEL_SOURCE_SHARDER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace sobc {

/// Per-source weight for chunk sizing, the tS term of the online
/// scheduler's capacity model (Section 5.3) made degree-aware: a constant
/// share for the per-source bookkeeping (peek, view, patch emit) plus the
/// source's degree standing in for the traversal share of the repair
/// pipeline. Exact per-source cost is unknowable up front (skipped vs.
/// structural vs. disconnected differ by orders of magnitude), which is why
/// chunks are *claimed* dynamically rather than pre-assigned.
inline std::uint64_t EstimatedSourceCost(std::size_t degree) {
  return 8 + static_cast<std::uint64_t>(degree);
}

/// Fills `weights` (resized to the worklist length) with the estimated
/// cost of each worklist source, reading degrees from the graph's CsrView
/// snapshot when `use_csr`, the adjacency lists otherwise. Shared by every
/// drain coordinator so the cost model lives in one place.
void FillSourceCostWeights(const Graph& graph, bool use_csr,
                           std::span<const VertexId> worklist,
                           std::vector<std::uint64_t>* weights);

/// Chunking policy of the work-stealing source sharder (DESIGN.md §9).
struct SourceSharderOptions {
  /// Workers that will drain the chunk queue.
  std::size_t num_workers = 1;
  /// Target chunks per worker: enough granularity that a worker stuck on a
  /// heavy structural chunk sheds the rest of the worklist to its peers,
  /// not so much that the atomic cursor becomes the hot spot.
  std::size_t chunks_per_worker = 8;
  /// Floor on a chunk's total weight so tiny worklists do not shatter into
  /// one-source tasks.
  std::uint64_t min_chunk_weight = 64;
  /// Snap weight-triggered chunk cuts to multiples of this many sources
  /// from the chunk's start, so every chunk hands the engine whole MS-BFS
  /// batches (64 lanes) instead of ragged tails that waste lane occupancy.
  /// 1 disables alignment; hard partition breaks still cut exactly.
  std::size_t batch_align = 1;
  /// Most sources one chunk may hold (0 = no cap). The out-of-core drain
  /// derives it from the record cache budget, so that every chunk in
  /// flight plus its read-ahead stays resident while the chunk walks all
  /// of a batch's steps. A cap below batch_align overrides the alignment;
  /// a larger one is rounded down to a multiple of it.
  std::size_t max_chunk_sources = 0;
};

/// Degree-weighted dynamic work distribution over a dirty-source worklist
/// (the parallel embodiment's map phase, rebuilt for skewed per-source
/// cost). Reset() slices the worklist into chunks of roughly equal
/// estimated weight; workers then claim chunks through an atomic cursor —
/// a shared-queue work-stealing discipline: nothing is owned until a
/// worker pops it, so a worker delayed by one expensive source simply
/// claims fewer chunks while its peers drain the rest.
///
/// Reset() may only be called while no worker is draining; Next() is safe
/// from any number of threads.
class SourceSharder {
 public:
  /// Slices `worklist` (with per-entry `weights`, same length) into chunks.
  /// `hard_breaks` lists ascending positions in the worklist where a chunk
  /// must end (exclusive) — the mapper-partition edges of the MapReduce
  /// embodiment, so every chunk lands in exactly one mapper's store. Spans
  /// must stay alive until the drain finishes.
  void Reset(std::span<const VertexId> worklist,
             std::span<const std::uint64_t> weights,
             const SourceSharderOptions& options,
             std::span<const std::size_t> hard_breaks = {});

  /// Claims the next chunk. Returns false when the worklist is drained (or
  /// Abort() was called). `chunk_index` receives the chunk's ordinal, for
  /// per-chunk accounting arrays written without synchronization.
  bool Next(std::span<const VertexId>* chunk,
            std::size_t* chunk_index = nullptr);

  /// Makes every subsequent Next() return false; workers finish the chunk
  /// they hold and stop. Used to cut the drain short on the first error.
  void Abort();

  std::size_t num_chunks() const {
    return bounds_.empty() ? 0 : bounds_.size() - 1;
  }
  /// First worklist position of chunk `i` (chunks partition the worklist in
  /// order, so this also identifies the owning mapper range).
  std::size_t chunk_begin(std::size_t i) const { return bounds_[i]; }

  /// The sources of chunk `i`, readable from any thread during a drain —
  /// the "upcoming dirty-source chunk" published to the out-of-core
  /// prefetch pipeline. Chunks are claimed in ascending order, so the
  /// worker claiming chunk k hints ChunkSources(k + lookahead): a fixed
  /// read-ahead distance past the work-stealing cursor with every chunk
  /// hinted exactly once.
  std::span<const VertexId> ChunkSources(std::size_t i) const {
    return worklist_.subspan(bounds_[i], bounds_[i + 1] - bounds_[i]);
  }

 private:
  std::span<const VertexId> worklist_;
  std::vector<std::size_t> bounds_;  // chunk i = worklist[bounds_[i], bounds_[i+1])
  std::atomic<std::size_t> cursor_{0};
};

}  // namespace sobc

#endif  // SOBC_PARALLEL_SOURCE_SHARDER_H_

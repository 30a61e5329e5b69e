#ifndef SOBC_GRAPH_STEP_VIEW_H_
#define SOBC_GRAPH_STEP_VIEW_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/edge_stream.h"
#include "graph/graph.h"

namespace sobc {

/// The intermediate graphs of one applied batch, kept as a small overlay
/// over the final adjacency (DESIGN.md §8).
///
/// A batch u_0..u_{b-1} is applied to the graph in order; step i of the
/// batch is the graph G_i right after u_i. G_i and the final graph G_{b-1}
/// differ only at the endpoints of the batch's edges, so instead of b
/// adjacency snapshots this keeps, for each such endpoint, one neighbor
/// list per version it went through: the final list with the edges added
/// after step i dropped and the edges removed after step i restored.
/// Every other vertex reads its final span unchanged. Memory is
/// O(sum over endpoints of versions x degree), at most 2b versions.
///
/// Built once per batch, then read-only: any number of drain workers may
/// hold StepViews over one BatchSteps concurrently.
class BatchSteps {
 public:
  /// Records `batch` (every update already applied, in order, to `graph`;
  /// it must outlive the step views) and precomputes the endpoint versions
  /// against the graph's CsrView when `use_csr`, its adjacency lists
  /// otherwise — the same provider the step views will wrap.
  void Build(const Graph& graph, std::span<const EdgeUpdate> batch,
             bool use_csr);

  /// Updates of the batch; step i applied updates()[i].
  std::span<const EdgeUpdate> updates() const { return updates_; }
  std::size_t num_steps() const { return updates_.size(); }

  /// The neighbors of `v` at `step` in the given direction (in = true
  /// reads the in-list of a directed graph). Returns false when v's final
  /// list holds at that step.
  bool Find(VertexId v, std::size_t step, bool in,
            std::span<const VertexId>* neighbors) const {
    const std::vector<std::uint32_t>& head = in ? in_head_ : out_head_;
    if (v >= head.size() || head[v] == kNone) return false;
    const Group& group = groups_[head[v]];
    for (std::uint32_t k = group.first; k < group.first + group.count; ++k) {
      const Version& version = versions_[k];
      if (step < version.until) {
        *neighbors = {arena_.data() + version.begin, version.count};
        return true;
      }
    }
    return false;
  }

 private:
  static constexpr std::uint32_t kNone = static_cast<std::uint32_t>(-1);

  /// One endpoint list, valid for steps below `until` (and at or past the
  /// previous version's `until`).
  struct Version {
    std::size_t until = 0;
    std::size_t begin = 0;  // offset into arena_
    std::size_t count = 0;
  };
  /// The versions of one (vertex, direction), ascending by `until`.
  struct Group {
    std::uint32_t first = 0;
    std::uint32_t count = 0;
  };

  /// Builds the versions of x's out-list (in = false) or in-list by
  /// reverting, newest first, every batch update that touched it.
  template <class Adj>
  void AddEndpoint(const Adj& adj, VertexId x, bool in);

  std::span<const EdgeUpdate> updates_;
  std::vector<std::uint32_t> out_head_;
  std::vector<std::uint32_t> in_head_;
  std::vector<VertexId> endpoints_;  // vertices whose heads are set
  std::vector<Group> groups_;
  std::vector<Version> versions_;
  std::vector<VertexId> arena_;    // every version list, back to back
  std::vector<VertexId> scratch_;  // the list being reverted
};

/// Adjacency provider for step `step` of a BatchSteps, over the final
/// graph's provider `Adj` (CsrView or GraphAdjacency). It has the interface
/// the traversal kernels are templated over, so the incremental engine,
/// MS-BFS and the prefilter read G_step through it unchanged. The vertex
/// count is the final one: vertices a later update introduces are
/// isolated at earlier steps, which every kernel already handles.
template <class Adj>
class StepView {
 public:
  StepView(const Adj& base, const BatchSteps& steps, std::size_t step)
      : base_(&base), steps_(&steps), step_(step) {}

  std::size_t NumVertices() const { return base_->NumVertices(); }
  bool directed() const { return base_->directed(); }
  EdgeKey MakeKey(VertexId u, VertexId v) const {
    return base_->MakeKey(u, v);
  }
  std::span<const VertexId> OutNeighbors(VertexId v) const {
    std::span<const VertexId> list;
    return steps_->Find(v, step_, false, &list) ? list
                                                : base_->OutNeighbors(v);
  }
  std::span<const VertexId> InNeighbors(VertexId v) const {
    if (!base_->directed()) return OutNeighbors(v);
    std::span<const VertexId> list;
    return steps_->Find(v, step_, true, &list) ? list : base_->InNeighbors(v);
  }
  std::size_t OutDegree(VertexId v) const { return OutNeighbors(v).size(); }
  std::size_t InDegree(VertexId v) const { return InNeighbors(v).size(); }

 private:
  const Adj* base_;
  const BatchSteps* steps_;
  std::size_t step_;
};

}  // namespace sobc

#endif  // SOBC_GRAPH_STEP_VIEW_H_

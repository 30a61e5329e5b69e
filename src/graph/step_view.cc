#include "graph/step_view.h"

#include <algorithm>

#include "common/logging.h"
#include "graph/csr_view.h"

namespace sobc {

void BatchSteps::Build(const Graph& graph, std::span<const EdgeUpdate> batch,
                       bool use_csr) {
  for (const VertexId v : endpoints_) {
    if (v < out_head_.size()) out_head_[v] = kNone;
    if (v < in_head_.size()) in_head_[v] = kNone;
  }
  endpoints_.clear();
  groups_.clear();
  versions_.clear();
  arena_.clear();
  updates_ = batch;
  // The last step is the final graph itself, so a one-update batch needs
  // no versions at all.
  if (batch.size() < 2) return;
  const std::size_t n = graph.NumVertices();
  if (out_head_.size() < n) out_head_.resize(n, kNone);
  if (graph.directed() && in_head_.size() < n) in_head_.resize(n, kNone);
  auto build = [&](const auto& adj) {
    // Directed u -> v changes u's out-list and v's in-list; undirected
    // edges change the one list of each endpoint.
    for (const EdgeUpdate& update : updates_) {
      AddEndpoint(adj, update.u, false);
      AddEndpoint(adj, update.v, adj.directed());
    }
  };
  if (use_csr) {
    build(graph.csr());
  } else {
    build(GraphAdjacency(graph));
  }
}

template <class Adj>
void BatchSteps::AddEndpoint(const Adj& adj, VertexId x, bool in) {
  std::vector<std::uint32_t>& head = in ? in_head_ : out_head_;
  if (head[x] != kNone) return;
  head[x] = static_cast<std::uint32_t>(groups_.size());
  endpoints_.push_back(x);
  const std::span<const VertexId> final_list =
      in ? adj.InNeighbors(x) : adj.OutNeighbors(x);
  scratch_.assign(final_list.begin(), final_list.end());
  Group group;
  group.first = static_cast<std::uint32_t>(versions_.size());
  const bool directed = adj.directed();
  for (std::size_t t = updates_.size(); t-- > 1;) {
    const EdgeUpdate& update = updates_[t];
    VertexId y;
    if (update.u == x && !(directed && in)) {
      y = update.v;
    } else if (update.v == x && (in || !directed)) {
      y = update.u;
    } else {
      continue;
    }
    // Undo step t: what remains is the list after step t - 1, which holds
    // from the previous touch of this list up to (excluding) step t.
    if (update.op == EdgeOp::kAdd) {
      const auto it = std::find(scratch_.begin(), scratch_.end(), y);
      SOBC_DCHECK(it != scratch_.end());
      scratch_.erase(it);
    } else {
      scratch_.push_back(y);
    }
    versions_.push_back({t, arena_.size(), scratch_.size()});
    arena_.insert(arena_.end(), scratch_.begin(), scratch_.end());
  }
  group.count = static_cast<std::uint32_t>(versions_.size() - group.first);
  // Reverted newest first; Find scans oldest first.
  std::reverse(versions_.begin() + group.first, versions_.end());
  groups_.push_back(group);
}

}  // namespace sobc

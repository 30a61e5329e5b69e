#include "parallel/source_sharder.h"

#include <algorithm>

#include "common/logging.h"
#include "graph/csr_view.h"

namespace sobc {

void FillSourceCostWeights(const Graph& graph, bool use_csr,
                           std::span<const VertexId> worklist,
                           std::vector<std::uint64_t>* weights) {
  weights->resize(worklist.size());
  if (use_csr) {
    const CsrView& csr = graph.csr();
    for (std::size_t i = 0; i < worklist.size(); ++i) {
      (*weights)[i] = EstimatedSourceCost(csr.OutDegree(worklist[i]));
    }
  } else {
    for (std::size_t i = 0; i < worklist.size(); ++i) {
      (*weights)[i] = EstimatedSourceCost(graph.OutDegree(worklist[i]));
    }
  }
}

void SourceSharder::Reset(std::span<const VertexId> worklist,
                          std::span<const std::uint64_t> weights,
                          const SourceSharderOptions& options,
                          std::span<const std::size_t> hard_breaks) {
  SOBC_DCHECK(worklist.size() == weights.size());
  worklist_ = worklist;
  bounds_.clear();
  cursor_.store(0, std::memory_order_relaxed);
  if (worklist.empty()) return;

  std::uint64_t total = 0;
  for (std::uint64_t w : weights) total += w;
  const std::size_t workers = std::max<std::size_t>(1, options.num_workers);
  const std::size_t target_chunks =
      std::max<std::size_t>(1, workers * options.chunks_per_worker);
  const std::uint64_t target_weight = std::max<std::uint64_t>(
      options.min_chunk_weight, (total + target_chunks - 1) / target_chunks);

  std::size_t align = std::max<std::size_t>(1, options.batch_align);
  std::size_t cap = options.max_chunk_sources;
  if (cap != 0) {
    if (cap < align) {
      align = 1;
    } else {
      cap -= cap % align;
    }
  }

  bounds_.push_back(0);
  std::size_t next_break = 0;  // index into hard_breaks
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < worklist.size(); ++i) {
    acc += weights[i];
    while (next_break < hard_breaks.size() &&
           hard_breaks[next_break] <= i + 1) {
      // Past (or at) a partition edge: a chunk may never straddle it.
      if (hard_breaks[next_break] == i + 1 && i + 1 < worklist.size() &&
          bounds_.back() != i + 1) {
        bounds_.push_back(i + 1);
        acc = 0;
      }
      ++next_break;
    }
    const std::size_t len = i + 1 - bounds_.back();
    const bool cut = (cap != 0 && len >= cap) ||
                     (acc >= target_weight && len % align == 0);
    if (cut && i + 1 < worklist.size() && len != 0) {
      bounds_.push_back(i + 1);
      acc = 0;
    }
  }
  bounds_.push_back(worklist.size());
}

bool SourceSharder::Next(std::span<const VertexId>* chunk,
                         std::size_t* chunk_index) {
  const std::size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (i >= num_chunks()) return false;
  *chunk = worklist_.subspan(bounds_[i], bounds_[i + 1] - bounds_[i]);
  if (chunk_index != nullptr) *chunk_index = i;
  return true;
}

void SourceSharder::Abort() {
  cursor_.store(bounds_.size(), std::memory_order_relaxed);
}

}  // namespace sobc

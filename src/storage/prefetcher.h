#ifndef SOBC_STORAGE_PREFETCHER_H_
#define SOBC_STORAGE_PREFETCHER_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "graph/graph.h"

namespace sobc {

/// Background read-ahead accounting, snapshot-readable from any thread.
struct PrefetchStats {
  std::uint64_t hinted = 0;          // source ids enqueued via Hint
  std::uint64_t fetched = 0;         // records decoded into the cache
  std::uint64_t already_cached = 0;  // skipped: a current decode was resident
  std::uint64_t failed = 0;          // loader errors (logged, not fatal)
  std::uint64_t dropped = 0;         // queue overflow, oldest hints shed
  double fetch_seconds = 0.0;        // background time spent decoding
};

/// Background read-ahead for the out-of-core BD store: one thread drains a
/// queue of hinted source ids and decodes each record into the shared
/// RecordCache (via the owner-provided loader) ahead of the compute path.
/// Correctness never depends on the prefetcher — a fetch that loses a race
/// with a writer is discarded by the cache's epoch check, and a missing
/// fetch is just a cache miss — so hints are fire-and-forget from any
/// thread.
///
/// Pacing comes from the hint sites, not from this class: the batch
/// drain's worker claiming chunk k hints chunk k + lookahead
/// (SourceSharder::ChunkSources) — double-buffering, with chunk size and
/// lookahead sized so both fit in the shared cache.
///
/// Quiesce() empties the queue and blocks until the thread is idle; the
/// store calls it before Grow (the epoch array is resized) and before
/// swapping the loader's file handle after a rebuild.
class Prefetcher {
 public:
  enum class LoadResult { kFetched, kAlreadyCached, kFailed };

  /// Decodes one source's record into the shared cache. Runs on the
  /// prefetch thread only. Errors are counted, never fatal.
  using Loader = std::function<LoadResult(VertexId)>;

  Prefetcher() = default;
  ~Prefetcher() { Stop(); }

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Spawns the background thread. No-op if already running.
  void Start(Loader loader);

  /// Joins the background thread (pending hints are abandoned).
  void Stop();

  bool running() const { return thread_.joinable(); }

  /// Enqueues sources for background decode (any thread; cheap copy).
  void Hint(std::span<const VertexId> sources);

  /// Clears pending hints and blocks until the in-flight fetch finished.
  void Quiesce();

  PrefetchStats stats() const;

 private:
  void Loop();

  static constexpr std::size_t kMaxQueuedBatches = 1024;

  Loader loader_;
  std::thread thread_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable idle_cv_;
  std::deque<std::vector<VertexId>> queue_;
  bool stop_ = false;
  bool busy_ = false;
  std::uint64_t clear_ticket_ = 0;  // bumped by Quiesce to abort mid-batch

  // Stats; counters written by the prefetch thread, hinted/dropped by
  // producers, all under mu_ (cold paths).
  PrefetchStats stats_;
};

}  // namespace sobc

#endif  // SOBC_STORAGE_PREFETCHER_H_

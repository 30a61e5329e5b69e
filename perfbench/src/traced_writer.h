#ifndef PERFBENCH_TRACED_WRITER_H_
#define PERFBENCH_TRACED_WRITER_H_

// The traced run's writer: the BcService writer loop and the
// DynamicBc::ApplyBatch / ParallelDrain sequence, rebuilt from the
// library's public functions only, with a span around each call. Its final
// scores are checked against the real service's on the same inputs, so a
// drift between the two shows up as a failed run, not as wrong numbers.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bc/bd_store_disk.h"
#include "bc/dynamic_bc.h"
#include "bc/incremental.h"
#include "bc/source_prefilter.h"
#include "counting.h"
#include "parallel/source_sharder.h"
#include "parallel/thread_pool.h"
#include "server/score_snapshot.h"
#include "server/update_queue.h"
#include "storage/checkpoint.h"
#include "storage/wal.h"
#include "trace.h"

namespace perfbench {

struct TracedOptions {
  sobc::BcVariant variant = sobc::BcVariant::kMemory;
  /// 1 = serial drain on the writer thread (the only mode supported for
  /// the out-of-core variant).
  int threads = 1;
  /// Out-of-core store.
  std::string storage_path;
  std::size_t cache_mb = 64;
  bool delta_codec = false;
  bool prefetch = false;
  /// Durability: empty wal_dir = off.
  std::string wal_dir;
  std::size_t checkpoint_every_updates = 0;
  std::size_t top_k = 16;
};

/// What the traced writer measured, readable after Stop().
struct TracedTotals {
  double step1_seconds = 0.0;
  std::vector<double> queue_wait_ms;
  std::uint64_t batches = 0;
  std::uint64_t consumed = 0;
  std::uint64_t applied = 0;
  sobc::UpdateStats stats;
  /// Storage time seen through the counting store, over every engine.
  std::int64_t store_read_ns = 0;
  std::int64_t store_write_ns = 0;
  /// Engine calls (ApplyUpdateForSources), summed over workers.
  std::int64_t engine_ns = 0;
  /// Per drain: the slowest and the mean worker's engine time.
  std::int64_t drain_max_worker_ns = 0;
  double drain_mean_worker_ns = 0.0;
  sobc::WalStats wal;
  sobc::CheckpointStats checkpoints;
  std::uint64_t cache_hits = 0;  // traced-phase deltas
  std::uint64_t cache_misses = 0;
  sobc::DiskIoStats io;
  sobc::PrefetchStats prefetch;
  double bytes_per_source = 0.0;
  std::uint64_t csr_builds = 0;
};

class TracedService {
 public:
  static sobc::Result<std::unique_ptr<TracedService>> Create(
      sobc::Graph graph, const TracedOptions& options, Tracer* tracer);
  ~TracedService();

  TracedService(const TracedService&) = delete;
  TracedService& operator=(const TracedService&) = delete;

  bool Submit(const sobc::EdgeUpdate& update) { return queue_.Push(update); }
  std::shared_ptr<const sobc::ScoreSnapshot> snapshot() const {
    return snapshots_.Acquire();
  }
  /// Blocks until every accepted update is published or the writer failed.
  sobc::Status Drain();
  /// Closes the queue, joins the writer, and fills totals().
  sobc::Status Stop();
  const TracedTotals& totals() const { return totals_; }

 private:
  struct Worker {
    std::unique_ptr<sobc::IncrementalEngine> engine;
    std::unique_ptr<CountingStore> store;
    sobc::BcScores delta;
    sobc::UpdateStats stats;
    sobc::Status status;
    std::int64_t busy_ns = 0;
    SpanBuffer* spans = nullptr;
  };

  TracedService(sobc::Graph graph, const TracedOptions& options,
                Tracer* tracer);

  sobc::Status Initialize();
  void WriterLoop();
  sobc::Status RunBatch(const sobc::DrainedBatch& batch, std::uint64_t epoch,
                        std::uint64_t position, std::int32_t root);
  sobc::Status ApplyBatch(std::span<const sobc::EdgeUpdate> updates,
                          std::int32_t parent, std::uint64_t batch);
  sobc::Status ApplyOne(const sobc::EdgeUpdate& update, std::int32_t parent,
                        std::uint64_t batch);
  sobc::Status SerialDrain(const sobc::EdgeUpdate& update,
                           std::int32_t parent, std::uint64_t batch);
  sobc::Status ParallelDrain(const sobc::EdgeUpdate& update,
                             std::int32_t parent, std::uint64_t batch);
  sobc::Status MaybeCheckpoint(std::uint64_t epoch, std::uint64_t position,
                               std::uint64_t consumed);
  void Publish(std::uint64_t epoch, std::uint64_t position);

  TracedOptions options_;
  Tracer* tracer_;
  SpanBuffer* spans_;  // writer thread (and set-up, before it starts)

  sobc::Graph graph_;
  std::unique_ptr<sobc::BdStore> store_;
  sobc::DiskBdStore* disk_ = nullptr;
  std::unique_ptr<CountingStore> counted_store_;  // serial engine's view
  sobc::IncrementalEngine engine_;
  sobc::SourcePrefilter prefilter_;
  sobc::BcScores scores_;

  std::unique_ptr<sobc::ThreadPool> pool_;
  std::vector<Worker> workers_;
  sobc::SourceSharder sharder_;
  std::vector<sobc::VertexId> worklist_;
  std::vector<std::uint64_t> weights_;

  std::unique_ptr<sobc::CheckpointWriter> checkpointer_;
  std::unique_ptr<sobc::WalWriter> wal_;
  std::uint64_t updates_since_checkpoint_ = 0;

  sobc::UpdateQueue queue_;
  sobc::SnapshotStore snapshots_;

  sobc::RecordCache::Stats cache_before_;
  sobc::DiskIoStats io_before_;
  TracedTotals totals_;

  std::mutex mu_;
  std::condition_variable published_cv_;
  std::uint64_t published_ = 0;
  bool writer_done_ = false;
  sobc::Status writer_status_;
  bool stopped_ = false;

  std::thread writer_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_WRITER_H_

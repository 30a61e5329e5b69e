#include "traced_writer.h"

#include <algorithm>

#include "bc/brandes.h"
#include "graph/csr_view.h"
#include "parallel/score_reduce.h"

namespace perfbench {

namespace {

/// Sources the serial out-of-core drain hints ahead of the slab it is
/// about to compute (DynamicBc's double-buffer depth).
constexpr std::size_t kSerialPrefetchSlab = 128;

}  // namespace

TracedService::TracedService(sobc::Graph graph, const TracedOptions& options,
                             Tracer* tracer)
    : options_(options),
      tracer_(tracer),
      spans_(tracer->NewBuffer("writer")),
      graph_(std::move(graph)),
      queue_([&] {
        sobc::UpdateQueueOptions queue;
        queue.directed = graph_.directed();
        return queue;
      }()) {}

sobc::Result<std::unique_ptr<TracedService>> TracedService::Create(
    sobc::Graph graph, const TracedOptions& options, Tracer* tracer) {
  auto service = std::unique_ptr<TracedService>(
      new TracedService(std::move(graph), options, tracer));
  SOBC_RETURN_NOT_OK(service->Initialize());
  service->writer_ = std::thread([raw = service.get()] { raw->WriterLoop(); });
  return service;
}

TracedService::~TracedService() { (void)Stop(); }

sobc::Status TracedService::Initialize() {
  const std::size_t n = graph_.NumVertices();
  if (options_.variant == sobc::BcVariant::kMemory) {
    store_ = std::make_unique<sobc::InMemoryBdStore>();
  } else if (options_.variant == sobc::BcVariant::kOutOfCore &&
             options_.threads == 1) {
    sobc::DiskBdStoreOptions disk;
    disk.codec = options_.delta_codec ? sobc::RecordCodecId::kDelta
                                      : sobc::RecordCodecId::kRaw;
    disk.cache_bytes = options_.cache_mb << 20;
    disk.prefetch = options_.prefetch;
    auto created = sobc::DiskBdStore::Create(options_.storage_path, n, 0, 0,
                                             sobc::kInvalidVertex, disk);
    if (!created.ok()) return created.status();
    disk_ = created->get();
    store_ = std::move(*created);
  } else {
    return sobc::Status::InvalidArgument(
        "traced writer supports MO, and serial DO");
  }
  counted_store_ = std::make_unique<CountingStore>(store_.get());
  graph_.csr();
  const sobc::MsBfsOptions msbfs;
  engine_.ConfigureMsBfs(true, msbfs);
  prefilter_.ConfigureMsBfs(true, msbfs);
  if (options_.threads > 1) {
    pool_ = std::make_unique<sobc::ThreadPool>(
        static_cast<std::size_t>(options_.threads));
    workers_.resize(static_cast<std::size_t>(options_.threads));
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      workers_[i].spans = tracer_->NewBuffer("worker" + std::to_string(i));
    }
  }

  const std::int32_t step1 = spans_->Open("step1", -1, 0);
  SOBC_RETURN_NOT_OK(sobc::InitializeFromScratch(graph_, sobc::BrandesOptions{},
                                                 store_.get(), &scores_));
  spans_->Close(step1);
  const Span& span = spans_->spans()[step1];
  totals_.step1_seconds = (span.end_ns - span.start_ns) / 1e9;
  Publish(0, 0);

  if (!options_.wal_dir.empty()) {
    checkpointer_ = std::make_unique<sobc::CheckpointWriter>(
        options_.wal_dir + "/checkpoints", options_.wal_dir, 2);
    sobc::CheckpointWriter::Job job;
    job.graph = graph_;
    job.scores = scores_;
    job.variant = "mo";
    SOBC_RETURN_NOT_OK(checkpointer_->WriteNow(std::move(job)));
    auto wal = sobc::WalWriter::Open(options_.wal_dir, 1, sobc::WalOptions{});
    if (!wal.ok()) return wal.status();
    wal_ = std::move(*wal);
  }
  if (disk_ != nullptr) {
    cache_before_ = disk_->cache_stats();
    io_before_ = disk_->io_stats();
  }
  return sobc::Status::OK();
}

void TracedService::WriterLoop() {
  std::uint64_t epoch = 0;
  std::uint64_t position = 0;
  sobc::DrainedBatch batch;
  sobc::Status status;
  while (queue_.PopBatch(&batch)) {
    const double popped = sobc::SteadyNowSeconds();
    for (const double enqueued : batch.enqueue_seconds) {
      totals_.queue_wait_ms.push_back((popped - enqueued) * 1e3);
    }
    const std::int32_t root = spans_->Open("batch", -1, epoch + 1);
    status = RunBatch(batch, epoch, position, root);
    spans_->Close(root);
    if (!status.ok()) break;
    ++epoch;
    position += batch.consumed;
    ++totals_.batches;
    totals_.consumed += batch.consumed;
    totals_.applied += batch.updates.size();
  }
  if (!status.ok()) queue_.Close();
  std::lock_guard<std::mutex> lock(mu_);
  writer_status_ = status;
  writer_done_ = true;
  published_cv_.notify_all();
}

sobc::Status TracedService::RunBatch(const sobc::DrainedBatch& batch,
                                     std::uint64_t epoch,
                                     std::uint64_t position,
                                     std::int32_t root) {
  const std::uint64_t next_epoch = epoch + 1;
  const std::uint64_t next_position = position + batch.consumed;
  if (wal_ != nullptr) {
    const std::int32_t span = spans_->Open("wal_append", root, next_epoch);
    sobc::Status st = wal_->Append(next_epoch, next_position, batch.updates);
    spans_->Close(span);
    SOBC_RETURN_NOT_OK(st);
  }
  if (!batch.updates.empty()) {
    const std::int32_t span = spans_->Open("apply", root, next_epoch);
    sobc::Status st = ApplyBatch(batch.updates, span, next_epoch);
    spans_->Close(span);
    SOBC_RETURN_NOT_OK(st);
  }
  const std::int32_t publish = spans_->Open("publish", root, next_epoch);
  Publish(next_epoch, next_position);
  spans_->Close(publish);
  if (checkpointer_ != nullptr) {
    const std::int32_t span = spans_->Open("checkpoint", root, next_epoch);
    sobc::Status st =
        MaybeCheckpoint(next_epoch, next_position, batch.consumed);
    spans_->Close(span);
    SOBC_RETURN_NOT_OK(st);
  }
  return sobc::Status::OK();
}

void TracedService::Publish(std::uint64_t epoch, std::uint64_t position) {
  snapshots_.Publish(sobc::BuildSnapshot(graph_, scores_, epoch, position,
                                         options_.top_k, true));
  {
    std::lock_guard<std::mutex> lock(mu_);
    published_ = position;
  }
  published_cv_.notify_all();
}

sobc::Status TracedService::ApplyBatch(
    std::span<const sobc::EdgeUpdate> updates, std::int32_t parent,
    std::uint64_t batch) {
  std::size_t needed = graph_.NumVertices();
  for (const sobc::EdgeUpdate& update : updates) {
    needed = std::max<std::size_t>(needed, std::max(update.u, update.v) + 1);
  }
  if (needed > store_->num_vertices()) {
    const std::int32_t span = spans_->Open("grow", parent, batch);
    sobc::Status st = store_->Grow(needed);
    spans_->Close(span);
    SOBC_RETURN_NOT_OK(st);
  }
  if (scores_.vbc.size() < needed) scores_.vbc.resize(needed, 0.0);
  for (const sobc::EdgeUpdate& update : updates) {
    const std::int32_t span = spans_->Open("graph_apply", parent, batch);
    sobc::Status st = sobc::ApplyToGraph(&graph_, update);
    spans_->Close(span);
    SOBC_RETURN_NOT_OK(st);
    SOBC_RETURN_NOT_OK(ApplyOne(update, parent, batch));
  }
  const std::int32_t span = spans_->Open("residue", parent, batch);
  for (const sobc::EdgeUpdate& update : updates) {
    if (update.op == sobc::EdgeOp::kRemove &&
        !graph_.HasEdge(update.u, update.v)) {
      scores_.ebc.erase(graph_.MakeKey(update.u, update.v));
    }
  }
  spans_->Close(span);
  return sobc::Status::OK();
}

sobc::Status TracedService::ApplyOne(const sobc::EdgeUpdate& update,
                                     std::int32_t parent,
                                     std::uint64_t batch) {
  const std::size_t n = graph_.NumVertices();
  const std::int32_t span = spans_->Open("prefilter", parent, batch);
  sobc::Status st = prefilter_.Build(graph_, update, true, &worklist_);
  spans_->Close(span);
  SOBC_RETURN_NOT_OK(st);
  sobc::UpdateStats& stats = totals_.stats;
  stats.msbfs_batches += prefilter_.last_stats().batches;
  stats.bottom_up_levels += prefilter_.last_stats().bottom_up_levels;
  const auto skipped = static_cast<std::uint64_t>(n - worklist_.size());
  stats.sources_total += skipped;
  stats.sources_skipped += skipped;
  stats.sources_prefiltered += skipped;
  if (worklist_.empty()) return sobc::Status::OK();
  return pool_ == nullptr ? SerialDrain(update, parent, batch)
                          : ParallelDrain(update, parent, batch);
}

sobc::Status TracedService::SerialDrain(const sobc::EdgeUpdate& update,
                                        std::int32_t parent,
                                        std::uint64_t batch) {
  const std::int32_t drain = spans_->Open("drain", parent, batch);
  const std::span<const sobc::VertexId> all = worklist_;
  // Double-buffered like DynamicBc's serial out-of-core drain: hint the
  // next slab before computing the current one.
  const bool slabs = disk_ != nullptr && disk_->prefetch_enabled() &&
                     all.size() > kSerialPrefetchSlab;
  const std::size_t slab = slabs ? kSerialPrefetchSlab : all.size();
  if (slabs) counted_store_->Hint(all.subspan(0, slab));
  std::int64_t engine_ns = 0;
  sobc::Status st;
  for (std::size_t off = 0; off < all.size() && st.ok(); off += slab) {
    const std::size_t count = std::min(slab, all.size() - off);
    const std::size_t next = off + count;
    if (slabs && next < all.size()) {
      counted_store_->Hint(
          all.subspan(next, std::min(slab, all.size() - next)));
    }
    const std::int64_t start = NowNs();
    st = engine_.ApplyUpdateForSources(graph_, update, all.subspan(off, count),
                                       counted_store_.get(), &scores_,
                                       &totals_.stats);
    const std::int64_t end = NowNs();
    spans_->Add("engine", start, end, drain, batch);
    engine_ns += end - start;
  }
  spans_->Close(drain);
  totals_.engine_ns += engine_ns;
  totals_.drain_max_worker_ns += engine_ns;
  totals_.drain_mean_worker_ns += static_cast<double>(engine_ns);
  return st;
}

sobc::Status TracedService::ParallelDrain(const sobc::EdgeUpdate& update,
                                          std::int32_t parent,
                                          std::uint64_t batch) {
  const std::size_t n = graph_.NumVertices();
  const std::int32_t drain = spans_->Open("drain", parent, batch);
  sobc::FillSourceCostWeights(graph_, true, worklist_, &weights_);
  sobc::SourceSharderOptions sharding;
  sharding.num_workers = pool_->num_threads();
  sharding.batch_align = sobc::MsBfsScratch::kLanes;
  sharder_.Reset(worklist_, weights_, sharding);
  const std::size_t w = std::min(pool_->num_threads(), sharder_.num_chunks());
  for (std::size_t i = 0; i < w; ++i) {
    Worker& wk = workers_[i];
    if (wk.engine == nullptr) {
      wk.engine = std::make_unique<sobc::IncrementalEngine>();
      wk.engine->ConfigureMsBfs(true, sobc::MsBfsOptions{});
      wk.store = std::make_unique<CountingStore>(store_.get());
    }
    wk.delta.vbc.assign(n, 0.0);
    wk.delta.ebc.clear();
    wk.stats = sobc::UpdateStats{};
    wk.status = sobc::Status::OK();
    wk.busy_ns = 0;
  }
  auto run_worker = [&](std::size_t i) {
    Worker& wk = workers_[i];
    std::span<const sobc::VertexId> chunk;
    while (sharder_.Next(&chunk)) {
      const std::int64_t start = NowNs();
      const sobc::Status st = wk.engine->ApplyUpdateForSources(
          graph_, update, chunk, wk.store.get(), &wk.delta, &wk.stats);
      const std::int64_t end = NowNs();
      wk.spans->Add("engine", start, end, -1, batch);
      wk.busy_ns += end - start;
      if (!st.ok()) {
        wk.status = st;
        sharder_.Abort();
        return;
      }
    }
  };
  if (w == 1) {
    run_worker(0);
  } else {
    sobc::ParallelFor(pool_.get(), w, run_worker);
  }
  spans_->Close(drain);
  std::int64_t busy = 0;
  std::int64_t slowest = 0;
  for (std::size_t i = 0; i < w; ++i) {
    SOBC_RETURN_NOT_OK(workers_[i].status);
    busy += workers_[i].busy_ns;
    slowest = std::max(slowest, workers_[i].busy_ns);
  }
  totals_.engine_ns += busy;
  totals_.drain_max_worker_ns += slowest;
  totals_.drain_mean_worker_ns += static_cast<double>(busy) / w;

  const std::int32_t reduce = spans_->Open("reduce", parent, batch);
  std::vector<sobc::BcScores*> partials;
  partials.reserve(w);
  for (std::size_t i = 0; i < w; ++i) partials.push_back(&workers_[i].delta);
  sobc::TreeReduceScores(w > 2 ? pool_.get() : nullptr, partials);
  scores_.Merge(workers_[0].delta);
  for (std::size_t i = 0; i < w; ++i) totals_.stats.Merge(workers_[i].stats);
  spans_->Close(reduce);
  return sobc::Status::OK();
}

sobc::Status TracedService::MaybeCheckpoint(std::uint64_t epoch,
                                            std::uint64_t position,
                                            std::uint64_t consumed) {
  updates_since_checkpoint_ += consumed;
  if (options_.checkpoint_every_updates == 0 ||
      updates_since_checkpoint_ < options_.checkpoint_every_updates) {
    return sobc::Status::OK();
  }
  updates_since_checkpoint_ = 0;
  if (!checkpointer_->AdmitTrigger()) return sobc::Status::OK();
  sobc::CheckpointWriter::Job job;
  job.epoch = epoch;
  job.stream_position = position;
  job.graph = graph_;
  job.scores = scores_;
  job.variant = "mo";
  if (checkpointer_->Enqueue(std::move(job))) return wal_->Rotate(epoch + 1);
  return sobc::Status::OK();
}

sobc::Status TracedService::Drain() {
  const std::uint64_t target = queue_.stats().received;
  std::unique_lock<std::mutex> lock(mu_);
  published_cv_.wait(lock,
                     [&] { return published_ >= target || writer_done_; });
  if (published_ >= target) return sobc::Status::OK();
  return writer_status_.ok() ? sobc::Status::Internal("writer stopped")
                             : writer_status_;
}

sobc::Status TracedService::Stop() {
  if (stopped_) return writer_status_;
  stopped_ = true;
  queue_.Close();
  if (writer_.joinable()) writer_.join();
  sobc::Status status = writer_status_;
  if (checkpointer_ != nullptr) {
    sobc::Status idle = checkpointer_->WaitIdle();
    if (status.ok()) status = idle;
    totals_.checkpoints = checkpointer_->stats();
  }
  if (wal_ != nullptr) totals_.wal = wal_->stats();
  if (counted_store_ != nullptr) {
    totals_.store_read_ns = counted_store_->read_ns();
    totals_.store_write_ns = counted_store_->write_ns();
  }
  for (const Worker& wk : workers_) {
    if (wk.store == nullptr) continue;
    totals_.store_read_ns += wk.store->read_ns();
    totals_.store_write_ns += wk.store->write_ns();
  }
  const std::size_t n = graph_.NumVertices();
  if (disk_ != nullptr) {
    const sobc::RecordCache::Stats cache = disk_->cache_stats();
    totals_.cache_hits = cache.hits - cache_before_.hits;
    totals_.cache_misses = cache.misses - cache_before_.misses;
    const sobc::DiskIoStats io = disk_->io_stats();
    totals_.io.bytes_read = io.bytes_read - io_before_.bytes_read;
    totals_.io.bytes_written = io.bytes_written - io_before_.bytes_written;
    totals_.prefetch = disk_->prefetch_stats();
    auto footprint = disk_->Footprint();
    if (!footprint.ok() && status.ok()) status = footprint.status();
    if (footprint.ok()) totals_.bytes_per_source = footprint->bytes_per_source;
  } else {
    totals_.bytes_per_source = static_cast<double>(
        n * (sizeof(sobc::Distance) + sizeof(sobc::PathCount) +
             sizeof(double)));
  }
  totals_.csr_builds = graph_.csr().stats().builds;
  return status;
}

}  // namespace perfbench

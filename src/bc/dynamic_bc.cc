#include "bc/dynamic_bc.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>

#include "bc/bd_store_disk.h"
#include "bc/score_io.h"
#include "graph/csr_view.h"
#include "parallel/score_reduce.h"

namespace sobc {

namespace {

int ResolveThreads(int requested) {
  if (requested > 0) return requested;
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  return hw > 0 ? hw : 2;
}

DiskBdStoreOptions MakeDiskOptions(const DynamicBcOptions& options) {
  DiskBdStoreOptions disk;
  disk.codec = options.store_codec;
  disk.cache_bytes = options.cache_mb << 20;
  disk.prefetch = options.prefetch;
  return disk;
}

/// Sample-state sidecar written beside the score file by Checkpoint() in
/// approx mode (the CLI resume path; the service path carries the blob in
/// its checkpoint manifest instead).
constexpr char kApproxSidecarSuffix[] = ".approx";

MsBfsOptions MakeMsBfsOptions(const DynamicBcOptions& options) {
  MsBfsOptions msbfs;
  msbfs.direction_optimizing = options.do_switch_threshold > 0.0;
  if (msbfs.direction_optimizing) msbfs.alpha = options.do_switch_threshold;
  return msbfs;
}

}  // namespace

Result<std::unique_ptr<DynamicBc>> DynamicBc::Create(
    Graph graph, const DynamicBcOptions& options) {
  const std::size_t n = graph.NumVertices();
  std::unique_ptr<BdStore> store;
  PredMode pred_mode = PredMode::kScanNeighbors;
  if (options.source_end != kInvalidVertex &&
      options.source_end < options.source_begin) {
    return Status::InvalidArgument("source_end precedes source_begin");
  }
  // The sampled mode owns the whole source universe by construction: its
  // estimates are scaled sums over a uniform draw from every vertex, which
  // a scoped partition would bias. Cluster shards therefore stay exact.
  std::unique_ptr<OnlineApproxState> approx;
  // A restore blob alone activates the mode (the recovery path knows it is
  // rebuilding a sampled deployment from the blob, not from flag values).
  if (options.approx_samples > 0 || !options.approx_restore_blob.empty()) {
    if (options.source_begin != 0 || options.source_end != kInvalidVertex) {
      return Status::InvalidArgument(
          "sampled approximation requires the full source range; scoped "
          "shards must run exact");
    }
    if (!options.approx_restore_blob.empty()) {
      auto restored = OnlineApproxState::Restore(options.approx_restore_blob);
      if (!restored.ok()) return restored.status();
      approx = std::move(*restored);
      for (const VertexId id : approx->samples().ids()) {
        if (id >= n) {
          return Status::FailedPrecondition(
              "restored sample set references vertex " + std::to_string(id) +
              " beyond the graph");
        }
      }
      approx->mutable_samples()->GrowPopulation(n);
    } else {
      OnlineApproxOptions aopts;
      aopts.num_samples = options.approx_samples;
      aopts.epsilon = options.approx_epsilon;
      aopts.seed = options.approx_seed;
      aopts.max_swaps_per_batch = options.approx_max_swaps_per_batch;
      auto fresh = OnlineApproxState::Fresh(aopts, n);
      if (!fresh.ok()) return fresh.status();
      approx = std::move(*fresh);
    }
  }
  // In approx mode the backing store holds one record per sample slot,
  // [0, k) — the adapter translates global sampled ids to slots — so the
  // BD footprint is O(k * n) wherever exact mode pays O(n^2).
  const VertexId store_begin =
      approx ? 0 : options.source_begin;
  const VertexId store_limit =
      approx ? static_cast<VertexId>(approx->samples().size())
             : options.source_end;
  switch (options.variant) {
    case BcVariant::kMemoryPredecessors:
      pred_mode = PredMode::kPredecessorLists;
      store = std::make_unique<InMemoryBdStore>(pred_mode, store_begin,
                                                store_limit);
      break;
    case BcVariant::kMemory:
      store = std::make_unique<InMemoryBdStore>(pred_mode, store_begin,
                                                store_limit);
      break;
    case BcVariant::kOutOfCore: {
      if (options.storage_path.empty()) {
        return Status::InvalidArgument(
            "kOutOfCore variant needs a storage_path");
      }
      auto disk = DiskBdStore::Create(
          options.storage_path, n, options.vertex_capacity, store_begin,
          store_limit, MakeDiskOptions(options));
      if (!disk.ok()) return disk.status();
      store = std::move(*disk);
      break;
    }
  }
  DynamicBcOptions resolved = options;
  resolved.num_threads = ResolveThreads(options.num_threads);
  auto bc = std::unique_ptr<DynamicBc>(
      new DynamicBc(std::move(graph), std::move(store), pred_mode, resolved));
  if (approx != nullptr) {
    bc->approx_ = std::move(approx);
    bc->disk_root_ = dynamic_cast<DiskBdStore*>(bc->store_.get());
    bc->store_ = std::make_unique<SampledBdStore>(
        std::move(bc->store_), &bc->approx_->samples());
  } else {
    bc->disk_root_ = dynamic_cast<DiskBdStore*>(bc->store_.get());
  }
  if (resolved.num_threads > 1) {
    bc->pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(resolved.num_threads));
  }
  if (options.use_csr) {
    // Build the traversal snapshot once, up front; every later Apply only
    // patches it in O(degree) (asserted via CsrView::stats().builds).
    bc->graph_.csr();
  }
  bc->prefilter_.ConfigureMsBfs(options.msbfs, MakeMsBfsOptions(options));
  BrandesOptions brandes;
  brandes.pred_mode = pred_mode;
  brandes.use_csr = options.use_csr;
  brandes.use_msbfs = options.msbfs;
  brandes.msbfs = MakeMsBfsOptions(options);
  if (bc->approx_ != nullptr) {
    SOBC_RETURN_NOT_OK(bc->InitializeSampled(brandes));
  } else {
    SOBC_RETURN_NOT_OK(InitializeFromScratch(
        bc->graph_, brandes, bc->store_.get(), &bc->scores_,
        options.source_begin, options.source_end));
  }
  return bc;
}

Status DynamicBc::InitializeSampled(const BrandesOptions& brandes) {
  // Step 1 of the sampled mode: one sweep per sampled source, accumulated
  // unscaled into the maintained sums. Sample ids are scattered across the
  // id space, so this runs the per-source kernel rather than the
  // contiguous-range MS-BFS batcher — k sweeps, not n.
  const std::size_t n = graph_.NumVertices();
  scores_.vbc.assign(n, 0.0);
  scores_.ebc.clear();
  for (const VertexId s : approx_->samples().ids()) {
    SourceBcData data;
    BrandesSingleSource(graph_, s, brandes, &data, &scores_);
    SOBC_RETURN_NOT_OK(store_->PutInitial(s, std::move(data)));
  }
  return Status::OK();
}

Result<std::unique_ptr<DynamicBc>> DynamicBc::Resume(
    Graph graph, const DynamicBcOptions& options,
    const std::string& scores_path) {
  if (options.variant != BcVariant::kOutOfCore) {
    return Status::InvalidArgument("Resume requires the out-of-core variant");
  }
  auto disk = DiskBdStore::Open(options.storage_path, MakeDiskOptions(options));
  if (!disk.ok()) return disk.status();
  if ((*disk)->num_vertices() != graph.NumVertices()) {
    return Status::FailedPrecondition(
        "store holds " + std::to_string((*disk)->num_vertices()) +
        " vertices but the graph has " +
        std::to_string(graph.NumVertices()) +
        "; pass the graph saved at checkpoint time");
  }
  auto scores = ReadScores(scores_path);
  if (!scores.ok()) return scores.status();
  if (scores->vbc.size() != graph.NumVertices()) {
    return Status::FailedPrecondition(
        "score file does not match the graph's vertex count");
  }
  // Sample state travels beside the scores: the service recovery path
  // hands the checkpoint's blob through the options; the CLI path reads
  // the sidecar Checkpoint() wrote. Its presence decides the mode — an
  // approx deployment can only resume approx (the store holds k slots,
  // not n records).
  std::string approx_blob = options.approx_restore_blob;
  if (approx_blob.empty()) {
    std::ifstream sidecar(scores_path + kApproxSidecarSuffix,
                          std::ios::binary);
    if (sidecar) {
      std::ostringstream buffer;
      buffer << sidecar.rdbuf();
      approx_blob = buffer.str();
    }
  }
  if (approx_blob.empty() && options.approx_samples > 0) {
    return Status::FailedPrecondition(
        "no sample state found beside the score file; the checkpoint was "
        "written by an exact deployment");
  }
  std::unique_ptr<OnlineApproxState> approx;
  if (!approx_blob.empty()) {
    auto restored = OnlineApproxState::Restore(approx_blob);
    if (!restored.ok()) return restored.status();
    approx = std::move(*restored);
  }
  DynamicBcOptions resolved = options;
  resolved.num_threads = ResolveThreads(options.num_threads);
  if (approx != nullptr) {
    const auto k = static_cast<VertexId>(approx->samples().size());
    if ((*disk)->source_begin() != 0 || (*disk)->source_limit() != k) {
      return Status::FailedPrecondition(
          "store slot range does not match the checkpointed sample set");
    }
    for (const VertexId id : approx->samples().ids()) {
      if (id >= graph.NumVertices()) {
        return Status::FailedPrecondition(
            "restored sample set references vertex " + std::to_string(id) +
            " beyond the graph");
      }
    }
    approx->mutable_samples()->GrowPopulation(graph.NumVertices());
    resolved.source_begin = 0;
    resolved.source_end = kInvalidVertex;
    resolved.approx_samples = approx->samples().size();
    resolved.approx_epsilon = approx->options().epsilon;
    resolved.approx_seed = approx->options().seed;
    resolved.approx_max_swaps_per_batch =
        approx->options().max_swaps_per_batch;
  } else {
    // The store header is authoritative for the partition: a resumed shard
    // must scope its source loop exactly as the deployment that wrote the
    // file did, whatever the caller passed.
    resolved.source_begin = (*disk)->source_begin();
    resolved.source_end = (*disk)->source_limit();
  }
  auto bc = std::unique_ptr<DynamicBc>(
      new DynamicBc(std::move(graph), std::move(*disk),
                    PredMode::kScanNeighbors, resolved));
  bc->disk_root_ = dynamic_cast<DiskBdStore*>(bc->store_.get());
  if (approx != nullptr) {
    bc->approx_ = std::move(approx);
    bc->store_ = std::make_unique<SampledBdStore>(
        std::move(bc->store_), &bc->approx_->samples());
  }
  if (resolved.num_threads > 1) {
    bc->pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(resolved.num_threads));
  }
  if (options.use_csr) bc->graph_.csr();
  bc->prefilter_.ConfigureMsBfs(options.msbfs, MakeMsBfsOptions(options));
  bc->scores_ = std::move(*scores);
  return bc;
}

Status DynamicBc::Checkpoint(const std::string& scores_path) {
  SOBC_RETURN_NOT_OK(WriteScores(scores_, scores_path));
  if (approx_ != nullptr) {
    // The sidecar makes the sample state part of every score checkpoint;
    // Resume refuses approx stores without it, so the pair stays atomic
    // enough for the CLI path (the service path carries the blob inside
    // its manifest-committed checkpoint instead).
    const std::string path = scores_path + kApproxSidecarSuffix;
    std::ofstream sidecar(path, std::ios::binary | std::ios::trunc);
    const std::string blob = approx_->Serialize();
    sidecar.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    if (!sidecar.good()) {
      return Status::IOError("cannot write sample state sidecar: " + path);
    }
    sidecar.close();
  }
  if (disk_root_ == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint is only durable with the out-of-core variant");
  }
  return store_->Flush();
}

Status DynamicBc::RestoreScores(BcScores scores) {
  if (scores.vbc.size() != graph_.NumVertices()) {
    return Status::InvalidArgument(
        "restored scores cover " + std::to_string(scores.vbc.size()) +
        " vertices but the graph has " +
        std::to_string(graph_.NumVertices()));
  }
  scores_ = std::move(scores);
  return Status::OK();
}

int DynamicBc::num_threads() const {
  return pool_ == nullptr ? 1 : static_cast<int>(pool_->num_threads());
}

std::uint64_t DynamicBc::MsBfsScratchAllocations() const {
  std::uint64_t total = prefilter_.scratch().allocation_events();
  for (const ApplyWorker& wk : workers_) {
    if (wk.engine != nullptr) {
      total += wk.engine->msbfs_scratch().allocation_events();
    }
  }
  return total;
}

Status DynamicBc::Apply(const EdgeUpdate& update) {
  return ApplyBatch({&update, 1});
}

Status DynamicBc::ApplyAll(const EdgeStream& stream) {
  for (const EdgeUpdate& update : stream) {
    SOBC_RETURN_NOT_OK(Apply(update));
  }
  return Status::OK();
}

Status DynamicBc::ApplyBatch(std::span<const EdgeUpdate> batch) {
  last_stats_ = UpdateStats{};
  if (batch.empty()) return Status::OK();
  // Pay the growth once, sized by the whole batch: records of vertices a
  // later update introduces sit untouched (Grow initializes them as
  // isolated sources) until their AddEdge brings them into the source loop
  // — indistinguishable from growing immediately before that update.
  std::size_t needed = graph_.NumVertices();
  for (const EdgeUpdate& update : batch) {
    const std::size_t top =
        static_cast<std::size_t>(std::max(update.u, update.v)) + 1;
    needed = std::max(needed, top);
  }
  if (needed > store_->num_vertices()) {
    // Grow quiesces the prefetcher, swaps the file if capacity demands it,
    // and retires every cached record via the cache generation — the
    // coordinator and worker handles all revalidate on their next read, so
    // no handle needs telling (the old InvalidateCache protocol).
    SOBC_RETURN_NOT_OK(store_->Grow(needed));
  }
  if (scores_.vbc.size() < needed) scores_.vbc.resize(needed, 0.0);
  // Mutate the graph update by update, collecting each step's worklist on
  // the graph that step leaves; then repair every step in one drain. An
  // update the graph refuses ends the batch there: the steps before it
  // are repaired and the error is returned.
  worklists_.clear();
  step_ranges_.clear();
  Status refused;
  std::size_t applied = 0;
  for (; applied < batch.size(); ++applied) {
    refused = ApplyToGraph(&graph_, batch[applied]);
    if (!refused.ok()) break;
    SOBC_RETURN_NOT_OK(CollectWorklist(batch[applied]));
  }
  const std::span<const EdgeUpdate> done = batch.first(applied);
  SOBC_RETURN_NOT_OK(Drain(done));
  // A net-removed edge's ebc entry holds only floating-point residue.
  for (const EdgeUpdate& update : done) {
    if (update.op == EdgeOp::kRemove && !graph_.HasEdge(update.u, update.v)) {
      scores_.ebc.erase(graph_.MakeKey(update.u, update.v));
    }
  }
  SOBC_RETURN_NOT_OK(refused);
  if (approx_ != nullptr) {
    // Drift accounting + at most max_swaps_per_batch resampling swaps,
    // after the batch's repairs landed (swap sweeps must run on the
    // current graph for the subtract-then-replace arithmetic to hold).
    SOBC_RETURN_NOT_OK(approx_->AfterBatch(graph_, last_stats_,
                                           SweepOptions(), store_.get(),
                                           &scores_));
  }
  return Status::OK();
}

BrandesOptions DynamicBc::SweepOptions() const {
  BrandesOptions brandes;
  brandes.pred_mode = pred_mode_;
  brandes.use_csr = options_.use_csr;
  brandes.use_msbfs = options_.msbfs;
  brandes.msbfs = MakeMsBfsOptions(options_);
  return brandes;
}

BcScores DynamicBc::EstimatedScores() const {
  BcScores estimates = scores_;
  const double scale = approx_scale();
  if (scale != 1.0) {
    for (double& value : estimates.vbc) value *= scale;
    for (auto& [key, value] : estimates.ebc) value *= scale;
  }
  return estimates;
}

Status DynamicBc::CollectWorklist(const EdgeUpdate& update) {
  const std::size_t n = graph_.NumVertices();
  // A scoped framework (cluster shard) walks only its owned partition;
  // sources outside it belong to other shards and never enter this
  // deployment's worklist or stats.
  const auto owned_begin =
      static_cast<VertexId>(std::min<std::size_t>(options_.source_begin, n));
  const auto owned_end = static_cast<VertexId>(std::min<std::size_t>(
      options_.source_end == kInvalidVertex ? n : options_.source_end, n));
  // The approx mode's "partition" is the sampled set: k scattered sources
  // instead of a contiguous range, same accounting.
  const std::size_t owned =
      approx_ != nullptr ? approx_->samples().size() : owned_end - owned_begin;
  if (options_.prefilter) {
    SOBC_RETURN_NOT_OK(
        prefilter_.Build(graph_, update, options_.use_csr, &worklist_));
    // The prefilter's 2-lane endpoint fold counts toward the update's
    // kernel totals alongside the engine's structural batches.
    last_stats_.msbfs_batches += prefilter_.last_stats().batches;
    last_stats_.bottom_up_levels += prefilter_.last_stats().bottom_up_levels;
    if (approx_ != nullptr) {
      FilterToSamples(approx_->samples(), &worklist_);
    } else if (owned != n) {
      worklist_.erase(
          std::remove_if(worklist_.begin(), worklist_.end(),
                         [owned_begin, owned_end](VertexId s) {
                           return s < owned_begin || s >= owned_end;
                         }),
          worklist_.end());
    }
    // Prefiltered sources are skipped sources that never paid a BD probe;
    // they count into the same totals so the skipped/non-structural/
    // structural partition of sources_total still adds up (to the owned
    // partition size, not the full vertex count, on a shard).
    const auto skipped = static_cast<std::uint64_t>(owned - worklist_.size());
    last_stats_.sources_total += skipped;
    last_stats_.sources_skipped += skipped;
    last_stats_.sources_prefiltered += skipped;
    step_ranges_.emplace_back(worklists_.size(),
                              worklists_.size() + worklist_.size());
    worklists_.insert(worklists_.end(), worklist_.begin(), worklist_.end());
    return Status::OK();
  }
  // Without the prefilter the drain probes BD[s] for every owned source.
  // The partition only grows within a batch and the sample set not at
  // all, so each step's worklist is a prefix of one ascending list.
  if (approx_ != nullptr) {
    if (worklists_.empty()) {
      const std::span<const VertexId> ids = approx_->samples().ids();
      worklists_.assign(ids.begin(), ids.end());
      std::sort(worklists_.begin(), worklists_.end());
    }
  } else {
    while (worklists_.size() < owned) {
      worklists_.push_back(options_.source_begin +
                           static_cast<VertexId>(worklists_.size()));
    }
  }
  step_ranges_.emplace_back(0, owned);
  return Status::OK();
}

std::span<const VertexId> DynamicBc::StepSlice(
    std::size_t step, std::span<const VertexId> chunk) const {
  // Chunks are contiguous runs of the ascending union and every step's
  // worklist is an ascending subset of it, so the step's share of a chunk
  // is the contiguous run of its worklist between the chunk's ends.
  const auto [begin, end] = step_ranges_[step];
  const std::span<const VertexId> all =
      std::span<const VertexId>(worklists_).subspan(begin, end - begin);
  const auto lo = std::lower_bound(all.begin(), all.end(), chunk.front());
  const auto hi = std::upper_bound(lo, all.end(), chunk.back());
  return {lo, hi};
}

Status DynamicBc::EnsureWorkers(std::size_t w, std::size_t n) {
  if (workers_.size() < w) workers_.resize(w);
  // A single worker runs on the calling thread straight against the root
  // store and the maintained scores; only a fan-out needs per-worker
  // store handles and score partials.
  const bool fan_out = w > 1;
  const bool disk = options_.variant == BcVariant::kOutOfCore;
  if (disk && disk_root_ == nullptr) {
    return Status::Internal("kOutOfCore framework without a disk store");
  }
  for (std::size_t i = 0; i < w; ++i) {
    ApplyWorker& wk = workers_[i];
    if (wk.engine == nullptr) {
      wk.engine =
          std::make_unique<IncrementalEngine>(pred_mode_, options_.use_csr);
    }
    wk.engine->ConfigureMsBfs(options_.msbfs, MakeMsBfsOptions(options_));
    if (fan_out && disk &&
        (wk.disk_store == nullptr ||
         wk.disk_store->num_vertices() != store_->num_vertices())) {
      // Fresh or stale (a Grow changed the layout or swapped the backing
      // file): reopen onto the current file. OpenShared keeps every worker
      // on the root's record cache and epochs, which is what lets handles
      // read each other's writes without any invalidation call. In approx
      // mode each worker gets its own slot-translating adapter over its
      // handle (the adapter is stateless past the shared SampleSet).
      auto handle = disk_root_->OpenShared();
      if (!handle.ok()) return handle.status();
      if (approx_ != nullptr) {
        wk.disk_store = std::make_unique<SampledBdStore>(
            std::move(*handle), &approx_->samples());
      } else {
        wk.disk_store = std::move(*handle);
      }
    }
    if (fan_out) {
      wk.delta.vbc.assign(n, 0.0);
      wk.delta.ebc.clear();
    }
    wk.stats = UpdateStats{};
    wk.status = Status::OK();
  }
  return Status::OK();
}

Status DynamicBc::Drain(std::span<const EdgeUpdate> batch) {
  const std::size_t n = graph_.NumVertices();
  // The batch's distinct sources, ascending, each weighted by its
  // degree-based cost times the number of steps that repair it.
  if (hits_.size() < n) hits_.resize(n, 0);
  sources_.clear();
  for (const auto& [begin, end] : step_ranges_) {
    for (std::size_t i = begin; i < end; ++i) {
      if (hits_[worklists_[i]]++ == 0) sources_.push_back(worklists_[i]);
    }
  }
  if (sources_.empty()) return Status::OK();
  if (step_ranges_.size() > 1) std::sort(sources_.begin(), sources_.end());
  FillSourceCostWeights(graph_, options_.use_csr, sources_, &weights_);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    weights_[i] *= hits_[sources_[i]];
    hits_[sources_[i]] = 0;
  }
  steps_.Build(graph_, batch, options_.use_csr);

  const std::size_t workers = pool_ == nullptr ? 1 : pool_->num_threads();
  SourceSharderOptions sharding;
  sharding.num_workers = workers;
  // In memory a lone worker gains nothing from cutting the batch: one
  // chunk is exactly the per-update loop. A pool needs chunks to balance.
  if (pool_ == nullptr) sharding.chunks_per_worker = 1;
  // Chunk cuts snap to the kernel's lane width so every chunk drains in
  // whole 64-source batches (ragged tails waste lane occupancy).
  if (options_.msbfs) sharding.batch_align = MsBfsScratch::kLanes;
  // Out of core, a chunk's records must stay cached while it walks every
  // step, and so must the chunks read ahead for the other workers: the w
  // chunks in flight plus w hinted ahead fill half of the cache's record
  // slots, the other half absorbs the uneven spread of records over the
  // cache's hash shards. A cache too small for that gets no cap and no
  // read-ahead — prefetched records would be evicted before their use.
  const std::size_t slots =
      disk_root_ == nullptr ? 0 : disk_root_->CachedRecordSlots();
  sharding.max_chunk_sources = slots / (4 * workers);
  sharder_.Reset(sources_, weights_, sharding);
  const std::size_t chunks = sharder_.num_chunks();
  const std::size_t w = std::min(workers, chunks);
  SOBC_RETURN_NOT_OK(EnsureWorkers(w, n));

  // Prefetch pipeline: the sharder publishes the chunk sequence, so hints
  // can run `lookahead` claims ahead of the work-stealing cursor. The
  // worker claiming chunk i hints chunk i + lookahead (each chunk is
  // hinted exactly once); the first `lookahead` chunks are primed here.
  // Hints go through store_ (not disk_root_): in approx mode the adapter
  // translates the sampled ids to their slots first.
  const bool prefetch = disk_root_ != nullptr &&
                        disk_root_->prefetch_enabled() &&
                        sharding.max_chunk_sources > 0;
  const std::size_t lookahead = w;
  if (prefetch) {
    for (std::size_t c = 0; c < std::min(lookahead, chunks); ++c) {
      store_->Hint(sharder_.ChunkSources(c));
    }
  }

  // Chunk-major: each chunk walks the batch's steps in order, so step i
  // repairs BD[s] exactly as step i - 1 left it, on G_i (DESIGN.md §8).
  auto run_worker = [&](std::size_t i) {
    ApplyWorker& wk = workers_[i];
    BdStore* store = w > 1 && wk.disk_store ? wk.disk_store.get()
                                            : store_.get();
    BcScores* scores = w > 1 ? &wk.delta : &scores_;
    std::span<const VertexId> chunk;
    std::size_t idx = 0;
    while (sharder_.Next(&chunk, &idx)) {
      if (prefetch && idx + lookahead < chunks) {
        store_->Hint(sharder_.ChunkSources(idx + lookahead));
      }
      for (std::size_t step = 0; step < batch.size(); ++step) {
        const std::span<const VertexId> slice = StepSlice(step, chunk);
        if (slice.empty()) continue;
        const Status st = wk.engine->ApplyStepForSources(
            graph_, steps_, step, slice, store, scores, &wk.stats);
        if (!st.ok()) {
          wk.status = st;
          sharder_.Abort();
          return;
        }
      }
    }
  };
  if (w == 1) {
    run_worker(0);
  } else {
    ParallelFor(pool_.get(), w, run_worker);
  }
  for (std::size_t i = 0; i < w; ++i) {
    last_stats_.Merge(workers_[i].stats);
    SOBC_RETURN_NOT_OK(workers_[i].status);
  }
  if (w > 1) {
    std::vector<BcScores*> partials;
    partials.reserve(w);
    for (std::size_t i = 0; i < w; ++i) partials.push_back(&workers_[i].delta);
    TreeReduceScores(w > 2 ? pool_.get() : nullptr, partials);
    scores_.Merge(workers_[0].delta);
  }
  return Status::OK();
}

double DynamicBc::EdgeScore(VertexId u, VertexId v) const {
  const auto it = scores_.ebc.find(graph_.MakeKey(u, v));
  return it == scores_.ebc.end() ? 0.0 : it->second;
}

}  // namespace sobc

#include "bc/bd_store_disk.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "common/logging.h"

namespace sobc {

namespace {

/// Raw-codec bytes per vertex (u16 d + u64 sigma + f64 delta) — the
/// fixed-width baseline every compression ratio is measured against.
constexpr std::size_t kRawBytesPerVertex =
    sizeof(std::uint16_t) + sizeof(PathCount) + sizeof(double);

struct BlobHeader {
  std::uint32_t len = 0;  // payload bytes; 0 = isolated-vertex default
  std::uint32_t n = 0;    // entries the payload encodes
};

void FillDefaultRecord(VertexId s, std::size_t n, CachedRecord* rec) {
  rec->d.assign(n, kUnreachable);
  rec->sigma.assign(n, 0);
  rec->delta.assign(n, 0.0);
  if (static_cast<std::size_t>(s) < n) {
    rec->d[s] = 0;
    rec->sigma[s] = 1;
  }
}

}  // namespace

ColumnarLayout DiskBdStore::MakeLayout(RecordCodecId codec,
                                       std::size_t vertex_capacity,
                                       std::uint64_t num_records) {
  ColumnarLayout layout;
  layout.num_records = num_records;
  if (codec == RecordCodecId::kRaw) {
    layout.column_widths = {sizeof(std::uint16_t), sizeof(PathCount),
                            sizeof(double)};
    layout.entries_per_record = vertex_capacity;
  } else {
    // One byte-addressed blob slot per record, sized for the codec's worst
    // case so a re-encoded record always fits in place. Slots are sparse on
    // disk; only the encoded prefix ever materializes.
    layout.column_widths = {1};
    layout.entries_per_record =
        kBlobHeaderBytes +
        RecordCodec::Get(codec).MaxEncodedBytes(vertex_capacity);
  }
  return layout;
}

DiskBdStore::DiskBdStore(std::unique_ptr<ColumnarFile> file,
                         RecordCodecId codec, std::size_t num_vertices,
                         std::size_t vertex_capacity, VertexId begin,
                         VertexId limit, std::shared_ptr<SharedState> shared)
    : file_(std::move(file)),
      codec_id_(codec),
      num_vertices_(num_vertices),
      vertex_capacity_(vertex_capacity),
      begin_(begin),
      limit_(limit),
      shared_(std::move(shared)) {}

DiskBdStore::~DiskBdStore() { prefetcher_.Stop(); }

VertexId DiskBdStore::source_end() const {
  const auto n = static_cast<VertexId>(num_vertices_);
  return limit_ == kInvalidVertex ? n : std::min(limit_, n);
}

Status DiskBdStore::PersistMeta() {
  SOBC_RETURN_NOT_OK(file_->SetUserValue(num_vertices_));
  SOBC_RETURN_NOT_OK(file_->SetUserAux(begin_, limit_));
  return file_->SetUserAuxHigh(static_cast<std::uint64_t>(codec_id_),
                               vertex_capacity_);
}

Status DiskBdStore::InitSourceRecord(VertexId s) {
  if (codec_id_ != RecordCodecId::kRaw) {
    // A zero-filled blob slot (len == 0) already decodes as the
    // isolated-vertex default; nothing to write.
    return Status::OK();
  }
  // Fresh raw records are zero-filled, which decodes as unreachable/0/0;
  // only the self entries need writing.
  const std::uint16_t self_d = EncodeDistance16Unchecked(0);
  const PathCount self_sigma = 1;
  std::lock_guard<std::mutex> lock(
      shared_->cache.RecordIoLock(RecordIndex(s)));
  SOBC_RETURN_NOT_OK(file_->Write(RecordIndex(s), kColD, s, 1, &self_d));
  return file_->Write(RecordIndex(s), kColSigma, s, 1, &self_sigma);
}

Result<std::unique_ptr<DiskBdStore>> DiskBdStore::Create(
    const std::string& path, std::size_t num_vertices, std::size_t capacity,
    VertexId source_begin, VertexId source_limit,
    const DiskBdStoreOptions& options) {
  if (capacity == 0) capacity = num_vertices + 16;
  if (capacity < num_vertices) {
    return Status::InvalidArgument("capacity below vertex count");
  }
  ColumnarLayout layout = MakeLayout(options.codec, capacity, 0);
  layout.num_records =
      (source_limit == kInvalidVertex ? capacity : source_limit) -
      source_begin;
  if (layout.num_records == 0) layout.num_records = 1;
  auto file = ColumnarFile::Create(path, layout);
  if (!file.ok()) return file.status();
  auto shared = std::make_shared<SharedState>(
      options.cache_bytes, layout.num_records, num_vertices);
  auto store = std::unique_ptr<DiskBdStore>(
      new DiskBdStore(std::move(*file), options.codec, num_vertices, capacity,
                      source_begin, source_limit, std::move(shared)));
  SOBC_RETURN_NOT_OK(store->PersistMeta());
  for (VertexId s = store->begin_; s < store->source_end(); ++s) {
    SOBC_RETURN_NOT_OK(store->InitSourceRecord(s));
  }
  if (options.prefetch) SOBC_RETURN_NOT_OK(store->StartPrefetcher());
  return store;
}

Result<std::unique_ptr<DiskBdStore>> DiskBdStore::Open(
    const std::string& path, const DiskBdStoreOptions& options) {
  auto file = ColumnarFile::Open(path);
  if (!file.ok()) return file.status();
  const auto n = static_cast<std::size_t>((*file)->user_value());
  const auto begin = static_cast<VertexId>((*file)->user_aux0());
  const auto limit = static_cast<VertexId>((*file)->user_aux1());
  const auto codec = static_cast<RecordCodecId>((*file)->user_aux2());
  if (codec != RecordCodecId::kRaw && codec != RecordCodecId::kDelta) {
    return Status::IOError("store written with an unknown record codec");
  }
  // Header v2 always persists the vertex capacity (aux3); a zero here
  // means a corrupt or hand-rolled header.
  const std::size_t vertex_capacity = (*file)->user_aux3();
  if (vertex_capacity == 0) {
    return Status::IOError("store header missing vertex capacity");
  }
  auto shared = std::make_shared<SharedState>(
      options.cache_bytes, (*file)->layout().num_records, n);
  auto store = std::unique_ptr<DiskBdStore>(
      new DiskBdStore(std::move(*file), codec, n, vertex_capacity, begin,
                      limit, std::move(shared)));
  if (options.prefetch) SOBC_RETURN_NOT_OK(store->StartPrefetcher());
  return store;
}

Result<std::unique_ptr<DiskBdStore>> DiskBdStore::OpenShared() const {
  auto file = ColumnarFile::Open(path());
  if (!file.ok()) return file.status();
  return std::unique_ptr<DiskBdStore>(
      new DiskBdStore(std::move(*file), codec_id_, num_vertices_,
                      vertex_capacity_, begin_, limit_, shared_));
}

Status DiskBdStore::StartPrefetcher() {
  auto handle = OpenShared();
  if (!handle.ok()) return handle.status();
  prefetch_handle_ = std::move(*handle);
  prefetcher_.Start([this](VertexId s) { return PrefetchLoad(s); });
  return Status::OK();
}

Prefetcher::LoadResult DiskBdStore::PrefetchLoad(VertexId s) {
  DiskBdStore* handle = prefetch_handle_.get();
  if (handle == nullptr) return Prefetcher::LoadResult::kFailed;
  if (s < handle->begin_ || s >= handle->source_end()) {
    return Prefetcher::LoadResult::kAlreadyCached;  // nothing to do
  }
  if (!handle->CheckFresh().ok()) return Prefetcher::LoadResult::kFailed;
  const std::uint64_t key = handle->RecordIndex(s);
  if (shared_->cache.Contains(key)) {
    return Prefetcher::LoadResult::kAlreadyCached;
  }
  auto rec = std::make_shared<CachedRecord>();
  rec->key = key;
  // Sample validity before reading: if a writer rewrites this record while
  // we decode, the bump makes this stamp stale and Insert discards it.
  rec->generation = shared_->cache.generation();
  rec->epoch = shared_->cache.Epoch(key);
  if (codec_id_ != RecordCodecId::kRaw &&
      shared_->cache.FlushedEpoch(key) != rec->epoch) {
    // Write-back in flight (or the version is cache-only and was just
    // evicted): the file is stale — skip, the compute path handles it.
    return Prefetcher::LoadResult::kAlreadyCached;
  }
  if (!handle->ReadAndDecode(s, rec.get()).ok()) {
    return Prefetcher::LoadResult::kFailed;
  }
  if (!handle->PublishRecord(std::move(rec), /*dirty=*/false).ok()) {
    return Prefetcher::LoadResult::kFailed;
  }
  return Prefetcher::LoadResult::kFetched;
}

void DiskBdStore::Hint(std::span<const VertexId> sources) {
  if (prefetcher_.running()) prefetcher_.Hint(sources);
}

std::size_t DiskBdStore::CachedRecordSlots() const {
  return shared_->cache.RecordSlots(
      sizeof(CachedRecord) +
      num_vertices_ * (sizeof(Distance) + sizeof(PathCount) + sizeof(double)));
}

Status DiskBdStore::CheckSource(VertexId s) const {
  if (s < begin_ || s >= source_end()) {
    return Status::OutOfRange("source " + std::to_string(s) +
                              " outside store partition");
  }
  return CheckFresh();
}

Status DiskBdStore::CheckFresh() const {
  if (num_vertices_ ==
      shared_->current_n.load(std::memory_order_acquire)) {
    return Status::OK();
  }
  // Decoding with a stale vertex count would publish undersized records
  // into the shared cache under the current generation — fail loudly; the
  // owner reopens worker handles after every Grow.
  return Status::FailedPrecondition(
      "stale store handle: the backing file grew; reopen via OpenShared");
}

Status DiskBdStore::ReadAndDecode(VertexId s, CachedRecord* rec) {
  const std::uint64_t key = RecordIndex(s);
  const ColumnarLayout& layout = file_->layout();
  if (codec_id_ == RecordCodecId::kRaw) {
    // One sequential read covers all three columns of the record
    // (Section 5.1: the structures are read sequentially, source by
    // source).
    const std::uint64_t span =
        layout.ColumnOffset(kColDelta) + num_vertices_ * sizeof(double);
    io_buf_.resize(span);
    {
      std::lock_guard<std::mutex> lock(shared_->cache.RecordIoLock(key));
      SOBC_RETURN_NOT_OK(file_->ReadSpan(key, 0, span, io_buf_.data()));
    }
    rec->d.resize(num_vertices_);
    rec->sigma.resize(num_vertices_);
    rec->delta.resize(num_vertices_);
    std::uint16_t raw16 = 0;
    for (std::size_t v = 0; v < num_vertices_; ++v) {
      std::memcpy(&raw16, io_buf_.data() + v * sizeof(std::uint16_t),
                  sizeof(raw16));
      rec->d[v] = DecodeDistance16(raw16);
    }
    std::memcpy(rec->sigma.data(),
                io_buf_.data() + layout.ColumnOffset(kColSigma),
                num_vertices_ * sizeof(PathCount));
    std::memcpy(rec->delta.data(),
                io_buf_.data() + layout.ColumnOffset(kColDelta),
                num_vertices_ * sizeof(double));
    shared_->bytes_read.fetch_add(span, std::memory_order_relaxed);
  } else {
    BlobHeader header;
    {
      std::lock_guard<std::mutex> lock(shared_->cache.RecordIoLock(key));
      SOBC_RETURN_NOT_OK(
          file_->ReadSpan(key, 0, sizeof(header), &header));
      if (header.len >
          layout.entries_per_record - kBlobHeaderBytes) {
        return Status::IOError("corrupt BD blob length");
      }
      io_buf_.resize(header.len);
      if (header.len > 0) {
        SOBC_RETURN_NOT_OK(file_->ReadSpan(key, kBlobHeaderBytes, header.len,
                                           io_buf_.data()));
      }
    }
    if (header.len == 0) {
      FillDefaultRecord(s, num_vertices_, rec);
    } else {
      if (header.n > num_vertices_) {
        return Status::Internal(
            "BD record encoded for a newer vertex count; reopen this "
            "handle");
      }
      // Entries in [header.n, num_vertices_) keep the unreachable default
      // (records grown in place encode the old, smaller vertex count).
      FillDefaultRecord(s, num_vertices_, rec);
      SOBC_RETURN_NOT_OK(RecordCodec::Get(codec_id_).Decode(
          io_buf_.data(), header.len, header.n, rec->d.data(),
          rec->sigma.data(), rec->delta.data()));
    }
    shared_->bytes_read.fetch_add(kBlobHeaderBytes + header.len,
                                  std::memory_order_relaxed);
  }
  shared_->records_loaded.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DiskBdStore::WriteBack(const CachedRecord& rec) {
  // Only the compressed codec defers writes; raw records are never dirty.
  const std::size_t n = rec.d.size();
  RecordCodec::Get(codec_id_).Encode(rec.d.data(), rec.sigma.data(),
                                     rec.delta.data(), n, &writeback_buf_);
  const ColumnarLayout& layout = file_->layout();
  if (writeback_buf_.size() > layout.entries_per_record - kBlobHeaderBytes) {
    return Status::Internal("encoded BD record exceeds its file slot");
  }
  BlobHeader header;
  header.len = static_cast<std::uint32_t>(writeback_buf_.size());
  header.n = static_cast<std::uint32_t>(n);
  const std::uint64_t key = rec.key;
  {
    std::lock_guard<std::mutex> lock(shared_->cache.RecordIoLock(key));
    // Monotonicity guard: a write-back racing a newer version's (both go
    // through this lock) must never regress the file; an already-flushed
    // version needs nothing. Epoch wrap-safe comparison.
    const std::uint32_t flushed = shared_->cache.FlushedEpoch(key);
    if (static_cast<std::int32_t>(rec.epoch - flushed) <= 0) {
      rec.dirty.store(false, std::memory_order_release);
      return Status::OK();
    }
    SOBC_RETURN_NOT_OK(file_->WriteSpan(key, 0, sizeof(header), &header));
    if (!writeback_buf_.empty()) {
      SOBC_RETURN_NOT_OK(file_->WriteSpan(
          key, kBlobHeaderBytes, writeback_buf_.size(),
          writeback_buf_.data()));
    }
    shared_->cache.SetFlushedEpoch(key, rec.epoch);
  }
  rec.dirty.store(false, std::memory_order_release);
  shared_->bytes_written.fetch_add(kBlobHeaderBytes + writeback_buf_.size(),
                                   std::memory_order_relaxed);
  shared_->records_written.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DiskBdStore::PublishRecord(std::shared_ptr<const CachedRecord> rec,
                                  bool dirty) {
  if (dirty) rec->dirty.store(true, std::memory_order_release);
  RecordCache::InsertOutcome outcome = shared_->cache.Insert(rec);
  if (!outcome.retained && dirty) {
    // The cache will not hold this version; the file must.
    SOBC_RETURN_NOT_OK(WriteBack(*rec));
  }
  for (std::size_t i = 0; i < outcome.evicted.size(); ++i) {
    const auto& evicted = outcome.evicted[i];
    if (!evicted->dirty.load(std::memory_order_acquire)) continue;
    const Status st = WriteBack(*evicted);
    if (!st.ok()) {
      // An I/O failure must not strand the only copy of a current version
      // (file readers would wait on its flushed epoch forever): put the
      // victims back — Insert revalidates, so superseded ones drop out
      // harmlessly — and surface the error. Best effort: the re-inserts'
      // own evictions are not chased; the caller is aborting on this
      // error anyway.
      for (std::size_t j = i; j < outcome.evicted.size(); ++j) {
        (void)shared_->cache.Insert(outcome.evicted[j]);
      }
      return st;
    }
  }
  return Status::OK();
}

Status DiskBdStore::FlushDirtyRecords() {
  if (codec_id_ == RecordCodecId::kRaw) return Status::OK();
  std::vector<std::shared_ptr<const CachedRecord>> dirty;
  shared_->cache.CollectDirty(&dirty);
  for (const auto& rec : dirty) {
    SOBC_RETURN_NOT_OK(WriteBack(*rec));
  }
  return Status::OK();
}

Status DiskBdStore::Flush() {
  SOBC_RETURN_NOT_OK(FlushDirtyRecords());
  return file_->Sync();
}

Result<std::shared_ptr<const CachedRecord>> DiskBdStore::LoadDecoded(
    VertexId s) {
  const std::uint64_t key = RecordIndex(s);
  // Bounded wait for the write-back window: between a dirty record's
  // eviction and the evictor's file write, the current version is
  // nowhere readable. The window is microseconds of work, but on an
  // oversubscribed host the evicting thread can stay descheduled for a
  // long time — so escalate from yields to sleeps and only give up after
  // ~10 seconds of wall clock (an exceeded budget means the invariant is
  // actually broken, not that the scheduler was slow).
  constexpr int kYieldAttempts = 256;
  constexpr int kSleepAttempts = 10000;  // x 1ms
  for (int attempt = 0; attempt < kYieldAttempts + kSleepAttempts;
       ++attempt) {
    if (auto rec = shared_->cache.Acquire(key)) return rec;
    auto fresh = std::make_shared<CachedRecord>();
    fresh->key = key;
    fresh->generation = shared_->cache.generation();
    fresh->epoch = shared_->cache.Epoch(key);
    if (codec_id_ != RecordCodecId::kRaw &&
        shared_->cache.FlushedEpoch(key) != fresh->epoch) {
      // The current version exists only in the cache (or an evicted dirty
      // copy's write-back is mid-flight): the file is stale. Wait the
      // window out, then recheck the cache.
      if (attempt < kYieldAttempts) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      continue;
    }
    SOBC_RETURN_NOT_OK(ReadAndDecode(s, fresh.get()));
    SOBC_RETURN_NOT_OK(PublishRecord(fresh, /*dirty=*/false));
    return std::shared_ptr<const CachedRecord>(std::move(fresh));
  }
  return Status::Internal(
      "BD record write-back never landed: key=" + std::to_string(key) +
      " epoch=" + std::to_string(shared_->cache.Epoch(key)) +
      " flushed=" + std::to_string(shared_->cache.FlushedEpoch(key)) +
      " cached=" + std::to_string(shared_->cache.Contains(key)) +
      " gen=" + std::to_string(shared_->cache.generation()));
}

Status DiskBdStore::View(VertexId s, SourceView* view) {
  SOBC_RETURN_NOT_OK(CheckSource(s));
  const std::uint64_t key = RecordIndex(s);
  if (pinned_ == nullptr || pinned_->key != key ||
      !shared_->cache.Current(*pinned_)) {
    auto rec = LoadDecoded(s);
    if (!rec.ok()) return rec.status();
    pinned_ = std::move(*rec);
  }
  view->d = pinned_->d.data();
  view->sigma = pinned_->sigma.data();
  view->delta = pinned_->delta.data();
  view->n = num_vertices_;
  view->preds = nullptr;
  return Status::OK();
}

Status DiskBdStore::ViewBatch(std::span<const VertexId> sources,
                              std::vector<SourceView>* views) {
  views->clear();
  views->reserve(sources.size());
  batch_pins_.clear();
  for (VertexId s : sources) {
    SOBC_RETURN_NOT_OK(CheckSource(s));
    auto rec = LoadDecoded(s);
    if (!rec.ok()) return rec.status();
    SourceView view;
    view.d = (*rec)->d.data();
    view.sigma = (*rec)->sigma.data();
    view.delta = (*rec)->delta.data();
    view.n = num_vertices_;
    view.preds = nullptr;
    views->push_back(view);
    batch_pins_.push_back(std::move(*rec));
  }
  return Status::OK();
}

Status DiskBdStore::WriteRecord(VertexId s, const CachedRecord& rec,
                                std::size_t span_first,
                                std::size_t span_count) {
  if (codec_id_ != RecordCodecId::kRaw) {
    // Variable-length codecs have exactly one encode+flush path, which
    // also maintains the flushed-epoch bookkeeping.
    return WriteBack(rec);
  }
  // In-place writeback: one span per column covering the touched range.
  const std::uint64_t key = RecordIndex(s);
  raw16_buf_.resize(span_count);
  for (std::size_t i = 0; i < span_count; ++i) {
    raw16_buf_[i] = EncodeDistance16Unchecked(rec.d[span_first + i]);
  }
  std::lock_guard<std::mutex> lock(shared_->cache.RecordIoLock(key));
  SOBC_RETURN_NOT_OK(
      file_->Write(key, kColD, span_first, span_count, raw16_buf_.data()));
  SOBC_RETURN_NOT_OK(file_->Write(key, kColSigma, span_first, span_count,
                                  rec.sigma.data() + span_first));
  SOBC_RETURN_NOT_OK(file_->Write(key, kColDelta, span_first, span_count,
                                  rec.delta.data() + span_first));
  shared_->bytes_written.fetch_add(span_count * kRawBytesPerVertex,
                                   std::memory_order_relaxed);
  shared_->records_written.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Status DiskBdStore::Apply(VertexId s, const std::vector<BdPatch>& patches,
                          const PredPatchList& pred_patches) {
  if (!pred_patches.empty()) {
    return Status::InvalidArgument(
        "DiskBdStore does not keep predecessor lists");
  }
  SOBC_RETURN_NOT_OK(CheckSource(s));
  if (patches.empty()) return Status::OK();
  const std::uint64_t key = RecordIndex(s);
  std::shared_ptr<const CachedRecord> current = pinned_;
  if (current == nullptr || current->key != key ||
      !shared_->cache.Current(*current)) {
    auto rec = LoadDecoded(s);
    if (!rec.ok()) return rec.status();
    current = std::move(*rec);
  }
  // Copy-on-write: never mutate a published record — other handles (and
  // the prefetcher) may hold pins on it.
  auto next = std::make_shared<CachedRecord>(*current);
  VertexId lo = patches.front().vertex;
  VertexId hi = lo;
  for (const BdPatch& p : patches) {
    if (codec_id_ == RecordCodecId::kRaw) {
      SOBC_RETURN_NOT_OK(EncodeDistance16(p.d).status());
    }
    next->d[p.vertex] = p.d;
    next->sigma[p.vertex] = p.sigma;
    next->delta[p.vertex] = p.delta;
    lo = std::min(lo, p.vertex);
    hi = std::max(hi, p.vertex);
  }
  if (codec_id_ == RecordCodecId::kRaw) {
    // Write-through: raw patches are cheap in-place span writes.
    SOBC_RETURN_NOT_OK(WriteRecord(s, *next, lo, hi - lo + 1));
  }
  next->epoch = shared_->cache.BumpEpoch(key);
  next->generation = shared_->cache.generation();
  // The compressed codec is write-back: the new version lives (dirty) in
  // the shared cache and is encoded to the file on eviction or Flush —
  // churn rewrites of a hot record collapse into one encode.
  SOBC_RETURN_NOT_OK(
      PublishRecord(next, /*dirty=*/codec_id_ != RecordCodecId::kRaw));
  pinned_ = std::move(next);
  return Status::OK();
}

Status DiskBdStore::PeekDistances(VertexId s, VertexId a, VertexId b,
                                  Distance* da, Distance* db) {
  SOBC_RETURN_NOT_OK(CheckSource(s));
  const std::uint64_t key = RecordIndex(s);
  if (pinned_ != nullptr && pinned_->key == key &&
      shared_->cache.Current(*pinned_)) {
    *da = pinned_->d[a];
    *db = pinned_->d[b];
    return Status::OK();
  }
  if (auto rec = shared_->cache.Acquire(key)) {
    if (a < rec->d.size() && b < rec->d.size()) {
      *da = rec->d[a];
      *db = rec->d[b];
      return Status::OK();
    }
  }
  if (codec_id_ == RecordCodecId::kRaw) {
    // Two positioned entry reads back the dd == 0 skip of Section 5.1:
    // skipped sources never load their record.
    std::uint16_t raw_a = 0;
    std::uint16_t raw_b = 0;
    std::lock_guard<std::mutex> lock(shared_->cache.RecordIoLock(key));
    SOBC_RETURN_NOT_OK(file_->Read(key, kColD, a, 1, &raw_a));
    SOBC_RETURN_NOT_OK(file_->Read(key, kColD, b, 1, &raw_b));
    *da = DecodeDistance16(raw_a);
    *db = DecodeDistance16(raw_b);
    shared_->bytes_read.fetch_add(2 * sizeof(std::uint16_t),
                                  std::memory_order_relaxed);
    return Status::OK();
  }
  if (shared_->cache.FlushedEpoch(key) != shared_->cache.Epoch(key)) {
    // Write-back invariant: the current version is not on the file (it
    // lives in the cache, or an evicted copy's write-back is in flight).
    // Load through the cache path, which waits the window out.
    auto rec = LoadDecoded(s);
    if (!rec.ok()) return rec.status();
    *da = (*rec)->d[a];
    *db = (*rec)->d[b];
    return Status::OK();
  }
  // Delta codec: decode the d section only, and only up to max(a, b). The
  // varint stream is sequential, but its prefix is a fraction of the
  // record (and of the raw d column).
  const std::size_t limit = static_cast<std::size_t>(std::max(a, b)) + 1;
  BlobHeader header;
  std::uint64_t prefix = 0;
  {
    std::lock_guard<std::mutex> lock(shared_->cache.RecordIoLock(key));
    SOBC_RETURN_NOT_OK(file_->ReadSpan(key, 0, sizeof(header), &header));
    if (header.len >
        file_->layout().entries_per_record - kBlobHeaderBytes) {
      return Status::IOError("corrupt BD blob length");
    }
    // 5 bytes bounds one zigzag-varint distance delta.
    prefix = std::min<std::uint64_t>(header.len, 5 * limit + 10);
    io_buf_.resize(prefix);
    if (prefix > 0) {
      SOBC_RETURN_NOT_OK(
          file_->ReadSpan(key, kBlobHeaderBytes, prefix, io_buf_.data()));
    }
  }
  shared_->bytes_read.fetch_add(kBlobHeaderBytes + prefix,
                                std::memory_order_relaxed);
  if (header.len == 0) {
    *da = a == s ? 0 : kUnreachable;
    *db = b == s ? 0 : kUnreachable;
    return Status::OK();
  }
  const std::size_t decodable =
      std::min(limit, static_cast<std::size_t>(header.n));
  peek_d_.resize(decodable);
  SOBC_RETURN_NOT_OK(RecordCodec::Get(codec_id_).DecodeDistances(
      io_buf_.data(), prefix, header.n, decodable, peek_d_.data()));
  *da = a < decodable ? peek_d_[a] : kUnreachable;
  *db = b < decodable ? peek_d_[b] : kUnreachable;
  return Status::OK();
}

Status DiskBdStore::PutInitial(VertexId s, SourceBcData&& data) {
  if (s < begin_ || (limit_ != kInvalidVertex && s >= limit_)) {
    return Status::OutOfRange("source " + std::to_string(s) +
                              " outside store partition");
  }
  const std::size_t n = data.d.size();
  if (n > vertex_capacity_ || RecordIndex(s) >= record_capacity()) {
    return Status::OutOfRange("record outside store capacity");
  }
  SOBC_RETURN_NOT_OK(CheckFresh());
  if (n > num_vertices_) {
    num_vertices_ = n;
    SOBC_RETURN_NOT_OK(PersistMeta());
    // Records decoded under the smaller vertex count are undersized now
    // (dirty ones must reach the file before the cache drops them).
    SOBC_RETURN_NOT_OK(FlushDirtyRecords());
    shared_->cache.InvalidateAll(record_capacity());
    shared_->current_n.store(num_vertices_, std::memory_order_release);
  }
  const std::uint64_t key = RecordIndex(s);
  auto rec = std::make_shared<CachedRecord>();
  rec->key = key;
  rec->d = std::move(data.d);
  rec->sigma = std::move(data.sigma);
  rec->delta = std::move(data.delta);
  rec->d.resize(num_vertices_, kUnreachable);
  rec->sigma.resize(num_vertices_, 0);
  rec->delta.resize(num_vertices_, 0.0);
  if (codec_id_ == RecordCodecId::kRaw) {
    for (std::size_t v = 0; v < num_vertices_; ++v) {
      SOBC_RETURN_NOT_OK(EncodeDistance16(rec->d[v]).status());
    }
    SOBC_RETURN_NOT_OK(WriteRecord(s, *rec, 0, num_vertices_));
  }
  rec->epoch = shared_->cache.BumpEpoch(key);
  rec->generation = shared_->cache.generation();
  SOBC_RETURN_NOT_OK(
      PublishRecord(rec, /*dirty=*/codec_id_ != RecordCodecId::kRaw));
  pinned_ = std::move(rec);
  return Status::OK();
}

Status DiskBdStore::Rebuild(std::size_t vertex_capacity,
                            std::size_t record_capacity) {
  // Stream every live record into a larger file, then swap it in place.
  // Caller has quiesced all other handles and the prefetcher.
  const std::string new_path = file_->path() + ".grow";
  ColumnarLayout layout =
      MakeLayout(codec_id_, vertex_capacity, record_capacity);
  auto new_file = ColumnarFile::Create(new_path, layout);
  if (!new_file.ok()) return new_file.status();
  CachedRecord scratch;
  for (VertexId s = begin_; s < source_end(); ++s) {
    SOBC_RETURN_NOT_OK(ReadAndDecode(s, &scratch));
    const std::uint64_t key = RecordIndex(s);
    if (codec_id_ == RecordCodecId::kRaw) {
      raw16_buf_.resize(num_vertices_);
      for (std::size_t v = 0; v < num_vertices_; ++v) {
        raw16_buf_[v] = EncodeDistance16Unchecked(scratch.d[v]);
      }
      SOBC_RETURN_NOT_OK((*new_file)->Write(key, kColD, 0, num_vertices_,
                                            raw16_buf_.data()));
      SOBC_RETURN_NOT_OK((*new_file)->Write(key, kColSigma, 0, num_vertices_,
                                            scratch.sigma.data()));
      SOBC_RETURN_NOT_OK((*new_file)->Write(key, kColDelta, 0, num_vertices_,
                                            scratch.delta.data()));
    } else {
      RecordCodec::Get(codec_id_).Encode(scratch.d.data(),
                                         scratch.sigma.data(),
                                         scratch.delta.data(), num_vertices_,
                                         &io_buf_);
      BlobHeader header;
      header.len = static_cast<std::uint32_t>(io_buf_.size());
      header.n = static_cast<std::uint32_t>(num_vertices_);
      SOBC_RETURN_NOT_OK(
          (*new_file)->WriteSpan(key, 0, sizeof(header), &header));
      if (!io_buf_.empty()) {
        SOBC_RETURN_NOT_OK((*new_file)->WriteSpan(
            key, kBlobHeaderBytes, io_buf_.size(), io_buf_.data()));
      }
    }
  }
  const std::string path = file_->path();
  file_.reset();
  if (std::rename(new_path.c_str(), path.c_str()) != 0) {
    return Status::IOError("rename failed for " + new_path);
  }
  auto reopened = ColumnarFile::Open(path);
  if (!reopened.ok()) return reopened.status();
  file_ = std::move(*reopened);
  vertex_capacity_ = vertex_capacity;
  return PersistMeta();
}

Status DiskBdStore::Grow(std::size_t new_n) {
  SOBC_RETURN_NOT_OK(CheckFresh());
  if (new_n < num_vertices_) {
    return Status::InvalidArgument("store cannot shrink");
  }
  // The epoch array may be resized and the backing file swapped below;
  // no background fetch may be in flight, and every dirty record must
  // reach the file before the cache generation retires it (the rebuild
  // below streams from the file).
  prefetcher_.Quiesce();
  SOBC_RETURN_NOT_OK(FlushDirtyRecords());
  const std::size_t old_end = source_end();
  const std::size_t new_end =
      limit_ == kInvalidVertex ? new_n : std::min<std::size_t>(limit_, new_n);
  const bool need_vertex_room = new_n > vertex_capacity_;
  const bool need_record_room =
      new_end > begin_ && new_end - begin_ > record_capacity();
  if (need_vertex_room || need_record_room) {
    const std::size_t vcap = need_vertex_room
                                 ? std::max(new_n + 16, vertex_capacity_ * 2)
                                 : vertex_capacity_;
    const std::size_t rcap =
        need_record_room
            ? std::max<std::size_t>(new_end - begin_ + 16,
                                    record_capacity() * 2)
            : record_capacity();
    SOBC_RETURN_NOT_OK(Rebuild(vcap, rcap));
  }
  num_vertices_ = new_n;
  // Every decoded record (here and in every shared handle) is sized for
  // the old vertex count: retire them all at once, and publish the new
  // count so handles that missed this Grow fail loudly until reopened.
  shared_->cache.InvalidateAll(record_capacity());
  shared_->current_n.store(num_vertices_, std::memory_order_release);
  pinned_.reset();
  batch_pins_.clear();
  for (std::size_t s = std::max<std::size_t>(old_end, begin_); s < new_end;
       ++s) {
    SOBC_RETURN_NOT_OK(InitSourceRecord(static_cast<VertexId>(s)));
  }
  SOBC_RETURN_NOT_OK(PersistMeta());
  if (prefetcher_.running()) {
    // The loader's private handle decodes with its own vertex count (and
    // possibly a renamed-over file); refresh it against the new layout.
    auto handle = OpenShared();
    if (!handle.ok()) return handle.status();
    prefetch_handle_ = std::move(*handle);
  }
  return Status::OK();
}

DiskIoStats DiskBdStore::io_stats() const {
  DiskIoStats stats;
  stats.bytes_read = shared_->bytes_read.load(std::memory_order_relaxed);
  stats.bytes_written =
      shared_->bytes_written.load(std::memory_order_relaxed);
  stats.records_loaded =
      shared_->records_loaded.load(std::memory_order_relaxed);
  stats.records_written =
      shared_->records_written.load(std::memory_order_relaxed);
  return stats;
}

Result<StoreFootprint> DiskBdStore::Footprint() {
  // The scan below reads encoded lengths off the file; land dirty cached
  // records first so the report reflects the current state.
  SOBC_RETURN_NOT_OK(FlushDirtyRecords());
  StoreFootprint fp;
  fp.codec = codec_id_;
  fp.num_vertices = num_vertices_;
  fp.live_records = source_end() > begin_ ? source_end() - begin_ : 0;
  struct stat st {};
  if (::stat(path().c_str(), &st) == 0) {
    fp.file_logical_bytes = static_cast<std::uint64_t>(st.st_size);
    fp.file_physical_bytes = static_cast<std::uint64_t>(st.st_blocks) * 512;
  }
  fp.decoded_record_bytes =
      num_vertices_ *
      (sizeof(Distance) + sizeof(PathCount) + sizeof(double));
  fp.min_viable_cache_bytes = RecordCache::kShards * fp.decoded_record_bytes;
  const std::uint64_t raw_record_bytes = num_vertices_ * kRawBytesPerVertex;
  fp.raw_record_bytes = raw_record_bytes;
  if (codec_id_ == RecordCodecId::kRaw) {
    fp.encoded_payload_bytes = fp.live_records * raw_record_bytes;
  } else {
    for (std::uint64_t r = 0; r < fp.live_records; ++r) {
      BlobHeader header;
      std::lock_guard<std::mutex> lock(shared_->cache.RecordIoLock(r));
      SOBC_RETURN_NOT_OK(file_->ReadSpan(r, 0, sizeof(header), &header));
      fp.encoded_payload_bytes += kBlobHeaderBytes + header.len;
    }
  }
  if (fp.live_records > 0) {
    fp.bytes_per_source = static_cast<double>(fp.encoded_payload_bytes) /
                          static_cast<double>(fp.live_records);
  }
  if (raw_record_bytes > 0) {
    fp.compression_ratio =
        fp.bytes_per_source / static_cast<double>(raw_record_bytes);
  }
  fp.cache = shared_->cache.stats();
  return fp;
}

}  // namespace sobc

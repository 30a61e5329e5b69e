#ifndef SOBC_BC_BD_STORE_DISK_H_
#define SOBC_BC_BD_STORE_DISK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bc/bd_store.h"
#include "storage/columnar_file.h"
#include "storage/prefetcher.h"
#include "storage/record_cache.h"
#include "storage/record_codec.h"

namespace sobc {

/// Tuning knobs of the out-of-core storage engine. The codec is chosen at
/// Create time and recorded in the file header; Open always follows the
/// header. Cache and prefetch are per-deployment runtime choices.
struct DiskBdStoreOptions {
  RecordCodecId codec = RecordCodecId::kRaw;
  /// Budget for the shared hot-record cache of decoded records (all
  /// handles of one backing file share it). 0 disables caching.
  std::size_t cache_bytes = std::size_t{64} << 20;
  /// Run a background thread on this (root) handle that decodes hinted
  /// records into the shared cache ahead of the compute path.
  bool prefetch = false;
};

/// Aggregate file-I/O accounting shared by every handle of one store.
struct DiskIoStats {
  std::uint64_t bytes_read = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t records_loaded = 0;
  std::uint64_t records_written = 0;
};

/// Operator-facing sizing report (`sobc_cli stats --store=...`).
struct StoreFootprint {
  RecordCodecId codec = RecordCodecId::kRaw;
  std::uint64_t num_vertices = 0;
  std::uint64_t live_records = 0;
  std::uint64_t file_logical_bytes = 0;   // st_size (slots are sparse)
  std::uint64_t file_physical_bytes = 0;  // st_blocks * 512
  std::uint64_t encoded_payload_bytes = 0;  // sum of live record encodings
  std::uint64_t decoded_record_bytes = 0;   // one decoded record's footprint
  /// One record under the raw fixed-width layout — the baseline
  /// compression_ratio is measured against.
  std::uint64_t raw_record_bytes = 0;
  /// Smallest cache budget whose shards can hold one decoded record
  /// (cache sharding makes anything below this effectively uncached).
  std::uint64_t min_viable_cache_bytes = 0;
  double bytes_per_source = 0.0;
  /// encoded bytes per source over the raw fixed-width equivalent
  /// (2 + 8 + 8 bytes per vertex); 1.0 for the raw codec.
  double compression_ratio = 1.0;
  RecordCache::Stats cache;
};

/// Out-of-core BD store (the paper's DO variant, Section 5.1), layered over
/// the storage engine:
///
///   record codec   one fixed-size file slot per source. kRaw keeps the
///                  original three fixed-width columns (16-bit biased d,
///                  64-bit sigma, 64-bit delta) and patches spans in
///                  place; kDelta stores one variable-length blob
///                  ([u32 len][u32 n][payload], len == 0 decodes as the
///                  isolated-vertex default) and rewrites it per Apply.
///   shared cache   decoded records live in an epoch-validated LRU shared
///                  by every handle of the file (RecordCache). Writers
///                  publish copy-on-write records and bump the record
///                  epoch, so handles never need a manual invalidation
///                  call — the InvalidateCache() protocol this replaced.
///   prefetcher     the root handle can run a background thread (Hint)
///                  that decodes upcoming records into the shared cache,
///                  overlapping read-ahead with compute on the DO hot
///                  loop.
///
/// A store may hold a contiguous source partition only — one mapper's
/// share in the parallel embodiment (Section 5.2). A single handle is not
/// thread-safe; parallel workers over one file take OpenShared() handles
/// (same cache and epochs) and touch disjoint source ranges per drain.
class DiskBdStore : public BdStore {
 public:
  /// Creates a fresh store file holding sources [source_begin,
  /// source_limit) of a graph with `num_vertices` vertices. The default
  /// covers every source. `capacity` (default num_vertices + 16) reserves
  /// vertex room so new arrivals do not force an immediate rebuild;
  /// source_limit == kInvalidVertex keeps the partition open-ended (it
  /// adopts all future sources).
  static Result<std::unique_ptr<DiskBdStore>> Create(
      const std::string& path, std::size_t num_vertices,
      std::size_t capacity = 0, VertexId source_begin = 0,
      VertexId source_limit = kInvalidVertex,
      const DiskBdStoreOptions& options = {});

  /// Opens a root handle onto an existing store file (fresh shared state;
  /// the codec comes from the file header, options.codec is ignored).
  static Result<std::unique_ptr<DiskBdStore>> Open(
      const std::string& path, const DiskBdStoreOptions& options = {});

  /// Opens an additional handle sharing this handle's record cache and
  /// epochs. This is how per-worker handles must be made: handles with
  /// separate shared state cannot see each other's epoch bumps. The new
  /// handle never runs its own prefetcher.
  Result<std::unique_ptr<DiskBdStore>> OpenShared() const;

  ~DiskBdStore() override;

  std::size_t num_vertices() const override { return num_vertices_; }
  VertexId source_begin() const override { return begin_; }
  VertexId source_end() const override;
  PredMode pred_mode() const override { return PredMode::kScanNeighbors; }

  Status View(VertexId s, SourceView* view) override;
  Status ViewBatch(std::span<const VertexId> sources,
                   std::vector<SourceView>* views) override;
  Status Apply(VertexId s, const std::vector<BdPatch>& patches,
               const PredPatchList& pred_patches) override;
  Status PeekDistances(VertexId s, VertexId a, VertexId b, Distance* da,
                       Distance* db) override;
  Status PutInitial(VertexId s, SourceBcData&& data) override;
  Status Grow(std::size_t new_n) override;
  void Hint(std::span<const VertexId> sources) override;

  /// Encodes every dirty cached record to the file (the compressed codec
  /// defers record writes through the shared cache), then flushes mapped
  /// pages and file metadata to stable storage.
  Status Flush() override;

  RecordCodecId codec() const { return codec_id_; }
  /// Raw partition limit from the file header — kInvalidVertex when the
  /// partition is open-ended. source_end() clamps to the vertex count;
  /// this does not, so a resumed shard can restore its scoping options.
  VertexId source_limit() const { return limit_; }
  std::size_t vertex_capacity() const { return vertex_capacity_; }
  std::size_t record_capacity() const { return file_->layout().num_records; }
  const std::string& path() const { return file_->path(); }

  RecordCache::Stats cache_stats() const { return shared_->cache.stats(); }
  /// Decoded records of the current vertex count the shared cache holds
  /// when full (0 when caching is off or one record outgrows a shard) —
  /// the budget the batch drain sizes its chunks and read-ahead by.
  std::size_t CachedRecordSlots() const;
  DiskIoStats io_stats() const;
  PrefetchStats prefetch_stats() const { return prefetcher_.stats(); }
  bool prefetch_enabled() const { return prefetcher_.running(); }

  /// The sizing report. Writes back dirty records first so the scanned
  /// encoded lengths reflect the current state (cheap otherwise: header
  /// prefixes only).
  Result<StoreFootprint> Footprint();

 private:
  // Column indices of the kRaw layout.
  static constexpr std::size_t kColD = 0;
  static constexpr std::size_t kColSigma = 1;
  static constexpr std::size_t kColDelta = 2;
  // Blob slot header of the kDelta layout.
  static constexpr std::size_t kBlobHeaderBytes = 8;

  struct SharedState {
    SharedState(std::size_t cache_bytes, std::size_t num_records,
                std::uint64_t num_vertices)
        : cache(cache_bytes, num_records), current_n(num_vertices) {}
    RecordCache cache;
    /// Authoritative vertex count of the backing file. A handle whose own
    /// count disagrees is stale (its owner missed a Grow) and must be
    /// reopened; its reads fail loudly instead of decoding undersized
    /// records into the shared cache.
    std::atomic<std::uint64_t> current_n;
    std::atomic<std::uint64_t> bytes_read{0};
    std::atomic<std::uint64_t> bytes_written{0};
    std::atomic<std::uint64_t> records_loaded{0};
    std::atomic<std::uint64_t> records_written{0};
  };

  DiskBdStore(std::unique_ptr<ColumnarFile> file, RecordCodecId codec,
              std::size_t num_vertices, std::size_t vertex_capacity,
              VertexId begin, VertexId limit,
              std::shared_ptr<SharedState> shared);

  static ColumnarLayout MakeLayout(RecordCodecId codec,
                                   std::size_t vertex_capacity,
                                   std::uint64_t num_records);

  Status CheckSource(VertexId s) const;
  /// Stale-handle guard: see SharedState::current_n.
  Status CheckFresh() const;
  std::uint64_t RecordIndex(VertexId s) const { return s - begin_; }

  /// Reads + decodes record `s` from the file into `rec` (columns sized to
  /// num_vertices_). Thread-compatible: safe concurrently across handles
  /// because byte access goes through the cache's record I/O stripe lock.
  Status ReadAndDecode(VertexId s, CachedRecord* rec);
  /// Current decoded record of s: pin, cache, or file (insert on miss).
  Result<std::shared_ptr<const CachedRecord>> LoadDecoded(VertexId s);
  /// Writes `rec` (already patched) to the file slot of s.
  Status WriteRecord(VertexId s, const CachedRecord& rec,
                     std::size_t span_first, std::size_t span_count);
  /// Encodes one (possibly evicted) dirty record to its file slot, guarded
  /// by the flushed-epoch so an older version never overwrites a newer
  /// one. Safe from any thread holding nothing (takes the I/O stripe).
  Status WriteBack(const CachedRecord& rec);
  /// Publishes a freshly written record version: marks it dirty when the
  /// codec defers writes, inserts it into the shared cache, and writes
  /// back whatever the insert could not retain (the record itself, or
  /// dirty evictees).
  Status PublishRecord(std::shared_ptr<const CachedRecord> rec, bool dirty);
  /// Writes back every resident dirty record (Flush / pre-Grow barrier).
  Status FlushDirtyRecords();
  Status InitSourceRecord(VertexId s);
  Status Rebuild(std::size_t vertex_capacity, std::size_t record_capacity);
  Status PersistMeta();
  Status StartPrefetcher();
  Prefetcher::LoadResult PrefetchLoad(VertexId s);

  std::unique_ptr<ColumnarFile> file_;
  RecordCodecId codec_id_;
  std::size_t num_vertices_;
  std::size_t vertex_capacity_;
  VertexId begin_;
  VertexId limit_;  // kInvalidVertex = open-ended
  std::shared_ptr<SharedState> shared_;

  /// The record View() last served; views point into it. Replaced (never
  /// mutated) by Apply/PutInitial — the copy-on-write protocol that keeps
  /// records pinned by other handles consistent.
  std::shared_ptr<const CachedRecord> pinned_;
  std::vector<std::shared_ptr<const CachedRecord>> batch_pins_;

  // Scratch (per-handle; a handle is single-threaded by contract).
  std::vector<std::uint8_t> io_buf_;
  std::vector<std::uint8_t> writeback_buf_;
  std::vector<std::uint16_t> raw16_buf_;
  std::vector<Distance> peek_d_;

  // Root-handle prefetch machinery. Declared after shared_ and destroyed
  // first (Stop joins before the loader's handle dies).
  std::unique_ptr<DiskBdStore> prefetch_handle_;
  Prefetcher prefetcher_;
};

}  // namespace sobc

#endif  // SOBC_BC_BD_STORE_DISK_H_

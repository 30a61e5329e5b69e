#ifndef SOBC_STORAGE_RECORD_CACHE_H_
#define SOBC_STORAGE_RECORD_CACHE_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "bc/bc_types.h"

namespace sobc {

/// One decoded BD record, immutable once published through the cache.
/// Writers never mutate a published record: Apply builds a patched copy,
/// writes it to the file, bumps the record's epoch, and inserts the copy —
/// so any pin held by another handle (or by the prefetcher) keeps observing
/// the consistent pre-update record, and the epoch mismatch retires it from
/// the cache on its next lookup.
struct CachedRecord {
  std::uint64_t key = 0;         // record index within the backing file
  std::uint64_t generation = 0;  // cache generation it was decoded under
  std::uint32_t epoch = 0;       // record epoch it was decoded under
  std::vector<Distance> d;
  std::vector<PathCount> sigma;
  std::vector<double> delta;
  /// Write-back state (the compressed codec defers file writes): true
  /// while this version exists only in the cache. Cleared by the thread
  /// that encodes it to the file; the columns themselves stay immutable.
  mutable std::atomic<bool> dirty{false};

  CachedRecord() = default;
  /// The copy-on-write copy starts clean; everything else carries over.
  CachedRecord(const CachedRecord& other)
      : key(other.key),
        generation(other.generation),
        epoch(other.epoch),
        d(other.d),
        sigma(other.sigma),
        delta(other.delta) {}
  CachedRecord& operator=(const CachedRecord&) = delete;

  std::size_t ByteSize() const {
    return sizeof(CachedRecord) + d.capacity() * sizeof(Distance) +
           sigma.capacity() * sizeof(PathCount) +
           delta.capacity() * sizeof(double);
  }
};

/// The shared state behind every handle of one DiskBdStore backing file:
/// a sharded LRU of decoded records plus the validation metadata that makes
/// sharing safe without any manual invalidation protocol.
///
///   * per-record epochs — bumped by the writer after each Apply/PutInitial
///     file write; a cached record is served only while its stamped epoch
///     equals the record's current epoch, so a handle can never read another
///     handle's stale decode (this replaces the deleted
///     BdStore::InvalidateCache discipline);
///   * a generation counter — bumped by Grow (record length and file layout
///     change), retiring every cached record at once;
///   * striped record-I/O locks — the prefetcher decodes records ahead of
///     the compute workers over the same mmap, so byte-level file access to
///     one record is serialized through a small mutex stripe (disjoint
///     records almost never share a stripe, and writers of one drain touch
///     disjoint records by construction).
///
/// All methods are thread-safe except InvalidateAll, which the owner must
/// call quiesced (no concurrent readers/writers/prefetch — the discipline
/// Grow already follows).
class RecordCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t stale_discards = 0;  // inserts rejected by epoch/gen check
    /// Inserts rejected because one decoded record exceeds a whole
    /// shard's budget (capacity/16): the cache is effectively disabled
    /// for this record size — raise the budget to at least 16x the
    /// decoded record size.
    std::uint64_t oversize_rejects = 0;
    std::uint64_t bytes = 0;           // decoded bytes currently resident
    std::uint64_t entries = 0;
    std::uint64_t capacity_bytes = 0;

    double HitRate() const {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(total);
    }
  };

  /// `capacity_bytes` bounds the decoded-record footprint (0 = cache every
  /// lookup misses, epochs still tracked); `num_records` sizes the epoch
  /// array (the backing file's record capacity).
  RecordCache(std::size_t capacity_bytes, std::size_t num_records);

  // --- record epochs -------------------------------------------------------

  std::uint32_t Epoch(std::uint64_t key) const {
    return epochs_[key].load(std::memory_order_acquire);
  }
  /// Called by a writer after its file write completed; returns the new
  /// epoch. Readers that sampled the old epoch discard what they decoded.
  std::uint32_t BumpEpoch(std::uint64_t key) {
    return epochs_[key].fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Last record version encoded to the backing file. While a dirty
  /// version sits in the cache, FlushedEpoch(key) < Epoch(key); the two
  /// are equal exactly when the file holds the current version — the
  /// invariant file readers wait on (a miss with flushed < epoch means an
  /// evicted dirty record's write-back is in flight).
  std::uint32_t FlushedEpoch(std::uint64_t key) const {
    return flushed_[key].load(std::memory_order_acquire);
  }
  /// Called under the record's I/O stripe lock after writing its bytes.
  void SetFlushedEpoch(std::uint64_t key, std::uint32_t epoch) {
    flushed_[key].store(epoch, std::memory_order_release);
  }

  /// Retires every cached record and resizes the epoch array (Grow path).
  /// Caller must be quiesced AND have flushed dirty records first — this
  /// drops them; see class comment.
  void InvalidateAll(std::size_t num_records);

  /// Stripe lock serializing byte-level file I/O on one record.
  std::mutex& RecordIoLock(std::uint64_t key) {
    return io_locks_[key % kIoStripes];
  }

  // --- decoded-record LRU --------------------------------------------------

  /// Returns the cached record iff its stamped epoch/generation are still
  /// current (touching LRU), nullptr otherwise (stale entries are erased).
  std::shared_ptr<const CachedRecord> Acquire(std::uint64_t key);

  /// Like Acquire but without LRU/stat side effects — the prefetcher's
  /// cheap "already decoded?" probe.
  bool Contains(std::uint64_t key) const;

  struct InsertOutcome {
    /// False when the record was not kept (stale stamp, or larger than a
    /// shard's budget) — a dirty record the cache did not retain must be
    /// written back by the caller immediately.
    bool retained = false;
    /// Records evicted to make room; the caller writes back the dirty
    /// ones (the cache has no file access).
    std::vector<std::shared_ptr<const CachedRecord>> evicted;
  };

  /// Publishes a decoded record. Discarded (retained == false) when its
  /// stamped epoch/generation are already stale (a writer overtook the
  /// decode) or it exceeds a shard's whole budget.
  InsertOutcome Insert(std::shared_ptr<const CachedRecord> record);

  /// Snapshots every resident dirty record (write-back flush).
  void CollectDirty(
      std::vector<std::shared_ptr<const CachedRecord>>* out) const;

  /// Whether `record` was decoded under the current generation and the
  /// record's current epoch — i.e. no writer has superseded it.
  bool Current(const CachedRecord& record) const {
    return record.generation == generation() &&
           record.epoch == Epoch(record.key);
  }

  Stats stats() const;
  std::size_t capacity_bytes() const { return capacity_bytes_; }

  /// Records of `record_bytes` (CachedRecord::ByteSize, > 0) the cache
  /// holds when full: whole records per shard times the shard count.
  std::size_t RecordSlots(std::size_t record_bytes) const {
    return kShards * (shard_capacity_ / record_bytes);
  }

  /// Shard count — one decoded record must fit capacity/kShards to be
  /// cacheable at all (see Stats::oversize_rejects).
  static constexpr std::size_t kShards = 16;

 private:
  static constexpr std::size_t kIoStripes = 64;

  struct Shard {
    mutable std::mutex mu;
    // LRU list front = most recent; map points into the list.
    std::list<std::shared_ptr<const CachedRecord>> lru;
    std::unordered_map<
        std::uint64_t,
        std::list<std::shared_ptr<const CachedRecord>>::iterator>
        map;
    std::size_t bytes = 0;
  };

  Shard& ShardOf(std::uint64_t key) { return shards_[key % kShards]; }
  const Shard& ShardOf(std::uint64_t key) const {
    return shards_[key % kShards];
  }
  void EraseLocked(Shard& shard,
                   std::unordered_map<std::uint64_t,
                                      std::list<std::shared_ptr<
                                          const CachedRecord>>::iterator>::
                       iterator it);

  std::size_t capacity_bytes_;
  std::size_t shard_capacity_;
  std::array<Shard, kShards> shards_;
  std::array<std::mutex, kIoStripes> io_locks_;

  std::unique_ptr<std::atomic<std::uint32_t>[]> epochs_;
  std::unique_ptr<std::atomic<std::uint32_t>[]> flushed_;
  std::size_t num_records_ = 0;
  std::atomic<std::uint64_t> generation_{0};

  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inserts_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> stale_discards_{0};
  std::atomic<std::uint64_t> oversize_rejects_{0};
};

}  // namespace sobc

#endif  // SOBC_STORAGE_RECORD_CACHE_H_

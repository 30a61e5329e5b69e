#ifndef PERFBENCH_COUNTING_H_
#define PERFBENCH_COUNTING_H_

// Decorators the traced run hands to the library in place of the real
// store and transport. They forward every call unchanged and time or
// count it, which is how storage time inside the engine and wire traffic
// inside the cluster plane are seen from outside the program.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bc/bd_store.h"
#include "cluster/transport.h"

namespace perfbench {

/// Forwards to `inner` and accumulates the time spent in reads
/// (View/ViewBatch/PeekDistances) and writes (Apply); Hint is an
/// enqueue outside the engine calls and is forwarded untimed. One instance
/// per engine thread, so the counters need no synchronization.
class CountingStore : public sobc::BdStore {
 public:
  explicit CountingStore(sobc::BdStore* inner) : inner_(inner) {}

  std::size_t num_vertices() const override { return inner_->num_vertices(); }
  sobc::VertexId source_begin() const override {
    return inner_->source_begin();
  }
  sobc::VertexId source_end() const override { return inner_->source_end(); }
  sobc::PredMode pred_mode() const override { return inner_->pred_mode(); }

  sobc::Status View(sobc::VertexId s, sobc::SourceView* view) override;
  sobc::Status ViewBatch(std::span<const sobc::VertexId> sources,
                         std::vector<sobc::SourceView>* views) override;
  sobc::Status PeekDistances(sobc::VertexId s, sobc::VertexId a,
                             sobc::VertexId b, sobc::Distance* da,
                             sobc::Distance* db) override;
  void Hint(std::span<const sobc::VertexId> sources) override {
    inner_->Hint(sources);
  }
  sobc::Status Apply(sobc::VertexId s,
                     const std::vector<sobc::BdPatch>& patches,
                     const sobc::PredPatchList& pred_patches) override;

  sobc::Status PutInitial(sobc::VertexId s,
                          sobc::SourceBcData&& data) override {
    return inner_->PutInitial(s, std::move(data));
  }
  sobc::Status Grow(std::size_t new_n) override { return inner_->Grow(new_n); }
  sobc::Status Flush() override { return inner_->Flush(); }

  std::int64_t read_ns() const { return read_ns_; }
  std::int64_t write_ns() const { return write_ns_; }

 private:
  sobc::BdStore* inner_;
  std::int64_t read_ns_ = 0;
  std::int64_t write_ns_ = 0;
};

/// Wire counters of the coordinator's side of the cluster plane.
struct WireCounters {
  std::atomic<std::uint64_t> frames_sent{0};
  std::atomic<std::uint64_t> frames_received{0};
  std::atomic<std::uint64_t> bytes_sent{0};
  std::atomic<std::uint64_t> bytes_received{0};
  /// Time inside successful SendFrame calls.
  std::atomic<std::int64_t> send_ns{0};
  /// Time inside successful RecvFrame calls — on the coordinator side,
  /// the wait for shard acks.
  std::atomic<std::int64_t> recv_wait_ns{0};
};

/// Wraps a Transport and counts the connections it dials. Only the
/// coordinator dials (shards listen, and their accepted connections pass
/// through uncounted), so the counters are the coordinator's side.
class CountingTransport : public sobc::Transport {
 public:
  explicit CountingTransport(sobc::Transport* inner) : inner_(inner) {}

  sobc::Result<std::unique_ptr<sobc::Listener>> Listen(
      const std::string& address) override {
    return inner_->Listen(address);
  }
  sobc::Result<std::unique_ptr<sobc::Connection>> Connect(
      const std::string& address, double timeout_seconds) override;

  const WireCounters& dialed() const { return counters_; }

 private:
  sobc::Transport* inner_;
  WireCounters counters_;
};

}  // namespace perfbench

#endif  // PERFBENCH_COUNTING_H_

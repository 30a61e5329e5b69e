#include "counting.h"

#include "trace.h"

namespace perfbench {

namespace {

class CountingConnection : public sobc::Connection {
 public:
  CountingConnection(std::unique_ptr<sobc::Connection> inner,
                     WireCounters* counters)
      : inner_(std::move(inner)), counters_(counters) {}

  sobc::Status SendFrame(const std::string& payload) override {
    const std::int64_t start = NowNs();
    sobc::Status st = inner_->SendFrame(payload);
    if (st.ok()) {
      counters_->send_ns.fetch_add(NowNs() - start, std::memory_order_relaxed);
      counters_->frames_sent.fetch_add(1, std::memory_order_relaxed);
      counters_->bytes_sent.fetch_add(payload.size(),
                                      std::memory_order_relaxed);
    }
    return st;
  }

  sobc::Status RecvFrame(std::string* payload,
                         double timeout_seconds) override {
    const std::int64_t start = NowNs();
    sobc::Status st = inner_->RecvFrame(payload, timeout_seconds);
    if (st.ok()) {
      counters_->recv_wait_ns.fetch_add(NowNs() - start,
                                        std::memory_order_relaxed);
      counters_->frames_received.fetch_add(1, std::memory_order_relaxed);
      counters_->bytes_received.fetch_add(payload->size(),
                                          std::memory_order_relaxed);
    }
    return st;
  }

  std::string peer() const override { return inner_->peer(); }
  void Close() override { inner_->Close(); }

 private:
  std::unique_ptr<sobc::Connection> inner_;
  WireCounters* counters_;
};

}  // namespace

sobc::Status CountingStore::View(sobc::VertexId s, sobc::SourceView* view) {
  const std::int64_t start = NowNs();
  sobc::Status st = inner_->View(s, view);
  read_ns_ += NowNs() - start;
  return st;
}

sobc::Status CountingStore::ViewBatch(std::span<const sobc::VertexId> sources,
                                      std::vector<sobc::SourceView>* views) {
  const std::int64_t start = NowNs();
  sobc::Status st = inner_->ViewBatch(sources, views);
  read_ns_ += NowNs() - start;
  return st;
}

sobc::Status CountingStore::PeekDistances(sobc::VertexId s, sobc::VertexId a,
                                          sobc::VertexId b,
                                          sobc::Distance* da,
                                          sobc::Distance* db) {
  const std::int64_t start = NowNs();
  sobc::Status st = inner_->PeekDistances(s, a, b, da, db);
  read_ns_ += NowNs() - start;
  return st;
}

sobc::Status CountingStore::Apply(sobc::VertexId s,
                                  const std::vector<sobc::BdPatch>& patches,
                                  const sobc::PredPatchList& pred_patches) {
  const std::int64_t start = NowNs();
  sobc::Status st = inner_->Apply(s, patches, pred_patches);
  write_ns_ += NowNs() - start;
  return st;
}

sobc::Result<std::unique_ptr<sobc::Connection>> CountingTransport::Connect(
    const std::string& address, double timeout_seconds) {
  auto conn = inner_->Connect(address, timeout_seconds);
  if (!conn.ok()) return conn.status();
  return std::unique_ptr<sobc::Connection>(
      new CountingConnection(std::move(*conn), &counters_));
}

}  // namespace perfbench

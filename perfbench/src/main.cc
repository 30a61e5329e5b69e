// Open-loop serving benchmark for the online betweenness service.
//
//   perfbench --workload mo-mixed --seed 1 --seconds 20 --trace 0
//             [--work-dir DIR]
//
// --trace 0 drives the real serving surface (BcService, or a
// ClusterCoordinator over in-process ShardWorkers on loopback TCP) and
// reports the end-to-end metrics. --trace 1 runs the same inputs twice: once
// through the untraced surface as the reference, once through the traced
// pipeline (the benchmark-side writer, or the cluster behind counting
// transports), and reports the per-layer metrics. Every run checks the
// final published scores against Brandes on the final graph.
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics, plus host facts and the failure reason, if any.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bc/brandes.h"
#include "client.h"
#include "cluster/coordinator.h"
#include "cluster/shard_worker.h"
#include "cluster/transport.h"
#include "counting.h"
#include "graph/csr_view.h"
#include "server/bc_service.h"
#include "trace.h"
#include "traced_writer.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Relative tolerance of every score comparison.
constexpr double kTolerance = 1e-7;
/// The benchmark-side writer's spans must explain this share of each
/// batch's wall time, or the traced run is flagged as failed.
constexpr double kCoverageMin = 0.95;
constexpr double kCoverageMax = 1.0;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string work_dir = ".bench_build/perfbench/work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::vector<Metric> metrics;
  /// Written to the full record only, never to the result line.
  std::vector<Metric> extra;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string error;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, std::isfinite(value) ? value : 0.0, unit});
  }
  void Fail(const std::string& why) {
    if (error.empty()) error = why;
  }
};

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// mo-mixed leaves one core to the client: nproc - 1 apply threads.
int ApplyThreads(const WorkloadSpec& spec) {
  return spec.apply_threads > 0 ? spec.apply_threads
                                : std::max(1, HardwareThreads() - 1);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

/// "" when both score sets agree within kTolerance, else the first
/// difference.
std::string CompareScores(const std::vector<double>& a_vbc,
                          const sobc::EbcMap& a_ebc,
                          const std::vector<double>& b_vbc,
                          const sobc::EbcMap& b_ebc) {
  auto close = [](double a, double b) {
    return std::fabs(a - b) <=
           kTolerance * std::max({1.0, std::fabs(a), std::fabs(b)});
  };
  if (a_vbc.size() != b_vbc.size()) {
    return "vertex count " + std::to_string(a_vbc.size()) + " vs " +
           std::to_string(b_vbc.size());
  }
  for (std::size_t v = 0; v < a_vbc.size(); ++v) {
    if (!close(a_vbc[v], b_vbc[v])) {
      return "vertex " + std::to_string(v) + ": " +
             std::to_string(a_vbc[v]) + " vs " + std::to_string(b_vbc[v]);
    }
  }
  auto one_way = [&](const sobc::EbcMap& x, const sobc::EbcMap& y,
                     bool swapped) -> std::string {
    for (const auto& [key, value] : x) {
      const auto it = y.find(key);
      const double other = it == y.end() ? 0.0 : it->second;
      if (!close(value, other)) {
        return "edge score " + std::to_string(swapped ? other : value) +
               " vs " + std::to_string(swapped ? value : other);
      }
    }
    return "";
  };
  std::string diff = one_way(a_ebc, b_ebc, false);
  if (diff.empty()) diff = one_way(b_ebc, a_ebc, true);
  return diff;
}

std::string CheckAgainst(const sobc::ScoreSnapshot& snap,
                         const sobc::BcScores& reference) {
  return CompareScores(snap.vbc, snap.ebc, reference.vbc, reference.ebc);
}

sobc::BcServiceOptions ServiceOptions(const WorkloadSpec& spec,
                                      const std::string& dir) {
  sobc::BcServiceOptions options;
  options.bc.variant = spec.variant;
  options.bc.num_threads = ApplyThreads(spec);
  if (spec.variant == sobc::BcVariant::kOutOfCore) {
    options.bc.storage_path = dir + "/store.bd";
    options.bc.store_codec = spec.delta_codec ? sobc::RecordCodecId::kDelta
                                              : sobc::RecordCodecId::kRaw;
    options.bc.cache_mb = spec.cache_mb;
    options.bc.prefetch = spec.prefetch;
  }
  if (spec.durable) {
    options.durability.wal_dir = dir + "/wal";
    options.durability.checkpoint_every_updates =
        spec.checkpoint_every_updates;
  }
  return options;
}

/// A fresh, empty directory for one bring-up.
std::string FreshDir(const std::string& base, const std::string& name) {
  const std::string dir = base + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// The cluster deployment: shards first, coordinator last.
struct Cluster {
  std::vector<std::unique_ptr<sobc::ShardWorker>> workers;
  std::unique_ptr<sobc::ClusterCoordinator> coordinator;
  double slowest_shard_start_s = 0.0;

  sobc::Status Stop() {
    sobc::Status status;
    if (coordinator != nullptr) status = coordinator->Stop();
    for (auto& worker : workers) {
      sobc::Status st = worker->Stop();
      if (status.ok()) status = st;
    }
    return status;
  }
};

sobc::Result<Cluster> StartCluster(const WorkloadSpec& spec,
                                   const sobc::Graph& graph,
                                   sobc::Transport* transport,
                                   double* setup_seconds) {
  std::vector<sobc::Graph> copies(spec.shards + 1, graph);
  Cluster cluster;
  const std::int64_t start = NowNs();
  std::vector<std::string> addresses;
  for (std::size_t i = 0; i < spec.shards; ++i) {
    sobc::ShardWorkerOptions options;
    options.shard_index = i;
    options.shard_count = spec.shards;
    options.service.bc.variant = spec.variant;
    options.service.bc.num_threads = 1;
    const std::int64_t shard_start = NowNs();
    auto worker = sobc::ShardWorker::Start(std::move(copies[i]), transport,
                                           "127.0.0.1:0", options);
    if (!worker.ok()) return worker.status();
    cluster.slowest_shard_start_s = std::max(
        cluster.slowest_shard_start_s, (NowNs() - shard_start) / 1e9);
    addresses.push_back((*worker)->address());
    cluster.workers.push_back(std::move(*worker));
  }
  auto coordinator = sobc::ClusterCoordinator::Connect(
      std::move(copies[spec.shards]), addresses, transport,
      sobc::ClusterCoordinatorOptions{});
  if (!coordinator.ok()) return coordinator.status();
  cluster.coordinator = std::move(*coordinator);
  *setup_seconds = (NowNs() - start) / 1e9;
  return cluster;
}

void AddClientMetrics(const ClientResult& client, Outcome* out) {
  out->attempted = client.attempted;
  out->failed = client.refused + client.unpublished;
  if (!client.error.empty()) out->Fail(client.error);
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics through the real serving surface.

void RunEndToEnd(const WorkloadSpec& spec, const Inputs& inputs,
                 const std::string& work, const sobc::BcScores& reference,
                 Outcome* out) {
  std::vector<double> setup;
  ClientResult client;
  std::shared_ptr<const sobc::ScoreSnapshot> final_snapshot;
  if (spec.deployment == Deployment::kService) {
    std::unique_ptr<sobc::BcService> service;
    for (int rep = 0; rep < spec.setup_reps; ++rep) {
      if (service != nullptr) {
        if (auto st = service->Stop(); !st.ok()) out->Fail(st.ToString());
        service.reset();
      }
      const std::string dir = FreshDir(work, "rep" + std::to_string(rep));
      sobc::Graph graph = inputs.graph;
      const std::int64_t start = NowNs();
      auto created = sobc::BcService::Create(std::move(graph),
                                             ServiceOptions(spec, dir));
      setup.push_back((NowNs() - start) / 1e9);
      if (!created.ok()) {
        out->Fail("create: " + created.status().ToString());
        return;
      }
      service = std::move(*created);
    }
    client = RunClient(service.get(), inputs);
    final_snapshot = service->snapshot();
    if (auto st = service->Stop(); !st.ok()) out->Fail(st.ToString());
  } else {
    sobc::TcpTransport transport;
    std::unique_ptr<Cluster> cluster;
    for (int rep = 0; rep < spec.setup_reps; ++rep) {
      if (cluster != nullptr) {
        if (auto st = cluster->Stop(); !st.ok()) out->Fail(st.ToString());
        cluster.reset();
      }
      double seconds = 0.0;
      auto started = StartCluster(spec, inputs.graph, &transport, &seconds);
      if (!started.ok()) {
        out->Fail("cluster: " + started.status().ToString());
        return;
      }
      setup.push_back(seconds);
      cluster = std::make_unique<Cluster>(std::move(*started));
    }
    client = RunClient(cluster->coordinator.get(), inputs);
    final_snapshot = cluster->coordinator->snapshot();
    if (auto st = cluster->Stop(); !st.ok()) out->Fail(st.ToString());
  }
  AddClientMetrics(client, out);
  out->Add("update_p50_ms", Quantile(client.latency_ms, 0.50), "ms");
  // The tail metric is p95: p99 over the 1800-2100 updates a run affords
  // moved by 20-40 % between seeds on a shared 4-vCPU host, beyond any
  // admissible regression bound. p99 stays in the full record.
  out->Add("update_p95_ms", Quantile(client.latency_ms, 0.95), "ms");
  out->extra.push_back(
      Metric{"update_p99_ms", Quantile(client.latency_ms, 0.99), "ms"});
  out->Add("saturated_updates_per_s", client.saturated_updates_per_s, "1/s");
  out->Add("setup_s", Quantile(setup, 0.5), "s");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
  if (const std::string diff = CheckAgainst(*final_snapshot, reference);
      !diff.empty()) {
    out->Fail("final scores differ from Brandes: " + diff);
  }
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics.

/// Per-layer metrics in a fixed order; layers that do not run (or cannot
/// be seen from outside) on a workload keep 0.
struct Layers {
  std::vector<Metric> values;
  void Set(const std::string& name, double value) {
    for (Metric& m : values) {
      if (m.name == name) m.value = std::isfinite(value) ? value : 0.0;
    }
  }
  double Get(const std::string& name) const {
    for (const Metric& m : values) {
      if (m.name == name) return m.value;
    }
    return 0.0;
  }
};

Layers EmptyLayers() {
  Layers layers;
  const std::pair<const char*, const char*> kAll[] = {
      {"server.queue_wait_p50_ms", "ms"},
      {"server.batch_updates_mean", "count"},
      {"server.coalesced_frac", "ratio"},
      {"server.publish_ms_per_batch", "ms"},
      {"server.batches", "count"},
      {"storage.wal_append_ms_per_batch", "ms"},
      {"storage.wal_bytes_per_update", "bytes"},
      {"storage.checkpoint_write_s", "s"},
      {"storage.bd_read_ms_per_update", "ms"},
      {"storage.bd_write_ms_per_update", "ms"},
      {"storage.cache_hit_rate", "ratio"},
      {"storage.read_bytes_per_update", "bytes"},
      {"storage.write_bytes_per_update", "bytes"},
      {"storage.prefetch_ahead_frac", "ratio"},
      {"storage.bytes_per_source", "bytes"},
      {"bc.prefilter_ms_per_update", "ms"},
      {"bc.prefilter_skip_rate", "ratio"},
      {"bc.engine_self_ms_per_update", "ms"},
      {"bc.structural_sources_per_update", "count"},
      {"bc.non_structural_sources_per_update", "count"},
      {"bc.disconnected_sources_per_update", "count"},
      {"bc.vertices_touched_per_update", "count"},
      {"bc.step1_s", "s"},
      {"graph.apply_us_per_update", "us"},
      {"graph.msbfs_batches_per_update", "count"},
      {"graph.bottom_up_levels_per_update", "count"},
      {"graph.csr_builds", "count"},
      {"parallel.drain_ms_per_update", "ms"},
      {"parallel.worker_busy_frac", "ratio"},
      {"parallel.imbalance", "ratio"},
      {"parallel.reduce_ms_per_update", "ms"},
      {"parallel.speedup", "ratio"},
      {"cluster.batch_p50_ms", "ms"},
      {"cluster.shard_apply_p50_ms_max", "ms"},
      {"cluster.overhead_p50_ms", "ms"},
      {"cluster.shard_skew", "ratio"},
      {"cluster.wire_bytes_per_batch", "bytes"},
      {"cluster.frames_per_batch", "count"},
      {"cluster.ack_wait_ms_per_batch", "ms"},
      {"loadgen.lag_p99_ms", "ms"},
      {"loadgen.offered_updates_per_s", "1/s"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_frac", "ratio"},
  };
  for (const auto& [name, unit] : kAll) {
    layers.values.push_back(Metric{name, 0.0, unit});
  }
  return layers;
}

void SetTracedWriterLayers(const TracedService& service, const Tracer& tracer,
                           int threads, Layers* layers) {
  const TracedTotals& t = service.totals();
  const double batches = static_cast<double>(t.batches);
  const double applied = static_cast<double>(t.applied);
  const double consumed = static_cast<double>(t.consumed);
  auto ms = [&](const char* span) { return tracer.TotalNs(span) / 1e6; };
  layers->Set("server.queue_wait_p50_ms", Quantile(t.queue_wait_ms, 0.5));
  layers->Set("server.batch_updates_mean", Ratio(consumed, batches));
  layers->Set("server.coalesced_frac", Ratio(consumed - applied, consumed));
  layers->Set("server.publish_ms_per_batch", Ratio(ms("publish"), batches));
  layers->Set("server.batches", batches);
  layers->Set("storage.wal_append_ms_per_batch",
              Ratio(ms("wal_append"), batches));
  layers->Set("storage.wal_bytes_per_update",
              Ratio(static_cast<double>(t.wal.bytes), consumed));
  layers->Set("storage.checkpoint_write_s",
              Ratio(t.checkpoints.write_seconds_total,
                    static_cast<double>(t.checkpoints.written)));
  layers->Set("storage.bd_read_ms_per_update",
              Ratio(t.store_read_ns / 1e6, applied));
  layers->Set("storage.bd_write_ms_per_update",
              Ratio(t.store_write_ns / 1e6, applied));
  layers->Set("storage.cache_hit_rate",
              Ratio(static_cast<double>(t.cache_hits),
                    static_cast<double>(t.cache_hits + t.cache_misses)));
  layers->Set("storage.read_bytes_per_update",
              Ratio(static_cast<double>(t.io.bytes_read), applied));
  layers->Set("storage.write_bytes_per_update",
              Ratio(static_cast<double>(t.io.bytes_written), applied));
  layers->Set("storage.prefetch_ahead_frac",
              Ratio(static_cast<double>(t.prefetch.fetched),
                    static_cast<double>(t.prefetch.hinted)));
  layers->Set("storage.bytes_per_source", t.bytes_per_source);
  const sobc::UpdateStats& s = t.stats;
  layers->Set("bc.prefilter_ms_per_update", Ratio(ms("prefilter"), applied));
  layers->Set("bc.prefilter_skip_rate",
              Ratio(static_cast<double>(s.sources_prefiltered),
                    static_cast<double>(s.sources_total)));
  layers->Set("bc.engine_self_ms_per_update",
              Ratio((t.engine_ns - t.store_read_ns - t.store_write_ns) / 1e6,
                    applied));
  layers->Set("bc.structural_sources_per_update",
              Ratio(static_cast<double>(s.sources_structural), applied));
  layers->Set("bc.non_structural_sources_per_update",
              Ratio(static_cast<double>(s.sources_non_structural), applied));
  layers->Set("bc.disconnected_sources_per_update",
              Ratio(static_cast<double>(s.sources_disconnected), applied));
  layers->Set("bc.vertices_touched_per_update",
              Ratio(static_cast<double>(s.vertices_touched), applied));
  layers->Set("bc.step1_s", t.step1_seconds);
  layers->Set("graph.apply_us_per_update",
              Ratio(tracer.TotalNs("graph_apply") / 1e3, applied));
  layers->Set("graph.msbfs_batches_per_update",
              Ratio(static_cast<double>(s.msbfs_batches), applied));
  layers->Set("graph.bottom_up_levels_per_update",
              Ratio(static_cast<double>(s.bottom_up_levels), applied));
  layers->Set("graph.csr_builds", static_cast<double>(t.csr_builds));
  const double drain_ns = static_cast<double>(tracer.TotalNs("drain"));
  layers->Set("parallel.drain_ms_per_update", Ratio(drain_ns / 1e6, applied));
  layers->Set("parallel.worker_busy_frac",
              Ratio(static_cast<double>(t.engine_ns), drain_ns * threads));
  layers->Set("parallel.imbalance",
              Ratio(static_cast<double>(t.drain_max_worker_ns),
                    t.drain_mean_worker_ns));
  layers->Set("parallel.reduce_ms_per_update", Ratio(ms("reduce"), applied));
  layers->Set("parallel.speedup",
              Ratio(static_cast<double>(t.engine_ns), drain_ns));
  double covered = 0.0;
  for (const char* stage : {"wal_append", "apply", "publish", "checkpoint"}) {
    covered += static_cast<double>(tracer.TotalNs(stage, "batch"));
  }
  layers->Set("trace.coverage",
              Ratio(covered, static_cast<double>(tracer.TotalNs("batch"))));
}

void RunTraced(const WorkloadSpec& spec, const Inputs& inputs,
               const std::string& work, const sobc::BcScores& reference,
               const std::string& spans_path, Outcome* out) {
  Layers layers = EmptyLayers();
  // Untraced reference on the same inputs and schedule: the scores the
  // traced pipeline must reproduce, and the saturated capacity the tracing
  // overhead is measured against.
  double untraced_capacity = 0.0;
  std::shared_ptr<const sobc::ScoreSnapshot> untraced_final;
  if (spec.deployment == Deployment::kService) {
    auto service = sobc::BcService::Create(
        inputs.graph, ServiceOptions(spec, FreshDir(work, "reference")));
    if (!service.ok()) {
      out->Fail("reference create: " + service.status().ToString());
      return;
    }
    untraced_capacity =
        RunClient(service->get(), inputs).saturated_updates_per_s;
    untraced_final = (*service)->snapshot();
    if (auto st = (*service)->Stop(); !st.ok()) out->Fail(st.ToString());
  } else {
    sobc::TcpTransport transport;
    double seconds = 0.0;
    auto cluster = StartCluster(spec, inputs.graph, &transport, &seconds);
    if (!cluster.ok()) {
      out->Fail("reference cluster: " + cluster.status().ToString());
      return;
    }
    untraced_capacity =
        RunClient(cluster->coordinator.get(), inputs).saturated_updates_per_s;
    untraced_final = cluster->coordinator->snapshot();
    if (auto st = cluster->Stop(); !st.ok()) out->Fail(st.ToString());
  }

  ClientResult client;
  std::shared_ptr<const sobc::ScoreSnapshot> traced_final;
  Tracer tracer;
  if (spec.deployment == Deployment::kService) {
    const std::string dir = FreshDir(work, "traced");
    TracedOptions options;
    options.variant = spec.variant;
    options.threads = ApplyThreads(spec);
    options.storage_path = dir + "/store.bd";
    options.cache_mb = spec.cache_mb;
    options.delta_codec = spec.delta_codec;
    options.prefetch = spec.prefetch;
    if (spec.durable) {
      options.wal_dir = dir + "/wal";
      options.checkpoint_every_updates = spec.checkpoint_every_updates;
    }
    auto service = TracedService::Create(inputs.graph, options, &tracer);
    if (!service.ok()) {
      out->Fail("traced create: " + service.status().ToString());
      return;
    }
    client = RunClient(service->get(), inputs);
    traced_final = (*service)->snapshot();
    if (auto st = (*service)->Stop(); !st.ok()) out->Fail(st.ToString());
    SetTracedWriterLayers(**service, tracer, options.threads, &layers);
    const double coverage = layers.Get("trace.coverage");
    if (coverage < kCoverageMin || coverage > kCoverageMax) {
      out->Fail("trace coverage " + std::to_string(coverage) +
                " outside [" + std::to_string(kCoverageMin) + ", " +
                std::to_string(kCoverageMax) + "]");
    }
  } else {
    sobc::TcpTransport tcp;
    CountingTransport transport(&tcp);
    double seconds = 0.0;
    auto cluster = StartCluster(spec, inputs.graph, &transport, &seconds);
    if (!cluster.ok()) {
      out->Fail("traced cluster: " + cluster.status().ToString());
      return;
    }
    const WireCounters& wire = transport.dialed();
    const std::uint64_t frames0 =
        wire.frames_sent.load() + wire.frames_received.load();
    const std::uint64_t bytes0 =
        wire.bytes_sent.load() + wire.bytes_received.load();
    const std::int64_t recv0 = wire.recv_wait_ns.load();
    const std::int64_t send0 = wire.send_ns.load();
    const std::int64_t run_start = NowNs();
    client = RunClient(cluster->coordinator.get(), inputs);
    const double run_ns = static_cast<double>(NowNs() - run_start);
    const sobc::ServeMetricsSnapshot coord = cluster->coordinator->metrics();
    const double frames = static_cast<double>(
        wire.frames_sent.load() + wire.frames_received.load() - frames0);
    const double bytes = static_cast<double>(
        wire.bytes_sent.load() + wire.bytes_received.load() - bytes0);
    const double recv_ns =
        static_cast<double>(wire.recv_wait_ns.load() - recv0);
    const double send_ns = static_cast<double>(wire.send_ns.load() - send0);
    std::vector<double> shard_p50;
    double sources_total = 0.0;
    double sources_prefiltered = 0.0;
    double msbfs = 0.0;
    double bottom_up = 0.0;
    for (auto& worker : cluster->workers) {
      const sobc::ServeMetricsSnapshot m = worker->service()->metrics();
      shard_p50.push_back(m.p50_batch_apply_seconds * 1e3);
      sources_total += static_cast<double>(m.sources_total);
      sources_prefiltered += static_cast<double>(m.sources_prefiltered);
      msbfs += static_cast<double>(m.msbfs_batches);
      bottom_up += static_cast<double>(m.bottom_up_levels);
    }
    traced_final = cluster->coordinator->snapshot();
    if (auto st = cluster->Stop(); !st.ok()) out->Fail(st.ToString());
    double csr_builds = 0.0;
    for (auto& worker : cluster->workers) {
      csr_builds = std::max(
          csr_builds, static_cast<double>(worker->service()
                                              ->framework()
                                              ->graph()
                                              .csr()
                                              .stats()
                                              .builds));
    }
    const double batches = static_cast<double>(coord.batches);
    const double applied = static_cast<double>(coord.applied);
    const double consumed =
        static_cast<double>(coord.applied + coord.coalesced);
    double max_p50 = 0.0;
    double sum_p50 = 0.0;
    for (const double p : shard_p50) {
      max_p50 = std::max(max_p50, p);
      sum_p50 += p;
    }
    const double batch_p50 = coord.p50_batch_apply_seconds * 1e3;
    layers.Set("server.batch_updates_mean", Ratio(consumed, batches));
    layers.Set("server.coalesced_frac",
               Ratio(static_cast<double>(coord.coalesced), consumed));
    layers.Set("server.batches", batches);
    layers.Set("bc.prefilter_skip_rate",
               Ratio(sources_prefiltered, sources_total));
    layers.Set("bc.step1_s", cluster->slowest_shard_start_s);
    layers.Set("graph.msbfs_batches_per_update", Ratio(msbfs, applied));
    layers.Set("graph.bottom_up_levels_per_update", Ratio(bottom_up, applied));
    layers.Set("graph.csr_builds", csr_builds);
    layers.Set("cluster.batch_p50_ms", batch_p50);
    layers.Set("cluster.shard_apply_p50_ms_max", max_p50);
    layers.Set("cluster.overhead_p50_ms", batch_p50 - max_p50);
    layers.Set("cluster.shard_skew",
               Ratio(max_p50, sum_p50 / static_cast<double>(shard_p50.size())));
    layers.Set("cluster.wire_bytes_per_batch", Ratio(bytes, batches));
    layers.Set("cluster.frames_per_batch", Ratio(frames, batches));
    layers.Set("cluster.ack_wait_ms_per_batch", Ratio(recv_ns / 1e6, batches));
    // No benchmark-side writer here: coverage is the share of the client
    // run's wall time the coordinator spent inside wire calls.
    layers.Set("trace.coverage", Ratio(recv_ns + send_ns, run_ns));
  }
  AddClientMetrics(client, out);
  layers.Set("loadgen.lag_p99_ms", Quantile(client.lag_ms, 0.99));
  layers.Set("loadgen.offered_updates_per_s", client.offered_updates_per_s);
  layers.Set("trace.overhead_frac",
             Ratio(untraced_capacity, client.saturated_updates_per_s) - 1.0);
  out->metrics = layers.values;

  if (!tracer.WriteCsv(spans_path)) out->Fail("cannot write " + spans_path);
  if (const std::string diff = CheckAgainst(*untraced_final, reference);
      !diff.empty()) {
    out->Fail("untraced scores differ from Brandes: " + diff);
  }
  if (const std::string diff = CheckAgainst(*traced_final, reference);
      !diff.empty()) {
    out->Fail("traced scores differ from Brandes: " + diff);
  }
  if (const std::string diff =
          CompareScores(traced_final->vbc, traced_final->ebc,
                        untraced_final->vbc, untraced_final->ebc);
      !diff.empty()) {
    out->Fail("traced scores differ from the untraced run: " + diff);
  }
}

// ---------------------------------------------------------------------------

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string json = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    json += (i ? ", " : "") + JsonString(metrics[i].name) +
            ": {\"value\": " + value +
            ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return json + "}";
}

void PrintResult(const Args& args, const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.error.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": " + JsonMetrics(out.metrics);
  json += ", \"extra\": " + JsonMetrics(out.extra);
  json += ", \"host\": {\"nproc\": " + std::to_string(HardwareThreads());
  json += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  json += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE) + "}";
  json += ", \"workload\": " + JsonString(args.workload);
  json += ", \"seed\": " + std::to_string(args.seed);
  json += ", \"error\": " + JsonString(out.error) + "}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
    if (end != nullptr && *end != '\0') return false;
  }
  return argc % 2 == 1 && args->seconds > 0 &&
         (args->trace == 0 || args->trace == 1);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args) || FindWorkload(args.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--work-dir DIR]\nworkloads:");
    for (const std::string& name : WorkloadNames()) {
      std::fprintf(stderr, " %s", name.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  const std::string work = args.work_dir + "/" + spec.name + "-" +
                           std::to_string(args.seed);
  std::filesystem::remove_all(work);
  std::filesystem::create_directories(work);

  const Inputs inputs = MakeInputs(spec, args.seed, args.seconds);
  const sobc::BcScores reference = sobc::ComputeBrandes(FinalGraph(inputs));
  Outcome out;
  if (args.trace == 0) {
    RunEndToEnd(spec, inputs, work, reference, &out);
  } else {
    RunTraced(spec, inputs, work, reference,
              args.work_dir + "/spans-" + spec.name + "-" +
                  std::to_string(args.seed) + ".csv",
              &out);
  }
  std::filesystem::remove_all(work);
  PrintResult(args, out);
  if (!out.error.empty()) {
    std::fprintf(stderr,
                 "FAILED workload=%s seed=%llu: %s\nreproduce: python3 "
                 "perfbench/run.py --workload %s --seed %llu --seconds %g "
                 "--trace %d\n",
                 spec.name.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 out.error.c_str(), spec.name.c_str(),
                 static_cast<unsigned long long>(args.seed), args.seconds,
                 args.trace);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

// The load generator: one client thread that submits the open-loop
// schedule and, on the same thread, reads top-k at a fixed pace, then
// drives the closed-loop saturation block. One thread keeps generator
// threads plus cluster connections within the core count.

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "server/score_snapshot.h"
#include "trace.h"
#include "workload.h"

namespace perfbench {

/// Reader pace: a top-k query every this many nanoseconds. It also bounds
/// the resolution of the submit-to-visible latency.
constexpr std::int64_t kPollPeriodNs = 500'000;
/// The closed-loop block is timed in this many equal parts.
constexpr std::size_t kSaturatedParts = 5;
/// An open-loop update not visible this long after its due time fails the
/// run instead of hanging it.
constexpr std::int64_t kVisibleTimeoutNs = 60'000'000'000;

struct ClientResult {
  /// Per open-loop update: scheduled send time to first visible snapshot.
  std::vector<double> latency_ms;
  /// Per open-loop update: how late the generator submitted it.
  std::vector<double> lag_ms;
  double offered_updates_per_s = 0.0;
  double saturated_updates_per_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t refused = 0;
  std::uint64_t unpublished = 0;
  std::string error;
};

/// Linear-interpolated quantile of `values` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> values, double q);

/// Runs the open-loop phase and then the saturation block against any
/// target with the serving surface (Submit/snapshot/Drain).
template <class Target>
ClientResult RunClient(Target* target, const Inputs& inputs) {
  ClientResult result;
  const std::size_t open = inputs.open_count;
  const std::size_t total = inputs.stream.size();
  result.attempted = total;
  result.latency_ms.resize(open);
  result.lag_ms.resize(open);
  std::vector<std::int64_t> due_ns(open);
  const std::int64_t start = NowNs() + 20'000'000;
  for (std::size_t i = 0; i < open; ++i) {
    due_ns[i] = start + static_cast<std::int64_t>(inputs.due[i] * 1e9);
  }
  if (open > 1) {
    result.offered_updates_per_s =
        (open - 1) / (inputs.due[open - 1] - inputs.due[0]);
  }
  const std::int64_t deadline =
      (open > 0 ? due_ns[open - 1] : start) + kVisibleTimeoutNs;

  std::size_t next = 0;
  std::size_t seen = 0;
  std::int64_t next_poll = start;
  double checksum = 0.0;
  while (seen < open) {
    std::int64_t now = NowNs();
    while (next < open && due_ns[next] <= now) {
      result.lag_ms[next] = (now - due_ns[next]) / 1e6;
      if (!target->Submit(inputs.stream[next])) {
        result.refused = total - next;
        result.error = "update " + std::to_string(next) + " refused";
        return result;
      }
      ++next;
      now = NowNs();
    }
    if (now >= next_poll) {
      const auto snap = target->snapshot();
      const std::int64_t read_at = NowNs();
      for (const auto& [vertex, score] : snap->top_vertices) checksum += score;
      const std::size_t covered =
          std::min<std::size_t>(snap->stream_position, next);
      for (; seen < covered; ++seen) {
        result.latency_ms[seen] = (read_at - due_ns[seen]) / 1e6;
      }
      next_poll += kPollPeriodNs;
      if (next_poll <= now) next_poll = now + kPollPeriodNs;
    }
    if (now > deadline) {
      result.unpublished = total - seen;
      result.error = "open-loop updates not visible within the timeout";
      return result;
    }
    std::int64_t wake = next_poll;
    if (next < open) wake = std::min(wake, due_ns[next]);
    std::this_thread::sleep_for(std::chrono::nanoseconds(
        std::max<std::int64_t>(0, wake - NowNs())));
  }
  if (checksum < 0) result.error = "negative betweenness read";

  // Closed loop: the block goes in kSaturatedParts parts, each submitted
  // as fast as backpressure allows and timed until published; the median
  // part rate is the capacity, so one episode of host interference cannot
  // move it.
  std::vector<double> rates;
  std::size_t begin = open;
  for (std::size_t part = 0; part < kSaturatedParts && begin < total; ++part) {
    const std::size_t end =
        open + (total - open) * (part + 1) / kSaturatedParts;
    const std::int64_t part_start = NowNs();
    for (std::size_t i = begin; i < end; ++i) {
      if (!target->Submit(inputs.stream[i])) {
        result.refused = total - i;
        result.error = "update " + std::to_string(i) + " refused";
        return result;
      }
    }
    if (auto st = target->Drain(); !st.ok()) {
      result.error = "drain: " + st.ToString();
      return result;
    }
    rates.push_back((end - begin) / ((NowNs() - part_start) / 1e9));
    begin = end;
  }
  result.saturated_updates_per_s = Quantile(rates, 0.5);
  const std::uint64_t position = target->snapshot()->stream_position;
  if (position < total) {
    result.unpublished = total - position;
    if (result.error.empty()) result.error = "updates never published";
  }
  return result;
}

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recording for the traced run. Spans are taken only by
// the benchmark's own code, around its calls into the library's public
// functions; nothing inside the program under test is instrumented.

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed call. `parent` indexes the same thread buffer's spans (-1 for
/// a root); spans of one writer batch share `batch`.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t batch = 0;
};

/// Spans of one thread, appended without locking. Worker threads record
/// into their own buffer; the Tracer owns every buffer.
class SpanBuffer {
 public:
  explicit SpanBuffer(std::string thread) : thread_(std::move(thread)) {}

  /// Opens a span and returns its index; Close stamps the end.
  std::int32_t Open(const char* name, std::int32_t parent,
                    std::uint64_t batch) {
    spans_.push_back(Span{name, NowNs(), 0, parent, batch});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }
  void Close(std::int32_t index) { spans_[index].end_ns = NowNs(); }
  /// Records an already-timed interval.
  void Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int32_t parent, std::uint64_t batch) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, batch});
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::string& thread() const { return thread_; }

 private:
  std::string thread_;
  std::vector<Span> spans_;
};

/// Owns the per-thread buffers and writes them out when the run ends.
class Tracer {
 public:
  SpanBuffer* NewBuffer(const std::string& thread) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<SpanBuffer>(thread));
    return buffers_.back().get();
  }

  /// Total duration of the spans called `name` whose parent span is
  /// called `parent_name` (empty = any parent), over every buffer.
  std::int64_t TotalNs(const std::string& name,
                       const std::string& parent_name = "") const;

  /// Writes every span as CSV (thread,name,start_ns,end_ns,parent,batch).
  bool WriteCsv(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_

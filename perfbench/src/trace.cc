#include "trace.h"

#include <cstdio>

namespace perfbench {

std::int64_t Tracer::TotalNs(const std::string& name,
                             const std::string& parent_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans();
    for (const Span& span : spans) {
      if (name != span.name) continue;
      if (!parent_name.empty() &&
          (span.parent < 0 || parent_name != spans[span.parent].name)) {
        continue;
      }
      total += span.end_ns - span.start_ns;
    }
  }
  return total;
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "thread,name,start_ns,end_ns,parent,batch\n");
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans()) {
      std::fprintf(out, "%s,%s,%lld,%lld,%d,%llu\n", buffer->thread().c_str(),
                   span.name, static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns), span.parent,
                   static_cast<unsigned long long>(span.batch));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench

#include "chainbench/spans.h"

#include <cstdio>

#include "chainbench/common.h"

namespace chainbench {

size_t SpanRecorder::Open(const char* name, uint64_t id) {
  SpanRecord span;
  span.name = name;
  span.id = id;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  spans_.back().begin_ns = NowNs();
  return spans_.size() - 1;
}

void SpanRecorder::Close(size_t index) {
  SpanRecord& span = spans_[index];
  span.end_ns = NowNs();
  open_.pop_back();
  if (span.parent >= 0) {
    spans_[static_cast<size_t>(span.parent)].children_ns += span.duration_ns();
  }
}

std::vector<double> SpanRecorder::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.duration_ns()));
    }
  }
  return out;
}

bool SpanRecorder::WriteChromeJson(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    return false;
  }
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().begin_ns;
  std::fprintf(file, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"id\":%llu,\"parent\":%lld}}\n",
                 i == 0 ? "" : ",", span.name,
                 static_cast<double>(span.begin_ns - origin) / 1e3,
                 static_cast<double>(span.duration_ns()) / 1e3, i,
                 static_cast<unsigned long long>(span.id), static_cast<long long>(span.parent));
  }
  std::fprintf(file, "]}\n");
  return std::fclose(file) == 0;
}

}  // namespace chainbench

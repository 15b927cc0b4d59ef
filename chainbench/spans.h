// The traced run's span recorder: spans live in memory and are written once,
// at exit, as Chrome trace_event JSON. Single-threaded by design — the traced
// run calls each layer from the main thread — so nesting is a stack and a
// span's children never overlap each other.
#ifndef CHAINBENCH_SPANS_H_
#define CHAINBENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace chainbench {

struct SpanRecord {
  const char* name = nullptr;  // A string literal.
  uint64_t id = 0;             // Block index (or transaction index).
  int64_t parent = -1;         // Index of the enclosing span, -1 for a root.
  uint64_t begin_ns = 0;
  uint64_t end_ns = 0;
  uint64_t children_ns = 0;  // Summed durations of direct children.

  uint64_t duration_ns() const { return end_ns - begin_ns; }
  uint64_t self_ns() const { return duration_ns() - children_ns; }
};

class SpanRecorder {
 public:
  size_t Open(const char* name, uint64_t id);
  void Close(size_t index);

  const std::vector<SpanRecord>& spans() const { return spans_; }

  // Durations (ns) of every span with this name.
  std::vector<double> Durations(const std::string& name) const;

  // Writes every span as a Chrome "X" event with its id and parent.
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::vector<SpanRecord> spans_;
  std::vector<size_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const char* name, uint64_t id)
      : recorder_(recorder), index_(recorder.Open(name, id)) {}
  ~ScopedSpan() { recorder_.Close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  size_t index_;
};

}  // namespace chainbench

#endif  // CHAINBENCH_SPANS_H_

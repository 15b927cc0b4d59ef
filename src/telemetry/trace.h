// The trace recorder: per-thread lock-free ring buffers of span / instant /
// counter events, exported as Chrome trace_event JSON (loadable in Perfetto or
// chrome://tracing). Built for the question the aggregate BlockReport /
// ChainReport counters cannot answer: *where inside a run* the wall time goes
// — which thread was executing, which was waiting on a queue, whether the
// committer really hashed under the executor's cold-read stalls.
//
// Cost contract:
//   - Compiled out entirely (macros expand to nothing) when the tree is built
//     with -DPEVM_TELEMETRY=OFF (PEVM_TELEMETRY_DISABLED).
//   - Runtime-disabled (the default): one relaxed atomic load per macro site.
//   - Enabled: one monotonic-clock read per span edge (a vDSO TSC read +
//     scale on Linux/x86) plus a handful of relaxed stores into the calling
//     thread's own ring buffer — no locks, no allocation on the hot path.
//
// Inertness contract (DESIGN.md §4.3): the recorder only *observes* the wall
// clock. It never feeds a value back into execution, never touches the
// virtual-time cost model, and never synchronizes threads that were not
// already synchronized — so state roots, receipts, virtual makespans and every
// deterministic BlockReport counter are bit-identical with tracing on or off
// (tests/telemetry_test.cc proves it across all executors and thread counts).
//
// Concurrency: each ring buffer has exactly one writer (its thread); the
// exporter reads concurrently through the same atomic slots, so a torn
// in-flight event can at worst surface as one garbled entry in the JSON,
// never as UB or a TSan report. When the ring wraps, the oldest events are
// overwritten (the export notes how many were dropped).
#ifndef SRC_TELEMETRY_TRACE_H_
#define SRC_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace pevm::telemetry {

// --- Runtime switch. ------------------------------------------------------

namespace internal {
extern std::atomic<bool> g_enabled;
}  // namespace internal

inline bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }

// Flips recording globally. Already-buffered events are kept; use Reset() to
// drop them. Threads observe the flip on their next event (relaxed — tracing
// needs no cross-thread ordering of its own).
void SetEnabled(bool enabled);

// Drops every buffered event (buffers and thread registrations survive, so
// long-lived pool threads keep recording). Test / between-run hygiene.
void Reset();

// Names the calling thread in the exported trace ("chain-exec", "kv-compact",
// ...). Idempotent; last call wins. Safe before or after the thread's first
// event. Records the name (up to 63 characters) in thread-local storage and
// allocates nothing: a thread's ring is created by its first recorded event,
// which only happens while recording is enabled, and takes the name then.
void SetThreadName(const char* name);

// Ring capacity (events per thread) for buffers registered *after* the call
// (a thread registers on its first recorded event); rounded up to a power of
// two, minimum 8. Existing buffers keep their size. Default 32768 events
// (~1.5 MB per thread). Returns the applied capacity.
size_t SetRingCapacity(size_t events);

// --- Recording. -----------------------------------------------------------

enum class EventKind : uint8_t {
  kNone = 0,  // Empty slot (never exported).
  kSpan,      // Duration event: [begin_ns, end_ns].
  kInstant,   // Point event at begin_ns.
  kCounter,   // Sampled value (arg) at begin_ns; Perfetto draws a track.
};

// Monotonic wall-clock nanoseconds (steady_clock: a vDSO clock_gettime —
// i.e. one TSC read plus a scale — on Linux). The ONLY clock telemetry may
// read: never the virtual-time oracle.
uint64_t NowNs();

// Low-level emitters; prefer the PEVM_TRACE_* macros below, which compile out
// with PEVM_TELEMETRY_DISABLED and check Enabled() exactly once per site.
// `name` and `arg_name` must be string literals (stored by pointer).
void EmitSpan(const char* name, uint64_t begin_ns, uint64_t end_ns,
              const char* arg_name = nullptr, uint64_t arg = 0);
void EmitInstant(const char* name, const char* arg_name = nullptr, uint64_t arg = 0);
void EmitCounter(const char* name, uint64_t value);

// RAII span: records [construction, destruction) on the calling thread.
class Span {
 public:
  explicit Span(const char* name) : name_(Enabled() ? name : nullptr) {
    if (name_ != nullptr) {
      begin_ns_ = NowNs();
    }
  }
  Span(const char* name, const char* arg_name, uint64_t arg)
      : name_(Enabled() ? name : nullptr), arg_name_(arg_name), arg_(arg) {
    if (name_ != nullptr) {
      begin_ns_ = NowNs();
    }
  }
  ~Span() {
    if (name_ != nullptr) {
      EmitSpan(name_, begin_ns_, NowNs(), arg_name_, arg_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;  // nullptr = recording was off at construction.
  const char* arg_name_ = nullptr;
  uint64_t arg_ = 0;
  uint64_t begin_ns_ = 0;
};

// --- Export. --------------------------------------------------------------

// Serializes every buffered event as a Chrome trace_event JSON object
// ({"traceEvents": [...]}), including thread-name metadata rows so Perfetto
// labels the real threads. Spans still open (Span objects alive) are absent —
// export after the run quiesces.
std::string ChromeTraceJson();

// ChromeTraceJson() to `path`; returns false (errno preserved) on I/O error.
bool WriteChromeTrace(const std::string& path);

// Events dropped to ring wraparound since the last Reset(), summed over all
// threads (also embedded in the export as metadata).
uint64_t DroppedEvents();

// Registered thread-buffer count (test introspection).
size_t RegisteredThreads();

// Live per-thread ring introspection. Sampled while writers keep pushing:
// counts are relaxed atomic reads, so a sample can be one event stale but
// never torn. Ordered by registration (tid ascending).
struct RingStats {
  uint64_t tid = 0;
  std::string thread_name;
  uint64_t events_pushed = 0;  // Lifetime pushes (monotone per thread).
  uint64_t dropped = 0;        // Overwritten by ring wraparound.
  size_t occupancy = 0;        // Events currently resident (≤ capacity).
  size_t capacity = 0;
};
std::vector<RingStats> TraceRingStats();

// Publishes the recorder's own health into the metrics registry:
// "trace.dropped_events" and "trace.ring_threads" plus a per-thread
// "trace.ring_occupancy.t<tid>" gauge — so ring-buffer undersizing shows up
// on a live /metrics scrape instead of only in the post-run JSON export. The
// ops server calls this on every scrape, and the stall watchdog before its
// metrics dump.
void UpdateTraceGauges();

}  // namespace pevm::telemetry

// --- Macros: the only instrumentation surface the rest of the tree uses. ---
//
// PEVM_TRACE_SPAN(name)                 — scoped span, current scope.
// PEVM_TRACE_SPAN_ARG(name, k, v)       — scoped span with one uint64 arg.
// PEVM_TRACE_INSTANT(name)              — point event.
// PEVM_TRACE_INSTANT_ARG(name, k, v)    — point event with one uint64 arg.
// PEVM_TRACE_COUNTER(name, value)       — counter sample (Perfetto track).
// PEVM_TRACE_THREAD_NAME(name)          — label the calling thread.
#if defined(PEVM_TELEMETRY_DISABLED)

#define PEVM_TRACE_SPAN(name)
#define PEVM_TRACE_SPAN_ARG(name, arg_name, arg)
#define PEVM_TRACE_INSTANT(name)
#define PEVM_TRACE_INSTANT_ARG(name, arg_name, arg)
#define PEVM_TRACE_COUNTER(name, value)
#define PEVM_TRACE_THREAD_NAME(name)

#else

#define PEVM_TRACE_CONCAT2(a, b) a##b
#define PEVM_TRACE_CONCAT(a, b) PEVM_TRACE_CONCAT2(a, b)
#define PEVM_TRACE_SPAN(name) \
  ::pevm::telemetry::Span PEVM_TRACE_CONCAT(pevm_trace_span_, __LINE__)(name)
#define PEVM_TRACE_SPAN_ARG(name, arg_name, arg) \
  ::pevm::telemetry::Span PEVM_TRACE_CONCAT(pevm_trace_span_, __LINE__)( \
      name, arg_name, static_cast<uint64_t>(arg))
#define PEVM_TRACE_INSTANT(name)                 \
  do {                                           \
    if (::pevm::telemetry::Enabled()) {          \
      ::pevm::telemetry::EmitInstant(name);      \
    }                                            \
  } while (0)
#define PEVM_TRACE_INSTANT_ARG(name, arg_name, arg)                                    \
  do {                                                                                 \
    if (::pevm::telemetry::Enabled()) {                                                \
      ::pevm::telemetry::EmitInstant(name, arg_name, static_cast<uint64_t>(arg));      \
    }                                                                                  \
  } while (0)
#define PEVM_TRACE_COUNTER(name, value)                                    \
  do {                                                                     \
    if (::pevm::telemetry::Enabled()) {                                    \
      ::pevm::telemetry::EmitCounter(name, static_cast<uint64_t>(value));  \
    }                                                                      \
  } while (0)
#define PEVM_TRACE_THREAD_NAME(name) ::pevm::telemetry::SetThreadName(name)

#endif  // PEVM_TELEMETRY_DISABLED

#endif  // SRC_TELEMETRY_TRACE_H_

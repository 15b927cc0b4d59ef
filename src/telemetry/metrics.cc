#include "src/telemetry/metrics.h"

#include <bit>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace pevm::telemetry {

void Histogram::Observe(uint64_t value) {
  buckets_[std::bit_width(value)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
}

uint64_t Histogram::BucketLo(size_t i) {
  return i == 0 ? 0 : uint64_t{1} << (i - 1);
}

uint64_t Histogram::BucketHi(size_t i) {
  if (i == 0) {
    return 0;
  }
  if (i >= 64) {
    return UINT64_MAX;
  }
  return (uint64_t{1} << i) - 1;
}

double Histogram::Quantile(double q) const {
  if (q < 0.0) {
    q = 0.0;
  }
  if (q > 1.0) {
    q = 1.0;
  }
  // Snapshot counts first so a concurrent Observe cannot push the target rank
  // past the cumulative total.
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) {
    return 0.0;
  }
  double rank = q * static_cast<double>(total);
  double cumulative = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    if (counts[i] == 0) {
      continue;
    }
    double next = cumulative + static_cast<double>(counts[i]);
    if (next >= rank) {
      double within = counts[i] == 0 ? 0.0 : (rank - cumulative) / static_cast<double>(counts[i]);
      double lo = static_cast<double>(BucketLo(i));
      double hi = static_cast<double>(BucketHi(i));
      return lo + (hi - lo) * within;
    }
    cumulative = next;
  }
  return static_cast<double>(BucketHi(kBuckets - 1));
}

void Histogram::Clear() {
  for (auto& bucket : buckets_) {
    bucket.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

namespace {

// std::map keeps the JSON snapshot sorted; unique_ptr keeps references stable
// across rehashing-free growth. Leaked for the same shutdown-order reason as
// the trace registry.
struct MetricsRegistry {
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

MetricsRegistry& GlobalMetrics() {
  static MetricsRegistry* registry = new MetricsRegistry;
  return *registry;
}

template <typename T>
T& GetOrCreate(std::map<std::string, std::unique_ptr<T>, std::less<>>& map,
               std::string_view name, std::mutex& mu) {
  std::lock_guard<std::mutex> lock(mu);
  auto it = map.find(name);
  if (it == map.end()) {
    it = map.emplace(std::string(name), std::make_unique<T>()).first;
  }
  return *it->second;
}

void AppendEscaped(std::string& out, const std::string& s) {
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
}

}  // namespace

Counter& GetCounter(std::string_view name) {
  MetricsRegistry& registry = GlobalMetrics();
  return GetOrCreate(registry.counters, name, registry.mu);
}

Gauge& GetGauge(std::string_view name) {
  MetricsRegistry& registry = GlobalMetrics();
  return GetOrCreate(registry.gauges, name, registry.mu);
}

Histogram& GetHistogram(std::string_view name) {
  MetricsRegistry& registry = GlobalMetrics();
  return GetOrCreate(registry.histograms, name, registry.mu);
}

std::string MetricsJson() {
  MetricsRegistry& registry = GlobalMetrics();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::string out = "{\n\"counters\": {";
  // Sized for the histogram header row: ~70 literal chars + two 20-digit
  // integers + three %.1f doubles that can themselves reach 20+ chars.
  char buf[256];
  bool first = true;
  for (const auto& [name, counter] : registry.counters) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  \"";
    AppendEscaped(out, name);
    std::snprintf(buf, sizeof(buf), "\": %llu",
                  static_cast<unsigned long long>(counter->value()));
    out += buf;
  }
  out += "\n},\n\"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : registry.gauges) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  \"";
    AppendEscaped(out, name);
    std::snprintf(buf, sizeof(buf), "\": %lld", static_cast<long long>(gauge->value()));
    out += buf;
  }
  out += "\n},\n\"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : registry.histograms) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "  \"";
    AppendEscaped(out, name);
    std::snprintf(buf, sizeof(buf),
                  "\": {\"count\": %llu, \"sum\": %llu, \"p50\": %.1f, \"p95\": %.1f, "
                  "\"p99\": %.1f, \"buckets\": [",
                  static_cast<unsigned long long>(histogram->count()),
                  static_cast<unsigned long long>(histogram->sum()), histogram->Quantile(0.50),
                  histogram->Quantile(0.95), histogram->Quantile(0.99));
    out += buf;
    bool first_bucket = true;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      uint64_t count = histogram->bucket_count(i);
      if (count == 0) {
        continue;
      }
      if (!first_bucket) {
        out += ", ";
      }
      first_bucket = false;
      std::snprintf(buf, sizeof(buf), "{\"lo\": %llu, \"hi\": %llu, \"count\": %llu}",
                    static_cast<unsigned long long>(Histogram::BucketLo(i)),
                    static_cast<unsigned long long>(Histogram::BucketHi(i)),
                    static_cast<unsigned long long>(count));
      out += buf;
    }
    out += "]}";
  }
  out += "\n}\n}\n";
  return out;
}

namespace {

// Prometheus metric-name charset is [a-zA-Z0-9_:]; the registry's dotted
// names ("chain.block.exec_busy_ns") become underscored
// ("chain_block_exec_busy_ns").
void AppendPromName(std::string& out, const std::string& name) {
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
}

}  // namespace

std::string MetricsPrometheus() {
  MetricsRegistry& registry = GlobalMetrics();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::string out;
  out.reserve(1u << 14);
  char buf[128];
  for (const auto& [name, counter] : registry.counters) {
    out += "# TYPE ";
    AppendPromName(out, name);
    out += " counter\n";
    AppendPromName(out, name);
    std::snprintf(buf, sizeof(buf), " %llu\n", static_cast<unsigned long long>(counter->value()));
    out += buf;
  }
  for (const auto& [name, gauge] : registry.gauges) {
    out += "# TYPE ";
    AppendPromName(out, name);
    out += " gauge\n";
    AppendPromName(out, name);
    std::snprintf(buf, sizeof(buf), " %lld\n", static_cast<long long>(gauge->value()));
    out += buf;
  }
  for (const auto& [name, histogram] : registry.histograms) {
    // Snapshot the buckets first, then derive _count from the same snapshot:
    // the le="+Inf" row MUST equal _count within one scrape even while
    // observers keep appending (the live count_ may already be ahead).
    uint64_t counts[Histogram::kBuckets];
    uint64_t total = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      counts[i] = histogram->bucket_count(i);
      total += counts[i];
    }
    out += "# TYPE ";
    AppendPromName(out, name);
    out += " histogram\n";
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      cumulative += counts[i];
      // Bucket 64's upper bound is UINT64_MAX; it is represented by the
      // mandatory +Inf row below instead of a 20-digit le value.
      if (counts[i] == 0 || i >= 64) {
        continue;
      }
      AppendPromName(out, name);
      std::snprintf(buf, sizeof(buf), "_bucket{le=\"%llu\"} %llu\n",
                    static_cast<unsigned long long>(Histogram::BucketHi(i)),
                    static_cast<unsigned long long>(cumulative));
      out += buf;
    }
    AppendPromName(out, name);
    std::snprintf(buf, sizeof(buf), "_bucket{le=\"+Inf\"} %llu\n",
                  static_cast<unsigned long long>(total));
    out += buf;
    AppendPromName(out, name);
    std::snprintf(buf, sizeof(buf), "_sum %llu\n",
                  static_cast<unsigned long long>(histogram->sum()));
    out += buf;
    AppendPromName(out, name);
    std::snprintf(buf, sizeof(buf), "_count %llu\n", static_cast<unsigned long long>(total));
    out += buf;
  }
  return out;
}

bool WriteMetricsJson(const std::string& path) {
  std::string json = MetricsJson();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

void ClearMetrics() {
  MetricsRegistry& registry = GlobalMetrics();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& [name, counter] : registry.counters) {
    counter->Clear();
  }
  for (auto& [name, gauge] : registry.gauges) {
    gauge->Clear();
  }
  for (auto& [name, histogram] : registry.histograms) {
    histogram->Clear();
  }
}

}  // namespace pevm::telemetry

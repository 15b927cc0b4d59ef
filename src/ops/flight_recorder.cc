#include "src/ops/flight_recorder.h"

#include <cstdio>

#include "src/support/bytes.h"

namespace pevm::ops {

FlightRecorder::FlightRecorder(size_t capacity) : capacity_(capacity < 1 ? 1 : capacity) {
  ring_.reserve(capacity_);
}

void FlightRecorder::Record(const BlockRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (ring_.size() < capacity_) {
    ring_.push_back(record);
  } else {
    ring_[total_ % capacity_] = record;
  }
  ++total_;
}

std::vector<BlockRecord> FlightRecorder::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<BlockRecord> out;
  out.reserve(ring_.size());
  if (total_ <= capacity_) {
    out = ring_;
  } else {
    // The ring wrapped: the oldest resident record sits at total_ % capacity.
    for (size_t i = 0; i < capacity_; ++i) {
      out.push_back(ring_[(total_ + i) % capacity_]);
    }
  }
  return out;
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_;
}

std::string FlightRecorderJson(const FlightRecorder& recorder) {
  std::vector<BlockRecord> records = recorder.Snapshot();
  std::string out;
  out.reserve(records.size() * 800 + 128);
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "{\"capacity\": %zu, \"total_recorded\": %llu, \"blocks\": [",
                recorder.capacity(),
                static_cast<unsigned long long>(recorder.total_recorded()));
  out += buf;
  auto field = [&](const char* key, uint64_t value, bool last = false) {
    std::snprintf(buf, sizeof(buf), "\"%s\": %llu%s", key,
                  static_cast<unsigned long long>(value), last ? "" : ", ");
    out += buf;
  };
  for (size_t i = 0; i < records.size(); ++i) {
    const BlockRecord& a = records[i];
    out += i == 0 ? "\n{" : ",\n{";
    field("block", a.block_index);
    field("transactions", a.transactions);
    out += "\"root\": \"";
    out += HexEncode(a.root);
    out += "\", ";
    field("warm_busy_ns", a.warm_busy_ns);
    field("spec_busy_ns", a.spec_busy_ns);
    field("exec_busy_ns", a.exec_busy_ns);
    field("ready_wait_ns", a.ready_wait_ns);
    field("commit_wait_ns", a.commit_wait_ns);
    field("commit_apply_ns", a.commit_apply_ns);
    field("queue_to_durable_ns", a.queue_to_durable_ns);
    field("commit_persist_ns", a.commit_persist_ns);
    field("sync_ns", a.sync_ns);
    field("nodes_written", a.nodes_written);
    field("bytes_appended", a.bytes_appended);
    field("fsyncs", a.fsyncs);
    field("commit_batch", a.commit_batch);
    field("conflicts", static_cast<uint64_t>(a.conflicts));
    field("redo_success", static_cast<uint64_t>(a.redo_success));
    field("redo_fail", static_cast<uint64_t>(a.redo_fail));
    field("full_reexecutions", static_cast<uint64_t>(a.full_reexecutions));
    field("oplog_entries", a.oplog_entries);
    field("instructions", a.instructions);
    field("prefetch_hits", a.prefetch_hits);
    field("prefetch_misses", a.prefetch_misses);
    field("spec_launched", a.spec_launched);
    field("spec_held", a.spec_held);
    field("spec_clean", a.spec_clean);
    field("spec_repaired", a.spec_repaired);
    field("spec_dropped", a.spec_dropped);
    field("spec_stale_reads", a.spec_stale_reads);
    field("spec_validate_ns", a.spec_validate_ns);
    field("diff_entries", a.diff_entries);
    field("snapshots_retained", a.snapshots_retained);
    field("snapshot_live_pins", a.snapshot_live_pins, /*last=*/true);
    out += "}";
  }
  out += "\n]}\n";
  return out;
}

}  // namespace pevm::ops

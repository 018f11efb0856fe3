// A CheckpointSink wrapper around a SegmentStore that times every
// section the event log hands to the store. Used by the record and ingest
// workloads in their traced rounds; the untraced rounds attach the store
// directly.
#pragma once

#include <functional>
#include <span>

#include "common.h"
#include "eval/event_log.h"
#include "storage/segment_store.h"

namespace perfbench {

// The log encodes the section; the store frames it, buffers it and
// write(2)s the group buffer when it fills.
class SinkProbe final : public mp::eval::CheckpointSink {
 public:
  explicit SinkProbe(mp::storage::SegmentStore& store) : store_(store) {}
  bool append_section(mp::eval::EventId first_id, size_t count,
                      std::span<const uint8_t> entries,
                      std::span<const uint8_t> names) override {
    Span span("storage.append", "storage");
    const uint64_t t0 = now_ns();
    const bool ok = store_.append_section(first_id, count, entries, names);
    append_ns += now_ns() - t0;
    ++appends;
    return ok;
  }
  bool failed() const override { return store_.failed(); }
  void replay_raw(
      const std::function<bool(const mp::eval::RawEvent&)>& fn) const override {
    store_.replay_raw(fn);
  }
  size_t events() const override { return store_.events(); }
  size_t bytes() const override { return store_.bytes(); }

  uint64_t append_ns = 0;
  size_t appends = 0;

 private:
  mp::storage::SegmentStore& store_;
};

}  // namespace perfbench

// Durability spectrum for the write path — shared by every site where
// writes become durable: the KV journal (kv/journal.h, GroupCommitJournal)
// and the write-back window (common/write_back_window.h) under the blob
// provider's page flusher (blob/provider.h) and the HDFS DataNode's block
// path (hdfs/datanode.h). Each site's header says what the levels mean
// there.
//
// The paper's write benchmarks (fig3, ext1) charge every write the full
// per-op persistence cost; real deployments trade durability for
// throughput. The policy makes that trade explicit and *measurable*: each
// level defines when a write is acknowledged relative to when it is synced
// to the platter, and therefore exactly how many acknowledged bytes a
// power loss can destroy (bench/ext8_group_commit.cpp measures both sides
// of the trade; tests/group_commit_test.cpp proves the loss bound honest).
//
//   kImmediate  ack after this record's own sync. A power loss destroys
//               zero acknowledged bytes. One positioning overhead per
//               record — the full per-op cost the paper assumes.
//   kBatched    group commit: records coalesce into batches of up to
//               max_records, one positioning overhead per *batch*. Every
//               site bounds the acknowledged-but-unsynced window by
//               max_records records plus one in-flight batch — the most a
//               power loss can destroy.
//   kNone       ack as soon as the write is buffered; syncing is
//               best-effort background work, and a power loss destroys
//               everything not yet flushed.
#pragma once

#include <cstdint>

namespace bs {

enum class DurabilityLevel : uint8_t {
  kNone = 0,
  kBatched = 1,
  kImmediate = 2,
};

struct DurabilityPolicy {
  DurabilityLevel level = DurabilityLevel::kImmediate;
  // kBatched triggers: a batch syncs when it holds max_records records OR
  // max_delay_s after its first record arrived, whichever fires first.
  // (Also the kNone cadence of the journal and the DataNode; the provider
  // writes kNone pages one at a time.)
  uint64_t max_records = 32;
  double max_delay_s = 0.010;

  static DurabilityPolicy none() {
    return DurabilityPolicy{DurabilityLevel::kNone, 32, 0.010};
  }
  static DurabilityPolicy batched(uint64_t max_records, double max_delay_s) {
    return DurabilityPolicy{DurabilityLevel::kBatched, max_records,
                           max_delay_s};
  }
  static DurabilityPolicy immediate() {
    return DurabilityPolicy{DurabilityLevel::kImmediate, 32, 0.010};
  }

  bool operator==(const DurabilityPolicy&) const = default;
};

const char* durability_level_name(DurabilityLevel level);

}  // namespace bs

// Append-only journals backing the KV store's write-ahead log.
//
// BlobSeer persists provider state through a BerkeleyDB layer; our stand-in
// is a WAL + ordered map. Two backends: MemoryJournal (used inside the
// simulator, where the *time* cost of persistence is modeled by the node's
// Disk) and FileJournal (a real on-disk, CRC-protected, length-prefixed
// record log — exercised by tests to prove the recovery path is genuine).
//
// GroupCommitJournal decorates either backend with the durability spectrum
// (common/durability.h): appends coalesce into batches that reach the
// platter through the owning node's simulated Disk, so sim time is charged
// once per *batch* instead of once per record — the group-commit
// amortization of the positioning overhead.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/dataspec.h"
#include "common/durability.h"
#include "net/network.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs::kv {

class Journal {
 public:
  virtual ~Journal() = default;

  // Appends one record; the record is durable once append returns. (The
  // GroupCommitJournal override weakens this to "accepted": the record is
  // buffered and becomes durable when its batch syncs.)
  virtual void append(const Bytes& record) = 0;

  // Appends one record and resolves when its durability per the journal's
  // policy is settled: true once the record is as durable as the policy
  // promises, false if it was destroyed first (power loss). Base journals
  // are synchronous-durable, so the default is append + true.
  virtual sim::Task<bool> append_acked(const Bytes& record) {
    append(record);
    co_return true;
  }

  // Forces everything buffered to the platter; true when all of it made it.
  // A no-op for synchronously durable journals.
  virtual sim::Task<bool> sync() { co_return true; }

  // Replays all intact records in order. A torn/corrupt tail (from a
  // simulated crash) stops the scan without error — standard WAL semantics.
  virtual void scan(const std::function<void(const Bytes&)>& fn) = 0;

  // Discards all records (after a checkpoint subsumes them).
  virtual void truncate() = 0;

  virtual uint64_t record_count() const = 0;
  virtual uint64_t byte_size() const = 0;
};

class MemoryJournal final : public Journal {
 public:
  void append(const Bytes& record) override;
  void scan(const std::function<void(const Bytes&)>& fn) override;
  void truncate() override;
  uint64_t record_count() const override { return records_.size(); }
  uint64_t byte_size() const override { return bytes_; }

  // Test hook: simulates a crash that truncates the tail of the log to
  // `keep_bytes` of payload (may cut a record in half conceptually; we model
  // it as dropping trailing whole/partial records).
  void corrupt_tail(uint64_t keep_records);

 private:
  std::vector<Bytes> records_;
  uint64_t bytes_ = 0;
};

// Real file-backed journal. Record framing: [u32 len][u32 crc32c][payload].
//
// Torn-tail hardening: construction scans the file and truncates it back to
// the end of the last intact record. Without that, an append after a torn
// tail would land *behind* the garbage bytes, where scan() — which stops at
// the first torn/corrupt frame — could never reach it: an acked record
// silently dropped on the next recovery.
class FileJournal final : public Journal {
 public:
  explicit FileJournal(std::string path);
  ~FileJournal() override;

  void append(const Bytes& record) override;
  void scan(const std::function<void(const Bytes&)>& fn) override;
  void truncate() override;
  uint64_t record_count() const override { return record_count_; }
  uint64_t byte_size() const override { return byte_size_; }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  uint64_t record_count_ = 0;
  uint64_t byte_size_ = 0;      // payload bytes of intact records
  uint64_t valid_file_bytes_ = 0;  // file offset just past the last intact record
};

// Obs handles for the group-commit durability plane, shared by every site
// where writes become durable (this journal and the write-back window under
// the blob provider and the HDFS DataNode). Cluster-wide aggregates;
// resolve once at construction per the obs cost rule.
struct GroupCommitObs {
  obs::Counter* batches;           // kv/group_commit_batches
  obs::Counter* records;           // kv/group_commit_records
  obs::Gauge* unsynced_bytes;      // kv/unsynced_bytes (acked or buffered, not yet on platter)
  obs::Histogram* flush_latency;   // kv/flush_latency_s (record arrival → batch synced)
  obs::Counter* bytes_lost;        // kv/bytes_lost_on_power_loss
  obs::Counter* acked_bytes_lost;  // kv/acked_bytes_lost_on_power_loss
  static GroupCommitObs resolve(sim::Simulator& sim);
};

// Group-commit decorator: buffers appends into batches and syncs a batch to
// the inner journal on the policy's count-or-time trigger, charging the
// owning node's Disk once per batch (net::Network::try_disk_write, so a
// power loss mid-write fails the batch via the incarnation machinery).
//
// Ack semantics per DurabilityLevel:
//   kImmediate  every record is its own batch; append_acked resolves after
//               its sync. Power loss destroys zero acked records.
//   kBatched    append_acked resolves when the record's batch syncs
//               (classic group commit: crash before the ack loses the whole
//               batch, crash after the ack loses nothing).
//   kNone       append_acked resolves immediately; batches sync on the same
//               count-or-time cadence but purely best-effort.
// Plain append() always early-acks (it cannot block); records appended that
// way count as acknowledged for loss accounting.
//
// The durable state is the *inner* journal: scan/record_count/byte_size
// show only synced records, exactly what a reboot would recover.
class GroupCommitJournal final : public Journal {
 public:
  GroupCommitJournal(sim::Simulator& sim, net::Network& net, net::NodeId node,
                     std::unique_ptr<Journal> inner, DurabilityPolicy policy);

  void append(const Bytes& record) override;
  sim::Task<bool> append_acked(const Bytes& record) override;
  // Closes the open batch and waits for every pending batch; true when the
  // last of them reached the platter.
  sim::Task<bool> sync() override;
  void scan(const std::function<void(const Bytes&)>& fn) override;
  // Checkpoint support: clears the inner journal and *resolves* (rather
  // than fails) all pending batches — their records are subsumed by the
  // snapshot record the caller appends next, not lost.
  void truncate() override;
  uint64_t record_count() const override { return inner_->record_count(); }
  uint64_t byte_size() const override { return inner_->byte_size(); }

  // Power loss on the owning node: every buffered-unsynced record dies with
  // RAM — exactly the unsynced window, no more, no less. Call after the
  // fault layer flipped the node down (Network::set_node_up), so the bumped
  // incarnation also fails the batch in flight on the disk.
  void power_loss();

  const DurabilityPolicy& policy() const { return policy_; }
  Journal& inner() { return *inner_; }

  // --- introspection (the unsynced window and what power losses cost) ---
  uint64_t unsynced_records() const { return unsynced_records_; }
  uint64_t unsynced_bytes() const { return unsynced_bytes_; }
  uint64_t batches_synced() const { return batches_synced_; }
  uint64_t records_synced() const { return records_synced_; }
  uint64_t bytes_lost() const { return bytes_lost_; }
  uint64_t acked_bytes_lost() const { return acked_bytes_lost_; }

 private:
  struct Batch {
    explicit Batch(sim::Simulator& sim) : done(sim) {}
    uint64_t id = 0;
    std::vector<Bytes> records;
    uint64_t bytes = 0;
    uint64_t early_acked_bytes = 0;  // appended via append()/kNone: already acked
    double opened_at = 0;
    bool ok = false;
    bool resolved = false;  // settled out-of-band (truncate/power_loss)
    sim::Event done;
  };

  std::shared_ptr<Batch> enqueue(const Bytes& record, bool early_acked);
  void close_open();
  void resolve(Batch& b, bool ok);
  void release_unsynced(const Batch& b);
  void lose_batch(Batch& b);
  sim::Task<void> batch_timer(uint64_t id);
  sim::Task<void> flusher();

  sim::Simulator& sim_;
  net::Network& net_;
  net::NodeId node_;
  std::unique_ptr<Journal> inner_;
  DurabilityPolicy policy_;

  std::shared_ptr<Batch> open_;
  std::deque<std::shared_ptr<Batch>> queue_;
  std::shared_ptr<Batch> inflight_;
  bool flusher_running_ = false;
  uint64_t next_batch_id_ = 0;

  uint64_t unsynced_records_ = 0;
  uint64_t unsynced_bytes_ = 0;
  uint64_t batches_synced_ = 0;
  uint64_t records_synced_ = 0;
  uint64_t bytes_lost_ = 0;
  uint64_t acked_bytes_lost_ = 0;

  GroupCommitObs gc_;
};

}  // namespace bs::kv

// Write-back window: the group-commit machinery under the blob provider's
// page flusher and the HDFS DataNode's block syncer (the write-behind side
// of the durability spectrum, common/durability.h).
//
// Records are buffered in RAM and numbered by a sequence (seq). One flusher
// coroutine per node, spawned on the first record, persists them through
// the node's disk with net::Network::try_disk_write, so a power loss fails
// the batch in flight through the incarnation machinery. synced_seq is the
// highest seq on the platter; seq - synced_seq is a record's depth in the
// window.
//
// Each owner derives three parameters from its DurabilityPolicy:
//   batch_limit  records per disk write, and the count trigger;
//   max_delay_s  the time trigger: a batch short of batch_limit waits at
//                most this long after its oldest record arrived (a batch
//                limit of 1 never waits);
//   ack_depth    a record is acknowledged once its depth is at most
//                ack_depth: 0 after its own sync, kAckOnEnqueue at once.
// A batch forms when the disk is free and a trigger has fired, so records
// that arrive while a batch is on the disk join the next one.
// (kv::GroupCommitJournal differs here: it closes a batch when the batch is
// full or its timer fires, even while an earlier batch is still syncing.)
//
// The owner supplies three hooks, called from the flusher and power_loss():
//   live(rec)           false once the record was deleted while queued: it
//                       is released without a disk write;
//   synced(rec, size)   the record reached the platter;
//   dropped(rec, size)  the record will never reach the platter (deleted
//                       while queued, or destroyed by a power loss).
// released() is notified whenever records leave the window, for owners
// whose writers wait for RAM.
//
// A power loss destroys exactly the window: the queued records at once,
// the batch in flight when its disk write fails. The kv/* group-commit
// instruments account both.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <utility>
#include <vector>

#include "common/assert.h"
#include "kv/journal.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace bs {

struct WriteBackParams {
  static constexpr uint64_t kAckOnEnqueue =
      std::numeric_limits<uint64_t>::max();

  uint64_t batch_limit = 1;
  double max_delay_s = 0;
  uint64_t ack_depth = 0;
};

template <typename Record>
class WriteBackWindow {
 public:
  struct Hooks {
    std::function<bool(const Record&)> live;
    std::function<void(const Record&, uint64_t size)> synced;
    std::function<void(const Record&, uint64_t size)> dropped;
  };

  WriteBackWindow(sim::Simulator& sim, net::Network& net, net::NodeId node,
                  WriteBackParams params, Hooks hooks)
      : sim_(sim), net_(net), node_(node), params_(params),
        hooks_(std::move(hooks)), added_(sim), drained_(sim), synced_(sim),
        released_(sim), gc_(kv::GroupCommitObs::resolve(sim)) {
    BS_CHECK(params_.batch_limit > 0);
  }

  // Buffers one record and returns its seq; starts the flusher on first
  // use.
  uint64_t enqueue(const Record& rec, uint64_t size) {
    const uint64_t seq = ++next_seq_;
    queue_.push_back(Entry{rec, size, seq, sim_.now()});
    unsynced_bytes_ += size;
    gc_.unsynced_bytes->add(static_cast<double>(size));
    added_.notify_one();
    if (!flusher_running_) {
      flusher_running_ = true;
      sim_.spawn(flusher());
    }
    return seq;
  }

  // True when every record is acknowledged as it is enqueued, so callers
  // need not wait_acked().
  bool acks_on_enqueue() const {
    return params_.ack_depth == WriteBackParams::kAckOnEnqueue;
  }

  // Resolves true once record `seq` is acknowledged; false if a power loss
  // (or the node's incarnation bump) came first.
  sim::Task<bool> wait_acked(uint64_t seq) {
    const uint64_t need =
        seq > params_.ack_depth ? seq - params_.ack_depth : 0;
    const uint64_t losses = power_losses_;
    const uint64_t inc = net_.incarnation(node_);
    while (synced_seq_ < need) {
      if (lost_since(losses, inc)) co_return false;
      co_await synced_.wait();
    }
    co_return !lost_since(losses, inc);
  }

  // Blocks until every buffered record is on disk, forcing batches out
  // regardless of the count-or-time trigger.
  sim::Task<void> drain() {
    force_ = true;
    added_.notify_all();
    while (!queue_.empty() || !inflight_.empty()) co_await drained_.wait();
    force_ = false;
  }

  // Power loss: every queued record dies with RAM. The batch in flight is
  // failed by the incarnation machinery and dropped when its write
  // resolves.
  void power_loss() {
    ++power_losses_;
    std::deque<Entry> lost = std::move(queue_);
    queue_.clear();
    for (const Entry& e : lost) drop_lost(e);
    released_.notify_all();
    synced_.notify_all();  // ack waiters observe the loss
    added_.notify_all();   // the flusher re-checks its (now empty) queue
  }

  sim::CondVar& released() { return released_; }

  // --- introspection (the unsynced window and what power losses cost) ---
  uint64_t unsynced_records() const { return queue_.size() + inflight_.size(); }
  uint64_t unsynced_bytes() const { return unsynced_bytes_; }
  uint64_t batches() const { return batches_; }
  uint64_t bytes_lost() const { return bytes_lost_; }
  uint64_t acked_bytes_lost() const { return acked_bytes_lost_; }

 private:
  struct Entry {
    Record rec;
    uint64_t size = 0;
    uint64_t seq = 0;
    double enqueued_at = 0;
  };

  bool seq_acked(uint64_t seq) const {
    return seq <= synced_seq_ || seq - synced_seq_ <= params_.ack_depth;
  }

  bool lost_since(uint64_t losses, uint64_t inc) const {
    return power_losses_ != losses || net_.incarnation(node_) != inc;
  }

  void advance_synced(uint64_t seq) {
    if (seq > synced_seq_) {
      synced_seq_ = seq;
      synced_.notify_all();
    }
  }

  void release(const Entry& e) {
    unsynced_bytes_ -= e.size;
    gc_.unsynced_bytes->add(-static_cast<double>(e.size));
  }

  void drop_lost(const Entry& e) {
    release(e);
    bytes_lost_ += e.size;
    gc_.bytes_lost->inc(static_cast<double>(e.size));
    if (seq_acked(e.seq)) {
      acked_bytes_lost_ += e.size;
      gc_.acked_bytes_lost->inc(static_cast<double>(e.size));
    }
    hooks_.dropped(e.rec, e.size);
  }

  sim::Task<void> timer(double deadline) {
    if (deadline > sim_.now()) co_await sim_.delay(deadline - sim_.now());
    added_.notify_all();  // wake the flusher to re-check its trigger
  }

  sim::Task<void> flusher() {
    while (true) {
      while (queue_.empty()) {
        drained_.notify_all();
        co_await added_.wait();
      }
      if (!force_) {
        const double deadline =
            queue_.front().enqueued_at + params_.max_delay_s;
        if (sim_.now() < deadline && queue_.size() < params_.batch_limit) {
          sim_.spawn(timer(deadline));
          while (!force_ && !queue_.empty() &&
                 queue_.size() < params_.batch_limit &&
                 sim_.now() < deadline) {
            co_await added_.wait();
          }
          if (queue_.empty()) continue;  // a power loss emptied the queue
        }
      }
      // Form the batch.
      uint64_t batch_bytes = 0;
      uint64_t last_seq = synced_seq_;
      const double opened_at = queue_.front().enqueued_at;
      while (!queue_.empty() && inflight_.size() < params_.batch_limit) {
        Entry e = std::move(queue_.front());
        queue_.pop_front();
        last_seq = std::max(last_seq, e.seq);
        if (!hooks_.live(e.rec)) {
          release(e);
          hooks_.dropped(e.rec, e.size);
          released_.notify_all();
          continue;
        }
        batch_bytes += e.size;
        inflight_.push_back(std::move(e));
      }
      if (inflight_.empty()) {
        advance_synced(last_seq);  // every popped record was deleted
        continue;
      }
      const bool ok = co_await net_.try_disk_write(
          node_, static_cast<double>(batch_bytes));
      std::vector<Entry> batch = std::move(inflight_);
      inflight_.clear();
      if (ok) {
        for (const Entry& e : batch) {
          release(e);
          hooks_.synced(e.rec, e.size);
        }
        ++batches_;
        gc_.batches->inc();
        gc_.records->inc(static_cast<double>(batch.size()));
        gc_.flush_latency->observe(sim_.now() - opened_at);
        advance_synced(last_seq);
      } else {
        // The node lost power under the batch: it never reached the
        // platter and dies with RAM.
        for (const Entry& e : batch) drop_lost(e);
      }
      released_.notify_all();
    }
  }

  sim::Simulator& sim_;
  net::Network& net_;
  net::NodeId node_;
  WriteBackParams params_;
  Hooks hooks_;

  std::deque<Entry> queue_;     // buffered, awaiting a batch
  std::vector<Entry> inflight_;  // the batch on the platter path
  uint64_t next_seq_ = 0;        // last seq assigned
  uint64_t synced_seq_ = 0;      // highest seq durable on disk
  uint64_t power_losses_ = 0;
  uint64_t unsynced_bytes_ = 0;
  uint64_t batches_ = 0;
  uint64_t bytes_lost_ = 0;
  uint64_t acked_bytes_lost_ = 0;
  sim::CondVar added_;
  sim::CondVar drained_;
  sim::CondVar synced_;  // notified when synced_seq_ advances (and on loss)
  sim::CondVar released_;
  bool flusher_running_ = false;
  bool force_ = false;  // drain(): flush now, ignore the trigger

  kv::GroupCommitObs gc_;
};

}  // namespace bs

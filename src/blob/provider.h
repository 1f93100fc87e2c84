// Page provider — stores page replicas on one cluster node.
//
// Write path: the page body arrives over the network (a flow), lands in the
// provider's RAM buffer, and is acknowledged per the configured
// DurabilityPolicy (common/durability.h); a background flusher persists
// buffered pages to the local disk through the KV store (the BerkeleyDB
// stand-in). If the RAM buffer is full, incoming writes block until the
// flusher drains — this is the backpressure that makes provider write
// throughput degrade to disk speed once RAM is exhausted, and it is why
// BlobSeer's load-balanced remote writes beat HDFS's synchronous local-disk
// writes in the paper's §IV.B write benchmark.
//
// The flusher, the ack rule and power-loss accounting are the shared
// write-back window (common/write_back_window.h). Per level, the provider
// sets it to:
//   kNone       (default — the paper's write-behind model) one page per
//               disk write, ack as soon as the page is in RAM.
//   kBatched    up to max_records pages per disk write on the count-or-time
//               trigger; ack once at most max_records pages are ahead of
//               the page in the window.
//   kImmediate  one page per disk write, ack after the page's own sync.
// bench/ext8_group_commit.cpp measures the trade.
//
// Read path: RAM-resident pages (dirty, or clean in the LRU) are served
// from memory; otherwise the page is read from disk first. Either way the
// body then flows back over the network to the client. Dirty and clean
// pages share one RAM budget (common/byte_lru.h); only clean ones evict.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "blob/types.h"
#include "common/byte_lru.h"
#include "common/container.h"
#include "common/dataspec.h"
#include "common/durability.h"
#include "common/write_back_window.h"
#include "kv/kvstore.h"
#include "net/network.h"
#include "sim/task.h"

namespace bs::blob {

struct ProviderConfig {
  net::NodeId node = 0;
  // RAM available for buffering dirty pages + caching clean ones.
  uint64_t ram_bytes = 1ULL << 30;
  // Whether clean pages stay cached in RAM after flush/read (LRU). The
  // paper-scale read benches run cold (data >> RAM), so this mostly serves
  // the cache ablation.
  bool read_cache = true;
  // When the write path acks relative to when it syncs (see file comment).
  // The default preserves the paper's write-behind semantics.
  DurabilityPolicy durability = DurabilityPolicy::none();
};

class Provider {
 public:
  Provider(sim::Simulator& sim, net::Network& net, ProviderConfig cfg);

  net::NodeId node() const { return cfg_.node; }

  // Receives one page from `client` and stores it. Returns true once the
  // page is acknowledged per cfg_.durability (see file comment); false if
  // the provider is down — at request time (the caller waits out the
  // connection timeout), mid-transfer (the bytes are discarded), or if a
  // power loss destroyed the page before its durability settled.
  // `rate_cap` caps the incoming flow's rate (used by the repair service to
  // throttle background re-replication traffic; 0 = uncapped).
  sim::Task<bool> put_page(net::NodeId client, PageKey key, DataSpec data,
                           double rate_cap = 0);

  // Sends the page back to `client`; nullopt if unknown or down (a down
  // provider costs the caller the connection timeout).
  sim::Task<std::optional<DataSpec>> get_page(net::NodeId client,
                                              PageKey key);

  // Copies one page replica straight to another provider (repair traffic:
  // disk read here if not RAM-resident, then a provider→provider flow).
  // False if either end is down or the page is unknown here.
  sim::Task<bool> replicate_to(Provider& dst, PageKey key, double rate_cap);

  // --- fault injection (called by the fault layer, not clients) ---
  //
  // A crash is fail-stop at the network level: every request fails until
  // recover(). Storage semantics: pages whose flush reached the disk
  // survive a plain crash (the KV journal replays on reboot); pages still
  // in the unsynced window are destroyed — exactly the window, no more, no
  // less (bytes_lost_on_power_loss accounts them) — and the clean-page
  // cache is emptied, so the first read after recover() goes to disk.
  // wipe_storage additionally models a disk loss, after which only
  // re-replication can restore the data.
  void crash(bool wipe_storage = false);
  void recover();
  bool is_down() const { return down_; }

  // Blocks until every buffered page is on disk, forcing batches out
  // regardless of the count-or-time trigger (used by tests/benches to
  // measure full-durability time).
  sim::Task<void> drain();

  // Deletes a page replica (garbage collection). Returns true if present.
  sim::Task<bool> erase_page(net::NodeId client, PageKey key);

  // Whether this provider's store holds the page (repair's "block report":
  // a wiped-and-recovered node is up but empty, and only this tells the
  // repair service the replica needs re-creating). Local, no modeled cost.
  bool has_page(const PageKey& key) const {
    return store_.contains(key.to_string());
  }

  // --- introspection ---
  uint64_t pages_stored() const { return pages_stored_; }
  uint64_t bytes_stored() const { return store_.value_bytes(); }
  uint64_t ram_used() const { return ram_.used(); }
  uint64_t cache_hits() const { return cache_hits_; }
  uint64_t cache_misses() const { return cache_misses_; }
  const kv::KvStore& store() const { return store_; }
  // The durability spectrum's observable side: the unsynced window now, and
  // what power losses destroyed so far.
  uint64_t unsynced_pages() const { return window_.unsynced_records(); }
  uint64_t unsynced_bytes() const { return window_.unsynced_bytes(); }
  uint64_t flush_batches() const { return window_.batches(); }
  uint64_t bytes_lost_on_power_loss() const { return window_.bytes_lost(); }
  uint64_t acked_bytes_lost_on_power_loss() const {
    return window_.acked_bytes_lost();
  }

 private:
  void cache_touch(const std::string& key, uint64_t size);
  bool ram_resident(const std::string& key) const;

  sim::Simulator& sim_;
  net::Network& net_;
  ProviderConfig cfg_;
  kv::KvStore store_;  // persisted pages (the "disk" contents)

  // RAM: dirty pages pinned, clean pages in the LRU.
  ByteLru<std::string> ram_;
  // key → seq for every page that is dirty or in the in-flight batch.
  bs::unordered_map<std::string, uint64_t> dirty_seq_;
  WriteBackWindow<std::string> window_;

  uint64_t pages_stored_ = 0;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;
  bool down_ = false;

  // Obs handles (cluster-wide aggregates shared by all providers in the
  // registry; resolved once here so the data path stays lookup-free).
  obs::Tracer* tracer_;
  obs::Counter* m_put_pages_;
  obs::Counter* m_put_bytes_;
  obs::Counter* m_get_pages_;
  obs::Counter* m_get_bytes_;
  obs::Counter* m_cache_hits_;
  obs::Counter* m_cache_misses_;
  obs::Counter* m_replications_;
};

}  // namespace bs::blob

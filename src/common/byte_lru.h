// Byte-bounded LRU of clean entries that shares one RAM budget with bytes
// the owner pins.
//
// The blob provider keeps its dirty pages pinned (they cannot be evicted
// until the flusher persists them) and its clean pages in the LRU; the
// HDFS DataNode's page cache pins nothing. Eviction always takes the least
// recently used entry; pinned bytes only shrink the room the entries share.
#pragma once

#include <cstdint>
#include <list>
#include <utility>

#include "common/container.h"

namespace bs {

template <typename Key>
class ByteLru {
 public:
  explicit ByteLru(uint64_t capacity) : capacity_(capacity) {}

  bool contains(const Key& key) const { return index_.count(key) > 0; }

  // Marks `key` most recently used, admitting it first if absent (evicting
  // older entries to make room). An entry larger than the whole capacity is
  // never admitted.
  void touch(const Key& key, uint64_t size) {
    auto it = index_.find(key);
    if (it != index_.end()) {
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    if (size > capacity_) return;
    evict_for(size);
    entries_.emplace_front(key, size);
    index_.emplace(key, entries_.begin());
    bytes_ += size;
  }

  // Evicts least recently used entries until `need` more bytes fit beside
  // everything pinned and cached, or nothing is left to evict.
  void evict_for(uint64_t need) {
    while (!fits(need) && !entries_.empty()) {
      bytes_ -= entries_.back().second;
      index_.erase(entries_.back().first);
      entries_.pop_back();
    }
  }

  bool fits(uint64_t need) const { return used() + need <= capacity_; }

  void pin(uint64_t bytes) { pinned_ += bytes; }
  void unpin(uint64_t bytes) { pinned_ -= bytes; }

  // Turns `size` pinned bytes into the most recent entry for `key`, without
  // evicting: the bytes were resident already. A stale entry for the key is
  // replaced.
  void unpin_into(const Key& key, uint64_t size) {
    pinned_ -= size;
    auto [it, fresh] = index_.try_emplace(key);
    if (!fresh) {
      bytes_ -= it->second->second;
      entries_.erase(it->second);
    }
    entries_.emplace_front(key, size);
    it->second = entries_.begin();
    bytes_ += size;
  }

  // Drops `key`'s entry; false if it was not cached.
  bool erase(const Key& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return false;
    bytes_ -= it->second->second;
    entries_.erase(it->second);
    index_.erase(it);
    return true;
  }

  // Drops every entry; pinned bytes stay.
  void clear() {
    entries_.clear();
    index_.clear();
    bytes_ = 0;
  }

  // Bytes charged against the capacity: pinned plus cached.
  uint64_t used() const { return pinned_ + bytes_; }

 private:
  using Entries = std::list<std::pair<Key, uint64_t>>;

  uint64_t capacity_;
  uint64_t pinned_ = 0;
  uint64_t bytes_ = 0;
  Entries entries_;  // front = most recently used
  bs::unordered_map<Key, typename Entries::iterator> index_;
};

}  // namespace bs

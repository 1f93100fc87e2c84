// Direct unit tests for the service components: version manager semantics,
// namespace manager operations, provider RAM/LRU behavior, and the
// network's per-stream cap — paths the higher-level suites exercise only
// indirectly.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "blob/cluster.h"
#include "blob/provider.h"
#include "blob/version_manager.h"
#include "bsfs/namespace.h"
#include "hdfs/datanode.h"
#include "net/network.h"
#include "obs/metrics.h"
#include "sim/parallel.h"
#include "sim/simulator.h"

namespace bs {
namespace {

net::ClusterConfig tiny_net() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.nodes_per_rack = 4;
  return cfg;
}

// ---------- VersionManager ----------

TEST(VersionManager, AssignsDenseVersionsAndTracksHistory) {
  sim::Simulator sim;
  net::Network net(sim, tiny_net());
  blob::VersionManager vm(sim, net, {});
  std::vector<blob::WriteTicket> tickets;
  auto proc = [](blob::VersionManager& v,
                 std::vector<blob::WriteTicket>* out) -> sim::Task<void> {
    auto desc = co_await v.create_blob(1, 100, 1);
    out->push_back(co_await v.assign_write(1, desc.id, 0, 300));
    out->push_back(co_await v.assign_write(1, desc.id, 0, 100));
    out->push_back(
        co_await v.assign_write(1, desc.id,
                                blob::VersionManager::kAppendOffset, 250));
  };
  sim.spawn(proc(vm, &tickets));
  sim.run();
  ASSERT_EQ(tickets.size(), 3u);
  EXPECT_EQ(tickets[0].version, 1u);
  EXPECT_EQ(tickets[0].history.size(), 0u);
  EXPECT_EQ(tickets[0].size_after, 300u);
  EXPECT_EQ(tickets[0].cap_pages, 4u);  // 3 pages -> cap 4
  EXPECT_EQ(tickets[1].version, 2u);
  EXPECT_EQ(tickets[1].history.size(), 1u);
  EXPECT_EQ(tickets[1].size_after, 300u);  // overwrite keeps the size
  // Append resolves against the latest assigned size (300, page-aligned)
  // and may leave a short final page as the new end of the blob.
  EXPECT_EQ(tickets[2].version, 3u);
  EXPECT_EQ(tickets[2].offset, 300u);
  EXPECT_EQ(tickets[2].size_after, 550u);
  EXPECT_EQ(tickets[2].cap_pages, 8u);  // 6 pages -> cap 8
  EXPECT_EQ(tickets[2].history.size(), 2u);
}

TEST(VersionManager, PublicationRequiresCommitPrefix) {
  sim::Simulator sim;
  net::Network net(sim, tiny_net());
  blob::VersionManager vm(sim, net, {});
  blob::BlobId blob = 0;
  auto proc = [](blob::VersionManager& v, blob::BlobId* out) -> sim::Task<void> {
    auto desc = co_await v.create_blob(1, 100, 1);
    *out = desc.id;
    (void)co_await v.assign_write(1, desc.id, 0, 100);
    (void)co_await v.assign_write(2, desc.id, 0, 100);
    (void)co_await v.assign_write(3, desc.id, 0, 100);
    co_await v.commit(3, desc.id, 3);
    co_await v.commit(2, desc.id, 2);
  };
  sim.spawn(proc(vm, &blob));
  sim.run();
  EXPECT_EQ(vm.published_version(blob), blob::kNoVersion);  // v1 missing
  auto finish = [](blob::VersionManager& v, blob::BlobId b) -> sim::Task<void> {
    co_await v.commit(1, b, 1);
  };
  sim.spawn(finish(vm, blob));
  sim.run();
  EXPECT_EQ(vm.published_version(blob), 3u);  // all three cascade
}

TEST(VersionManager, LatestReflectsOnlyPublished) {
  sim::Simulator sim;
  net::Network net(sim, tiny_net());
  blob::VersionManager vm(sim, net, {});
  blob::VersionInfo before{}, after{};
  auto proc = [](blob::VersionManager& v, blob::VersionInfo* b,
                 blob::VersionInfo* a) -> sim::Task<void> {
    auto desc = co_await v.create_blob(1, 100, 1);
    auto t = co_await v.assign_write(1, desc.id, 0, 500);
    *b = co_await v.latest(1, desc.id);
    co_await v.commit(1, desc.id, t.version);
    *a = co_await v.latest(1, desc.id);
  };
  sim.spawn(proc(vm, &before, &after));
  sim.run();
  EXPECT_EQ(before.version, blob::kNoVersion);
  EXPECT_EQ(before.size, 0u);
  EXPECT_EQ(after.version, 1u);
  EXPECT_EQ(after.size, 500u);
}

// ---------- NamespaceManager ----------

TEST(Namespace, ImplicitParentDirectories) {
  sim::Simulator sim;
  net::Network net(sim, tiny_net());
  bsfs::NamespaceManager ns(sim, net, {});
  std::vector<std::string> root_list, a_list;
  auto proc = [](bsfs::NamespaceManager& n, std::vector<std::string>* root,
                 std::vector<std::string>* a) -> sim::Task<void> {
    co_await n.add_file(1, "/a/b/c/file", 7, 64);
    *root = co_await n.list(1, "/");
    *a = co_await n.list(1, "/a/b");
  };
  sim.spawn(proc(ns, &root_list, &a_list));
  sim.run();
  ASSERT_EQ(root_list.size(), 1u);
  EXPECT_EQ(root_list[0], "/a");
  ASSERT_EQ(a_list.size(), 1u);
  EXPECT_EQ(a_list[0], "/a/b/c");
}

TEST(Namespace, RenameMovesEntry) {
  sim::Simulator sim;
  net::Network net(sim, tiny_net());
  bsfs::NamespaceManager ns(sim, net, {});
  bool renamed = false, old_gone = false, found = false;
  auto proc = [](bsfs::NamespaceManager& n, bool* rn, bool* og,
                 bool* fd) -> sim::Task<void> {
    co_await n.add_file(1, "/src/f", 3, 64);
    co_await n.finalize(1, "/src/f");
    *rn = co_await n.rename(1, "/src/f", "/dst/moved");
    auto old_entry = co_await n.lookup(1, "/src/f");
    *og = !old_entry.has_value();
    auto new_entry = co_await n.lookup(1, "/dst/moved");
    *fd = new_entry.has_value() && new_entry->blob == 3;
  };
  sim.spawn(proc(ns, &renamed, &old_gone, &found));
  sim.run();
  EXPECT_TRUE(renamed);
  EXPECT_TRUE(old_gone);
  EXPECT_TRUE(found);
}

TEST(Namespace, RenameOntoExistingFails) {
  sim::Simulator sim;
  net::Network net(sim, tiny_net());
  bsfs::NamespaceManager ns(sim, net, {});
  bool renamed = true;
  auto proc = [](bsfs::NamespaceManager& n, bool* rn) -> sim::Task<void> {
    co_await n.add_file(1, "/a", 1, 64);
    co_await n.add_file(1, "/b", 2, 64);
    *rn = co_await n.rename(1, "/a", "/b");
  };
  sim.spawn(proc(ns, &renamed));
  sim.run();
  EXPECT_FALSE(renamed);
}

TEST(Namespace, MkdirIsIdempotentOnDirsOnly) {
  sim::Simulator sim;
  net::Network net(sim, tiny_net());
  bsfs::NamespaceManager ns(sim, net, {});
  bool dir_ok = false, again_ok = false, on_file = true;
  auto proc = [](bsfs::NamespaceManager& n, bool* a, bool* b,
                 bool* c) -> sim::Task<void> {
    *a = co_await n.mkdir(1, "/dir");
    *b = co_await n.mkdir(1, "/dir");
    co_await n.add_file(1, "/file", 1, 64);
    *c = co_await n.mkdir(1, "/file");
  };
  sim.spawn(proc(ns, &dir_ok, &again_ok, &on_file));
  sim.run();
  EXPECT_TRUE(dir_ok);
  EXPECT_TRUE(again_ok);
  EXPECT_FALSE(on_file);
}

// ---------- Provider RAM / LRU ----------

TEST(ProviderRam, CleanPagesEvictUnderPressure) {
  sim::Simulator sim;
  net::Network net(sim, tiny_net());
  blob::ProviderConfig cfg;
  cfg.node = 1;
  cfg.ram_bytes = 300;  // room for three 100-byte pages
  cfg.read_cache = true;
  blob::Provider provider(sim, net, cfg);
  uint64_t hits = 0, misses = 0;
  auto proc = [](blob::Provider& p, uint64_t* h, uint64_t* m) -> sim::Task<void> {
    // Store four pages; the flusher cleans them; the LRU can hold three.
    for (uint64_t i = 0; i < 4; ++i) {
      co_await p.put_page(0, blob::PageKey{1, i, 1},
                          DataSpec::pattern(1, i * 100, 100));
    }
    co_await p.drain();
    // Page 0 was evicted when page 3 arrived; 1..3 are resident.
    (void)co_await p.get_page(0, blob::PageKey{1, 0, 1});  // miss (disk)
    (void)co_await p.get_page(0, blob::PageKey{1, 2, 1});  // hit
    (void)co_await p.get_page(0, blob::PageKey{1, 3, 1});  // hit
    *h = p.cache_hits();
    *m = p.cache_misses();
  };
  sim.spawn(proc(provider, &hits, &misses));
  sim.run();
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(hits, 2u);
}

TEST(ProviderRam, ReadCacheOffAlwaysHitsDisk) {
  sim::Simulator sim;
  net::Network net(sim, tiny_net());
  blob::ProviderConfig cfg;
  cfg.node = 1;
  cfg.ram_bytes = 1 << 20;
  cfg.read_cache = false;
  blob::Provider provider(sim, net, cfg);
  uint64_t hits = 99, misses = 0;
  auto proc = [](blob::Provider& p, uint64_t* h, uint64_t* m) -> sim::Task<void> {
    co_await p.put_page(0, blob::PageKey{1, 0, 1}, DataSpec::pattern(1, 0, 100));
    co_await p.drain();
    for (int i = 0; i < 3; ++i) {
      (void)co_await p.get_page(0, blob::PageKey{1, 0, 1});
    }
    *h = p.cache_hits();
    *m = p.cache_misses();
  };
  sim.spawn(proc(provider, &hits, &misses));
  sim.run();
  EXPECT_EQ(hits, 0u);
  EXPECT_EQ(misses, 3u);
}

TEST(ProviderRam, DirtyPagesAreRamHitsBeforeFlush) {
  sim::Simulator sim;
  net::ClusterConfig ncfg = tiny_net();
  ncfg.disk_write_bps = 1;  // the flusher will take ~forever
  net::Network net(sim, ncfg);
  blob::ProviderConfig cfg;
  cfg.node = 1;
  cfg.ram_bytes = 1 << 20;
  blob::Provider provider(sim, net, cfg);
  uint64_t hits = 0;
  auto proc = [](blob::Provider& p, uint64_t* h) -> sim::Task<void> {
    co_await p.put_page(0, blob::PageKey{1, 0, 1}, DataSpec::pattern(1, 0, 64));
    (void)co_await p.get_page(0, blob::PageKey{1, 0, 1});
    *h = p.cache_hits();
  };
  sim.spawn(proc(provider, &hits));
  sim.run_until(1.0);  // don't wait for the 64-second flush
  EXPECT_EQ(hits, 1u);
}

// ---------- DataNode page cache ----------

TEST(DataNodeCache, HitsAndMissesFeedTheMetrics) {
  sim::Simulator sim;
  net::Network net(sim, tiny_net());
  // Room for three 100-byte blocks.
  hdfs::DataNode dn(sim, net, 1, /*ram_bytes=*/300);
  auto proc = [](hdfs::DataNode& d) -> sim::Task<void> {
    for (uint64_t i = 0; i < 4; ++i) {
      co_await d.receive_block(0, i + 1, DataSpec::pattern(1, i * 100, 100));
    }
    // Block 1 was evicted when block 4 arrived; 2..4 are resident.
    (void)co_await d.read_block(0, 1, 0, 100);  // miss (disk)
    (void)co_await d.read_block(0, 3, 0, 100);  // hit
    (void)co_await d.read_block(0, 4, 0, 100);  // hit
  };
  sim.spawn(proc(dn));
  sim.run();
  EXPECT_EQ(dn.cache_hits(), 2u);
  EXPECT_EQ(dn.cache_misses(), 1u);
  EXPECT_EQ(sim.metrics().counter("hdfs/dn_cache_hits").value(), 2.0);
  EXPECT_EQ(sim.metrics().counter("hdfs/dn_cache_misses").value(), 1.0);
  EXPECT_EQ(net.disk(1).bytes_read(), 100.0);
}

// ---------- Network per-stream cap ----------

TEST(StreamCap, SingleFlowIsCapped) {
  sim::Simulator sim;
  net::ClusterConfig cfg = tiny_net();
  cfg.nic_bps = 100e6;
  cfg.per_stream_cap_bps = 40e6;
  net::Network net(sim, cfg);
  auto proc = [](net::Network& n) -> sim::Task<void> {
    co_await n.transfer(0, 4, 40e6);
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);  // 40 MB at the 40 MB/s cap
}

TEST(StreamCap, ParallelStreamsRecoverTheNic) {
  sim::Simulator sim;
  net::ClusterConfig cfg = tiny_net();
  cfg.nic_bps = 100e6;
  cfg.per_stream_cap_bps = 40e6;
  net::Network net(sim, cfg);
  // Two capped streams from distinct sources into one sink: 80 MB/s total.
  auto proc = [](net::Network& n, net::NodeId src) -> sim::Task<void> {
    co_await n.transfer(src, 4, 40e6);
  };
  sim.spawn(proc(net, 0));
  sim.spawn(proc(net, 1));
  sim.run();
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);  // both finish together, capped
}

TEST(StreamCap, ExplicitCapCombinesWithGlobalCap) {
  sim::Simulator sim;
  net::ClusterConfig cfg = tiny_net();
  cfg.nic_bps = 100e6;
  cfg.per_stream_cap_bps = 40e6;
  net::Network net(sim, cfg);
  auto proc = [](net::Network& n) -> sim::Task<void> {
    co_await n.transfer(0, 4, 20e6, /*rate_cap=*/20e6);  // tighter of the two
  };
  sim.spawn(proc(net));
  sim.run();
  EXPECT_NEAR(sim.now(), 1.0, 1e-9);
}

}  // namespace
}  // namespace bs

// GroupCommitJournal unit battery: the batch-trigger matrix (count fires
// first, timer fires first, explicit sync()), the ack contract under power
// loss (crash before the ack loses the whole batch, crash after the ack
// loses nothing — including a crash that catches the batch on the platter
// path), and WAL replay after a torn tail mid-batch.
//
// The same contract at the two storage nodes' write-back windows (the blob
// provider's page flusher and the HDFS DataNode's block syncer), driven
// through their public write paths.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "blob/provider.h"
#include "hdfs/datanode.h"
#include "kv/journal.h"
#include "kv/kvstore.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace bs::kv {
namespace {

constexpr net::NodeId kNode = 1;
constexpr uint64_t kRecordLen = 1000;

net::ClusterConfig tiny_net() {
  net::ClusterConfig cfg;
  cfg.num_nodes = 2;
  cfg.nodes_per_rack = 2;
  return cfg;
}

// A world with one journal-owning storage node.
struct GcWorld {
  sim::Simulator sim;
  net::Network net;

  GcWorld() : net(sim, tiny_net()) {}

  std::unique_ptr<GroupCommitJournal> journal(DurabilityPolicy policy) {
    return std::make_unique<GroupCommitJournal>(
        sim, net, kNode, std::make_unique<MemoryJournal>(), policy);
  }
};

struct Ack {
  int result = 0;  // 0 = unresolved, 1 = acked, 2 = refused
  double at = -1;  // sim time the ack resolved
};

sim::Task<void> one_append(sim::Simulator* sim, GroupCommitJournal* j,
                           uint64_t tag, Ack* ack) {
  const bool ok = co_await j->append_acked(Bytes(kRecordLen, static_cast<uint8_t>(tag)));
  ack->result = ok ? 1 : 2;
  ack->at = sim->now();
}

sim::Task<void> crash_at(sim::Simulator* sim, GcWorld* w,
                         GroupCommitJournal* j, double at) {
  co_await sim->delay(at);
  w->net.set_node_up(kNode, false);  // bumps the incarnation
  j->power_loss();
}

TEST(GroupCommit, CountTriggerFiresBeforeTimer) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  std::vector<Ack> acks(4);
  for (uint64_t i = 0; i < 4; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.run();
  for (const auto& a : acks) {
    EXPECT_EQ(a.result, 1);
    // Acked when the 4th record closed the batch — long before the 10 s
    // timer, paying one disk positioning overhead for all four.
    EXPECT_LT(a.at, 1.0);
  }
  EXPECT_EQ(j->batches_synced(), 1u);
  EXPECT_EQ(j->records_synced(), 4u);
  EXPECT_EQ(j->inner().record_count(), 4u);
  EXPECT_EQ(j->unsynced_records(), 0u);
}

TEST(GroupCommit, TimerTriggerFiresBeforeCount) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(100, /*max_delay_s=*/0.05));
  std::vector<Ack> acks(3);
  for (uint64_t i = 0; i < 3; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.run();
  for (const auto& a : acks) {
    EXPECT_EQ(a.result, 1);
    // The batch never filled; the max_delay timer flushed it.
    EXPECT_GE(a.at, 0.05);
    EXPECT_LT(a.at, 0.1);
  }
  EXPECT_EQ(j->batches_synced(), 1u);
  EXPECT_EQ(j->inner().record_count(), 3u);
}

sim::Task<void> sync_now(GroupCommitJournal* j, Ack* ack, sim::Simulator* sim) {
  const bool ok = co_await j->sync();
  ack->result = ok ? 1 : 2;
  ack->at = sim->now();
}

TEST(GroupCommit, ExplicitSyncFlushesEarly) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(100, /*max_delay_s=*/10.0));
  // Plain append() buffers without blocking; neither trigger is close.
  for (uint64_t i = 0; i < 3; ++i) j->append(Bytes(kRecordLen, static_cast<uint8_t>(i)));
  EXPECT_EQ(j->inner().record_count(), 0u);
  EXPECT_EQ(j->unsynced_records(), 3u);
  Ack ack;
  w.sim.spawn(sync_now(j.get(), &ack, &w.sim));
  w.sim.run();
  EXPECT_EQ(ack.result, 1);
  EXPECT_LT(ack.at, 1.0);  // did not wait out the 10 s timer
  EXPECT_EQ(j->batches_synced(), 1u);
  EXPECT_EQ(j->inner().record_count(), 3u);
  EXPECT_EQ(j->unsynced_records(), 0u);
}

TEST(GroupCommit, ImmediateSyncsEveryRecordAlone) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::immediate());
  std::vector<Ack> acks(3);
  for (uint64_t i = 0; i < 3; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.run();
  for (const auto& a : acks) EXPECT_EQ(a.result, 1);
  EXPECT_EQ(j->batches_synced(), 3u);  // one batch per record
  EXPECT_EQ(j->inner().record_count(), 3u);
}

TEST(GroupCommit, NoneAcksInstantlyAndSyncsLazily) {
  GcWorld w;
  DurabilityPolicy policy = DurabilityPolicy::none();
  policy.max_delay_s = 0.05;  // flush cadence; irrelevant to the acks
  auto j = w.journal(policy);
  std::vector<Ack> acks(3);
  for (uint64_t i = 0; i < 3; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.run();
  for (const auto& a : acks) {
    EXPECT_EQ(a.result, 1);
    EXPECT_EQ(a.at, 0.0);  // acked on arrival, before any disk time
  }
  // ...but the flush cadence still drove everything to the platter.
  EXPECT_EQ(j->inner().record_count(), 3u);
}

TEST(GroupCommit, CrashBeforeAckLosesTheWholeBatch) {
  GcWorld w;
  // Neither trigger can fire: the batch is still open when power dies.
  auto j = w.journal(DurabilityPolicy::batched(8, /*max_delay_s=*/10.0));
  std::vector<Ack> acks(4);
  for (uint64_t i = 0; i < 4; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.spawn(crash_at(&w.sim, &w, j.get(), 0.001));
  w.sim.run();
  for (const auto& a : acks) EXPECT_EQ(a.result, 2);  // refused, not lied to
  EXPECT_EQ(j->inner().record_count(), 0u);
  EXPECT_EQ(j->bytes_lost(), 4 * kRecordLen);
  // No ack was issued, so no *acked* byte was lost: the contract held.
  EXPECT_EQ(j->acked_bytes_lost(), 0u);
  EXPECT_EQ(j->unsynced_records(), 0u);  // the window was fully accounted
}

TEST(GroupCommit, CrashMidDiskWriteLosesTheInflightBatch) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(2, /*max_delay_s=*/10.0));
  std::vector<Ack> acks(2);
  for (uint64_t i = 0; i < 2; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  // The pair closes the batch at t=0 and the disk write takes ~2 ms; the
  // power loss at 1 ms catches it on the platter path. The incarnation bump
  // makes try_disk_write report failure at completion.
  w.sim.spawn(crash_at(&w.sim, &w, j.get(), 0.001));
  w.sim.run();
  for (const auto& a : acks) EXPECT_EQ(a.result, 2);
  EXPECT_EQ(j->inner().record_count(), 0u);
  EXPECT_EQ(j->bytes_lost(), 2 * kRecordLen);
  EXPECT_EQ(j->acked_bytes_lost(), 0u);
}

TEST(GroupCommit, CrashAfterAckLosesNothing) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  std::vector<Ack> acks(4);
  for (uint64_t i = 0; i < 4; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  // Well after the count trigger synced the batch (~2 ms).
  w.sim.spawn(crash_at(&w.sim, &w, j.get(), 1.0));
  w.sim.run();
  for (const auto& a : acks) {
    EXPECT_EQ(a.result, 1);
    EXPECT_LT(a.at, 1.0);
  }
  EXPECT_EQ(j->bytes_lost(), 0u);
  EXPECT_EQ(j->acked_bytes_lost(), 0u);
  EXPECT_EQ(j->inner().record_count(), 4u);
  // Replay sees all four: what was acked survived the power loss.
  uint64_t replayed = 0;
  j->scan([&](const Bytes&) { ++replayed; });
  EXPECT_EQ(replayed, 4u);
}

TEST(GroupCommit, ReplayAfterTornTailMidBatchKeepsEveryAckedRecord) {
  GcWorld w;
  auto j = w.journal(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  // Two full batches reach the platter and are acked.
  std::vector<Ack> acks(8);
  for (uint64_t i = 0; i < 8; ++i)
    w.sim.spawn(one_append(&w.sim, j.get(), i, &acks[i]));
  w.sim.run_until(1.0);
  for (const auto& a : acks) ASSERT_EQ(a.result, 1);
  ASSERT_EQ(j->inner().record_count(), 8u);
  // A third batch is torn mid-write by the power loss: model the torn tail
  // by appending part of it to the durable log, then cutting the log back
  // mid-batch — one of its records survives the tear, one does not.
  auto* inner = static_cast<MemoryJournal*>(&j->inner());
  inner->append(Bytes(kRecordLen, 100));
  inner->append(Bytes(kRecordLen, 101));
  inner->corrupt_tail(/*keep_records=*/9);
  // Replay: every acked record is still there, in order; the torn batch
  // contributes only its intact prefix.
  std::vector<uint8_t> tags;
  j->scan([&](const Bytes& r) { tags.push_back(r[0]); });
  ASSERT_EQ(tags.size(), 9u);
  for (uint64_t i = 0; i < 8; ++i) EXPECT_EQ(tags[i], static_cast<uint8_t>(i));
  EXPECT_EQ(tags[8], 100);
}

sim::Task<void> one_put(sim::Simulator* sim, KvStore* kv, std::string key,
                        Ack* ack) {
  const bool ok = co_await kv->put_acked(key, Bytes(kRecordLen, 7));
  ack->result = ok ? 1 : 2;
  ack->at = sim->now();
}

TEST(GroupCommit, KvStorePutAckedRidesTheBatch) {
  GcWorld w;
  auto journal = w.journal(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  GroupCommitJournal* j = journal.get();
  KvStore kv(std::move(journal));
  std::vector<Ack> acks(4);
  for (uint64_t i = 0; i < 4; ++i)
    w.sim.spawn(one_put(&w.sim, &kv, "k" + std::to_string(i), &acks[i]));
  w.sim.run();
  for (const auto& a : acks) {
    EXPECT_EQ(a.result, 1);
    EXPECT_LT(a.at, 1.0);  // count trigger, not the 10 s timer
  }
  EXPECT_EQ(j->batches_synced(), 1u);
  // Write-behind read visibility: the store applied each put immediately.
  EXPECT_EQ(kv.size(), 4u);
}

TEST(GroupCommit, CheckpointSettlesPendingBatchesAsSubsumed) {
  GcWorld w;
  auto journal = w.journal(DurabilityPolicy::batched(100, /*max_delay_s=*/10.0));
  GroupCommitJournal* j = journal.get();
  KvStore kv(std::move(journal));
  for (int i = 0; i < 10; ++i) kv.put("k" + std::to_string(i), Bytes(8, 1));
  EXPECT_EQ(j->unsynced_records(), 10u);
  // checkpoint() truncates the journal and appends one snapshot record; the
  // buffered batch must be settled (subsumed), never flushed after it.
  kv.checkpoint();
  w.sim.run();
  EXPECT_EQ(j->unsynced_records(), 0u);
  EXPECT_EQ(j->bytes_lost(), 0u);
  // The durable log replays to exactly the checkpointed state.
  auto replayed = std::make_unique<MemoryJournal>();
  j->scan([&](const Bytes& r) { replayed->append(r); });
  KvStore kv2(std::move(replayed));
  EXPECT_EQ(kv2.size(), 10u);
}

}  // namespace
}  // namespace bs::kv

namespace bs {
namespace {

using kv::kNode;
constexpr uint64_t kPageLen = 4096;

// Uniform handles on the two write-back sites. Record i is page {1, i, 1}
// at the provider and block i + 1 at the DataNode.
struct ProviderSite {
  blob::Provider node;

  ProviderSite(sim::Simulator& sim, net::Network& net, DurabilityPolicy d)
      : node(sim, net, config(d)) {}
  static blob::ProviderConfig config(DurabilityPolicy d) {
    blob::ProviderConfig cfg;
    cfg.node = kNode;
    cfg.durability = d;
    return cfg;
  }
  static blob::PageKey key(uint64_t i) { return blob::PageKey{1, i, 1}; }

  sim::Task<bool> write(uint64_t i) {
    return node.put_page(0, key(i), DataSpec::pattern(i, 0, kPageLen));
  }
  sim::Task<std::optional<DataSpec>> read(uint64_t i) {
    return node.get_page(0, key(i));
  }
  sim::Task<void> forget(uint64_t i) {
    (void)co_await node.erase_page(0, key(i));
  }
  bool stored(uint64_t i) const { return node.has_page(key(i)); }
  uint64_t batches() const { return node.flush_batches(); }
  uint64_t unsynced() const { return node.unsynced_pages(); }
};

struct DataNodeSite {
  hdfs::DataNode node;

  DataNodeSite(sim::Simulator& sim, net::Network& net, DurabilityPolicy d)
      : node(sim, net, kNode, 2ULL << 30, d) {}

  sim::Task<bool> write(uint64_t i) {
    return node.receive_block(0, i + 1, DataSpec::pattern(i, 0, kPageLen));
  }
  sim::Task<std::optional<DataSpec>> read(uint64_t i) {
    return node.read_block(0, i + 1, 0, kPageLen);
  }
  sim::Task<void> forget(uint64_t i) {
    node.forget_block(i + 1);
    co_return;
  }
  bool stored(uint64_t i) const { return node.has_block(i + 1); }
  uint64_t batches() const { return node.sync_batches(); }
  uint64_t unsynced() const { return node.unsynced_blocks(); }
};

template <typename Site>
struct SiteWorld {
  sim::Simulator sim;
  net::Network net;
  Site site;

  explicit SiteWorld(DurabilityPolicy d)
      : net(sim, kv::tiny_net()), site(sim, net, d) {}

  // What the fault layer does: the network first (bumping the incarnation,
  // which fails a disk write in flight), then the node's own RAM.
  void power_loss() {
    net.set_node_up(kNode, false);
    site.node.crash();
  }
  void power_on() {
    net.set_node_up(kNode, true);
    site.node.recover();
  }
  double disk_written() { return net.disk(kNode).bytes_written(); }
  double disk_read() { return net.disk(kNode).bytes_read(); }
};

template <typename Site>
sim::Task<void> write_one(sim::Simulator* sim, Site* site, uint64_t i,
                          kv::Ack* ack) {
  const bool ok = co_await site->write(i);
  ack->result = ok ? 1 : 2;
  ack->at = sim->now();
}

template <typename World>
void spawn_writes(World& w, std::vector<kv::Ack>& acks, uint64_t first = 0) {
  for (uint64_t i = 0; i < acks.size(); ++i)
    w.sim.spawn(write_one(&w.sim, &w.site, first + i, &acks[i]));
}

template <typename World>
sim::Task<void> power_loss_at(World* w, double at) {
  co_await w->sim.delay(at);
  w->power_loss();
}

template <typename Site>
class WriteBackWindow : public ::testing::Test {};
using Sites = ::testing::Types<ProviderSite, DataNodeSite>;
TYPED_TEST_SUITE(WriteBackWindow, Sites);

TYPED_TEST(WriteBackWindow, CountTriggerFlushesAFullBatch) {
  SiteWorld<TypeParam> w(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  std::vector<kv::Ack> acks(4);
  spawn_writes(w, acks);
  w.sim.run_until(1.0);  // long before the 10 s timer
  for (const auto& a : acks) EXPECT_EQ(a.result, 1);
  EXPECT_EQ(w.site.batches(), 1u);
  EXPECT_EQ(w.site.unsynced(), 0u);
  EXPECT_EQ(w.disk_written(), 4.0 * kPageLen);  // one disk write, all four
}

TYPED_TEST(WriteBackWindow, TimerTriggerFlushesAPartialBatch) {
  SiteWorld<TypeParam> w(DurabilityPolicy::batched(100, /*max_delay_s=*/0.05));
  std::vector<kv::Ack> acks(3);
  spawn_writes(w, acks);
  w.sim.run_until(0.04);
  EXPECT_EQ(w.site.batches(), 0u);
  EXPECT_EQ(w.site.unsynced(), 3u);
  w.sim.run_until(1.0);
  EXPECT_EQ(w.site.batches(), 1u);
  EXPECT_EQ(w.site.unsynced(), 0u);
}

template <typename Site>
sim::Task<void> write_then_drain(sim::Simulator* sim, Site* site, uint64_t n,
                                 double* drained_at) {
  for (uint64_t i = 0; i < n; ++i) (void)co_await site->write(i);
  co_await site->node.drain();
  *drained_at = sim->now();
}

TYPED_TEST(WriteBackWindow, DrainForcesAPartialBatch) {
  SiteWorld<TypeParam> w(DurabilityPolicy::batched(100, /*max_delay_s=*/10.0));
  double drained_at = -1;
  w.sim.spawn(write_then_drain(&w.sim, &w.site, 3, &drained_at));
  w.sim.run_until(1.0);
  EXPECT_GE(drained_at, 0.0);  // did not wait out the 10 s timer
  EXPECT_EQ(w.site.batches(), 1u);
  EXPECT_EQ(w.site.unsynced(), 0u);
  for (uint64_t i = 0; i < 3; ++i) EXPECT_TRUE(w.site.stored(i));
}

template <typename World>
sim::Task<void> two_more_at(World* w, double at, std::vector<kv::Ack>* acks) {
  co_await w->sim.delay(at);
  spawn_writes(*w, *acks, /*first=*/4);
}

TYPED_TEST(WriteBackWindow, PowerLossDestroysExactlyTheUnsyncedWindow) {
  SiteWorld<TypeParam> w(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  // Records 0-3 sync by count; 4-5 sit acked but unsynced (the window is 4
  // deep) until the power dies at 1 s.
  std::vector<kv::Ack> first(4), second(2);
  spawn_writes(w, first);
  w.sim.spawn(two_more_at(&w, 0.5, &second));
  w.sim.spawn(power_loss_at(&w, 1.0));
  w.sim.run_until(2.0);
  for (const auto& a : first) EXPECT_EQ(a.result, 1);
  for (const auto& a : second) EXPECT_EQ(a.result, 1);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_TRUE(w.site.stored(i));
  for (uint64_t i = 4; i < 6; ++i) EXPECT_FALSE(w.site.stored(i));
  EXPECT_EQ(w.site.node.bytes_lost_on_power_loss(), 2 * kPageLen);
  EXPECT_EQ(w.site.node.acked_bytes_lost_on_power_loss(), 2 * kPageLen);
  EXPECT_EQ(w.site.unsynced(), 0u);
  EXPECT_EQ(w.site.node.unsynced_bytes(), 0u);
  EXPECT_EQ(w.site.batches(), 1u);
}

TYPED_TEST(WriteBackWindow, CrashDuringTheDiskWriteLosesTheInflightBatch) {
  SiteWorld<TypeParam> w(DurabilityPolicy::batched(2, /*max_delay_s=*/10.0));
  // Records 0-1 fill the first batch and ack at once (the window is 2
  // deep); 2-3 wait for it to sync. The power dies 1 ms in, while the batch
  // pays its ~2 ms disk positioning.
  std::vector<kv::Ack> acks(4);
  spawn_writes(w, acks);
  w.sim.spawn(power_loss_at(&w, 0.001));
  w.sim.run_until(2.0);
  EXPECT_EQ(acks[0].result, 1);
  EXPECT_EQ(acks[1].result, 1);
  EXPECT_EQ(acks[2].result, 2);  // refused, not lied to
  EXPECT_EQ(acks[3].result, 2);
  for (uint64_t i = 0; i < 4; ++i) EXPECT_FALSE(w.site.stored(i));
  EXPECT_EQ(w.site.batches(), 0u);
  EXPECT_EQ(w.site.node.bytes_lost_on_power_loss(), 4 * kPageLen);
  EXPECT_EQ(w.site.node.acked_bytes_lost_on_power_loss(), 2 * kPageLen);
  EXPECT_EQ(w.site.unsynced(), 0u);
}

template <typename Site>
sim::Task<void> write_forget_drain(Site* site) {
  (void)co_await site->write(0);
  (void)co_await site->write(1);
  co_await site->forget(0);
  co_await site->node.drain();
}

TYPED_TEST(WriteBackWindow, ForgottenWhileQueuedCostsNoDiskWrite) {
  SiteWorld<TypeParam> w(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  w.sim.spawn(write_forget_drain(&w.site));
  w.sim.run_until(1.0);
  EXPECT_EQ(w.site.batches(), 1u);
  EXPECT_EQ(w.disk_written(), 1.0 * kPageLen);  // record 1 only
  EXPECT_EQ(w.site.unsynced(), 0u);
  EXPECT_EQ(w.site.node.unsynced_bytes(), 0u);
  EXPECT_EQ(w.site.node.bytes_lost_on_power_loss(), 0u);
  EXPECT_FALSE(w.site.stored(0));
  EXPECT_TRUE(w.site.stored(1));
  if constexpr (std::is_same_v<TypeParam, ProviderSite>) {
    // The erased page's RAM is free; the synced one stays cached.
    EXPECT_EQ(w.site.node.ram_used(), kPageLen);
  }
}

template <typename World>
sim::Task<void> read_across_power_cycle(World* w, bool* found) {
  (void)co_await w->site.write(0);
  co_await w->site.node.drain();
  (void)co_await w->site.read(0);  // served from RAM
  w->power_loss();
  w->power_on();
  const std::optional<DataSpec> again = co_await w->site.read(0);
  *found = again.has_value();
}

TYPED_TEST(WriteBackWindow, PowerCycleLeavesTheReadCacheCold) {
  SiteWorld<TypeParam> w(DurabilityPolicy::immediate());
  bool found = false;
  w.sim.spawn(read_across_power_cycle(&w, &found));
  w.sim.run();
  // The synced record survives the power loss, but its cached copy died
  // with RAM: the second read goes to the disk.
  EXPECT_TRUE(found);
  EXPECT_EQ(w.site.node.cache_hits(), 1u);
  EXPECT_EQ(w.site.node.cache_misses(), 1u);
  EXPECT_EQ(w.disk_read(), 1.0 * kPageLen);
}

sim::Task<void> overwrite_then_fill(ProviderSite* site, uint64_t* window) {
  (void)co_await site->write(0);
  (void)co_await site->write(1);
  (void)co_await site->write(0);  // still dirty: keeps its queue slot
  *window = site->unsynced();
  (void)co_await site->write(2);
  (void)co_await site->write(3);
}

TEST(ProviderWriteBack, OverwritingADirtyPageKeepsItsSeq) {
  SiteWorld<ProviderSite> w(DurabilityPolicy::batched(4, /*max_delay_s=*/10.0));
  uint64_t window = 0;
  w.sim.spawn(overwrite_then_fill(&w.site, &window));
  w.sim.run_until(1.0);
  EXPECT_EQ(window, 2u);
  // Four distinct pages fill one batch by count; a fresh seq for the
  // overwrite would have left a fifth record waiting on the 10 s timer.
  EXPECT_EQ(w.site.batches(), 1u);
  EXPECT_EQ(w.site.unsynced(), 0u);
  EXPECT_EQ(w.disk_written(), 4.0 * kPageLen);
}

TEST(ProviderWriteBack, NoneAndImmediateWriteOnePagePerDiskWrite) {
  for (const DurabilityPolicy& d :
       {DurabilityPolicy::none(), DurabilityPolicy::immediate()}) {
    SCOPED_TRACE(durability_level_name(d.level));
    SiteWorld<ProviderSite> w(d);
    std::vector<kv::Ack> acks(5);
    spawn_writes(w, acks);
    w.sim.run();
    for (const auto& a : acks) EXPECT_EQ(a.result, 1);
    EXPECT_EQ(w.site.batches(), 5u);
    EXPECT_EQ(w.site.unsynced(), 0u);
  }
}

TEST(DataNodeWriteBack, NoneBatchesUpToMaxRecords) {
  DurabilityPolicy d = DurabilityPolicy::none();
  d.max_records = 4;
  SiteWorld<DataNodeSite> w(d);
  std::vector<kv::Ack> acks(5);
  spawn_writes(w, acks);
  w.sim.run();
  for (const auto& a : acks) EXPECT_EQ(a.result, 1);
  EXPECT_EQ(w.site.batches(), 2u);  // four by count, then one by the timer
  EXPECT_EQ(w.site.unsynced(), 0u);
  EXPECT_EQ(w.disk_written(), 5.0 * kPageLen);
}

}  // namespace
}  // namespace bs

// meta-storm: ext10's control-plane storm. Thousands of closed-loop
// clients run a seeded mix of metadata operations over a few hundred
// small files; no bulk data moves, so the event loop and the metadata
// plane do all the work.
//
// BSFS runs with the metadata plane sharded over 16 nodes and client
// leases on. Its op mix: stat, open, snapshot, and append-offset+publish
// straight at blob::VersionManager (assign_write at the append offset,
// commit, wait_published: one page of metadata, no page data).
//
// HDFS runs the same op stream against its single NameNode: stat, open,
// snapshot (its length-pinning fallback, one stat). HDFS files are
// write-once, so the append+publish slot becomes the NameNode's own
// publish step: create and close a new empty file.
//
// Checks, all from the bench's own op stream: every BSFS blob's published
// chain has no gaps and its latest version is 1 (staging) plus the appends
// the bench issued against it; no snapshot, stat or open returns a version
// older than one whose publish had completed when the op was issued; every
// HDFS stat, open and snapshot sees the staged size, and every file an
// HDFS publish created is visible afterwards.
#include <algorithm>
#include <memory>

#include "blob/version_manager.h"
#include "common/rng.h"
#include "perfbench/src/common.h"
#include "sim/sync.h"

namespace perfbench {
namespace {

constexpr uint32_t kFiles = 256;
constexpr uint32_t kClients = 10000;
constexpr uint32_t kOpsPerClient = 24;
// Each client thinks for a seeded time, uniform in [0, kMaxThinkS), before
// every op. Without it the saturated NameNode serves the closed loop in
// strict rotation and every HDFS op takes exactly clients x service time,
// whatever the inputs.
constexpr double kMaxThinkS = 0.01;
constexpr uint64_t kPage = 64 * 1024;
constexpr uint64_t kBlock = 256 * 1024;
constexpr uint32_t kShards = 16;
constexpr double kLeaseTtlS = 1.0;
constexpr double kProbePeriodS = 0.001;

enum Kind : uint8_t { kStat, kOpen, kSnapshot, kAppend };
const char* const kKindName[] = {"stat", "open", "snapshot", "append"};

struct Op {
  uint32_t file = 0;
  Kind kind = kStat;
  double think_s = 0;
};

struct Input {
  std::vector<Op> ops;            // client c's k-th op at c * kOpsPerClient + k
  std::vector<std::string> paths;  // per file
  std::vector<uint64_t> appends;   // per file, issued by the stream

  const Op& op(uint32_t c, uint32_t k) const {
    return ops[size_t{c} * kOpsPerClient + k];
  }
};

// What the output checks expect of a seed's stream: its append count per
// file and which op slots are appends (the HDFS publish targets).
struct Expected {
  std::vector<uint64_t> appends;
  std::vector<bool> append_slot;  // indexed like Input::ops
};

// 40% stat, 20% open, 20% snapshot, 20% append+publish; files uniform;
// think times uniform.
Input make_input(uint64_t seed) {
  Input in;
  Rng rng(splitmix64(seed ^ 0x3E7A0001ULL));
  in.appends.assign(kFiles, 0);
  for (uint32_t f = 0; f < kFiles; ++f) {
    in.paths.push_back("/meta/f" + std::to_string(f));
  }
  in.ops.reserve(size_t{kClients} * kOpsPerClient);
  for (uint32_t c = 0; c < kClients; ++c) {
    for (uint32_t k = 0; k < kOpsPerClient; ++k) {
      Op op;
      op.file = static_cast<uint32_t>(rng.below(kFiles));
      const uint64_t r = rng.below(10);
      op.kind = r < 4 ? kStat : r < 6 ? kOpen : r < 8 ? kSnapshot : kAppend;
      op.think_s = kMaxThinkS * rng.uniform();
      if (op.kind == kAppend) ++in.appends[op.file];
      in.ops.push_back(op);
    }
  }
  return in;
}

Expected expected_of(const Input& in) {
  Expected e;
  e.appends = in.appends;
  e.append_slot.reserve(in.ops.size());
  for (const Op& op : in.ops) e.append_slot.push_back(op.kind == kAppend);
  return e;
}

// The file an HDFS publish in client c's k-th op slot creates. Kept out of
// the coroutine bodies (see the GCC 12.2 note in mr/cluster.h).
[[gnu::noinline]] std::string new_path(uint32_t c, uint32_t k) {
  return "/meta/new/c" + std::to_string(c) + "-" + std::to_string(k);
}

bench::WorldOptions storm_options() {
  bench::WorldOptions opt;
  opt.page_size = kPage;
  opt.block_size = kBlock;
  opt.metadata_shards = kShards;
  opt.lease_ttl_s = kLeaseTtlS;
  return opt;
}

struct Ctx {
  const Input* in = nullptr;
  sim::Simulator* sim = nullptr;
  fs::FileSystem* fs = nullptr;
  blob::VersionManager* vm = nullptr;       // BSFS only
  std::vector<blob::BlobId> ids;            // BSFS only
  // Per file: the highest version whose publish has completed.
  std::vector<uint64_t> floor;
  bool keep_spans = false;
  BackendRun* out = nullptr;
  std::vector<double>* kind_ms[4] = {};  // out->kind_ms entry per Kind
  sim::WaitGroup* wg = nullptr;
};

void record(Ctx* ctx, uint32_t client, Kind kind, double start, bool ok) {
  BackendRun& out = *ctx->out;
  const double now = ctx->sim->now();
  const double ms = (now - start) * 1e3;
  out.op_ms.push_back(ms);
  ctx->kind_ms[kind]->push_back(ms);
  ++out.attempted;
  if (!ok) ++out.failed;
  if (ctx->keep_spans) out.spans.push_back({client, kKindName[kind], start, now});
}

// A BSFS answer of `size` bytes is version size / kPage (staging wrote one
// page, every append one more); it must not be older than `floor`.
bool fresh(uint64_t size, uint64_t floor) {
  return size % kPage == 0 && size / kPage >= floor && size >= kPage;
}

sim::Task<void> bsfs_client(Ctx* ctx, uint32_t c) {
  const net::NodeId node = bench::client_node(bench::paper_cluster(), c);
  auto client = ctx->fs->make_client(node);
  const double start = ctx->sim->now();
  for (uint32_t k = 0; k < kOpsPerClient; ++k) {
    const Op& op = ctx->in->op(c, k);
    co_await ctx->sim->delay(op.think_s);
    const std::string& path = ctx->in->paths[op.file];
    const uint64_t floor = ctx->floor[op.file];
    const double t0 = ctx->sim->now();
    bool ok = false;
    if (op.kind == kStat) {
      auto st = co_await client->stat(path);
      ok = st.has_value() && fresh(st->size, floor);
    } else if (op.kind == kOpen) {
      auto reader = co_await client->open(path);
      ok = reader != nullptr && fresh(reader->size(), floor);
    } else if (op.kind == kSnapshot) {
      auto snap = co_await client->snapshot(path);
      ok = snap.has_value() && snap->version >= floor &&
           snap->size == snap->version * kPage;
    } else {
      const blob::BlobId id = ctx->ids[op.file];
      auto ticket = co_await ctx->vm->assign_write(
          node, id, blob::VersionManager::kAppendOffset, kPage);
      co_await ctx->vm->commit(node, id, ticket.version);
      co_await ctx->vm->wait_published(node, id, ticket.version);
      ctx->floor[op.file] = std::max<uint64_t>(ctx->floor[op.file], ticket.version);
      ok = ticket.version >= 2;
    }
    record(ctx, c, op.kind, t0, ok);
  }
  ctx->out->client_rate.push_back(kOpsPerClient / (ctx->sim->now() - start));
  ctx->wg->done();
}

sim::Task<void> hdfs_client(Ctx* ctx, uint32_t c) {
  const net::NodeId node = bench::client_node(bench::paper_cluster(), c);
  auto client = ctx->fs->make_client(node);
  const double start = ctx->sim->now();
  for (uint32_t k = 0; k < kOpsPerClient; ++k) {
    const Op& op = ctx->in->op(c, k);
    co_await ctx->sim->delay(op.think_s);
    const std::string& path = ctx->in->paths[op.file];
    const double t0 = ctx->sim->now();
    bool ok = false;
    if (op.kind == kStat) {
      auto st = co_await client->stat(path);
      ok = st.has_value() && st->size == kPage;
    } else if (op.kind == kOpen) {
      auto reader = co_await client->open(path);
      ok = reader != nullptr && reader->size() == kPage;
    } else if (op.kind == kSnapshot) {
      auto snap = co_await client->snapshot(path);
      ok = snap.has_value() && snap->size == kPage;
    } else {
      auto writer = co_await client->create(new_path(c, k));
      if (writer != nullptr) {
        const bool closed = co_await writer->close();
        ok = closed;
      }
    }
    record(ctx, c, op.kind, t0, ok);
  }
  ctx->out->client_rate.push_back(kOpsPerClient / (ctx->sim->now() - start));
  ctx->wg->done();
}

// --- staging -------------------------------------------------------------------

sim::Task<void> stage_bsfs(bench::BsfsWorld* world, const Input* in,
                           std::vector<blob::BlobId>* ids) {
  auto blob_client = world->blobs->make_client(0);
  for (uint32_t f = 0; f < kFiles; ++f) {
    const auto desc = co_await blob_client->create(kPage, 1);
    co_await blob_client->write(desc.id, 0, DataSpec::pattern(f, 0, kPage));
    const bool added =
        co_await world->ns->add_file(0, in->paths[f], desc.id, kBlock);
    const bool finalized = co_await world->ns->finalize(0, in->paths[f]);
    ids->push_back(desc.id);
    if (!added || !finalized) ids->back() = 0;  // fails the chain check
  }
}

sim::Task<void> stage_hdfs(bench::HdfsWorld* world, const Input* in) {
  for (uint32_t f = 0; f < kFiles; ++f) {
    co_await bench::put_file(*world->fs, 0, in->paths[f], kPage, f);
  }
}

// --- the BSFS chain check ------------------------------------------------------

struct ChainCtx {
  blob::VersionManager* vm = nullptr;
  const std::vector<blob::BlobId>* ids = nullptr;
  const std::vector<uint64_t>* appends = nullptr;
  uint64_t bad = 0;
};

sim::Task<void> check_chains(ChainCtx* ctx) {
  for (size_t f = 0; f < ctx->ids->size(); ++f) {
    const blob::BlobId id = (*ctx->ids)[f];
    const std::vector<blob::WriteRecord> chain =
        co_await ctx->vm->full_history(0, id);
    const uint64_t expect = 1 + (*ctx->appends)[f];
    bool ok = chain.size() == expect && ctx->vm->published_version(id) == expect;
    for (size_t v = 0; ok && v < chain.size(); ++v) {
      ok = chain[v].version == v + 1 && chain[v].size_after == (v + 1) * kPage;
    }
    if (!ok) ++ctx->bad;
  }
}

uint64_t bad_chains(bench::BsfsWorld& world, const std::vector<blob::BlobId>& ids,
                    const std::vector<uint64_t>& appends) {
  ChainCtx ctx;
  ctx.vm = &world.blobs->version_manager();
  ctx.ids = &ids;
  ctx.appends = &appends;
  world.sim.spawn(check_chains(&ctx));
  world.sim.run();
  return ctx.bad;
}

// --- the HDFS publish check ----------------------------------------------------

struct PublishedCtx {
  fs::FileSystem* fs = nullptr;
  const Expected* expect = nullptr;
  uint64_t missing = 0;
};

sim::Task<void> check_published(PublishedCtx* ctx) {
  auto client = ctx->fs->make_client(0);
  for (uint32_t c = 0; c < kClients; ++c) {
    for (uint32_t k = 0; k < kOpsPerClient; ++k) {
      if (!ctx->expect->append_slot[size_t{c} * kOpsPerClient + k]) continue;
      auto st = co_await client->stat(new_path(c, k));
      if (!st.has_value() || st->size != 0) ++ctx->missing;
    }
  }
}

// Publishes `expect` names that are not visible as empty files.
uint64_t unpublished(bench::HdfsWorld& world, const Expected& expect) {
  PublishedCtx ctx;
  ctx.fs = world.fs.get();
  ctx.expect = &expect;
  world.sim.spawn(check_published(&ctx));
  world.sim.run();
  return ctx.missing;
}

// --- one back-end ----------------------------------------------------------------

template <typename World>
void measure(World& world, Ctx& ctx, const RoundOptions& opt,
             sim::Task<void> (*client_fn)(Ctx*, uint32_t)) {
  BackendRun& out = *ctx.out;
  sim::WaitGroup wg(world.sim);
  wg.add(kClients);
  ctx.wg = &wg;
  ctx.sim = &world.sim;
  ctx.keep_spans = opt.traced;
  for (Kind k : {kStat, kOpen, kSnapshot, kAppend}) {
    ctx.kind_ms[k] = &out.kind_ms[kKindName[k]];
  }
  const double sim_start = world.sim.now();
  double sim_end = sim_start;
  for (uint32_t c = 0; c < kClients; ++c) world.sim.spawn(client_fn(&ctx, c));
  world.sim.spawn(finish(&world.sim, &wg, &out.probe, &sim_end));
  run_measured(world, opt, kProbePeriodS, &out);
  out.sim_s = sim_end - sim_start;
}

BackendRun run_bsfs(const Input& in, const Expected& right,
                    const Expected& wrong,
                    const RoundOptions& opt) {
  BackendRun out;
  out.setup_host_at = host_now();
  auto world = std::make_unique<bench::BsfsWorld>(storm_options());
  Ctx ctx;
  ctx.in = &in;
  world->sim.spawn(stage_bsfs(world.get(), &in, &ctx.ids));
  world->sim.run();
  out.setup_host_s = host_now() - out.setup_host_at;

  ctx.fs = world->fs.get();
  ctx.vm = &world->blobs->version_manager();
  ctx.floor.assign(kFiles, 1);
  ctx.out = &out;
  measure(*world, ctx, opt, bsfs_client);
  // One failed operation per blob whose chain is wrong.
  out.failed += bad_chains(*world, ctx.ids, right.appends);
  out.negative_check_ok = bad_chains(*world, ctx.ids, wrong.appends) > 0;
  return out;
}

BackendRun run_hdfs(const Input& in, const Expected& right,
                    const Expected& wrong,
                    const RoundOptions& opt) {
  BackendRun out;
  out.setup_host_at = host_now();
  auto world = std::make_unique<bench::HdfsWorld>(storm_options());
  Ctx ctx;
  ctx.in = &in;
  world->sim.spawn(stage_hdfs(world.get(), &in));
  world->sim.run();
  out.setup_host_s = host_now() - out.setup_host_at;

  ctx.fs = world->fs.get();
  ctx.out = &out;
  measure(*world, ctx, opt, hdfs_client);
  // One failed operation per publish that is not visible afterwards.
  out.failed += unpublished(*world, right);
  out.negative_check_ok = unpublished(*world, wrong) > 0;
  return out;
}

}  // namespace

RoundResult run_meta_storm(const RoundOptions& opt) {
  const Input in = make_input(opt.seed);
  const Expected right = expected_of(in);
  const Expected wrong = expected_of(make_input(opt.seed ^ 1));
  RoundResult r;
  r.bsfs = run_bsfs(in, right, wrong, opt);
  r.hdfs = run_hdfs(in, right, wrong, opt);
  return r;
}

}  // namespace perfbench

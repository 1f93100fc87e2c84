// fig1-read: the paper's F1 (§IV.B) at its top point. 250 clients each
// read their own staged file sequentially in 1 MiB requests, closed-loop,
// first on BSFS and then on HDFS.
//
// The seed picks the 250 client nodes among the 269 storage nodes, the
// order in which the files are staged (which decides BSFS page placement
// and HDFS block placement) and each file's content stream. Every 1 MiB
// read is checked against the DataSpec pattern the bench staged the file
// with.
//
// Both clients prefetch a whole 64 MiB storage block on the first request
// that touches it and serve the next 63 from memory at no simulated cost,
// so the latency of a single 1 MiB request has a median of 0 on both
// back-ends. Operation latency here is therefore timed per 64 MiB block
// (the first request of the block to the last); the per-client rate counts
// 1 MiB requests, i.e. MiB per simulated second.
#include <algorithm>
#include <memory>
#include <numeric>

#include "bsfs/bsfs.h"
#include "common/rng.h"
#include "perfbench/src/common.h"
#include "sim/parallel.h"
#include "sim/sync.h"

namespace perfbench {
namespace {

constexpr uint32_t kClients = 250;
constexpr uint64_t kBytesPerClient = 128 * bench::kMiB;
constexpr uint64_t kRequest = bench::kMiB;
constexpr uint64_t kBlock = 64 * bench::kMiB;  // WorldOptions::block_size
constexpr size_t kStageParallel = 16;
constexpr uint32_t kNegativeClients = 4;
constexpr double kProbePeriodS = 0.05;

struct Input {
  std::vector<net::NodeId> nodes;     // client i runs here
  std::vector<std::string> paths;     // client i's file
  std::vector<uint64_t> file_seeds;   // content stream of file i
  std::vector<uint32_t> stage_order;  // file indices in staging order
};

Input make_input(uint64_t seed, const net::ClusterConfig& cfg) {
  Input in;
  Rng rng(splitmix64(seed ^ 0xF1600001ULL));
  std::vector<net::NodeId> pool = bench::storage_nodes(cfg);
  for (uint32_t i = 0; i < kClients; ++i) {
    const size_t j = i + rng.below(pool.size() - i);
    std::swap(pool[i], pool[j]);
    in.nodes.push_back(pool[i]);
    in.paths.push_back("/fig1/file-" + std::to_string(i));
    in.file_seeds.push_back(rng.next());
  }
  in.stage_order.resize(kClients);
  std::iota(in.stage_order.begin(), in.stage_order.end(), 0u);
  for (uint32_t i = kClients - 1; i > 0; --i) {
    std::swap(in.stage_order[i], in.stage_order[rng.below(i + 1)]);
  }
  return in;
}

// Kept out of the coroutine bodies (see the GCC 12.2 note in
// mr/cluster.h): builds the expected pattern and compares.
[[gnu::noinline]] bool read_matches(const DataSpec& got, uint64_t seed,
                                    uint64_t offset) {
  return got.size() == kRequest &&
         got.content_equals(DataSpec::pattern(seed, offset, kRequest));
}

struct ReadCtx {
  sim::Simulator* sim = nullptr;
  fs::FileSystem* fs = nullptr;
  const Input* in = nullptr;
  uint64_t seed_xor = 0;  // nonzero: the negative self-check
  uint64_t bytes = kBytesPerClient;
  bool keep_spans = false;
  BackendRun* out = nullptr;
  sim::WaitGroup* wg = nullptr;
};

sim::Task<void> read_client(ReadCtx* ctx, uint32_t i) {
  BackendRun& out = *ctx->out;
  const uint64_t ops = ctx->bytes / kRequest;
  auto client = ctx->fs->make_client(ctx->in->nodes[i]);
  auto reader = co_await client->open(ctx->in->paths[i]);
  if (reader == nullptr || reader->size() != kBytesPerClient) {
    out.attempted += ops;
    out.failed += ops;
    ctx->wg->done();
    co_return;
  }
  const uint64_t seed = ctx->in->file_seeds[i] ^ ctx->seed_xor;
  const double start = ctx->sim->now();
  double block_start = start;
  for (uint64_t k = 0; k < ops; ++k) {
    const uint64_t offset = k * kRequest;
    if (offset % kBlock == 0) block_start = ctx->sim->now();
    DataSpec got = co_await reader->read(offset, kRequest);
    ++out.attempted;
    if (!read_matches(got, seed, offset)) ++out.failed;
    if ((offset + kRequest) % kBlock == 0 || k + 1 == ops) {
      const double now = ctx->sim->now();
      out.op_ms.push_back((now - block_start) * 1e3);
      if (ctx->keep_spans) out.spans.push_back({i, "block", block_start, now});
    }
  }
  out.client_rate.push_back(static_cast<double>(ops) /
                            (ctx->sim->now() - start));
  if (auto* r = dynamic_cast<bsfs::BsfsReader*>(reader.get())) {
    out.client_cache_hits += static_cast<double>(r->cache_hits());
    out.client_cache_misses += static_cast<double>(r->cache_misses());
  }
  ctx->wg->done();
}

// Stages every file from the master node, which hosts no provider or
// datanode, as an external loader would (the paper bench's set-up).
template <typename World>
sim::Task<void> stage(World* world, const Input* in) {
  std::vector<sim::Task<void>> puts;
  for (uint32_t f : in->stage_order) {
    puts.push_back(bench::put_file(*world->fs, 0, in->paths[f],
                                   kBytesPerClient, in->file_seeds[f]));
  }
  co_await sim::when_all_limited(world->sim, std::move(puts), kStageParallel);
}

template <typename World>
BackendRun run_backend(const Input& in, const RoundOptions& opt) {
  BackendRun out;
  out.setup_host_at = host_now();
  auto world = std::make_unique<World>();
  world->sim.spawn(stage(world.get(), &in));
  world->sim.run();
  out.setup_host_s = host_now() - out.setup_host_at;

  sim::WaitGroup wg(world->sim);
  wg.add(kClients);
  ReadCtx ctx;
  ctx.sim = &world->sim;
  ctx.fs = world->fs.get();
  ctx.in = &in;
  ctx.keep_spans = opt.traced;
  ctx.out = &out;
  ctx.wg = &wg;
  const double sim_start = world->sim.now();
  double sim_end = sim_start;
  for (uint32_t i = 0; i < kClients; ++i) {
    world->sim.spawn(read_client(&ctx, i));
  }
  world->sim.spawn(finish(&world->sim, &wg, &out.probe, &sim_end));
  run_measured(*world, opt, kProbePeriodS, &out);
  out.sim_s = sim_end - sim_start;

  // Negative self-check: a wrong expected seed must fail every read.
  BackendRun neg;
  sim::WaitGroup neg_wg(world->sim);
  neg_wg.add(kNegativeClients);
  ReadCtx nctx = ctx;
  nctx.seed_xor = 0x5A5A5A5A5A5A5A5AULL;
  nctx.bytes = kRequest;
  nctx.keep_spans = false;
  nctx.out = &neg;
  nctx.wg = &neg_wg;
  for (uint32_t i = 0; i < kNegativeClients; ++i) {
    world->sim.spawn(read_client(&nctx, i));
  }
  world->sim.run();
  out.negative_check_ok = neg.attempted > 0 && neg.failed == neg.attempted;
  return out;
}

}  // namespace

RoundResult run_fig1_read(const RoundOptions& opt) {
  const Input in = make_input(opt.seed, bench::paper_cluster());
  RoundResult r;
  r.bsfs = run_backend<bench::BsfsWorld>(in, opt);
  r.hdfs = run_backend<bench::HdfsWorld>(in, opt);
  return r;
}

}  // namespace perfbench

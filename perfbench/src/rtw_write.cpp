// rtw-write: the paper's T1 RandomTextWriter (§IV.C), a map-only
// MapReduce job in which every map writes its own output file, first on
// BSFS and then on HDFS, through mr::MapReduceCluster::run_job.
//
// The seed picks the tasktracker nodes (a subset of the storage nodes, in
// a seeded order, which decides where each map runs and so which racks its
// writes cross) and names the output directory. The job is handed an
// fs::FileSystem wrapper that only forwards calls and notes when each
// map's output is renamed into place: a map's latency runs from its
// launch (JobStats::launches) to that commit, and its rate is MiB written
// per simulated second.
//
// Checks after the job: it succeeded; list() of the output directory holds
// one part file per map; every file's stat() and read-back length equal
// the configured bytes per map; JobStats::output_bytes equals maps x bytes.
#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>

#include "common/rng.h"
#include "mr/app.h"
#include "mr/cluster.h"
#include "perfbench/src/common.h"

namespace perfbench {
namespace {

constexpr uint32_t kMaps = 200;
constexpr uint64_t kBytesPerMap = bench::kGiB;
constexpr uint32_t kTrackers = 150;
constexpr uint64_t kReadBack = 64 * bench::kMiB;
constexpr double kProbePeriodS = 0.05;

struct Input {
  std::vector<net::NodeId> trackers;
  std::string output_dir;
};

std::string output_dir_for(uint64_t seed) {
  return "/rtw/seed-" + std::to_string(seed);
}

Input make_input(uint64_t seed, const net::ClusterConfig& cfg) {
  Input in;
  Rng rng(splitmix64(seed ^ 0x27770001ULL));
  std::vector<net::NodeId> pool = bench::storage_nodes(cfg);
  for (uint32_t i = 0; i < kTrackers; ++i) {
    const size_t j = i + rng.below(pool.size() - i);
    std::swap(pool[i], pool[j]);
    in.trackers.push_back(pool[i]);
  }
  in.output_dir = output_dir_for(seed);
  return in;
}

// Kept out of the coroutine bodies (see the GCC 12.2 note in
// mr/cluster.h).
[[gnu::noinline]] std::string part_path(const std::string& dir, uint32_t map) {
  char name[32];
  std::snprintf(name, sizeof(name), "part-m-%05u", map);
  return fs::join_path(dir, name);
}

// --- a forwarding file system that notes commit times ------------------------

class TimedClient final : public fs::FsClient {
 public:
  TimedClient(std::unique_ptr<fs::FsClient> inner, sim::Simulator* sim,
              std::map<std::string, double>* commits)
      : inner_(std::move(inner)), sim_(sim), commits_(commits) {}

  net::NodeId node() const override { return inner_->node(); }
  sim::Task<std::unique_ptr<fs::FsWriter>> create(
      const std::string& path) override {
    return inner_->create(path);
  }
  sim::Task<std::unique_ptr<fs::FsWriter>> create_replicated(
      const std::string& path, uint32_t replication) override {
    return inner_->create_replicated(path, replication);
  }
  sim::Task<std::unique_ptr<fs::FsReader>> open(
      const std::string& path) override {
    return inner_->open(path);
  }
  sim::Task<std::unique_ptr<fs::FsWriter>> append(
      const std::string& path) override {
    return inner_->append(path);
  }
  sim::Task<std::unique_ptr<fs::FsWriter>> append_shared(
      const std::string& path) override {
    return inner_->append_shared(path);
  }
  sim::Task<std::optional<fs::Snapshot>> snapshot(
      const std::string& path) override {
    return inner_->snapshot(path);
  }
  sim::Task<std::unique_ptr<fs::FsReader>> open_snapshot(
      const fs::Snapshot& snap) override {
    return inner_->open_snapshot(snap);
  }
  sim::Task<std::vector<fs::BlockLocation>> snapshot_locations(
      const fs::Snapshot& snap, uint64_t offset, uint64_t length) override {
    return inner_->snapshot_locations(snap, offset, length);
  }
  sim::Task<std::optional<fs::FileStat>> stat(
      const std::string& path) override {
    return inner_->stat(path);
  }
  sim::Task<std::vector<std::string>> list(const std::string& dir) override {
    return inner_->list(dir);
  }
  sim::Task<bool> remove(const std::string& path) override {
    return inner_->remove(path);
  }
  sim::Task<bool> rename(const std::string& from,
                         const std::string& to) override {
    const bool ok = co_await inner_->rename(from, to);
    if (ok) (*commits_)[to] = sim_->now();
    co_return ok;
  }
  sim::Task<std::vector<fs::BlockLocation>> locations(
      const std::string& path, uint64_t offset, uint64_t length) override {
    return inner_->locations(path, offset, length);
  }

 private:
  std::unique_ptr<fs::FsClient> inner_;
  sim::Simulator* sim_;
  std::map<std::string, double>* commits_;
};

class TimedFs final : public fs::FileSystem {
 public:
  explicit TimedFs(fs::FileSystem& inner) : inner_(inner) {}
  std::string name() const override { return inner_.name(); }
  uint64_t block_size() const override { return inner_.block_size(); }
  std::unique_ptr<fs::FsClient> make_client(net::NodeId node) override {
    return std::make_unique<TimedClient>(inner_.make_client(node),
                                         &inner_.simulator(), &commits);
  }
  sim::Simulator& simulator() override { return inner_.simulator(); }

  std::map<std::string, double> commits;  // final path -> commit time

 private:
  fs::FileSystem& inner_;
};

// --- the job and its checks ----------------------------------------------------

sim::Task<void> run_job(mr::MapReduceCluster* cluster, mr::JobConfig config,
                        mr::JobStats* stats, Probe* probe) {
  *stats = co_await cluster->run_job(std::move(config));
  probe->stop = true;
}

// What the output checks expect: the part files of `maps` maps in `dir`,
// each `bytes` long.
struct Expect {
  std::string dir;
  uint32_t maps = kMaps;
  uint64_t bytes = kBytesPerMap;
};

struct CheckCtx {
  fs::FileSystem* fs = nullptr;
  const Expect* expect = nullptr;
  uint64_t failed = 0;
};

// Kept out of the coroutine body (see the GCC 12.2 note in
// mr/cluster.h): counts the listed part files.
[[gnu::noinline]] uint64_t count_parts(const std::string& dir,
                                       const std::vector<std::string>& listed) {
  const std::string prefix = dir + "/part-m-";
  uint64_t n = 0;
  for (const std::string& path : listed) {
    if (path.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

sim::Task<void> check_outputs(CheckCtx* ctx) {
  const Expect& e = *ctx->expect;
  auto client = ctx->fs->make_client(0);
  const std::vector<std::string> listed = co_await client->list(e.dir);
  for (uint32_t m = 0; m < e.maps; ++m) {
    const std::string path = part_path(e.dir, m);
    bool ok = std::find(listed.begin(), listed.end(), path) != listed.end();
    auto st = co_await client->stat(path);
    ok = ok && st.has_value() && st->size == e.bytes;
    auto reader = co_await client->open(path);
    uint64_t got = 0;
    if (reader != nullptr) {
      for (uint64_t at = 0; at < reader->size(); at += kReadBack) {
        const DataSpec chunk = co_await reader->read(at, kReadBack);
        got += chunk.size();
        if (chunk.size() == 0) break;
      }
    }
    if (!ok || got != e.bytes) ++ctx->failed;
  }
  if (count_parts(e.dir, listed) != e.maps) ++ctx->failed;
}

uint64_t run_checks(sim::Simulator& sim, fs::FileSystem& fs,
                    const Expect& expect) {
  CheckCtx ctx;
  ctx.fs = &fs;
  ctx.expect = &expect;
  sim.spawn(check_outputs(&ctx));
  sim.run();
  return ctx.failed;
}

template <typename World>
BackendRun run_backend(const Input& in, const RoundOptions& opt) {
  BackendRun out;
  out.setup_host_at = host_now();
  auto world = std::make_unique<World>();
  TimedFs timed(*world->fs);
  mr::MrConfig mcfg;
  mcfg.jobtracker_node = 0;
  mcfg.tasktracker_nodes = in.trackers;
  auto cluster = std::make_unique<mr::MapReduceCluster>(world->sim, world->net,
                                                        timed, mcfg);
  mr::RandomTextWriter app(kBytesPerMap);
  out.setup_host_s = host_now() - out.setup_host_at;

  mr::JobConfig jc;
  jc.output_dir = in.output_dir;
  jc.app = &app;
  jc.num_generator_maps = kMaps;
  jc.cost_model = true;
  mr::JobStats stats;
  world->sim.spawn(run_job(cluster.get(), std::move(jc), &stats, &out.probe));
  run_measured(*world, opt, kProbePeriodS, &out);
  out.sim_s = stats.duration;

  // Per-map latency: first launch to the commit rename.
  std::vector<double> launched(kMaps, -1);
  for (const mr::TaskLaunch& l : stats.launches) {
    if (l.kind == 'm' && l.task < kMaps && launched[l.task] < 0) {
      launched[l.task] = l.time;
    }
  }
  const double mib = static_cast<double>(kBytesPerMap) / bench::kMiB;
  for (uint32_t m = 0; m < kMaps; ++m) {
    auto it = timed.commits.find(part_path(in.output_dir, m));
    if (launched[m] < 0 || it == timed.commits.end()) continue;
    const double secs = it->second - launched[m];
    out.op_ms.push_back(secs * 1e3);
    out.client_rate.push_back(mib / secs);
    if (opt.traced) {
      out.spans.push_back({m, "map", launched[m], it->second});
    }
  }

  out.attempted = kMaps;
  const bool job_ok = stats.maps == kMaps &&
                      stats.output_bytes == uint64_t{kMaps} * kBytesPerMap &&
                      out.op_ms.size() == kMaps;
  const Expect right{in.output_dir};
  out.failed = job_ok ? run_checks(world->sim, *world->fs, right) : kMaps;
  out.failed = std::min<uint64_t>(out.failed, kMaps);
  // Negative self-check. The outputs a wrong seed expects (another
  // directory) must not pass, and neither may the real outputs against a
  // wrong map count and length: every file then fails its stat and
  // read-back comparisons, and the listing its count.
  const Expect wrong_seed{output_dir_for(opt.seed ^ 1)};
  const Expect wrong_shape{in.output_dir, kMaps + 1, kBytesPerMap + kReadBack};
  out.negative_check_ok =
      run_checks(world->sim, *world->fs, wrong_seed) > 0 &&
      run_checks(world->sim, *world->fs, wrong_shape) == kMaps + 2;
  return out;
}

}  // namespace

RoundResult run_rtw_write(const RoundOptions& opt) {
  const Input in = make_input(opt.seed, bench::paper_cluster());
  RoundResult r;
  r.bsfs = run_backend<bench::BsfsWorld>(in, opt);
  r.hdfs = run_backend<bench::HdfsWorld>(in, opt);
  return r;
}

}  // namespace perfbench

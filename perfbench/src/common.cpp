#include "perfbench/src/common.h"

#include <algorithm>

#include "blob/version_manager.h"
#include "obs/metrics.h"

namespace perfbench {

double host_now() {
  using Clock = std::chrono::steady_clock;  // bslint: allow(wall-clock)
  static const Clock::time_point origin = Clock::now();  // bslint: allow(wall-clock)
  return std::chrono::duration<double>(Clock::now() - origin).count();  // bslint: allow(wall-clock)
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail_high(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[v.size() - 11] : v.front();
}

double tail_low(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return v.size() > 10 ? v[10] : v.back();
}

uint64_t Buckets::total() const {
  uint64_t n = 0;
  for (uint64_t c : counts) n += c;
  return n;
}

double Buckets::percentile(double q) const {
  const uint64_t n = total();
  if (n == 0) return 0;
  const double target = std::clamp(q, 0.0, 1.0) * static_cast<double>(n);
  uint64_t cum = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const double prev = static_cast<double>(cum);
    cum += counts[i];
    if (static_cast<double>(cum) >= target) {
      const double lo = i == 0 ? 0.0 : bounds[i - 1];
      const double hi = i < bounds.size() ? bounds[i] : bounds.back();
      const double frac = (target - prev) / static_cast<double>(counts[i]);
      return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
    }
  }
  return bounds.back();
}

double Buckets::tail_q() const {
  const uint64_t n = total();
  if (n < 40) return 0.5;  // too few samples for a tail: the median
  return 1.0 - 10.0 / static_cast<double>(n);
}

LayerSnap LayerSnap::minus(const LayerSnap& before) const {
  LayerSnap out = *this;
  for (const auto& [key, value] : before.count) out.count[key] -= value;
  for (const auto& [key, b] : before.hist) {
    Buckets& mine = out.hist[key];
    for (size_t i = 0; i < b.counts.size() && i < mine.counts.size(); ++i) {
      mine.counts[i] -= b.counts[i];
    }
  }
  for (const auto& [node, n] : before.vm_shard_requests) {
    out.vm_shard_requests[node] -= n;
  }
  return out;
}

void LayerSnap::add(const LayerSnap& other) {
  for (const auto& [key, value] : other.count) count[key] += value;
  for (const auto& [key, b] : other.hist) {
    Buckets& mine = hist[key];
    if (mine.counts.empty()) {
      mine = b;
      continue;
    }
    for (size_t i = 0; i < b.counts.size() && i < mine.counts.size(); ++i) {
      mine.counts[i] += b.counts[i];
    }
  }
  for (const auto& [node, n] : other.vm_shard_requests) {
    vm_shard_requests[node] += n;
  }
}

namespace {

Buckets buckets_of(obs::MetricsRegistry& m, const char* name) {
  const obs::Histogram& h = m.histogram(name);
  return Buckets{h.bounds(), h.bucket_counts()};
}

// Layers both back-ends share: the event loop, the network and its solver,
// the group-commit flushers, the MapReduce engine.
LayerSnap snap_common(sim::Simulator& sim, net::Network& net) {
  obs::MetricsRegistry& m = sim.metrics();
  LayerSnap s;
  s.count["sim.events"] = static_cast<double>(sim.events_processed());
  s.count["net.flows"] = m.counter("net/flows").value();
  s.count["net.solves"] = m.counter("net/solver_solves").value();
  s.count["net.rpcs"] = m.counter("net/rpcs").value();
  s.count["net.disk_read_bytes"] = m.counter("net/disk_read_bytes").value();
  s.count["net.disk_write_bytes"] = m.counter("net/disk_write_bytes").value();
  double uplink = 0;
  for (uint32_t r = 0; r < net.config().num_racks(); ++r) {
    uplink += m.counter("net/rack_uplink_bytes", {{"rack", std::to_string(r)}})
                  .value();
  }
  s.count["net.rack_uplink_bytes"] = uplink;
  const net::SolverStats solver = net.solver_stats();
  s.count["net.path_classes"] =
      static_cast<double>(solver.path_classes_created);
  s.count["net.retimes_scheduled"] =
      static_cast<double>(solver.retimes_scheduled);
  s.count["net.retimes_damped"] = static_cast<double>(solver.retimes_damped);
  s.count["kv.flush_batches"] = m.counter("kv/group_commit_batches").value();
  s.count["mr.task_launches"] =
      m.counter("mr/task_launches", {{"kind", "map"}}).value() +
      m.counter("mr/task_launches", {{"kind", "reduce"}}).value();
  s.count["mr.speculative_launches"] =
      m.counter("mr/speculative_launches").value();
  s.hist["net.transfer_s"] = buckets_of(m, "net/transfer_s");
  s.hist["kv.flush_s"] = buckets_of(m, "kv/flush_latency_s");
  return s;
}

}  // namespace

LayerSnap snap(bench::BsfsWorld& world) {
  LayerSnap s = snap_common(world.sim, world.net);
  obs::MetricsRegistry& m = world.sim.metrics();
  dht::Dht& dht = world.blobs->metadata_dht();
  s.count["dht.gets"] = static_cast<double>(dht.gets());
  s.count["dht.puts"] = static_cast<double>(dht.puts());
  blob::VersionManager& vm = world.blobs->version_manager();
  s.count["blob.vm_requests"] = static_cast<double>(vm.total_requests());
  for (const auto& [node, n] : vm.requests_per_shard()) {
    s.vm_shard_requests[node] = n;
  }
  s.count["blob.get_pages"] = m.counter("blob/get_pages").value();
  s.count["blob.put_pages"] = m.counter("blob/put_pages").value();
  s.count["blob.provider_cache_hits"] = m.counter("blob/cache_hits").value();
  s.count["blob.provider_cache_misses"] =
      m.counter("blob/cache_misses").value();
  s.count["bsfs.ns_requests"] = static_cast<double>(world.ns->total_requests());
  s.count["bsfs.lease_hits"] = static_cast<double>(
      world.fs->ns_lease_hits() + world.fs->vm_lease_hits());
  s.count["bsfs.lease_misses"] = static_cast<double>(
      world.fs->ns_lease_misses() + world.fs->vm_lease_misses());
  s.hist["blob.publish_s"] = buckets_of(m, "blob/publish_latency_s");
  return s;
}

LayerSnap snap(bench::HdfsWorld& world) {
  LayerSnap s = snap_common(world.sim, world.net);
  obs::MetricsRegistry& m = world.sim.metrics();
  s.count["hdfs.namenode_ops"] =
      static_cast<double>(world.fs->namenode().total_requests());
  s.count["hdfs.dn_cache_hits"] = m.counter("hdfs/dn_cache_hits").value();
  s.count["hdfs.dn_cache_misses"] = m.counter("hdfs/dn_cache_misses").value();
  return s;
}

sim::Task<void> probe_loop(sim::Simulator* sim, net::Network* net,
                           hdfs::NameNode* namenode, double period_s,
                           Probe* probe) {
  while (!probe->stop) {
    // The probe is itself a live task; leave it out of the count.
    probe->live_tasks_peak =
        std::max(probe->live_tasks_peak,
                 static_cast<double>(sim->live_processes()) - 1);
    probe->active_classes_peak =
        std::max(probe->active_classes_peak,
                 static_cast<double>(net->solver_stats().active_path_classes));
    if (namenode != nullptr) {
      probe->namenode_queue_peak =
          std::max(probe->namenode_queue_peak,
                   static_cast<double>(namenode->queue_depth()));
    }
    ++probe->wakeups;
    co_await sim->delay(period_s);
  }
}

sim::Task<void> finish(sim::Simulator* sim, sim::WaitGroup* wg, Probe* probe,
                       double* end) {
  co_await wg->wait();
  *end = sim->now();
  probe->stop = true;
}

}  // namespace perfbench

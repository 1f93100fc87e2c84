// Shared pieces of the benchmark: what one round of a workload produces,
// how layer counters are snapshotted around the measured phase, the
// sampling probe of traced rounds, and the percentile rules.
//
// A round builds a BSFS world, stages the workload's inputs, runs the
// measured phase, checks the outputs, and then does the same on an HDFS
// world. Host time is read with std::chrono::steady_clock around world
// construction + staging (set-up) and around each world's sim.run() of the
// measured phase; everything else the round reports is simulated time or
// a count, and so repeats exactly for a fixed seed.
#pragma once

#include <chrono>  // bslint: allow(wall-clock) — host timing of the benchmark itself
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/harness.h"
#include "sim/sync.h"
#include "sim/task.h"

namespace perfbench {

using namespace bs;

// Host seconds since an arbitrary fixed origin.
double host_now();

// --- percentiles -----------------------------------------------------------
//
// Median: mean of the two middle samples for even counts. Tail: the
// highest percentile that still has ten samples beyond it, i.e. the 11th
// largest sample for latencies (higher is worse) and the 11th smallest for
// rates (lower is worse). Empty input gives 0.
double median(std::vector<double> v);
double tail_high(std::vector<double> v);
double tail_low(std::vector<double> v);

// A histogram's bucket counts (obs::Histogram layout: bounds plus one
// overflow bucket). Used to take measured-phase deltas of registry
// histograms, which cover set-up too.
struct Buckets {
  std::vector<double> bounds;
  std::vector<uint64_t> counts;
  uint64_t total() const;
  // Linear interpolation inside the bucket holding rank q * total().
  double percentile(double q) const;
  // q with ten samples beyond it; 0.5 (the median) below 40 samples.
  double tail_q() const;
};

// Counters of one world, read from public accessors and the world's obs
// registry. Keys are the layer metric names they feed ("net.flows", ...).
struct LayerSnap {
  std::map<std::string, double> count;
  std::map<std::string, Buckets> hist;
  std::map<uint32_t, uint64_t> vm_shard_requests;

  // this - before, key by key (the measured phase's share).
  LayerSnap minus(const LayerSnap& before) const;
  // Adds another world's deltas (counters and histogram buckets).
  void add(const LayerSnap& other);
};

LayerSnap snap(bench::BsfsWorld& world);
LayerSnap snap(bench::HdfsWorld& world);

// Traced rounds only: a coroutine that wakes every `period_s` of simulated
// time during the measured phase and records peaks. It only reads state,
// so the world's schedule of other events is unchanged; its own wake-ups
// are subtracted from the event count.
struct Probe {
  bool stop = false;
  uint64_t wakeups = 0;
  double live_tasks_peak = 0;
  double active_classes_peak = 0;
  double namenode_queue_peak = 0;
};
sim::Task<void> probe_loop(sim::Simulator* sim, net::Network* net,
                           hdfs::NameNode* namenode, double period_s,
                           Probe* probe);

// Waits for `wg`, then notes the simulated end of the measured phase and
// stops the probe.
sim::Task<void> finish(sim::Simulator* sim, sim::WaitGroup* wg, Probe* probe,
                       double* end);

// One simulated operation the bench issued (traced rounds keep them).
struct OpSpan {
  uint32_t client = 0;
  const char* kind = "";
  double start = 0;  // simulated seconds
  double end = 0;
};

// One back-end's half of a round.
struct BackendRun {
  double setup_host_at = 0;  // host_now() when set-up began
  double setup_host_s = 0;   // world construction + staging
  double run_host_at = 0;    // host_now() when the measured sim.run() began
  double run_host_s = 0;     // sim.run() of the measured phase
  double sim_s = 0;         // simulated makespan of the measured phase
  std::vector<double> op_ms;        // simulated latency per operation
  std::vector<double> client_rate;  // operations per simulated second
  std::map<std::string, std::vector<double>> kind_ms;  // per op kind
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // A wrong expected seed fed to the output checks must produce failures;
  // false when it did not (the checks would then prove nothing).
  bool negative_check_ok = false;
  double client_cache_hits = 0;    // BSFS reader block cache
  double client_cache_misses = 0;
  LayerSnap layers;  // measured-phase deltas
  Probe probe;
  std::vector<OpSpan> spans;  // traced rounds only
};

struct RoundOptions {
  uint64_t seed = 0;
  bool traced = false;
};

struct RoundResult {
  BackendRun bsfs;
  BackendRun hdfs;
};

// Runs the measured phase the caller has spawned into `world`: adds the
// probe in traced rounds, times sim.run() on the host, and stores the
// phase's layer deltas (probe events taken out) in `out`.
template <typename World>
void run_measured(World& world, const RoundOptions& opt, double probe_period_s,
                  BackendRun* out) {
  hdfs::NameNode* namenode = nullptr;
  if constexpr (std::is_same_v<World, bench::HdfsWorld>) {
    namenode = &world.fs->namenode();
  }
  const LayerSnap before = snap(world);
  if (opt.traced) {
    world.sim.spawn(probe_loop(&world.sim, &world.net, namenode,
                               probe_period_s, &out->probe));
  }
  out->run_host_at = host_now();
  world.sim.run();
  out->run_host_s = host_now() - out->run_host_at;
  out->layers = snap(world).minus(before);
  if (opt.traced) {
    // The probe's start plus one event per wake-up.
    out->layers.count["sim.events"] -=
        static_cast<double>(out->probe.wakeups + 1);
  }
}

// The three workloads (one file each).
RoundResult run_fig1_read(const RoundOptions& opt);
RoundResult run_rtw_write(const RoundOptions& opt);
RoundResult run_meta_storm(const RoundOptions& opt);

}  // namespace perfbench

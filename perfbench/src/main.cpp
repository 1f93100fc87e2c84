// The repository benchmark: one command runs one named workload against a
// BSFS world and then an HDFS world, at the paper's 270-node
// configuration, and prints every metric by name and unit.
//
//   perfbench --workload <fig1-read|rtw-write|meta-storm> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <path>]
//
// A run repeats whole rounds of the workload on the same seed-derived
// inputs until `--seconds` of host time have passed (at least three rounds
// untraced; in traced mode whole groups of untraced, traced, traced,
// untraced rounds). Every round must reproduce the first round's simulated
// results exactly. Host-time metrics are medians over rounds; simulated
// metrics are the (identical) values of every round.
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones, and the spans of the run are written to --trace-out.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "obs/json.h"
#include "perfbench/src/common.h"

using namespace perfbench;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      a->workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      a->seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (std::strcmp(key, "--seconds") == 0) {
      a->seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') return false;
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(val, "0") == 0) a->trace = 0;
      if (std::strcmp(val, "1") == 0) a->trace = 1;
    } else if (std::strcmp(key, "--trace-out") == 0) {
      a->trace_out = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload.empty() && have_seed &&
         a->seconds > 0 && a->trace >= 0;
}

using WorkloadFn = RoundResult (*)(const RoundOptions&);

WorkloadFn find_workload(const std::string& name) {
  if (name == "fig1-read") return run_fig1_read;
  if (name == "rtw-write") return run_rtw_write;
  if (name == "meta-storm") return run_meta_storm;
  return nullptr;
}

// --- determinism across rounds ----------------------------------------------

// What the metrics take from a back-end run's per-operation samples, plus
// a digest of everything the run reports in simulated time or counts.
// Rounds are compared by digest, so no round has to keep its samples.
struct SimSummary {
  double sim_s = 0;
  double rate_p50 = 0, rate_tail = 0;
  double op_p50 = 0, op_tail = 0;
  std::map<std::string, double> kind_p50;
  uint64_t digest = 0;
};

class Digest {
 public:
  void add(uint64_t v) { h_ = splitmix64(h_ ^ v); }
  void add(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    add(bits);
  }
  void add(const std::vector<double>& v) {
    add(static_cast<uint64_t>(v.size()));
    for (double x : v) add(x);
  }
  void add(const std::string& s) {
    add(static_cast<uint64_t>(s.size()));
    for (char c : s) add(static_cast<uint64_t>(static_cast<unsigned char>(c)));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0x5EED0001ULL;
};

SimSummary summarize(const BackendRun& r) {
  SimSummary s;
  s.sim_s = r.sim_s;
  s.rate_p50 = median(r.client_rate);
  s.rate_tail = tail_low(r.client_rate);
  s.op_p50 = median(r.op_ms);
  s.op_tail = tail_high(r.op_ms);
  Digest d;
  d.add(r.sim_s);
  d.add(r.op_ms);
  d.add(r.client_rate);
  for (const auto& [kind, ms] : r.kind_ms) {
    s.kind_p50[kind] = median(ms);
    d.add(kind);
    d.add(ms);
  }
  d.add(r.attempted);
  d.add(r.failed);
  d.add(r.client_cache_hits);
  d.add(r.client_cache_misses);
  for (const auto& [key, v] : r.layers.count) {
    d.add(key);
    d.add(v);
  }
  for (const auto& [key, h] : r.layers.hist) {
    d.add(key);
    for (uint64_t c : h.counts) d.add(c);
  }
  for (const auto& [node, n] : r.layers.vm_shard_requests) {
    d.add(uint64_t{node});
    d.add(n);
  }
  s.digest = d.value();
  return s;
}

// --- output -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

double peak_rss_mib() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof(ru));
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<Metric> end_to_end(const std::vector<RoundResult>& rounds,
                               const std::vector<size_t>& untraced,
                               const SimSummary& bsfs,
                               const SimSummary& hdfs) {
  std::vector<double> wall, setup;
  for (size_t i : untraced) {
    wall.push_back(rounds[i].bsfs.run_host_s + rounds[i].hdfs.run_host_s);
  }
  for (const RoundResult& r : rounds) {
    setup.push_back(r.bsfs.setup_host_s + r.hdfs.setup_host_s);
  }
  std::vector<Metric> m;
  m.push_back({"wall_s", median(wall), "s"});
  m.push_back({"setup_s", median(setup), "s"});
  m.push_back({"peak_rss_mb", peak_rss_mib(), "MiB"});
  for (const auto& [name, sum] :
       {std::pair<const char*, const SimSummary*>{"bsfs", &bsfs},
        {"hdfs", &hdfs}}) {
    const std::string p = name;
    m.push_back({p + "_sim_s", sum->sim_s, "s"});
    m.push_back({p + "_client_rate_p50", sum->rate_p50, "1/s"});
    m.push_back({p + "_client_rate_tail", sum->rate_tail, "1/s"});
    m.push_back({p + "_op_ms_p50", sum->op_p50, "ms"});
    m.push_back({p + "_op_ms_tail", sum->op_tail, "ms"});
  }
  return m;
}

double kind_p50(const SimSummary& sum, const char* kind) {
  auto it = sum.kind_p50.find(kind);
  return it == sum.kind_p50.end() ? 0 : it->second;
}

std::vector<Metric> per_layer(const std::vector<RoundResult>& rounds,
                              const std::vector<size_t>& untraced,
                              const std::vector<size_t>& traced,
                              const SimSummary& bsfs, const SimSummary& hdfs) {
  // Layer counters and probe peaks of the first traced round; per-kind
  // latencies of round 0 (every round reproduces them).
  const BackendRun& b = rounds[traced.front()].bsfs;
  const BackendRun& h = rounds[traced.front()].hdfs;
  LayerSnap all = b.layers;
  all.add(h.layers);
  auto c = [&all](const char* key) {
    auto it = all.count.find(key);
    return it == all.count.end() ? 0.0 : it->second;
  };
  auto bc = [&b](const char* key) {
    auto it = b.layers.count.find(key);
    return it == b.layers.count.end() ? 0.0 : it->second;
  };
  std::vector<double> bsfs_host, hdfs_host, us_per_event, traced_wall;
  for (size_t i : traced) {
    const RoundResult& r = rounds[i];
    bsfs_host.push_back(r.bsfs.run_host_s);
    hdfs_host.push_back(r.hdfs.run_host_s);
    traced_wall.push_back(r.bsfs.run_host_s + r.hdfs.run_host_s);
    us_per_event.push_back(1e6 * ratio(r.bsfs.run_host_s + r.hdfs.run_host_s,
                                       c("sim.events")));
  }
  std::vector<double> untraced_wall;
  for (size_t i : untraced) {
    untraced_wall.push_back(rounds[i].bsfs.run_host_s +
                            rounds[i].hdfs.run_host_s);
  }
  uint64_t busiest = 0, vm_total = 0;
  for (const auto& [node, n] : b.layers.vm_shard_requests) {
    busiest = std::max(busiest, n);
    vm_total += n;
  }
  const Buckets& transfer = all.hist["net.transfer_s"];
  const Buckets& publish = all.hist["blob.publish_s"];
  const Buckets& flush = all.hist["kv.flush_s"];
  const double gib = static_cast<double>(bench::kGiB);

  std::vector<Metric> m;
  m.push_back({"sim.events", c("sim.events"), "count"});
  m.push_back({"sim.host_us_per_event", median(us_per_event), "us"});
  m.push_back({"sim.live_tasks_peak",
               std::max(b.probe.live_tasks_peak, h.probe.live_tasks_peak),
               "count"});
  m.push_back({"bsfs.host_s", median(bsfs_host), "s"});
  m.push_back({"hdfs.host_s", median(hdfs_host), "s"});
  m.push_back({"net.solves", c("net.solves"), "count"});
  m.push_back({"net.path_classes", c("net.path_classes"), "count"});
  m.push_back({"net.active_classes_peak",
               std::max(b.probe.active_classes_peak,
                        h.probe.active_classes_peak),
               "count"});
  m.push_back({"net.host_ms_per_solve",
               1e3 * ratio(median(bsfs_host), bc("net.solves")), "ms"});
  m.push_back({"net.flows", c("net.flows"), "count"});
  m.push_back({"net.retime_damped_ratio",
               ratio(c("net.retimes_damped"),
                     c("net.retimes_damped") + c("net.retimes_scheduled")),
               "ratio"});
  m.push_back({"net.transfer_ms_p50", 1e3 * transfer.percentile(0.5), "ms"});
  m.push_back({"net.transfer_ms_tail",
               1e3 * transfer.percentile(transfer.tail_q()), "ms"});
  m.push_back({"net.rpcs", c("net.rpcs"), "count"});
  m.push_back({"net.rack_uplink_gib", c("net.rack_uplink_bytes") / gib, "GiB"});
  m.push_back({"net.disk_read_gib", c("net.disk_read_bytes") / gib, "GiB"});
  m.push_back({"net.disk_write_gib", c("net.disk_write_bytes") / gib, "GiB"});
  m.push_back({"dht.gets", c("dht.gets"), "count"});
  m.push_back({"dht.puts", c("dht.puts"), "count"});
  m.push_back({"blob.vm_requests", c("blob.vm_requests"), "count"});
  m.push_back({"blob.vm_busiest_shard_share",
               ratio(static_cast<double>(busiest),
                     static_cast<double>(vm_total)),
               "ratio"});
  m.push_back({"blob.publish_ms_p50", 1e3 * publish.percentile(0.5), "ms"});
  m.push_back({"blob.publish_ms_tail",
               1e3 * publish.percentile(publish.tail_q()), "ms"});
  m.push_back({"blob.get_pages", c("blob.get_pages"), "count"});
  m.push_back({"blob.put_pages", c("blob.put_pages"), "count"});
  m.push_back({"blob.client_cache_hit_ratio",
               ratio(b.client_cache_hits,
                     b.client_cache_hits + b.client_cache_misses),
               "ratio"});
  m.push_back({"blob.provider_cache_hit_ratio",
               ratio(c("blob.provider_cache_hits"),
                     c("blob.provider_cache_hits") +
                         c("blob.provider_cache_misses")),
               "ratio"});
  m.push_back({"kv.flush_batches", c("kv.flush_batches"), "count"});
  m.push_back({"kv.flush_ms_p50", 1e3 * flush.percentile(0.5), "ms"});
  m.push_back({"bsfs.ns_requests", c("bsfs.ns_requests"), "count"});
  m.push_back({"bsfs.lease_hit_ratio",
               ratio(c("bsfs.lease_hits"),
                     c("bsfs.lease_hits") + c("bsfs.lease_misses")),
               "ratio"});
  m.push_back({"bsfs.stat_ms_p50", kind_p50(bsfs, "stat"), "ms"});
  m.push_back({"bsfs.open_ms_p50", kind_p50(bsfs, "open"), "ms"});
  m.push_back({"bsfs.publish_op_ms_p50", kind_p50(bsfs, "append"), "ms"});
  m.push_back({"hdfs.namenode_ops", c("hdfs.namenode_ops"), "count"});
  m.push_back({"hdfs.namenode_queue_peak", h.probe.namenode_queue_peak,
               "count"});
  m.push_back({"hdfs.stat_ms_p50", kind_p50(hdfs, "stat"), "ms"});
  m.push_back({"hdfs.open_ms_p50", kind_p50(hdfs, "open"), "ms"});
  m.push_back({"hdfs.dn_cache_hit_ratio",
               ratio(c("hdfs.dn_cache_hits"),
                     c("hdfs.dn_cache_hits") + c("hdfs.dn_cache_misses")),
               "ratio"});
  m.push_back({"mr.task_launches", c("mr.task_launches"), "count"});
  m.push_back({"mr.speculative_launches", c("mr.speculative_launches"),
               "count"});
  m.push_back({"bench.trace_overhead_s",
               median(traced_wall) - median(untraced_wall), "s"});
  return m;
}

// Chrome trace-event JSON: host-time spans of every round (set-up and the
// measured sim.run() of each world), the simulated-time spans of every
// operation of the last traced round, and that round's layer counters.
void write_trace(const std::string& path, const Args& args,
                 const std::vector<RoundResult>& rounds,
                 const std::vector<size_t>& traced) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"workload\":%s,\"seed\":%" PRIu64
                  ",\"traceEvents\":[\n",
               obs::json_quote(args.workload).c_str(), args.seed);
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":"
               "{\"name\":\"host (wall clock)\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":"
               "{\"name\":\"bsfs (simulated time)\"}},\n"
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"args\":"
               "{\"name\":\"hdfs (simulated time)\"}}");
  const double origin = rounds.front().bsfs.setup_host_at;
  for (size_t i = 0; i < rounds.size(); ++i) {
    const bool is_traced =
        std::find(traced.begin(), traced.end(), i) != traced.end();
    for (const auto& [name, run] :
         {std::pair<const char*, const BackendRun*>{"bsfs", &rounds[i].bsfs},
          {"hdfs", &rounds[i].hdfs}}) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s.setup\",\"ph\":\"X\",\"pid\":0,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f}",
                   name, i, 1e6 * (run->setup_host_at - origin),
                   1e6 * run->setup_host_s);
      std::fprintf(f,
                   ",\n{\"name\":\"%s.sim_run\",\"ph\":\"X\",\"pid\":0,\"tid\":%zu,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"traced\":%s}}",
                   name, i, 1e6 * (run->run_host_at - origin),
                   1e6 * run->run_host_s, is_traced ? "true" : "false");
    }
  }
  const RoundResult& last = rounds[traced.back()];
  uint64_t op_id = 0;
  int pid = 1;
  for (const BackendRun* run : {&last.bsfs, &last.hdfs}) {
    for (const OpSpan& s : run->spans) {
      std::fprintf(f,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%" PRIu64 "}}",
                   s.kind, pid, s.client, 1e6 * s.start,
                   1e6 * (s.end - s.start), op_id++);
    }
    ++pid;
  }
  std::fprintf(f, "\n],\"counters\":{");
  const char* sep = "";
  for (const auto& [name, run] :
       {std::pair<const char*, const BackendRun*>{"bsfs", &last.bsfs},
        {"hdfs", &last.hdfs}}) {
    for (const auto& [key, value] : run->layers.count) {
      std::fprintf(f, "%s\n\"%s/%s\":%.17g", sep, name, key.c_str(), value);
      sep = ",";
    }
  }
  std::fprintf(f, "\n}}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <fig1-read|rtw-write|meta-storm> "
                 "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n");
    return 2;
  }
  // Either variable swaps a reference oracle into the measured program.
  for (const char* var : {"BS_LEGACY_SOLVER", "BS_LEGACY_VM"}) {
    if (std::getenv(var) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", var);
      return 2;
    }
  }
  const WorkloadFn workload = find_workload(args.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("perfbench: workload=%s seed=%" PRIu64 " seconds=%g trace=%d\n",
              args.workload.c_str(), args.seed, args.seconds, args.trace);
  std::fflush(stdout);

  // Traced mode runs rounds in untraced/traced/traced/untraced groups, so
  // that drift over the run cancels out of the tracing overhead.
  const size_t group = args.trace == 1 ? 4 : 1;
  const size_t min_rounds = args.trace == 1 ? 4 : 3;
  std::vector<RoundResult> rounds;
  std::vector<size_t> untraced, traced;
  bool correct = true;
  uint64_t attempted = 0, failed = 0;
  SimSummary ref_bsfs, ref_hdfs;
  const double begin = host_now();
  while (rounds.size() < min_rounds || rounds.size() % group != 0 ||
         host_now() - begin < args.seconds) {
    RoundOptions opt;
    opt.seed = args.seed;
    opt.traced = args.trace == 1 && (rounds.size() % 4 == 1 ||
                                     rounds.size() % 4 == 2);
    (opt.traced ? traced : untraced).push_back(rounds.size());
    rounds.push_back(workload(opt));
    const size_t i = rounds.size() - 1;
    RoundResult& r = rounds.back();
    std::fprintf(stderr,
                 "round %zu%s: setup %.4f s, measured %.4f s (bsfs %.4f, "
                 "hdfs %.4f)\n",
                 i, opt.traced ? " traced" : "",
                 r.bsfs.setup_host_s + r.hdfs.setup_host_s,
                 r.bsfs.run_host_s + r.hdfs.run_host_s, r.bsfs.run_host_s,
                 r.hdfs.run_host_s);
    attempted += r.bsfs.attempted + r.hdfs.attempted;
    failed += r.bsfs.failed + r.hdfs.failed;
    if (!r.bsfs.negative_check_ok || !r.hdfs.negative_check_ok) {
      std::fprintf(stderr, "perfbench: round %zu: a wrong expected seed "
                           "passed the output checks\n", i);
      correct = false;
    }
    const SimSummary b = summarize(r.bsfs), h = summarize(r.hdfs);
    if (i == 0) {
      ref_bsfs = b;
      ref_hdfs = h;
    } else if (b.digest != ref_bsfs.digest || h.digest != ref_hdfs.digest) {
      std::fprintf(stderr, "perfbench: round %zu (%s) did not reproduce "
                           "round 0's simulated results\n",
                   i, opt.traced ? "traced" : "untraced");
      correct = false;
    }
    // The per-operation samples are summarized; only the last traced
    // round keeps its spans. Memory then stays the same however many
    // rounds fit into the run. (Assigning a fresh object, not `= {}`,
    // which would keep a vector's capacity.)
    for (BackendRun* run : {&r.bsfs, &r.hdfs}) {
      run->op_ms = std::vector<double>();
      run->client_rate = std::vector<double>();
      run->kind_ms.clear();
    }
    if (opt.traced && traced.size() > 1) {
      RoundResult& prev = rounds[traced[traced.size() - 2]];
      prev.bsfs.spans = std::vector<OpSpan>();
      prev.hdfs.spans = std::vector<OpSpan>();
    }
  }
  if (failed > 0) correct = false;

  std::vector<Metric> metrics = args.trace == 1
                                    ? per_layer(rounds, untraced, traced,
                                                ref_bsfs, ref_hdfs)
                                    : end_to_end(rounds, untraced, ref_bsfs,
                                                 ref_hdfs);
  if (args.trace == 1 && !args.trace_out.empty()) {
    write_trace(args.trace_out, args, rounds, traced);
  }

  std::printf("rounds=%zu (traced %zu)\n", rounds.size(), traced.size());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return 0;
}

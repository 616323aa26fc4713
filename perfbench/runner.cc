// perfbench_runner: one process of the scale benchmark (see README.md).
//
//   perfbench_runner run   --workload W --seed N [--variant V] [--setups K]
//                          [--no-run] [--windows] [--spans]
//   perfbench_runner trace --workload W --seed N [--spans]
//
// `run` builds the workload's Testbed K times, timing each set-up and keeping
// only the last, then runs the workload once with tracing off. It reports
// host times, peak RSS, the simulated job statistics and the layer counters;
// --windows adds the host time of every 5 simulated seconds of the run.
// `trace` runs the same inputs with the event trace and InvariantChecker on,
// samples per-device stream counts, and then replays single layers through
// their public APIs at the shapes this run observed. Both print one JSON
// object as the last line of stdout; output checks that fail are listed in
// its "failures" array.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/resource_manager.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/testbed.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "sim/periodic.h"
#include "sim/simulator.h"
#include "storage/bandwidth_resource.h"
#include "storage/device.h"
#include "workload/standalone.h"
#include "workload/swim.h"

namespace ignem::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --------------------------------------------------------------------------
// Spans: name, parent, start, end on the monotonic clock (the same clock the
// run.py stamps its own spans with), kept in memory and printed with
// the result.

class Spans {
 public:
  explicit Spans(bool enabled) : enabled_(enabled) {}

  int open(const char* name) {
    if (!enabled_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, stack_.empty() ? -1 : stack_.back(), now(), 0.0});
    stack_.push_back(id);
    return id;
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now();
    stack_.pop_back();
  }

  std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << '[';
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i == 0 ? "" : ",") << "[\"" << s.name << "\"," << s.parent << ','
          << s.start << ',' << s.end << ']';
    }
    out << ']';
    return out.str();
  }

 private:
  struct Span {
    const char* name;
    int parent;
    double start;
    double end;
  };

  static double now() {
    return std::chrono::duration<double>(Clock::now().time_since_epoch())
        .count();
  }

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Spans& spans, const char* name)
      : spans_(spans), id_(spans.open(name)) {}
  ~ScopedSpan() { spans_.close(id_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Spans& spans_;
  int id_;
};

// --------------------------------------------------------------------------
// Result object: one flat JSON object, numbers printed with every digit.

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
  return buf;
}

std::string json_string(const std::string& value) {
  std::string quoted = "\"";
  for (const char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += (c == '\n' ? ' ' : c);
  }
  return quoted + "\"";
}

class Json {
 public:
  void num(const std::string& key, double value) { add(key, json_number(value)); }
  void count(const std::string& key, std::uint64_t value) {
    add(key, std::to_string(value));
  }
  void str(const std::string& key, const std::string& value) {
    add(key, json_string(value));
  }
  void raw(const std::string& key, const std::string& json) { add(key, json); }
  std::string text() const { return "{" + body_ + "}"; }

 private:
  void add(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "\"" : ",\"") + key + "\":" + value;
  }
  std::string body_;
};

// --------------------------------------------------------------------------
// Workloads. Every one runs the paper's testbed shape (6 slots per node, 3 s
// heartbeats, 64 MiB blocks, 3 replicas, HDD nodes) with only the node and
// rack counts changed; the fields set below describe the modelled cluster
// and workload and nothing else.

enum class Shape { kSwim, kSort };

struct Workload {
  const char* name;
  Shape shape;
  RunMode mode;
  std::size_t nodes;
  int racks;
  /// Fault tolerance, the scrubber and the fixed fault plan.
  bool faults;
};

// Why these three: README.md ("Workloads").
constexpr Workload kWorkloads[] = {
    {"swim-ignem-512", Shape::kSwim, RunMode::kIgnem, 512, 16, false},
    {"sort-hdfs-512", Shape::kSort, RunMode::kHdfs, 512, 16, false},
    {"recovery-ignem-256", Shape::kSwim, RunMode::kIgnem, 256, 8, true},
};

constexpr std::size_t kSortJobs = 1600;
constexpr Bytes kSortInput = 8 * kGiB;
constexpr Duration kSortInterarrival = Duration::millis(1250);

/// The same inputs run differently, for the per-layer ablations.
enum class Variant {
  kBase,
  kHdfs,     ///< Stock-HDFS mode (core.extra_run_s).
  kNoScrub,  ///< Scrubber off (integrity.scrub_extra_run_s).
};

TestbedConfig make_config(const Workload& w, std::uint64_t seed, Variant v) {
  TestbedConfig config;
  config.mode = v == Variant::kHdfs ? RunMode::kHdfs : w.mode;
  config.storage_media = MediaType::kHdd;
  config.cluster.node_count = w.nodes;
  config.cluster.slots_per_node = 6;
  config.cluster.heartbeat_interval = Duration::seconds(3.0);
  config.cluster.locality_delay = Duration::seconds(3.0);
  config.cluster.container_launch = Duration::seconds(1.0);
  config.cache_capacity_per_node = 100 * kGiB;
  config.ignem.slave_memory_capacity = 16 * kGiB;
  config.replication = 3;
  config.block_size = 64 * kMiB;
  config.rack_count = w.racks;
  config.seed = seed;
  config.fault_tolerance = w.faults;
  config.integrity.enable_scrubber = w.faults && v != Variant::kNoScrub;
  return config;
}

/// SWIM grown with the cluster (the ROADMAP scale ladder): 25 jobs and
/// 21.25 GiB of input per node, arrivals 8/N times the paper's 12 s mean.
SwimConfig swim_config(const Workload& w, std::uint64_t seed) {
  SwimConfig config;
  config.job_count = 25 * w.nodes;
  config.total_input = 170 * kGiB * static_cast<Bytes>(w.nodes) / 8;
  config.mean_interarrival =
      Duration::seconds(12.0 * 8.0 / static_cast<double>(w.nodes));
  config.seed = seed;
  return config;
}

/// Four 40 s node crashes, one every 60 s from t=60 s, and one 30 s rack
/// partition at t=150 s. The seed picks the nodes and the rack.
FaultPlan recovery_plan(const Workload& w, std::uint64_t seed) {
  Rng rng = Rng(seed).fork(0xFA17);
  const auto last = static_cast<std::int64_t>(w.nodes) - 1;
  FaultPlan plan;
  std::vector<std::int64_t> crashed;
  for (int k = 0; k < 4; ++k) {
    std::int64_t node = rng.uniform_int(0, last);
    while (std::find(crashed.begin(), crashed.end(), node) != crashed.end()) {
      node = rng.uniform_int(0, last);
    }
    crashed.push_back(node);
    plan.faults.push_back({FaultKind::kNodeCrash,
                           Duration::seconds(60.0 + 60.0 * k),
                           Duration::seconds(40.0), NodeId(node), 1.0});
  }
  plan.faults.push_back({FaultKind::kRackPartition, Duration::seconds(150.0),
                         Duration::seconds(30.0),
                         NodeId(rng.uniform_int(0, last)), 1.0});
  return plan;
}

// --------------------------------------------------------------------------
// Set-up: Testbed, trace generation, input files.

struct Setup {
  std::unique_ptr<Testbed> testbed;
  std::vector<ScheduledJob> jobs;
  double seconds = 0;
  double generate_s = 0;
  double create_s = 0;
};

Setup set_up(const Workload& w, std::uint64_t seed, Variant v, bool traced,
             Spans& spans) {
  ScopedSpan whole(spans, "setup");
  const auto start = Clock::now();
  Setup s;
  TestbedConfig config = make_config(w, seed, v);
  config.enable_trace = traced;
  config.check_invariants = traced;
  {
    ScopedSpan span(spans, "testbed");
    s.testbed = std::make_unique<Testbed>(config);
  }
  Testbed& tb = *s.testbed;

  auto t = Clock::now();
  std::vector<SwimJob> swim;
  {
    ScopedSpan span(spans, "generate");
    if (w.shape == Shape::kSwim) swim = generate_swim_trace(swim_config(w, seed));
  }
  s.generate_s = seconds_since(t);

  t = Clock::now();
  if (w.shape == Shape::kSwim) {
    s.jobs.reserve(swim.size());
    for (std::size_t i = 0; i < swim.size(); ++i) {
      ScheduledJob job;
      {
        ScopedSpan span(spans, "create_file");
        job.spec.inputs = {
            tb.create_file("/swim/input-" + std::to_string(i), swim[i].input)};
      }
      job.arrival = swim[i].arrival;
      job.spec.name = "swim-" + std::to_string(i);
      job.spec.compute = swim_compute_model(swim[i]);
      s.jobs.push_back(std::move(job));
    }
  } else {
    s.jobs.reserve(kSortJobs);
    for (std::size_t i = 0; i < kSortJobs; ++i) {
      ScheduledJob job;
      {
        ScopedSpan span(spans, "create_file");
        job.spec = make_sort_job(tb, "/sort/input-" + std::to_string(i),
                                 kSortInput);
      }
      job.arrival = kSortInterarrival * static_cast<double>(i);
      s.jobs.push_back(std::move(job));
    }
  }
  s.create_s = seconds_since(t);
  s.seconds = seconds_since(start);
  return s;
}

// --------------------------------------------------------------------------
// Output checks and digests.

/// FNV-1a over (job id, end time in µs) in job-id order.
std::string job_digest(const RunMetrics& metrics) {
  std::vector<std::pair<std::int64_t, std::int64_t>> ends;
  for (const JobRecord& job : metrics.jobs()) {
    ends.emplace_back(job.job.value(), job.end.count_micros());
  }
  std::sort(ends.begin(), ends.end());
  std::uint64_t hash = 1469598103934665603ull;
  auto mix = [&hash](std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xFF;
      hash *= 1099511628211ull;
    }
  };
  for (const auto& [id, end] : ends) {
    mix(id);
    mix(end);
  }
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(hash));
  return buf;
}

std::vector<std::string> output_failures(const Workload& w, Testbed& tb,
                                         std::size_t submitted,
                                         std::size_t failed) {
  std::vector<std::string> failures;
  const std::size_t completed = tb.metrics().jobs().size();
  if (completed != submitted) {
    failures.push_back("jobs completed " + std::to_string(completed) + " of " +
                       std::to_string(submitted));
  }
  if (!w.faults && failed != 0) {
    failures.push_back(std::to_string(failed) + " jobs failed");
  }
  if (!w.faults && tb.dfs().stats().reads_failed != 0) {
    failures.push_back(std::to_string(tb.dfs().stats().reads_failed) +
                       " block reads failed");
  }
  for (std::size_t i = 0; i < w.nodes; ++i) {
    const IgnemSlave* slave = tb.ignem_slave(NodeId(static_cast<std::int64_t>(i)));
    if (slave != nullptr && slave->locked_bytes() != 0) {
      failures.push_back("slave " + std::to_string(i) + " ends with " +
                         std::to_string(slave->locked_bytes()) +
                         " locked bytes");
      break;
    }
  }
  if (w.faults) {
    const NameNode& nn = tb.namenode();
    std::size_t under = 0, over = 0;
    for (const auto& [id, info] : nn.all_blocks()) {
      const std::size_t live = nn.live_locations(id).size();
      const auto target = static_cast<std::size_t>(tb.config().replication);
      under += live < target ? 1 : 0;
      over += info.replicas.size() > target ? 1 : 0;
    }
    if (under + over != 0) {
      failures.push_back(std::to_string(under) + " blocks under- and " +
                         std::to_string(over) +
                         " over-replicated after the last heal");
    }
  }
  return failures;
}

std::string json_strings(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + json_string(items[i]);
  }
  return out + "]";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Simulated length of one run window (see `run_and_report`).
constexpr Duration kRunWindow = Duration::seconds(5.0);

/// Runs the workload (with the fault plan armed when it has one) and
/// records the run's end-to-end and per-layer results into `out`. With
/// `windows`, the run is also cut at every `kRunWindow` of simulated time
/// and the host seconds of each piece are reported as "window_s"; they sum
/// to "run_s". The simulation is deterministic, so piece k holds the same
/// work in every run of one seed.
void run_and_report(const Workload& w, std::uint64_t seed, Setup& s,
                    bool windows, Spans& spans, Json& out) {
  Testbed& tb = *s.testbed;
  std::unique_ptr<FaultInjector> injector;
  if (w.faults) {
    injector = std::make_unique<FaultInjector>(tb.sim(), tb,
                                               recovery_plan(w, seed));
    injector->arm();
  }
  const std::size_t submitted = s.jobs.size();
  std::vector<Clock::time_point> cuts;
  std::unique_ptr<PeriodicTask> cutter;
  if (windows) {
    cuts.reserve(4096);
    cutter = std::make_unique<PeriodicTask>(
        tb.sim(), kRunWindow, [&cuts] { cuts.push_back(Clock::now()); });
  }
  const auto start = Clock::now();
  {
    ScopedSpan span(spans, "run_workload");
    tb.run_workload(std::move(s.jobs));
  }
  const auto end = Clock::now();
  out.num("run_s", std::chrono::duration<double>(end - start).count());
  if (windows) {
    cutter->stop();
    std::string list = "[";
    auto from = start;
    cuts.push_back(end);
    for (std::size_t i = 0; i < cuts.size(); ++i) {
      list += (i == 0 ? "" : ",") +
              json_number(std::chrono::duration<double>(cuts[i] - from).count());
      from = cuts[i];
    }
    out.raw("window_s", list + "]");
  }

  const RunMetrics& metrics = tb.metrics();
  Samples durations = metrics.job_durations_seconds();
  std::size_t failed = 0;
  double wait_s = 0;
  for (const JobRecord& job : metrics.jobs()) {
    failed += job.failed ? 1 : 0;
    wait_s += (job.first_task_start - job.submit).to_seconds();
  }
  out.count("jobs_submitted", submitted);
  out.count("jobs_completed", metrics.jobs().size());
  out.count("jobs_failed", failed);
  out.num("job_mean_s", durations.mean());
  out.num("job_p99_s", durations.percentile(99));
  out.str("digest", job_digest(metrics));

  const KernelProfile& kp = tb.sim().profile();
  out.count("sim.events", kp.events_dispatched);
  for (std::size_t c = 0; c < kEventClassCount; ++c) {
    out.count(std::string("sim.events.") +
                  event_class_name(static_cast<EventClass>(c)),
              kp.class_counts[c]);
  }
  out.num("sim.pending_mean", kp.mean_pending());
  out.count("sim.pending_max", kp.max_pending);

  const DfsStats& dfs = tb.dfs().stats();
  out.count("dfs.reads", dfs.reads_completed);
  out.count("dfs.reads_memory", dfs.memory_reads);
  out.count("dfs.reads_remote", dfs.remote_reads);
  out.count("dfs.reads_failed", dfs.reads_failed);
  out.count("dfs.read_retries", dfs.retries);
  const ReplicationStats& repl = tb.replication_manager().stats();
  out.count("dfs.repl.blocks_repaired", repl.blocks_repaired);
  out.num("dfs.repl.bytes_repaired", static_cast<double>(repl.bytes_repaired));
  out.count("dfs.repl.unrepairable", repl.blocks_unrepairable);

  out.num("cluster.rm.mean_queue", tb.resource_manager().mean_queue_length());
  out.num("cluster.task_wait_s",
          metrics.jobs().empty() ? 0.0
                                 : wait_s / static_cast<double>(metrics.jobs().size()));

  SlaveStats slaves;
  for (std::size_t i = 0; i < w.nodes; ++i) {
    const IgnemSlave* slave = tb.ignem_slave(NodeId(static_cast<std::int64_t>(i)));
    if (slave == nullptr) continue;
    slaves.migrations_completed += slave->stats().migrations_completed;
    slaves.bytes_migrated += slave->stats().bytes_migrated;
    slaves.commands_discarded_missed_read +=
        slave->stats().commands_discarded_missed_read;
  }
  out.count("core.migrations_completed", slaves.migrations_completed);
  out.num("core.bytes_migrated", static_cast<double>(slaves.bytes_migrated));
  out.count("core.discarded_missed_read", slaves.commands_discarded_missed_read);

  const Scrubber* scrubber = tb.scrubber();
  out.count("integrity.scrubber", scrubber == nullptr ? 0 : 1);
  out.count("integrity.blocks_scanned",
            scrubber == nullptr ? 0 : scrubber->stats().blocks_scanned);
  out.count("integrity.scans_contended",
            scrubber == nullptr ? 0 : scrubber->stats().scans_contended);

  out.raw("failures", json_strings(output_failures(w, tb, submitted, failed)));
}

// --------------------------------------------------------------------------
// Layer replays: each drives one layer's public API at a shape the traced
// run observed, never at a fixed synthetic size.

/// Schedule-and-dispatch churn at a steady `depth` of pending events. Each
/// dispatched event schedules one successor with an exponential delay of
/// mean `mean_ahead_s` (the workload's own pending depth over its event
/// rate, by Little's law). Returns host ns per dispatch.
double queue_churn_ns(std::size_t depth, double mean_ahead_s, std::uint64_t seed) {
  Simulator sim;
  Rng rng(seed);
  const double mean_us = std::max(1.0, mean_ahead_s * 1e6);
  struct Churn {
    Simulator* sim;
    Rng* rng;
    double mean_us;
    std::uint64_t left;
    void fire() {
      if (left == 0) return;
      --left;
      const auto delay = static_cast<std::int64_t>(rng->exponential(mean_us));
      sim->schedule(Duration::micros(delay), [this] { fire(); });
    }
  } churn{&sim, &rng, mean_us, 0};
  for (std::size_t i = 0; i < depth; ++i) {
    const auto delay = static_cast<std::int64_t>(rng.exponential(mean_us));
    sim.schedule(Duration::micros(delay), [&churn] { churn.fire(); });
  }
  constexpr std::uint64_t kDispatches = 2'000'000;
  churn.left = kDispatches;
  const auto start = Clock::now();
  const std::uint64_t before = sim.events_dispatched();
  sim.run();
  const std::uint64_t dispatched = sim.events_dispatched() - before;
  return seconds_since(start) * 1e9 / static_cast<double>(dispatched);
}

/// Start/complete churn on one HDD-profile channel holding `streams`
/// concurrent block-sized transfers: every completion starts a successor.
/// Returns host ns per completed transfer.
double bandwidth_churn_ns(std::size_t streams, Bytes block_size) {
  Simulator sim;
  SharedBandwidthResource channel(sim, "hdd", hdd_profile().bandwidth);
  constexpr std::uint64_t kTransfers = 400'000;
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::function<void()> start_one = [&] {
    if (started == kTransfers) return;
    ++started;
    channel.start(block_size, [&] {
      ++completed;
      start_one();
    });
  };
  const auto start = Clock::now();
  for (std::size_t i = 0; i < streams; ++i) start_one();
  sim.run();
  return seconds_since(start) * 1e9 / static_cast<double>(completed);
}

/// A standalone ResourceManager shaped like the run's cluster, fed `depth`
/// container requests (the run's mean RM queue). Each request prefers the
/// replica nodes of a random block of the run; once granted, it is replaced
/// by a new request and its container is held for the run's mean task time
/// `hold`. The container launch delay is zero here so the replacement comes
/// at once; `replayed_depth` returns the queue length actually sampled.
/// Returns host µs per heartbeat.
double rm_heartbeat_us(const TestbedConfig& config, const NameNode& namenode,
                       std::size_t depth, Duration hold, std::uint64_t seed,
                       double& replayed_depth) {
  Simulator sim;
  ClusterConfig cluster = config.cluster;
  cluster.container_launch = Duration::zero();
  ResourceManager rm(sim, cluster);
  Rng rng(seed);
  const JobId job(1);
  rm.register_job(job);
  // Block ids are dense from 0, so a uniform id is a uniform block.
  const auto last_block = static_cast<std::int64_t>(namenode.block_count()) - 1;
  std::function<void()> request = [&] {
    ContainerRequest r;
    r.job = job;
    r.preferred = namenode.block(BlockId(rng.uniform_int(0, last_block))).replicas;
    r.on_allocated = [&](const ContainerGrant& grant) {
      request();
      sim.schedule(hold, [&rm, grant] { rm.release_container(grant); });
    };
    rm.request_container(std::move(r));
  };
  const Duration interval = config.cluster.heartbeat_interval;
  for (std::size_t i = 0; i < depth; ++i) request();
  constexpr int kWarmupIntervals = 2;
  constexpr int kIntervals = 40;
  sim.run(SimTime::zero() + interval * kWarmupIntervals);
  std::uint64_t queue_samples = 0;
  std::uint64_t queue_sum = 0;
  PeriodicTask sampler(sim, interval * (1.0 / 8.0), [&] {
    ++queue_samples;
    queue_sum += rm.pending_requests();
  });
  const auto start = Clock::now();
  sim.run(sim.now() + interval * kIntervals);
  const double us = seconds_since(start) * 1e6 /
                    (static_cast<double>(config.cluster.node_count) * kIntervals);
  replayed_depth = static_cast<double>(queue_sum) /
                   static_cast<double>(std::max<std::uint64_t>(1, queue_samples));
  return us;
}

/// DataNode::next_block_after on the run's own DataNodes, from cursors at
/// random positions of each node's sorted block list. Like the scrubber's
/// staggered ticks, consecutive calls go to different nodes. Returns host µs
/// per call and stores the mean blocks per node in `blocks_per_node`.
double scrub_cursor_us(Testbed& tb, std::size_t nodes, std::uint64_t seed,
                       double& blocks_per_node) {
  Rng rng(seed);
  std::vector<std::vector<BlockId>> sorted(nodes);
  std::size_t total_blocks = 0;
  for (std::size_t i = 0; i < nodes; ++i) {
    sorted[i] = tb.datanode(NodeId(static_cast<std::int64_t>(i))).blocks_sorted();
    total_blocks += sorted[i].size();
  }
  blocks_per_node = static_cast<double>(total_blocks) / static_cast<double>(nodes);
  std::vector<std::pair<DataNode*, BlockId>> probes;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < nodes; ++i) {
      if (sorted[i].empty()) continue;
      const auto last = static_cast<std::int64_t>(sorted[i].size()) - 1;
      probes.emplace_back(&tb.datanode(NodeId(static_cast<std::int64_t>(i))),
                          sorted[i][static_cast<std::size_t>(rng.uniform_int(0, last))]);
    }
  }
  const auto start = Clock::now();
  for (const auto& [dn, cursor] : probes) dn->next_block_after(cursor);
  return seconds_since(start) * 1e6 / static_cast<double>(probes.size());
}

// --------------------------------------------------------------------------

int traced_main(const Workload& w, std::uint64_t seed, Spans& spans) {
  Json out;
  Setup s = set_up(w, seed, Variant::kBase, /*traced=*/true, spans);
  Testbed& tb = *s.testbed;

  // Streams per primary device, sampled once per simulated second. The
  // sampler adds its own periodic events, so event counts come from the
  // untraced run, not this one.
  std::uint64_t busy_samples = 0;
  std::uint64_t stream_sum = 0;
  std::size_t stream_max = 0;
  PeriodicTask sampler(tb.sim(), Duration::seconds(1.0), [&] {
    for (std::size_t i = 0; i < w.nodes; ++i) {
      const std::size_t n =
          tb.datanode(NodeId(static_cast<std::int64_t>(i))).primary_device().active_requests();
      if (n == 0) continue;
      ++busy_samples;
      stream_sum += n;
      stream_max = std::max(stream_max, n);
    }
  });
  run_and_report(w, seed, s, /*windows=*/false, spans, out);
  sampler.stop();

  out.count("obs.trace_events", tb.trace()->size());
  out.count("obs.invariant_violations", tb.invariant_checker()->violations().size());
  out.str("obs.replica_model_mismatch", tb.replica_model_mismatch());

  // Crash-to-detection time, NameNode side, from the trace.
  double detection_sum = 0;
  std::size_t detections = 0;
  const std::vector<TraceEvent>& events = tb.trace()->events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].type != TraceEventType::kFaultNodeCrash) continue;
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      if (events[j].type == TraceEventType::kFaultDetectedDead &&
          events[j].node == events[i].node && events[j].detail == 0) {
        detection_sum += (events[j].time - events[i].time).to_seconds();
        ++detections;
        break;
      }
    }
  }
  out.num("fault.detection_s",
          detections == 0 ? 0.0 : detection_sum / static_cast<double>(detections));

  const double streams_mean =
      busy_samples == 0 ? 0.0
                        : static_cast<double>(stream_sum) / static_cast<double>(busy_samples);
  out.num("storage.streams_per_device_mean", streams_mean);
  out.count("storage.streams_per_device_max", stream_max);

  // Replays, each at a shape read from this run.
  const KernelProfile& kp = tb.sim().profile();
  const double pending_mean = kp.mean_pending();
  const double sim_s = tb.sim().now().to_seconds();
  const double mean_ahead_s =
      pending_mean * sim_s / static_cast<double>(std::max<std::uint64_t>(1, kp.events_dispatched));
  {
    ScopedSpan span(spans, "replay.queue_churn");
    const auto depth = static_cast<std::size_t>(std::llround(pending_mean));
    out.count("shape.queue_depth", depth);
    out.num("shape.queue_mean_ahead_s", mean_ahead_s);
    out.num("sim.queue_churn_ns", queue_churn_ns(depth, mean_ahead_s, seed));
  }
  {
    ScopedSpan span(spans, "replay.bw_churn");
    const auto streams =
        std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(streams_mean)));
    out.count("shape.streams_per_device", streams);
    out.num("storage.bw_churn_ns", bandwidth_churn_ns(streams, tb.config().block_size));
  }
  {
    ScopedSpan span(spans, "replay.rm_heartbeat");
    const auto depth = static_cast<std::size_t>(
        std::llround(tb.resource_manager().mean_queue_length()));
    Duration task_sum = Duration::zero();
    for (const TaskRecord& task : tb.metrics().tasks()) task_sum += task.duration;
    const Duration hold =
        task_sum * (1.0 / static_cast<double>(std::max<std::size_t>(
                              1, tb.metrics().tasks().size())));
    double replayed_depth = 0;
    out.num("cluster.rm.heartbeat_us",
            rm_heartbeat_us(tb.config(), tb.namenode(), depth, hold, seed,
                            replayed_depth));
    out.count("shape.rm_queue", depth);
    out.num("shape.rm_task_hold_s", hold.to_seconds());
    out.num("shape.rm_queue_replayed", replayed_depth);
  }
  {
    ScopedSpan span(spans, "replay.scrub_cursor");
    double blocks_per_node = 0;
    out.num("dfs.scrub_cursor_us", scrub_cursor_us(tb, w.nodes, seed, blocks_per_node));
    out.num("shape.blocks_per_node", blocks_per_node);
  }
  out.num("peak_rss_mb", peak_rss_mb());
  out.raw("spans", spans.json());
  std::cout << out.text() << std::endl;
  return 0;
}

int run_main(const Workload& w, std::uint64_t seed, Variant variant,
             int setups, bool no_run, bool windows, Spans& spans) {
  Json out;
  std::string setup_list = "[";
  Setup s;
  double generate_s = 0;
  double create_s = 0;
  for (int i = 0; i < setups; ++i) {
    s = Setup{};  // frees the previous set-up before the next one is timed
    s = set_up(w, seed, variant, /*traced=*/false, spans);
    setup_list += (i == 0 ? "" : ",") + json_number(s.seconds);
    generate_s += s.generate_s;
    create_s += s.create_s;
  }
  out.raw("setup_s", setup_list + "]");
  out.num("workload.generate_s", generate_s / setups);
  out.num("dfs.create_s", create_s / setups);
  out.count("dfs.blocks", s.testbed->namenode().block_count());
  if (!no_run) run_and_report(w, seed, s, windows, spans, out);
  out.num("peak_rss_mb", peak_rss_mb());
  out.raw("spans", spans.json());
  std::cout << out.text() << std::endl;
  return 0;
}

int usage() {
  std::cerr << "usage: perfbench_runner run|trace --workload NAME --seed N "
               "[--variant base|hdfs|noscrub] [--setups K] [--no-run] "
               "[--windows] [--spans]\n";
  return 2;
}

int real_main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  bool have_seed = false;
  Variant variant = Variant::kBase;
  int setups = 1;
  bool no_run = false;
  bool windows = false;
  bool record_spans = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (name == w.name) workload = &w;
      }
      if (workload == nullptr) {
        std::cerr << "unknown workload: " << name << "\n";
        return 2;
      }
    } else if (arg == "--seed" && has_value) {
      seed = std::stoull(argv[++i]);
      have_seed = true;
    } else if (arg == "--variant" && has_value) {
      const std::string v = argv[++i];
      if (v == "base") variant = Variant::kBase;
      else if (v == "hdfs") variant = Variant::kHdfs;
      else if (v == "noscrub") variant = Variant::kNoScrub;
      else return usage();
    } else if (arg == "--setups" && has_value) {
      setups = std::stoi(argv[++i]);
      if (setups < 1) return usage();
    } else if (arg == "--no-run") {
      no_run = true;
    } else if (arg == "--windows") {
      windows = true;
    } else if (arg == "--spans") {
      record_spans = true;
    } else {
      return usage();
    }
  }
  if (workload == nullptr || !have_seed) return usage();
  Spans spans(record_spans);
  if (command == "run") {
    return run_main(*workload, seed, variant, setups, no_run, windows, spans);
  }
  if (command == "trace" && variant == Variant::kBase) {
    return traced_main(*workload, seed, spans);
  }
  return usage();
}

}  // namespace
}  // namespace ignem::perfbench

int main(int argc, char** argv) {
  try {
    return ignem::perfbench::real_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_runner: " << e.what() << "\n";
    return 1;
  }
}

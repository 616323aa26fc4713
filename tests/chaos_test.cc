// Randomized chaos sweep: many seeds, each running a live workload under a
// random schedule of node crashes, master/slave crashes, disk and network
// faults, and heartbeat delays — with the full fault-tolerance stack on and
// the InvariantChecker watching every event. Every seed must finish all
// jobs, satisfy every invariant, agree with the NameNode's replica map, and
// leak zero locked bytes (the hot-data baseline, whose LRU stays resident,
// instead lists no block its pool lost).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include "core/testbed.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "bench/sweep_runner.h"
#include "workload/swim.h"

namespace ignem {
namespace {

struct ChaosResult {
  std::uint64_t seed = 0;
  bool completed = false;
  std::size_t jobs = 0;
  std::size_t failed_jobs = 0;
  std::size_t faults_injected = 0;
  std::string violations;         ///< Empty when every invariant held.
  std::string replica_mismatch;   ///< Empty when trace and NameNode agree.
  std::string integrity_mismatch; ///< Empty when corruption accounting closed.
  std::uint64_t unrepairable = 0; ///< Blocks repair gave up on.
  Bytes leaked_locked_bytes = 0;
  /// Blocks a hot-data promoter lists as promoted that its pool lacks.
  std::size_t stale_promotions = 0;
  std::size_t over_replicated = 0; ///< Blocks above target after the drain.
  std::uint64_t transfers_severed = 0;  ///< Network's lifetime sever count.
  std::uint64_t severed_events = 0;     ///< kTransferSevered trace events.
  std::string plan;  ///< For reproducing a failing seed.
};

struct ChaosOptions {
  /// Cluster size. The workload scales with it (node_count / 4 times the
  /// jobs and input at that many times the arrival rate), so every node
  /// carries the load of the 4-node sweeps.
  std::size_t node_count = 4;
  std::uint32_t fault_kinds = kLoudFaultKinds;
  std::size_t fault_count = 6;
  std::uint64_t plan_seed_base = 9000;
  bool scrubber = false;
  /// Racks for placement, the reachability fabric, and kRackPartition
  /// faults; 1 keeps the flat fabric (where rack partitions would silence
  /// the whole cluster at once).
  int rack_count = 1;
  /// Detector suspicion grace window (0 = declare on first expiry).
  Duration suspicion_grace = Duration::zero();
  /// Re-replication storm throttle (0 = unthrottled).
  Bandwidth replication_rate_limit = 0.0;
  /// Routes every master<->slave control RPC through the RpcRouter on
  /// control node 0: heartbeats really drop at cuts, grants/repair orders/
  /// migration commands retry against deadlines.
  bool routed = false;
  /// Adds one deterministic mid-run cut of the control node's *own* rack —
  /// the cluster loses its brain entirely — healed before the drain.
  bool control_rack_cut = false;
};

ChaosResult run_chaos(RunMode mode, std::uint64_t seed,
                      ChaosOptions options = {}) {
  TestbedConfig config;
  config.mode = mode;
  config.cluster.node_count = options.node_count;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 16 * kGiB;
  config.seed = 1000 + seed;
  config.fault_tolerance = true;
  config.check_invariants = true;
  config.integrity.enable_scrubber = options.scrubber;
  config.integrity.scrub_interval = Duration::seconds(5);
  config.rack_count = options.rack_count;
  config.detector.suspicion_grace = options.suspicion_grace;
  config.replication_rate_limit = options.replication_rate_limit;
  config.routed_control_plane = options.routed;
  Testbed testbed(config);

  const std::size_t scale = std::max<std::size_t>(1, options.node_count / 4);
  SwimConfig swim;
  swim.job_count = 12 * scale;
  swim.total_input = 3 * kGiB * static_cast<Bytes>(scale);
  swim.tail_max = 1 * kGiB;
  swim.mean_interarrival =
      Duration::seconds(3.0 / static_cast<double>(scale));
  swim.seed = 100 + seed;
  auto jobs = build_swim_workload(testbed, swim);

  Rng rng(options.plan_seed_base + seed);
  const FaultPlan plan = FaultPlan::random(
      rng, config.cluster.node_count, options.fault_count,
      /*horizon=*/Duration::seconds(90), /*min_outage=*/Duration::seconds(5),
      /*max_outage=*/Duration::seconds(25), options.fault_kinds);
  FaultInjector injector(testbed.sim(), testbed, plan);
  injector.arm();
  // The deterministic brain-cut rides on top of the random schedule: the
  // control node's own rack is partitioned mid-run, so every node outside
  // it loses heartbeats, grants, and repair orders at once.
  const Duration control_cut_end = Duration::seconds(58);
  if (options.control_rack_cut) {
    testbed.sim().schedule(Duration::seconds(40), [&testbed] {
      testbed.begin_rack_partition(NodeId(0));
    });
    testbed.sim().schedule(control_cut_end, [&testbed] {
      testbed.end_rack_partition(NodeId(0));
    });
  }

  ChaosResult result;
  result.seed = seed;
  result.plan = plan.to_string();
  // Generous ceiling: a wedged recovery path fails the sweep instead of
  // hanging the binary.
  result.completed = testbed.run_workload_limited(std::move(jobs),
                                                  Duration::seconds(7200));
  result.jobs = testbed.metrics().jobs().size();
  // The workload can finish mid-outage (e.g. a node still spuriously dead
  // holding a rerouted migration's bytes until its rejoin purge). Run every
  // remaining fault window to its end plus detection/rejoin slack before
  // measuring leaks: zero *leaked* bytes means zero after recovery.
  Duration last_fault_end = Duration::zero();
  for (const FaultSpec& fault : plan.faults) {
    last_fault_end = std::max(last_fault_end, fault.at + fault.duration);
  }
  if (options.control_rack_cut) {
    last_fault_end = std::max(last_fault_end, control_cut_end);
  }
  const SimTime drain = SimTime::zero() + last_fault_end +
                        Duration::seconds(30);
  testbed.sim().run(drain > testbed.sim().now()
                        ? drain
                        : testbed.sim().now() + Duration::seconds(30));
  result.faults_injected = injector.injected();
  result.violations = testbed.invariant_checker()->report();
  result.replica_mismatch = testbed.replica_model_mismatch();
  result.integrity_mismatch = testbed.integrity_accounting_mismatch();
  result.unrepairable = testbed.replication_manager().stats().blocks_unrepairable;
  for (const JobRecord& job : testbed.metrics().jobs()) {
    if (job.failed) ++result.failed_jobs;
  }
  for (std::size_t i = 0; i < config.cluster.node_count; ++i) {
    const NodeId node(static_cast<std::int64_t>(i));
    const BufferCache& cache = testbed.datanode(node).cache();
    result.leaked_locked_bytes += cache.used();
    const HotDataPromoter* promoter = testbed.hot_data_promoter(node);
    if (promoter == nullptr) continue;
    for (const auto& [block, info] : testbed.namenode().all_blocks()) {
      (void)info;
      if (promoter->promoted(block) && !cache.contains(block)) {
        ++result.stale_promotions;
      }
    }
  }
  // Replica-leak check: after every window has healed and recovery has
  // drained, no block may sit above its target factor (rejoin
  // reconciliation and the in-flight-repair discard must have trimmed it).
  for (const auto& [block, info] : testbed.namenode().all_blocks()) {
    (void)info;
    if (testbed.namenode().live_locations(block).size() >
        static_cast<std::size_t>(config.replication)) {
      ++result.over_replicated;
    }
  }
  // Severed-transfer accounting: the lifetime counter and the trace stream
  // must tell the same story (each abort recorded exactly once).
  result.transfers_severed = testbed.network().transfers_severed();
  const auto& events = testbed.trace()->events();
  result.severed_events = static_cast<std::uint64_t>(std::count_if(
      events.begin(), events.end(), [](const TraceEvent& e) {
        return e.type == TraceEventType::kTransferSevered;
      }));
  return result;
}

/// `pools_drain`: every locked byte is released once the drain ends. The
/// hot-data baseline keeps its LRU resident by design, so its sweep passes
/// false.
void expect_clean(const ChaosResult& result, std::size_t expected_jobs,
                  bool pools_drain = true) {
  SCOPED_TRACE("seed " + std::to_string(result.seed) + "\nplan:\n" +
               result.plan);
  EXPECT_TRUE(result.completed) << "workload wedged";
  EXPECT_EQ(result.jobs, expected_jobs);
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_EQ(result.violations, "");
  EXPECT_EQ(result.replica_mismatch, "");
  EXPECT_EQ(result.integrity_mismatch, "");
  if (pools_drain) {
    EXPECT_EQ(result.leaked_locked_bytes, 0u);
  }
  EXPECT_EQ(result.stale_promotions, 0u)
      << "a promoter lists blocks its pool no longer holds";
  EXPECT_EQ(result.over_replicated, 0u);
  EXPECT_EQ(result.transfers_severed, result.severed_events)
      << "sever counter and kTransferSevered trace disagree";
  // A job may only fail when data was genuinely lost (every copy of some
  // block rotted before repair could save it); all other fault schedules
  // must degrade performance, never correctness.
  if (result.unrepairable == 0) {
    EXPECT_EQ(result.failed_jobs, 0u) << "job failed without lost data";
  }
}

TEST(Chaos, RandomFaultSweepIgnem) {
  constexpr std::size_t kSeeds = 20;
  const auto results = bench::run_indexed_sweep(
      kSeeds, [](std::size_t i) { return run_chaos(RunMode::kIgnem, i); });
  for (const ChaosResult& result : results) expect_clean(result, 12u);
}

TEST(Chaos, RandomFaultSweepHdfs) {
  // No master/slaves: master- and slave-crash faults must be safe no-ops,
  // and the detection + re-replication + container-requeue paths must carry
  // the workload on their own.
  constexpr std::size_t kSeeds = 8;
  const auto results = bench::run_indexed_sweep(
      kSeeds, [](std::size_t i) { return run_chaos(RunMode::kHdfs, i); });
  for (const ChaosResult& result : results) expect_clean(result, 12u);
}

TEST(Chaos, RandomFaultSweepHotData) {
  // The hot-data baseline's promoter lives in the DataNode process: a crash
  // must abort its in-flight page-ins and forget the blocks the pool lost.
  constexpr std::size_t kSeeds = 8;
  const auto results = bench::run_indexed_sweep(kSeeds, [](std::size_t i) {
    return run_chaos(RunMode::kHotDataPromotion, i);
  });
  for (const ChaosResult& result : results) {
    expect_clean(result, 12u, /*pools_drain=*/false);
  }
}

ChaosOptions corruption_options() {
  ChaosOptions options;
  options.fault_kinds = kAllFaultKinds;  // adds kBlockCorrupt / kCacheCorrupt
  options.fault_count = 8;
  options.plan_seed_base = 12000;
  options.scrubber = true;
  return options;
}

TEST(Chaos, CorruptionChaosSweepIgnem) {
  // Silent corruption mixed into the loud fault schedule, with the scrubber
  // hunting latent rot in the background. Detection, repair, cache purges,
  // and migration rerouting all race the workload; the integrity accounting
  // must still close exactly.
  constexpr std::size_t kSeeds = 10;
  const auto results = bench::run_indexed_sweep(kSeeds, [](std::size_t i) {
    return run_chaos(RunMode::kIgnem, i, corruption_options());
  });
  for (const ChaosResult& result : results) expect_clean(result, 12u);
}

TEST(Chaos, CorruptionChaosSweepHotData) {
  // Integrity purges drop promoted copies behind the promoter's back unless
  // they go through it: its LRU must list no block its pool lost.
  constexpr std::size_t kSeeds = 8;
  const auto results = bench::run_indexed_sweep(kSeeds, [](std::size_t i) {
    return run_chaos(RunMode::kHotDataPromotion, i, corruption_options());
  });
  for (const ChaosResult& result : results) {
    expect_clean(result, 12u, /*pools_drain=*/false);
  }
}

TEST(Chaos, CorruptionChaosSweepHdfs) {
  constexpr std::size_t kSeeds = 6;
  const auto results = bench::run_indexed_sweep(kSeeds, [](std::size_t i) {
    return run_chaos(RunMode::kHdfs, i, corruption_options());
  });
  for (const ChaosResult& result : results) expect_clean(result, 12u);
}

ChaosOptions partition_options() {
  ChaosOptions options;
  // Everything at once: crashes, hangs, disk/network faults, corruption,
  // and both partition shapes, against a 2-rack fabric with the suspicion
  // grace window and the re-replication throttle engaged.
  options.fault_kinds = kEveryFaultKind;
  options.fault_count = 8;
  options.plan_seed_base = 21000;
  options.scrubber = true;
  options.rack_count = 2;
  options.suspicion_grace = Duration::seconds(4);
  options.replication_rate_limit = mib_per_sec(200);
  return options;
}

TEST(Chaos, PartitionChaosSweepIgnem) {
  // Satisfies the partition acceptance bar: no seed may hang, leak locked
  // bytes, or leave a single block over-replicated after every window heals.
  constexpr std::size_t kSeeds = 20;
  const auto results = bench::run_indexed_sweep(kSeeds, [](std::size_t i) {
    return run_chaos(RunMode::kIgnem, i, partition_options());
  });
  for (const ChaosResult& result : results) expect_clean(result, 12u);
}

TEST(Chaos, PartitionChaosAtScaleIgnem) {
  // The partition sweep on a 128-node, 4-rack cluster with the 4-node
  // sweep's load and faults per node: sever conservation, the invariants
  // and the replica model must hold far beyond 8 nodes.
  constexpr std::size_t kSeeds = 3;
  constexpr std::size_t kNodes = 128;
  const auto results = bench::run_indexed_sweep(kSeeds, [](std::size_t i) {
    ChaosOptions options = partition_options();
    options.node_count = kNodes;
    options.rack_count = 4;
    options.fault_count *= kNodes / 4;
    return run_chaos(RunMode::kIgnem, i, options);
  });
  for (const ChaosResult& result : results) {
    expect_clean(result, 12 * kNodes / 4);
  }
}

TEST(Chaos, PartitionChaosSweepHdfs) {
  constexpr std::size_t kSeeds = 8;
  const auto results = bench::run_indexed_sweep(kSeeds, [](std::size_t i) {
    return run_chaos(RunMode::kHdfs, i, partition_options());
  });
  for (const ChaosResult& result : results) expect_clean(result, 12u);
}

ChaosOptions control_plane_options() {
  ChaosOptions options;
  options.fault_kinds = kEveryFaultKind;
  options.fault_count = 6;
  options.plan_seed_base = 24000;
  options.rack_count = 2;
  options.suspicion_grace = Duration::seconds(4);
  options.replication_rate_limit = mib_per_sec(200);
  options.routed = true;
  options.control_rack_cut = true;
  return options;
}

TEST(Chaos, ControlPlanePartitionSweepIgnem) {
  // The routed control plane under fire: every seed cuts the master's own
  // rack mid-run (on top of the random schedule), so heartbeats, grants,
  // migration commands, and repair orders all really drop. Every job must
  // still terminate, no block may end over-replicated, and zero locked
  // bytes may leak once the cut heals.
  constexpr std::size_t kSeeds = 12;
  const auto results = bench::run_indexed_sweep(kSeeds, [](std::size_t i) {
    return run_chaos(RunMode::kIgnem, i, control_plane_options());
  });
  for (const ChaosResult& result : results) expect_clean(result, 12u);
}

}  // namespace
}  // namespace ignem

// Fault-tolerant regression anchor: pinned traces of runs with the whole
// fault-tolerance stack on (heartbeat liveness on both planes, suspicion,
// false-dead accounting, re-replication, rejoin reconciliation, Ignem
// reroutes), under random crash, heartbeat-delay and partition schedules.
// The kernel_regression_test pins all run with fault tolerance off.
//
// Scenarios: 8 Ignem nodes on 2 racks running 48 SWIM jobs, on the direct
// and the routed control plane, each with suspicion grace 0 s and 6 s,
// times six fault seeds. Each seed's plan is eight faults drawn by
// FaultPlan::random over kLoudFaultKinds | kPartitionFaultKinds; seed 5
// also cuts the control node's own rack for 18 s mid-run. kSimRunStart and
// kSimRunEnd are masked: they carry the dispatched-event count, which is
// not behaviour.
//
// Each scenario pins two values:
//   - a digest of its events sorted by (time, type, node, block, job,
//     bytes, detail, value): the same events at the same times, whatever
//     their order within one instant;
//   - on the direct path, the masked trace hash itself: the same events in
//     the same order. On the routed path two monitors that hear the same
//     beat can readmit a node in either order at one instant, so only the
//     sorted digest is pinned there.
//
// How the constants were captured: with IGNEM_PRINT_ANCHOR_DIGESTS=1 (which
// prints fresh values instead of asserting) on the simulator that ran two
// heartbeat streams per node, a NodeManager beat for the ResourceManager and
// a DataNode beat for the FailureDetector, each with its own 1 s liveness
// scan. Merging them into one beat and one scan must leave every value
// below unchanged. They are hard-coded and never regenerated automatically;
// a change that moves fault-tolerant behaviour on purpose updates them in
// the same commit and says why.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <tuple>
#include <vector>

#include "bench/sweep_runner.h"
#include "common/fnv.h"
#include "core/testbed.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "workload/swim.h"

namespace ignem {
namespace {

constexpr int kSeeds = 6;
/// The seed whose plan also cuts the control node's rack.
constexpr int kControlCutSeed = 5;

struct AnchorCase {
  bool routed;
  int grace_seconds;
  int seed;
};

struct AnchorRun {
  std::uint64_t sorted_digest = 0;
  std::uint64_t trace_hash = 0;
  std::size_t events = 0;
  bool completed = false;
  // Coverage of the liveness paths the anchor exists for.
  std::size_t dead_namenode = 0;
  std::size_t dead_rm = 0;
  std::size_t rejoin_namenode = 0;
  std::size_t rejoin_rm = 0;
  std::size_t suspects = 0;
  std::size_t false_dead = 0;
};

std::uint64_t sorted_digest(std::vector<TraceEvent> events) {
  const auto key = [](const TraceEvent& e) {
    return std::make_tuple(e.time, e.type, e.node.value(), e.block.value(),
                           e.job.value(), e.bytes, e.detail, e.value);
  };
  std::sort(events.begin(), events.end(),
            [&](const TraceEvent& a, const TraceEvent& b) {
              return key(a) < key(b);
            });
  std::uint64_t h = kFnvTraceOffset;
  for (const TraceEvent& e : events) {
    h = fnv1a_word(h, static_cast<std::uint64_t>(e.time.count_micros()));
    h = fnv1a_byte(h, static_cast<std::uint8_t>(e.type));
    h = fnv1a_word(h, static_cast<std::uint64_t>(e.node.value()));
    h = fnv1a_word(h, static_cast<std::uint64_t>(e.block.value()));
    h = fnv1a_word(h, static_cast<std::uint64_t>(e.job.value()));
    h = fnv1a_word(h, static_cast<std::uint64_t>(e.bytes));
    h = fnv1a_word(h, static_cast<std::uint64_t>(e.detail));
    h = fnv1a_word(h, std::bit_cast<std::uint64_t>(e.value));
  }
  return h;
}

std::size_t count(const std::vector<TraceEvent>& events, TraceEventType type,
                  std::int64_t detail = -1) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [&](const TraceEvent& e) {
        return e.type == type && (detail < 0 || e.detail == detail);
      }));
}

AnchorRun run_anchor(const AnchorCase& c) {
  TestbedConfig config;
  config.mode = RunMode::kIgnem;
  config.cluster.node_count = 8;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 16 * kGiB;
  config.rack_count = 2;
  config.seed = 3100 + static_cast<std::uint64_t>(c.seed);
  config.enable_trace = true;
  config.fault_tolerance = true;
  config.routed_control_plane = c.routed;
  config.detector.suspicion_grace = Duration::seconds(c.grace_seconds);
  Testbed testbed(config);
  testbed.trace()->set_enabled(TraceEventType::kSimRunStart, false);
  testbed.trace()->set_enabled(TraceEventType::kSimRunEnd, false);

  SwimConfig swim;
  swim.job_count = 48;
  swim.total_input = 12 * kGiB;
  swim.tail_max = 1 * kGiB;
  swim.mean_interarrival = Duration::seconds(1.5);
  swim.seed = 3200 + static_cast<std::uint64_t>(c.seed);
  auto jobs = build_swim_workload(testbed, swim);

  Rng rng(3300 + static_cast<std::uint64_t>(c.seed));
  const FaultPlan plan = FaultPlan::random(
      rng, config.cluster.node_count, /*fault_count=*/8,
      /*horizon=*/Duration::seconds(90), /*min_outage=*/Duration::seconds(5),
      /*max_outage=*/Duration::seconds(25),
      kLoudFaultKinds | kPartitionFaultKinds);
  FaultInjector injector(testbed.sim(), testbed, plan);
  injector.arm();
  Duration last_fault_end = Duration::zero();
  for (const FaultSpec& fault : plan.faults) {
    last_fault_end = std::max(last_fault_end, fault.at + fault.duration);
  }
  if (c.seed == kControlCutSeed) {
    testbed.sim().schedule(Duration::seconds(40), [&testbed] {
      testbed.begin_rack_partition(NodeId(0));
    });
    testbed.sim().schedule(Duration::seconds(58), [&testbed] {
      testbed.end_rack_partition(NodeId(0));
    });
    last_fault_end = std::max(last_fault_end, Duration::seconds(58));
  }

  AnchorRun run;
  run.completed = testbed.run_workload_limited(std::move(jobs),
                                               Duration::seconds(3600));
  // Every window heals, and detection and rejoin settle, before the trace
  // is read.
  const SimTime drain =
      SimTime::zero() + last_fault_end + Duration::seconds(30);
  testbed.sim().run(std::max(drain, testbed.sim().now()));

  const std::vector<TraceEvent>& events = testbed.trace()->events();
  run.sorted_digest = sorted_digest(events);
  run.trace_hash = testbed.trace_hash();
  run.events = events.size();
  run.dead_namenode = count(events, TraceEventType::kFaultDetectedDead, 0);
  run.dead_rm = count(events, TraceEventType::kFaultDetectedDead, 1);
  run.rejoin_namenode = count(events, TraceEventType::kRecoverNodeRejoin, 0);
  run.rejoin_rm = count(events, TraceEventType::kRecoverNodeRejoin, 1);
  run.suspects = count(events, TraceEventType::kNodeSuspect);
  run.false_dead = count(events, TraceEventType::kFalseDead);
  return run;
}

struct AnchorPin {
  AnchorCase scenario;
  std::uint64_t sorted_digest;
  /// The masked trace hash; pinned on the direct path only (0 when routed).
  std::uint64_t trace_hash;
};

// Captured with two heartbeat streams per node; see the file comment.
constexpr AnchorPin kPins[] = {
    {{false, 0, 0}, 5859515961191691381ull, 13744600889757670393ull},
    {{false, 0, 1}, 5793984767669289632ull, 10618634664639602996ull},
    {{false, 0, 2}, 2212951151852939933ull, 17709168519018663177ull},
    {{false, 0, 3}, 8752812232319669993ull, 14332254247054849071ull},
    {{false, 0, 4}, 1437847076918842630ull, 17326239269668267054ull},
    {{false, 0, 5}, 12682397497508768159ull, 1154383858807304623ull},
    {{false, 6, 0}, 11973246053966120326ull, 866941759632554536ull},
    {{false, 6, 1}, 16301308761743036888ull, 3953978313199935930ull},
    {{false, 6, 2}, 9937427752496905614ull, 17413251562312349478ull},
    {{false, 6, 3}, 7569240803515947041ull, 2311032908292681331ull},
    {{false, 6, 4}, 7457154930350239712ull, 5380571879776360996ull},
    {{false, 6, 5}, 16456847894277202837ull, 5991735330806889051ull},
    {{true, 0, 0}, 2279005388209838652ull, 0ull},
    {{true, 0, 1}, 5538661555570573538ull, 0ull},
    {{true, 0, 2}, 6686189576957702451ull, 0ull},
    {{true, 0, 3}, 4242290280553237847ull, 0ull},
    {{true, 0, 4}, 5460592823755840302ull, 0ull},
    {{true, 0, 5}, 10733277598433648710ull, 0ull},
    {{true, 6, 0}, 17085626232224630373ull, 0ull},
    {{true, 6, 1}, 822143092622652874ull, 0ull},
    {{true, 6, 2}, 6945507539665137232ull, 0ull},
    {{true, 6, 3}, 4436180139766657836ull, 0ull},
    {{true, 6, 4}, 6306791282229487379ull, 0ull},
    {{true, 6, 5}, 4108893306980689837ull, 0ull},
};

TEST(LivenessAnchor, FaultTolerantTracesMatchTwoStreamCapture) {
  std::vector<AnchorCase> cases;
  for (const bool routed : {false, true}) {
    for (const int grace : {0, 6}) {
      for (int seed = 0; seed < kSeeds; ++seed) {
        cases.push_back({routed, grace, seed});
      }
    }
  }
  const std::vector<AnchorRun> runs = bench::run_indexed_sweep(
      cases.size(), [&](std::size_t i) { return run_anchor(cases[i]); });

  const char* print = std::getenv("IGNEM_PRINT_ANCHOR_DIGESTS");
  if (print != nullptr && *print == '1') {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const AnchorCase& c = cases[i];
      const AnchorRun& r = runs[i];
      std::cout << "    {{" << (c.routed ? "true" : "false") << ", "
                << c.grace_seconds << ", " << c.seed << "}, "
                << r.sorted_digest << "ull, "
                << (c.routed ? 0 : r.trace_hash) << "ull},  // " << r.events
                << " events, dead " << r.dead_namenode << "/" << r.dead_rm
                << ", rejoin " << r.rejoin_namenode << "/" << r.rejoin_rm
                << ", suspect " << r.suspects << ", false-dead "
                << r.false_dead << (r.completed ? "" : ", WEDGED") << "\n";
    }
    return;
  }

  ASSERT_EQ(std::size(kPins), cases.size());
  AnchorRun total;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const AnchorCase& c = kPins[i].scenario;
    const AnchorRun& r = runs[i];
    SCOPED_TRACE(std::string(c.routed ? "routed" : "direct") + ", grace " +
                 std::to_string(c.grace_seconds) + " s, seed " +
                 std::to_string(c.seed));
    ASSERT_EQ(c.routed, cases[i].routed);
    ASSERT_EQ(c.grace_seconds, cases[i].grace_seconds);
    ASSERT_EQ(c.seed, cases[i].seed);
    EXPECT_TRUE(r.completed) << "workload wedged";
    EXPECT_EQ(r.sorted_digest, kPins[i].sorted_digest)
        << "the run's events or their times moved";
    if (!c.routed) {
      EXPECT_EQ(r.trace_hash, kPins[i].trace_hash)
          << "direct-path event order moved";
    }
    total.dead_namenode += r.dead_namenode;
    total.dead_rm += r.dead_rm;
    total.rejoin_namenode += r.rejoin_namenode;
    total.rejoin_rm += r.rejoin_rm;
    total.suspects += r.suspects;
    total.false_dead += r.false_dead;
  }
  // The pins only anchor the liveness machinery if the scenarios drive it.
  EXPECT_GT(total.dead_namenode, 0u);
  EXPECT_GT(total.dead_rm, 0u);
  EXPECT_GT(total.rejoin_namenode, 0u);
  EXPECT_GT(total.rejoin_rm, 0u);
  EXPECT_GT(total.suspects, 0u);
  EXPECT_GT(total.false_dead, 0u);
}

}  // namespace
}  // namespace ignem

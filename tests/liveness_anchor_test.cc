// Fault-tolerant regression anchor: pinned traces of runs with the whole
// fault-tolerance stack on (heartbeat liveness on both planes, suspicion,
// false-dead accounting, re-replication, rejoin reconciliation, Ignem
// reroutes), under random crash, heartbeat-delay and partition schedules.
// The kernel_regression_test pins all run with fault tolerance off.
//
// The 24 scenarios are defined in tests/pin_scenarios.h (8 Ignem nodes on 2
// racks, 48 SWIM jobs, direct and routed control plane, suspicion grace 0 s
// and 6 s, six fault seeds). Each pins two values:
//   - pins::anchor_digest, a digest of its events sorted by (time, type,
//     node, block, job, bytes, detail, value): the same events at the same
//     times, whatever their order within one instant;
//   - on the direct path, the masked trace hash itself: the same events in
//     the same order. On the routed path two monitors that hear the same
//     beat can readmit a node in either order at one instant, so only the
//     sorted digest is pinned there.
//
// Re-pinned when failure and rejoin handling began walking the node's own
// replica table in block-id order, which moves repair order. Last re-pinned
// when the tier move events left every traced run (the pool's cache events
// record each move), which also renumbers the event types after them; no
// job moved.
//
// The constants are hard-coded and never regenerated automatically. A change
// that moves fault-tolerant behaviour on purpose runs
// `scripts/regen_pins.sh <base-ref>`, which compares every pinned scenario
// between the base and the working tree (first divergence, per-job end-time
// deltas) and prints fresh values through IGNEM_PRINT_ANCHOR_DIGESTS=1;
// the commit updates them and says why.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench/sweep_runner.h"
#include "pin_scenarios.h"

namespace ignem {
namespace {

struct AnchorStats {
  std::uint64_t digest = 0;
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

std::size_t count(const std::vector<TraceEvent>& events, TraceEventType type,
                  std::int64_t detail = -1) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(), [&](const TraceEvent& e) {
        return e.type == type && (detail < 0 || e.detail == detail);
      }));
}

AnchorStats anchor_stats(const pins::AnchorCase& c) {
  const pins::AnchorRun anchor = pins::run_anchor(c);
  Testbed& testbed = *anchor.testbed;
  AnchorStats run;
  run.completed = anchor.completed;
  const std::vector<TraceEvent>& events = testbed.trace()->events();
  run.digest = pins::anchor_digest(events);
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
  pins::AnchorCase scenario;
  std::uint64_t digest;
  /// The masked trace hash; pinned on the direct path only (0 when routed).
  std::uint64_t trace_hash;
};

// See the file comment for how these were captured.
constexpr AnchorPin kPins[] = {
    {{false, 0, 0}, 16452290041212503299ull, 10896462049211424917ull},
    {{false, 0, 1}, 13209739132430504373ull, 10974988898722182839ull},
    {{false, 0, 2}, 15598564377796376440ull, 16347744373680299370ull},
    {{false, 0, 3}, 14516193575770363339ull, 13650860842511420053ull},
    {{false, 0, 4}, 3563692765468244441ull, 6786097322009857433ull},
    {{false, 0, 5}, 8774860687780815482ull, 2334543747825713472ull},
    {{false, 6, 0}, 7064342127078581458ull, 5114838551163433528ull},
    {{false, 6, 1}, 282655040307074088ull, 7475847630075776392ull},
    {{false, 6, 2}, 7879151106113006100ull, 9008224015107857290ull},
    {{false, 6, 3}, 15473995309242782851ull, 18405416766768047597ull},
    {{false, 6, 4}, 15265614734644886511ull, 9380803315758534351ull},
    {{false, 6, 5}, 14839260863721721764ull, 4199147448048183032ull},
    {{true, 0, 0}, 7546107019893252331ull, 0ull},
    {{true, 0, 1}, 9318289038562715831ull, 0ull},
    {{true, 0, 2}, 3544681841431919775ull, 0ull},
    {{true, 0, 3}, 4593187512885633953ull, 0ull},
    {{true, 0, 4}, 306180829362637159ull, 0ull},
    {{true, 0, 5}, 14616911418216885598ull, 0ull},
    {{true, 6, 0}, 1400823480048520403ull, 0ull},
    {{true, 6, 1}, 16146976812052564790ull, 0ull},
    {{true, 6, 2}, 2697188100769232846ull, 0ull},
    {{true, 6, 3}, 12561516937711527537ull, 0ull},
    {{true, 6, 4}, 10883363910356271045ull, 0ull},
    {{true, 6, 5}, 11652173015604003721ull, 0ull},
};

TEST(LivenessAnchor, FaultTolerantTracesMatchTwoStreamCapture) {
  const std::vector<pins::AnchorCase> cases = pins::anchor_cases();
  const std::vector<AnchorStats> runs = bench::run_indexed_sweep(
      cases.size(), [&](std::size_t i) { return anchor_stats(cases[i]); });

  const char* print = std::getenv("IGNEM_PRINT_ANCHOR_DIGESTS");
  if (print != nullptr && *print == '1') {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const pins::AnchorCase& c = cases[i];
      const AnchorStats& r = runs[i];
      std::cout << "    {{" << (c.routed ? "true" : "false") << ", "
                << c.grace_seconds << ", " << c.seed << "}, "
                << r.digest << "ull, "
                << (c.routed ? 0 : r.trace_hash) << "ull},  // " << r.events
                << " events, dead " << r.dead_namenode << "/" << r.dead_rm
                << ", rejoin " << r.rejoin_namenode << "/" << r.rejoin_rm
                << ", suspect " << r.suspects << ", false-dead "
                << r.false_dead << (r.completed ? "" : ", WEDGED") << "\n";
    }
    return;
  }

  ASSERT_EQ(std::size(kPins), cases.size());
  AnchorStats total;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const pins::AnchorCase& c = kPins[i].scenario;
    const AnchorStats& r = runs[i];
    SCOPED_TRACE(std::string(c.routed ? "routed" : "direct") + ", grace " +
                 std::to_string(c.grace_seconds) + " s, seed " +
                 std::to_string(c.seed));
    ASSERT_EQ(c.routed, cases[i].routed);
    ASSERT_EQ(c.grace_seconds, cases[i].grace_seconds);
    ASSERT_EQ(c.seed, cases[i].seed);
    EXPECT_TRUE(r.completed) << "workload wedged";
    EXPECT_EQ(r.digest, kPins[i].digest)
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

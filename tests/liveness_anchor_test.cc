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
//   - on the direct path, the trace hash itself: the same events in the
//     same order. On the routed path two monitors that hear the same
//     beat can readmit a node in either order at one instant, so only the
//     sorted digest is pinned there.
//
// Re-pinned when failure and rejoin handling began walking the node's own
// replica table in block-id order, which moves repair order. Re-pinned with
// no job moved when the tier move events left every traced run (the pool's
// cache events record each move), and again when nine unread or restating
// event types left it; both renumber the event types after them.
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
  /// The trace hash; pinned on the direct path only (0 when routed).
  std::uint64_t trace_hash;
};

// See the file comment for how these were captured.
constexpr AnchorPin kPins[] = {
    {{false, 0, 0}, 350387930914076863ull, 12748907493793094639ull},
    {{false, 0, 1}, 9589389301972255270ull, 2600804730272416498ull},
    {{false, 0, 2}, 12142683308911228167ull, 11876506823418014309ull},
    {{false, 0, 3}, 8836559231070367821ull, 685640307359649711ull},
    {{false, 0, 4}, 7585324312644677704ull, 6956695050506671274ull},
    {{false, 0, 5}, 1770249003678539178ull, 10210794154269840780ull},
    {{false, 6, 0}, 4451225985431623738ull, 15298576333487706404ull},
    {{false, 6, 1}, 17780404625579114192ull, 10008030999579508506ull},
    {{false, 6, 2}, 1325151692478860220ull, 12486061984782938150ull},
    {{false, 6, 3}, 12157656251849320313ull, 16645219213694333317ull},
    {{false, 6, 4}, 12539299454208817689ull, 4372839661854187701ull},
    {{false, 6, 5}, 9744129664243766429ull, 16627244543977320213ull},
    {{true, 0, 0}, 5615486570482612108ull, 0ull},
    {{true, 0, 1}, 4003612404553462434ull, 0ull},
    {{true, 0, 2}, 13502803469609792752ull, 0ull},
    {{true, 0, 3}, 13062733269867793369ull, 0ull},
    {{true, 0, 4}, 6554732768569661699ull, 0ull},
    {{true, 0, 5}, 11469525805752451530ull, 0ull},
    {{true, 6, 0}, 15822102977406793324ull, 0ull},
    {{true, 6, 1}, 11951332841828384497ull, 0ull},
    {{true, 6, 2}, 14101190272608547758ull, 0ull},
    {{true, 6, 3}, 3453451002106185564ull, 0ull},
    {{true, 6, 4}, 7850570363434876055ull, 0ull},
    {{true, 6, 5}, 14375161767453184325ull, 0ull},
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

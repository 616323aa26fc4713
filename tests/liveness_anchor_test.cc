// Fault-tolerant regression anchor: pinned traces of runs with the whole
// fault-tolerance stack on (heartbeat liveness judged by the one failure
// detector and followed by the NameNode side and the RM, suspicion,
// false-dead accounting, re-replication, rejoin reconciliation, Ignem
// reroutes), under random crash, heartbeat-delay and partition schedules.
// The kernel_regression_test pins all run with fault tolerance off.
//
// The 24 scenarios are defined in tests/pin_scenarios.h (8 Ignem nodes on 2
// racks, 48 SWIM jobs, direct and routed control plane, suspicion grace 0 s
// and 6 s, six fault seeds). Each pins its trace hash: the same events in
// the same order, on the direct and the routed path alike. One judge
// declares each death and rejoin, so no two monitors can readmit a node
// in either order at one instant.
//
// Re-pinned when failure and rejoin handling began walking the node's own
// replica table in block-id order, which moves repair order. Re-pinned with
// no job moved when the tier move events left every traced run (the pool's
// cache events record each move), and again when nine unread or restating
// event types left it; both renumber the event types after them. Re-pinned
// when the ResourceManager stopped judging liveness and began following
// the detector: its detail-1 death and rejoin events left every run, and
// under suspicion grace it now keeps a suspect node's containers.
//
// The constants are hard-coded and never regenerated automatically. A change
// that moves fault-tolerant behaviour on purpose runs
// `scripts/regen_pins.sh <base-ref>`, which compares every pinned scenario
// between the base and the working tree (first divergence, per-job end-time
// deltas) and prints fresh values through IGNEM_PRINT_ANCHOR_HASHES=1;
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
  std::uint64_t trace_hash = 0;
  std::size_t events = 0;
  bool completed = false;
  // Coverage of the liveness paths the anchor exists for.
  std::size_t dead = 0;
  std::size_t rejoin = 0;
  std::size_t suspects = 0;
  std::size_t false_dead = 0;
  /// Death and rejoin events with a detail other than 0: none, since the
  /// detector is their one source.
  std::size_t second_judge = 0;
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
  run.trace_hash = testbed.trace_hash();
  run.events = events.size();
  run.dead = count(events, TraceEventType::kFaultDetectedDead, 0);
  run.rejoin = count(events, TraceEventType::kRecoverNodeRejoin, 0);
  run.second_judge = count(events, TraceEventType::kFaultDetectedDead) +
                     count(events, TraceEventType::kRecoverNodeRejoin) -
                     run.dead - run.rejoin;
  run.suspects = count(events, TraceEventType::kNodeSuspect);
  run.false_dead = count(events, TraceEventType::kFalseDead);
  return run;
}

struct AnchorPin {
  pins::AnchorCase scenario;
  std::uint64_t trace_hash;
};

// See the file comment for how these were captured.
constexpr AnchorPin kPins[] = {
    {{false, 0, 0}, 14783748578989680959ull},
    {{false, 0, 1}, 4412181593300063301ull},
    {{false, 0, 2}, 13433349739475511829ull},
    {{false, 0, 3}, 2496794575213963299ull},
    {{false, 0, 4}, 5233864936450429665ull},
    {{false, 0, 5}, 14127967047846589847ull},
    {{false, 6, 0}, 11004189283389889312ull},
    {{false, 6, 1}, 10743637330310396273ull},
    {{false, 6, 2}, 10444237154241720206ull},
    {{false, 6, 3}, 17741054918037636709ull},
    {{false, 6, 4}, 8775138960549540952ull},
    {{false, 6, 5}, 15287103296223683698ull},
    {{true, 0, 0}, 6392450679191205717ull},
    {{true, 0, 1}, 11219021496198655364ull},
    {{true, 0, 2}, 5778311794630396750ull},
    {{true, 0, 3}, 15116194667630410139ull},
    {{true, 0, 4}, 12790624611337473000ull},
    {{true, 0, 5}, 3754474800211172643ull},
    {{true, 6, 0}, 10434474734260692413ull},
    {{true, 6, 1}, 8252355866102839087ull},
    {{true, 6, 2}, 16743572848639914946ull},
    {{true, 6, 3}, 12057118177862005406ull},
    {{true, 6, 4}, 16828393326538129008ull},
    {{true, 6, 5}, 17163438712087723789ull},
};

TEST(LivenessAnchor, FaultTolerantTracesMatchTwoStreamCapture) {
  const std::vector<pins::AnchorCase> cases = pins::anchor_cases();
  const std::vector<AnchorStats> runs = bench::run_indexed_sweep(
      cases.size(), [&](std::size_t i) { return anchor_stats(cases[i]); });

  const char* print = std::getenv("IGNEM_PRINT_ANCHOR_HASHES");
  if (print != nullptr && *print == '1') {
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const pins::AnchorCase& c = cases[i];
      const AnchorStats& r = runs[i];
      std::cout << "    {{" << (c.routed ? "true" : "false") << ", "
                << c.grace_seconds << ", " << c.seed << "}, " << r.trace_hash
                << "ull},  // " << r.events << " events, dead " << r.dead
                << ", rejoin " << r.rejoin << ", suspect " << r.suspects
                << ", false-dead " << r.false_dead
                << (r.completed ? "" : ", WEDGED") << "\n";
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
    EXPECT_EQ(r.trace_hash, kPins[i].trace_hash)
        << "the run's events, their times or their order moved";
    EXPECT_EQ(r.second_judge, 0u) << "a death or rejoin with detail != 0";
    total.dead += r.dead;
    total.rejoin += r.rejoin;
    total.suspects += r.suspects;
    total.false_dead += r.false_dead;
  }
  // The pins only anchor the liveness machinery if the scenarios drive it.
  EXPECT_GT(total.dead, 0u);
  EXPECT_GT(total.rejoin, 0u);
  EXPECT_GT(total.suspects, 0u);
  EXPECT_GT(total.false_dead, 0u);
}

}  // namespace
}  // namespace ignem

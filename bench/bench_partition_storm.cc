// Partition-storm bench: recovery-storm control under a rack partition.
// A 2-rack, 8-server Ignem testbed runs the SWIM workload; 60 s in, rack 1
// (four servers) is cut off long enough for the suspicion window to expire,
// so the detector falsely declares every member dead and the
// ReplicationManager starts re-replicating their blocks. One real crash in
// the surviving rack rides along. The storm run is measured twice — with
// the re-replication token bucket off and on — against a fault-free
// reference:
//   - recovery bytes + false-dead count per storm run
//   - makespan overhead vs the fault-free run for both
//   - the acceptance ratio: throttled / unthrottled makespan (<= 1.10x —
//     pacing repairs must not come at the foreground's expense)
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>

#include "bench/experiment_common.h"
#include "metrics/table.h"

namespace ignem::bench {
namespace {

constexpr double kPartitionAt = 60.0;
constexpr double kPartitionFor = 30.0;  // well past timeout (12 s) + grace
constexpr double kCrashAt = 70.0;
constexpr double kRestartAfter = 25.0;
constexpr int kRackCount = 2;

TestbedConfig storm_testbed(bool throttled) {
  TestbedConfig config = paper_testbed(RunMode::kIgnem);
  config.fault_tolerance = true;  // every run pays the same heartbeat cost
  config.rack_count = kRackCount;
  config.detector.suspicion_grace = Duration::seconds(2.0);
  if (throttled) {
    config.replication_rate_limit = mib_per_sec(64);
  }
  return config;
}

double makespan_seconds(const RunMetrics& metrics) {
  double last = 0.0;
  for (const JobRecord& job : metrics.jobs()) {
    last = std::max(last, job.end.to_seconds());
  }
  return last;
}

struct StormRun {
  double makespan = 0.0;
  double recovery_bytes = 0.0;
  double false_dead = 0.0;
  double repairs_throttled = 0.0;
  double excess_deleted = 0.0;
};

StormRun run_storm(bool throttled) {
  auto testbed = std::make_unique<Testbed>(storm_testbed(throttled));
  auto jobs = build_swim_workload(*testbed, paper_swim());
  // Cut rack 1 (nodes 1,3,5,7): any member id names the whole rack.
  testbed->sim().schedule(Duration::seconds(kPartitionAt),
                          [&] { testbed->begin_rack_partition(NodeId(1)); });
  testbed->sim().schedule(Duration::seconds(kPartitionAt + kPartitionFor),
                          [&] { testbed->end_rack_partition(NodeId(1)); });
  // A genuine crash in the surviving rack stacks real repairs on spurious
  // ones — the storm the throttle exists to pace.
  testbed->sim().schedule(Duration::seconds(kCrashAt),
                          [&] { testbed->fail_node(NodeId(2)); });
  testbed->sim().schedule(Duration::seconds(kCrashAt + kRestartAfter),
                          [&] { testbed->restart_node(NodeId(2)); });
  testbed->run_workload(std::move(jobs));
  maybe_dump_trace(*testbed);
  report().add_run(*testbed);

  StormRun run;
  run.makespan = makespan_seconds(testbed->metrics());
  const ReplicationStats& stats = testbed->replication_manager().stats();
  run.recovery_bytes = static_cast<double>(stats.bytes_repaired);
  run.repairs_throttled = static_cast<double>(stats.repairs_throttled);
  run.excess_deleted = static_cast<double>(stats.excess_deleted);
  run.false_dead =
      static_cast<double>(testbed->failure_detector()->false_dead_total());
  return run;
}

void run() {
  print_header(
      "Partition storm: rack cut + crash under SWIM, throttled vs not");

  auto clean = std::make_unique<Testbed>(storm_testbed(false));
  clean->run_workload(build_swim_workload(*clean, paper_swim()));
  report().add_run(*clean);
  const double clean_makespan = makespan_seconds(clean->metrics());

  const StormRun unthrottled = run_storm(false);
  const StormRun throttled = run_storm(true);

  const double overhead_unthrottled = unthrottled.makespan / clean_makespan;
  const double overhead_throttled = throttled.makespan / clean_makespan;
  const double throttle_ratio = throttled.makespan / unthrottled.makespan;
  // Acceptance bar: pacing background repairs must not slow the foreground
  // workload by more than 10% over letting the storm rip.
  IGNEM_CHECK_MSG(throttle_ratio <= 1.10,
                  "throttled recovery slowed the foreground past 1.10x");

  TextTable table({"Metric", "Unthrottled", "Throttled"});
  table.add_row({"makespan (s)", TextTable::fixed(unthrottled.makespan),
                 TextTable::fixed(throttled.makespan)});
  table.add_row({"overhead vs fault-free (x)",
                 TextTable::fixed(overhead_unthrottled, 3),
                 TextTable::fixed(overhead_throttled, 3)});
  table.add_row({"recovery traffic (MiB)",
                 TextTable::fixed(unthrottled.recovery_bytes / kMiB, 1),
                 TextTable::fixed(throttled.recovery_bytes / kMiB, 1)});
  table.add_row({"false-dead declarations",
                 TextTable::fixed(unthrottled.false_dead, 0),
                 TextTable::fixed(throttled.false_dead, 0)});
  table.add_row({"repairs throttled",
                 TextTable::fixed(unthrottled.repairs_throttled, 0),
                 TextTable::fixed(throttled.repairs_throttled, 0)});
  table.add_row({"excess replicas trimmed",
                 TextTable::fixed(unthrottled.excess_deleted, 0),
                 TextTable::fixed(throttled.excess_deleted, 0)});
  std::cout << table.render() << "\n"
            << "fault-free makespan: " << TextTable::fixed(clean_makespan)
            << " s; throttled/unthrottled = "
            << TextTable::fixed(throttle_ratio, 3) << "x (bar: 1.10x)\n\n";

  report().metric("clean_makespan_s", clean_makespan);
  report().metric("unthrottled_makespan_s", unthrottled.makespan);
  report().metric("throttled_makespan_s", throttled.makespan);
  report().metric("overhead_unthrottled", overhead_unthrottled);
  report().metric("overhead_throttled", overhead_throttled);
  report().metric("throttled_vs_unthrottled", throttle_ratio);
  report().metric("recovery_bytes_unthrottled", unthrottled.recovery_bytes);
  report().metric("recovery_bytes_throttled", throttled.recovery_bytes);
  report().metric("false_dead_unthrottled", unthrottled.false_dead);
  report().metric("false_dead_throttled", throttled.false_dead);
  report().metric("repairs_throttled", throttled.repairs_throttled);
  report().metric("excess_deleted_throttled", throttled.excess_deleted);
}

}  // namespace
}  // namespace ignem::bench

int main() {
  return ignem::bench::bench_main("partition_storm", ignem::bench::run);
}

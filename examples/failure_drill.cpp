// Failure drill: crash the Ignem master and a slave in the middle of a live
// workload and watch the system degrade gracefully (§III-A5) — migrations
// are purged, jobs keep completing, memory never leaks.
//
//   $ ./failure_drill
#include <iostream>

#include "core/testbed.h"
#include "workload/swim.h"

using namespace ignem;

int main() {
  TestbedConfig config;
  config.mode = RunMode::kIgnem;
  config.cluster.node_count = 8;
  config.cluster.slots_per_node = 6;
  config.seed = 17;
  Testbed testbed(config);

  SwimConfig swim;
  swim.job_count = 40;
  swim.total_input = 12 * kGiB;
  swim.tail_max = 3 * kGiB;
  swim.seed = 17;
  auto jobs = build_swim_workload(testbed, swim);

  // t=20s: the master process dies. Every slave purges its reference lists
  // to match the replacement master's empty state.
  testbed.sim().schedule(Duration::seconds(20), [&] {
    testbed.ignem_master()->fail();
    std::cout << "[t=20s] master crashed; slave 0 locked bytes now: "
              << format_bytes(testbed.ignem_slave(NodeId(0))->locked_bytes())
              << ", queue depth: "
              << testbed.ignem_slave(NodeId(0))->queue_depth() << "\n";
  });
  // t=22s: a fresh master takes over (address re-broadcast via config file).
  testbed.sim().schedule(Duration::seconds(22), [&] {
    testbed.ignem_master()->restart();
    std::cout << "[t=22s] replacement master serving requests\n";
  });
  // t=35s: slave 3's DataNode process is killed and restarted. Disk data
  // survives; the locked pool and the slave's state do not.
  testbed.sim().schedule(Duration::seconds(35), [&] {
    testbed.crash_slave(NodeId(3));
    std::cout << "[t=35s] slave 3 restarted; its migrations start fresh\n";
  });

  testbed.run_workload(std::move(jobs));

  std::cout << "\nAll " << testbed.metrics().jobs().size()
            << " jobs completed despite the crashes.\n";
  std::cout << "Mean job duration: "
            << testbed.metrics().mean_job_duration_seconds() << " s\n";
  for (std::int64_t i = 0; i < 8; ++i) {
    if (testbed.datanode(NodeId(i)).cache().used() != 0) {
      std::cout << "LEAK on node " << i << "!\n";
      return 1;
    }
  }
  std::cout << "No migration memory leaked on any node.\n";
  return 0;
}

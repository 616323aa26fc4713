// §III-A2 ablation — how many replicas should migrate?
//
// The paper migrates exactly one replica per block, arguing network
// bandwidth makes remote RAM reads nearly as good as local ones, so extra
// copies waste memory and disk bandwidth for marginal locality gains. This
// ablation quantifies that trade on the SWIM workload.
#include "bench/experiment_common.h"

namespace ignem::bench {
namespace {

struct Outcome {
  double mean_job_s = 0;
  double memory_gib = 0;
  double migrated_gib = 0;
};

Outcome run_with_replicas(int replicas) {
  TestbedConfig config = paper_testbed(RunMode::kIgnem);
  config.ignem.replicas_to_migrate = replicas;
  Testbed testbed(config);
  testbed.run_workload(build_swim_workload(testbed, paper_swim()));
  report().add_run(testbed);

  Outcome out;
  out.mean_job_s = testbed.metrics().mean_job_duration_seconds();
  out.memory_gib = testbed.metrics().memory_footprint().mean_gib();
  Bytes migrated = 0;
  for (std::int64_t i = 0; i < 8; ++i) {
    migrated += testbed.ignem_slave(NodeId(i))->stats().bytes_migrated;
  }
  out.migrated_gib = static_cast<double>(migrated) / static_cast<double>(kGiB);
  return out;
}

void main_impl() {
  print_header("Ablation (SIII-A2): replicas migrated per block");

  const double hdfs =
      run_swim(RunMode::kHdfs)->metrics().mean_job_duration_seconds();

  TextTable table({"Replicas migrated", "Mean job (s)", "Speedup",
                   "Mean memory/server (GiB)", "Disk bytes migrated (GiB)"});
  for (const int replicas : {1, 2, 3}) {
    const Outcome out = run_with_replicas(replicas);
    report().metric("speedup_replicas" + std::to_string(replicas),
                    speedup(hdfs, out.mean_job_s));
    table.add_row({std::to_string(replicas),
                   TextTable::fixed(out.mean_job_s, 2),
                   TextTable::percent(speedup(hdfs, out.mean_job_s)),
                   TextTable::fixed(out.memory_gib, 2),
                   TextTable::fixed(out.migrated_gib, 1)});
  }
  std::cout << table.render() << "\n";
  std::cout << "The paper's choice (1 replica) should capture nearly all of "
               "the speedup at a fraction of the memory and migration IO.\n";
}

}  // namespace
}  // namespace ignem::bench

int main() { return ignem::bench::bench_main("ablation_replicas", ignem::bench::main_impl); }

// Fault-recovery bench: the robustness counterpart of the paper's
// performance experiments. One node of the 8-server Ignem testbed crashes
// 30 s into the SWIM workload and restarts 20 s later, with the full
// fault-tolerance stack on (heartbeat detection, re-replication, container
// requeue, migration rerouting). Reported against an otherwise-identical
// fault-free run:
//   - detection_latency_s:   crash -> first kFaultDetectedDead
//   - rereplication_s:       detection -> last kRepairComplete
//   - makespan slowdown:     faulted / fault-free workload makespan
#include <algorithm>
#include <iostream>
#include <memory>
#include <optional>

#include <string>

#include "bench/experiment_common.h"
#include "metrics/table.h"

namespace ignem::bench {
namespace {

constexpr double kCrashAt = 30.0;
constexpr double kRestartAfter = 20.0;

TestbedConfig recovery_testbed(bool enable_trace) {
  TestbedConfig config = paper_testbed(RunMode::kIgnem);
  config.fault_tolerance = true;  // both runs pay the same heartbeat cost
  config.enable_trace = config.enable_trace || enable_trace;
  return config;
}

double makespan_seconds(const RunMetrics& metrics) {
  double last = 0.0;
  for (const JobRecord& job : metrics.jobs()) {
    last = std::max(last, job.end.to_seconds());
  }
  return last;
}

void run() {
  print_header("Fault recovery: node crash + restart under SWIM (8 nodes)");

  // Fault-free reference.
  auto clean = std::make_unique<Testbed>(recovery_testbed(false));
  clean->run_workload(build_swim_workload(*clean, paper_swim()));
  report().add_run(*clean);
  const double clean_makespan = makespan_seconds(clean->metrics());

  // Faulted run: trace on so detection/repair timings are measurable.
  auto faulted = std::make_unique<Testbed>(recovery_testbed(true));
  auto jobs = build_swim_workload(*faulted, paper_swim());
  faulted->sim().schedule(Duration::seconds(kCrashAt),
                          [&] { faulted->fail_node(NodeId(3)); });
  faulted->sim().schedule(Duration::seconds(kCrashAt + kRestartAfter),
                          [&] { faulted->restart_node(NodeId(3)); });
  faulted->run_workload(std::move(jobs));
  maybe_dump_trace(*faulted);
  report().add_run(*faulted);
  const double faulted_makespan = makespan_seconds(faulted->metrics());

  std::optional<double> detected_at;
  std::optional<double> last_repair;
  std::size_t repairs = 0;
  for (const TraceEvent& event : faulted->trace()->events()) {
    if (event.type == TraceEventType::kFaultDetectedDead &&
        !detected_at.has_value()) {
      detected_at = event.time.to_seconds();
    }
    if (event.type == TraceEventType::kRepairComplete) {
      last_repair = event.time.to_seconds();
      ++repairs;
    }
  }
  IGNEM_CHECK_MSG(detected_at.has_value(), "crash was never detected");
  const double detection_latency = *detected_at - kCrashAt;
  const double rereplication =
      last_repair.has_value() ? *last_repair - *detected_at : 0.0;
  const double slowdown = faulted_makespan / clean_makespan;
  // Makespan hides a localized outage on a long workload; mean job duration
  // surfaces the jobs that lost containers or fell back to remote replicas.
  const double clean_mean = clean->metrics().mean_job_duration_seconds();
  const double faulted_mean = faulted->metrics().mean_job_duration_seconds();
  const double mean_slowdown = faulted_mean / clean_mean;

  TextTable table({"Metric", "Value"});
  table.add_row({"fault-free makespan (s)", TextTable::fixed(clean_makespan)});
  table.add_row({"faulted makespan (s)", TextTable::fixed(faulted_makespan)});
  table.add_row({"slowdown (x)", TextTable::fixed(slowdown, 3)});
  table.add_row({"mean job duration fault-free (s)",
                 TextTable::fixed(clean_mean)});
  table.add_row({"mean job duration faulted (s)",
                 TextTable::fixed(faulted_mean)});
  table.add_row({"mean job slowdown (x)", TextTable::fixed(mean_slowdown, 3)});
  table.add_row({"detection latency (s)", TextTable::fixed(detection_latency)});
  table.add_row({"blocks re-replicated", std::to_string(repairs)});
  table.add_row({"re-replication time (s)", TextTable::fixed(rereplication)});
  std::cout << table.render() << "\n";

  report().metric("clean_makespan_s", clean_makespan);
  report().metric("faulted_makespan_s", faulted_makespan);
  report().metric("slowdown", slowdown);
  report().metric("mean_job_slowdown", mean_slowdown);
  report().metric("detection_latency_s", detection_latency);
  report().metric("blocks_rereplicated", static_cast<double>(repairs));
  report().metric("rereplication_s", rereplication);
  report().metric("jobs_completed",
                  static_cast<double>(faulted->metrics().jobs().size()));
}

}  // namespace
}  // namespace ignem::bench

int main() { return ignem::bench::bench_main("fault_recovery", ignem::bench::run); }

#include "pin_scenarios.h"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <utility>

#include "common/fnv.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "workload/google_trace.h"
#include "workload/swim.h"

namespace ignem::pins {

namespace {

constexpr int kAnchorSeeds = 6;
/// The seed whose plan also cuts the control node's rack.
constexpr int kControlCutSeed = 5;

SwimConfig kernel_swim() {
  SwimConfig config;
  config.job_count = 12;
  config.total_input = 3 * kGiB;
  config.tail_max = 1 * kGiB;
  config.mean_interarrival = Duration::seconds(1.5);
  config.seed = 42;
  return config;
}

GoogleTestbedConfig kernel_google() {
  GoogleTestbedConfig config;
  config.trace.server_count = 8;
  config.trace.horizon = Duration::minutes(30);
  config.trace.tasks_per_server = 2.0;
  config.trace.seed = 42;
  return config;
}

/// What the golden file keeps. Bandwidth and the rest of the pool's events
/// are covered by the trace-hash pins; leaving them out keeps the
/// checked-in file reviewable and free of floating-point rates.
constexpr TraceEventType kGoldenTypes[] = {
    TraceEventType::kCacheInit,         TraceEventType::kCacheUnlock,
    TraceEventType::kFileCreate,        TraceEventType::kReplicaAdd,
    TraceEventType::kJobRegister,       TraceEventType::kJobComplete,
    TraceEventType::kContainerAllocate, TraceEventType::kContainerRelease,
    TraceEventType::kMigrateRequest,    TraceEventType::kEvictRequest,
    TraceEventType::kMigrationEnqueue,  TraceEventType::kMigrationDequeue,
    TraceEventType::kMigrationStart,    TraceEventType::kMigrationComplete,
    TraceEventType::kBlockReadEnd,
};

PinnedRun hashed(std::unique_ptr<Testbed> testbed) {
  const std::string pin = "hash=" + std::to_string(testbed->trace_hash());
  return {std::move(testbed), pin, nullptr};
}

}  // namespace

TestbedConfig kernel_config(RunMode mode) {
  TestbedConfig config;
  config.mode = mode;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 64 * kGiB;
  config.seed = 42;
  config.enable_trace = true;
  return config;
}

std::unique_ptr<Testbed> run_kernel_swim(const TestbedConfig& config) {
  auto testbed = std::make_unique<Testbed>(config);
  testbed->run_workload(build_swim_workload(*testbed, kernel_swim()));
  return testbed;
}

std::unique_ptr<Testbed> run_kernel_google(const TestbedConfig& config) {
  auto testbed = std::make_unique<Testbed>(config);
  testbed->run_workload(
      build_google_testbed_workload(*testbed, kernel_google()));
  return testbed;
}

std::unique_ptr<Testbed> run_quickstart() {
  TestbedConfig config;
  config.mode = RunMode::kIgnem;
  config.cluster.node_count = 8;
  config.cluster.slots_per_node = 6;
  config.seed = 1;
  config.enable_trace = true;
  auto testbed = std::make_unique<Testbed>(config);

  const FileId input = testbed->create_file("/data/logs", 1 * kGiB);
  JobSpec job;
  job.name = "log-scan";
  job.inputs = {input};
  job.compute.reduce_tasks = 1;
  job.compute.map_output_ratio = 0.05;
  testbed->run_workload({{Duration::zero(), job}});
  return testbed;
}

std::unique_ptr<TraceRecorder> golden_slice(const TraceRecorder& trace) {
  auto slice = std::make_unique<TraceRecorder>();
  auto now = std::make_shared<SimTime>();
  slice->set_clock([now] { return *now; });
  for (const TraceEvent& e : trace.events()) {
    if (std::find(std::begin(kGoldenTypes), std::end(kGoldenTypes), e.type) ==
        std::end(kGoldenTypes)) {
      continue;
    }
    *now = e.time;
    slice->emit(e.type, e.node, e.block, e.job, e.bytes, e.detail, e.value);
  }
  return slice;
}

std::vector<AnchorCase> anchor_cases() {
  std::vector<AnchorCase> cases;
  for (const bool routed : {false, true}) {
    for (const int grace : {0, 6}) {
      for (int seed = 0; seed < kAnchorSeeds; ++seed) {
        cases.push_back({routed, grace, seed});
      }
    }
  }
  return cases;
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
  AnchorRun run;
  run.testbed = std::make_unique<Testbed>(config);
  Testbed& testbed = *run.testbed;

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

  run.completed = testbed.run_workload_limited(std::move(jobs),
                                               Duration::seconds(3600));
  // Every window heals, and detection and rejoin settle, before the trace
  // is read.
  const SimTime drain =
      SimTime::zero() + last_fault_end + Duration::seconds(30);
  testbed.sim().run(std::max(drain, testbed.sim().now()));
  return run;
}

std::vector<Scenario> all_scenarios() {
  std::vector<Scenario> out;
  for (const RunMode mode : kKernelSwimModes) {
    out.push_back({std::string("kernel.swim.") + run_mode_name(mode), [mode] {
                     return hashed(run_kernel_swim(kernel_config(mode)));
                   }});
  }
  for (const RunMode mode : kKernelGoogleModes) {
    out.push_back({std::string("kernel.google.") + run_mode_name(mode),
                   [mode] {
                     return hashed(run_kernel_google(kernel_config(mode)));
                   }});
  }
  out.push_back({"golden.quickstart", [] {
                   PinnedRun run{run_quickstart(), "", nullptr};
                   run.slice = golden_slice(*run.testbed->trace());
                   std::ostringstream jsonl;
                   run.slice->write_jsonl(jsonl);
                   const std::string text = jsonl.str();
                   run.pin = "lines=" +
                             std::to_string(std::count(text.begin(),
                                                       text.end(), '\n')) +
                             " fnv=" +
                             std::to_string(fnv1a(text, kFnvTraceOffset));
                   return run;
                 }});
  for (const AnchorCase& c : anchor_cases()) {
    out.push_back(
        {std::string("anchor.") + (c.routed ? "routed" : "direct") + ".g" +
             std::to_string(c.grace_seconds) + ".s" + std::to_string(c.seed),
         [c] {
           AnchorRun anchor = run_anchor(c);
           Testbed& testbed = *anchor.testbed;
           std::string pin = "hash=" + std::to_string(testbed.trace_hash());
           if (!anchor.completed) pin += " WEDGED";
           return PinnedRun{std::move(anchor.testbed), pin, nullptr};
         }});
  }
  return out;
}

}  // namespace ignem::pins

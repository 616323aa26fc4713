// Control-plane partition bench: the cluster loses its brain mid-run.
// A 2-rack, 8-server Ignem testbed runs the SWIM workload with the routed
// control plane armed; 120 s in, the *control node's own rack* is cut off
// for 30 s. Every node outside it loses heartbeats, container grants,
// migration commands, and repair orders at once — the beats really drop at
// the router, nothing is faked — and in-flight transfers crossing the cut
// abort with partial-progress refunds. The cut time is chosen so that the
// master sends commands across the cut while it lasts (at 60 s, 200 s or
// 300 s it sends none, and the RPC rows below read 0). Measured against a
// fault-free routed reference:
//   - makespan overhead of the brain-cut
//   - RPC plane traffic: retries, timeouts, dropped heartbeats
//   - false-dead declarations attributed to the severed control link
//   - severed transfers and their refunded bytes
// Hard gates: every job terminates, zero locked bytes leak, no block ends
// over-replicated, the sever counter agrees with the trace stream, and the
// cut run retries or loses at least one control RPC.
#include <algorithm>
#include <iostream>
#include <memory>

#include "bench/experiment_common.h"
#include "metrics/table.h"

namespace ignem::bench {
namespace {

constexpr double kCutAt = 120.0;
constexpr double kCutFor = 30.0;  // well past timeout (12 s) + grace
constexpr int kRackCount = 2;

TestbedConfig control_testbed() {
  TestbedConfig config = paper_testbed(RunMode::kIgnem);
  config.fault_tolerance = true;
  config.rack_count = kRackCount;
  config.detector.suspicion_grace = Duration::seconds(2.0);
  config.replication_rate_limit = mib_per_sec(64);
  config.routed_control_plane = true;
  // The sever gate cross-checks the counter against kTransferSevered trace
  // events, so the recorder must be live.
  config.enable_trace = true;
  return config;
}

double makespan_seconds(const RunMetrics& metrics) {
  double last = 0.0;
  for (const JobRecord& job : metrics.jobs()) {
    last = std::max(last, job.end.to_seconds());
  }
  return last;
}

struct CutRun {
  double makespan = 0.0;
  std::size_t jobs = 0;
  double false_dead = 0.0;
  double false_dead_control = 0.0;
  double rpc_retries = 0.0;
  double rpc_timeouts = 0.0;
  double rpc_unreachable = 0.0;
  double oneways_dropped = 0.0;
  double transfers_severed = 0.0;
};

CutRun run_one(bool with_cut) {
  const TestbedConfig config = control_testbed();
  auto testbed = std::make_unique<Testbed>(config);
  auto jobs = build_swim_workload(*testbed, paper_swim());
  if (with_cut) {
    // Rack 0 holds control node 0: cutting it silences everyone else.
    testbed->sim().schedule(Duration::seconds(kCutAt),
                            [&] { testbed->begin_rack_partition(NodeId(0)); });
    testbed->sim().schedule(Duration::seconds(kCutAt + kCutFor),
                            [&] { testbed->end_rack_partition(NodeId(0)); });
  }
  testbed->run_workload(std::move(jobs));
  // Drain the post-heal reconciliation (rejoin trims, evict retries) before
  // measuring leaks and replica counts.
  testbed->sim().run(testbed->sim().now() + Duration::seconds(40));
  maybe_dump_trace(*testbed);
  report().add_run(*testbed);

  CutRun run;
  run.makespan = makespan_seconds(testbed->metrics());
  run.jobs = testbed->metrics().jobs().size();
  run.false_dead =
      static_cast<double>(testbed->failure_detector()->false_dead_total());
  run.false_dead_control = static_cast<double>(
      testbed->failure_detector()->false_dead_control_total());
  const RpcStats& rpc = testbed->rpc_router()->stats();
  run.rpc_retries = static_cast<double>(rpc.retries);
  run.rpc_timeouts = static_cast<double>(rpc.timeouts);
  run.rpc_unreachable = static_cast<double>(rpc.unreachable);
  run.oneways_dropped = static_cast<double>(rpc.oneways_dropped);
  run.transfers_severed =
      static_cast<double>(testbed->network().transfers_severed());

  // Gates: a brain-cut may slow the cluster, never corrupt it.
  Bytes leaked = 0;
  for (std::size_t i = 0; i < config.cluster.node_count; ++i) {
    leaked +=
        testbed->datanode(NodeId(static_cast<std::int64_t>(i))).cache().used();
  }
  IGNEM_CHECK_MSG(leaked == 0, "locked bytes leaked across the control cut");
  std::size_t over_replicated = 0;
  for (const auto& [block, info] : testbed->namenode().all_blocks()) {
    (void)info;
    if (testbed->namenode().live_locations(block).size() >
        static_cast<std::size_t>(config.replication)) {
      ++over_replicated;
    }
  }
  IGNEM_CHECK_MSG(over_replicated == 0,
                  "blocks left over-replicated after the heal");
  std::size_t severed_events = 0;
  for (const TraceEvent& e : testbed->trace()->events()) {
    if (e.type == TraceEventType::kTransferSevered) ++severed_events;
  }
  IGNEM_CHECK_MSG(severed_events == testbed->network().transfers_severed(),
                  "sever counter and kTransferSevered trace disagree");
  return run;
}

void run() {
  print_header("Control-plane partition: the master's rack cut mid-SWIM");

  const CutRun clean = run_one(false);
  const CutRun cut = run_one(true);
  IGNEM_CHECK_MSG(cut.jobs == clean.jobs,
                  "a job failed to terminate across the control cut");
  IGNEM_CHECK_MSG(
      cut.rpc_retries + cut.rpc_timeouts + cut.rpc_unreachable > 0,
      "no control RPC crossed the cut, so the routed-RPC rows measure nothing");
  const double overhead = cut.makespan / clean.makespan;

  TextTable table({"Metric", "Fault-free", "Control cut"});
  table.add_row({"makespan (s)", TextTable::fixed(clean.makespan),
                 TextTable::fixed(cut.makespan)});
  table.add_row({"jobs completed", TextTable::fixed(clean.jobs, 0),
                 TextTable::fixed(cut.jobs, 0)});
  table.add_row({"false-dead declarations",
                 TextTable::fixed(clean.false_dead, 0),
                 TextTable::fixed(cut.false_dead, 0)});
  table.add_row({"  ...from the severed control link",
                 TextTable::fixed(clean.false_dead_control, 0),
                 TextTable::fixed(cut.false_dead_control, 0)});
  table.add_row({"heartbeats dropped",
                 TextTable::fixed(clean.oneways_dropped, 0),
                 TextTable::fixed(cut.oneways_dropped, 0)});
  table.add_row({"rpc retries", TextTable::fixed(clean.rpc_retries, 0),
                 TextTable::fixed(cut.rpc_retries, 0)});
  table.add_row({"rpc timeouts + unreachable",
                 TextTable::fixed(clean.rpc_timeouts + clean.rpc_unreachable, 0),
                 TextTable::fixed(cut.rpc_timeouts + cut.rpc_unreachable, 0)});
  table.add_row({"transfers severed",
                 TextTable::fixed(clean.transfers_severed, 0),
                 TextTable::fixed(cut.transfers_severed, 0)});
  std::cout << table.render() << "\n"
            << "makespan overhead of the 30 s brain-cut: "
            << TextTable::fixed(overhead, 3) << "x\n\n";

  report().metric("clean_makespan_s", clean.makespan);
  report().metric("cut_makespan_s", cut.makespan);
  report().metric("cut_overhead", overhead);
  report().metric("false_dead_cut", cut.false_dead);
  report().metric("false_dead_control_cut", cut.false_dead_control);
  report().metric("heartbeats_dropped", cut.oneways_dropped);
  report().metric("rpc_retries", cut.rpc_retries);
  report().metric("rpc_timeouts", cut.rpc_timeouts);
  report().metric("rpc_unreachable", cut.rpc_unreachable);
  report().metric("transfers_severed", cut.transfers_severed);
}

}  // namespace
}  // namespace ignem::bench

int main() {
  return ignem::bench::bench_main("control_partition", ignem::bench::run);
}

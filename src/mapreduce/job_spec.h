// Job descriptions for the MapReduce/Tez-like execution engine.
#pragma once

#include <string>
#include <vector>

#include "common/ids.h"
#include "common/units.h"
#include "dfs/migration_service.h"

namespace ignem {

/// How a job converts bytes into time. Per-stage knobs let workload models
/// express sort (heavy shuffle + output), wordcount (CPU-bound maps, tiny
/// output), and selective scans (Hive: large input, small map output).
struct ComputeModel {
  /// Fixed per-task setup after the container is up (task JVM init etc.).
  Duration task_overhead = Duration::millis(200);
  /// Map compute per input MiB.
  double map_cpu_secs_per_mib = 0.002;
  /// Map output bytes per input byte (shuffle volume). §II-A: typically <1.
  double map_output_ratio = 0.1;
  /// Reduce compute per shuffled MiB.
  double reduce_cpu_secs_per_mib = 0.004;
  /// Job output bytes per input byte (written to the DFS by reduces).
  double output_ratio = 0.1;
  /// Number of reduce tasks; 0 makes the job map-only.
  int reduce_tasks = 1;
};

struct JobSpec {
  std::string name;
  std::vector<FileId> inputs;
  ComputeModel compute;

  /// Whether the job submitter issues the one-line Ignem migrate call.
  bool use_ignem = false;

  /// Sleep inserted between the migrate call and job submission — the
  /// Fig. 8 "Ignem+10s" lead-time injection. Counted in job duration.
  Duration extra_lead_time = Duration::zero();

  /// Client-side submission overhead before the job reaches the scheduler
  /// (DAG compilation, Tez session setup, RPC). A platform source of
  /// lead-time (§II-C1) — Ignem migrates during it.
  Duration submit_overhead = Duration::seconds(2.0);

  /// Fixed wrap-up after the last task (output commit, teardown). Counted
  /// in job duration; identical across modes, so it dilutes read speedups
  /// at the job level exactly as the paper's fixed overheads do (§IV-C1).
  Duration commit_overhead = Duration::seconds(2.0);
};

}  // namespace ignem

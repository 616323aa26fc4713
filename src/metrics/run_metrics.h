// Run-level measurement collection.
//
// Every experiment drives the cluster with a RunMetrics sink attached;
// benches aggregate these records into the paper's tables and figures.
// Records are flat structs (no behaviour) so analysis code can slice them
// freely. The memory sampler's per-node samples are the exception: they
// are folded into one per-run MemoryFootprint instead of kept.
#pragma once

#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/stats.h"
#include "common/units.h"

namespace ignem {

/// One HDFS block read observed at a DataNode (paper Figs. 1 and 6).
struct BlockReadRecord {
  BlockId block;
  JobId job;
  NodeId reader;
  NodeId source;             ///< Replica that served the read (invalid if failed).
  Bytes bytes = 0;
  SimTime start;
  Duration duration;
  bool from_memory = false;  ///< Served from the locked buffer-cache pool.
  bool remote = false;       ///< Read over the network from another node.
  bool failed = false;       ///< Terminal error: retry deadline exhausted.
};

enum class TaskKind { kMap, kReduce };

/// One task execution (paper Fig. 2, Table II).
struct TaskRecord {
  TaskId task;
  JobId job;
  NodeId node;
  TaskKind kind = TaskKind::kMap;
  Bytes input_bytes = 0;
  SimTime launch;
  Duration duration;
  Duration read_time;  ///< Portion spent reading input.
};

/// One job execution (paper Tables I/III, Figs. 5, 8, 9).
struct JobRecord {
  JobId job;
  std::string name;
  Bytes input_bytes = 0;
  SimTime submit;
  SimTime first_task_start;
  SimTime end;
  Duration duration;  ///< end - submit (includes queueing, as in the paper).
  bool failed = false;  ///< A task hit a terminal read error (lost data).
};

/// The per-node migration-memory footprint (paper Fig. 7): every non-zero
/// locked-bytes sample the memory sampler takes, folded in sample order.
/// Zero samples (a node holding nothing) are skipped, as Fig. 7 plots only
/// the non-zero ones.
class MemoryFootprint {
 public:
  void add(Bytes locked_bytes);

  /// Non-zero samples seen.
  std::size_t count() const { return histogram_.total(); }
  /// Their sum in GiB, added left to right.
  double sum_gib() const { return sum_gib_; }
  /// sum_gib() / count(); 0 when there are none.
  double mean_gib() const;
  /// 16 bins of 0.5 GiB over [0, 8) GiB; larger samples land in the last.
  const Histogram& histogram_gib() const { return histogram_; }

 private:
  double sum_gib_ = 0.0;
  Histogram histogram_ = Histogram::linear(0.0, 8.0, 16);
};

class RunMetrics {
 public:
  void add_block_read(const BlockReadRecord& r) { block_reads_.push_back(r); }
  void add_task(const TaskRecord& r) { tasks_.push_back(r); }
  void add_job(const JobRecord& r) { jobs_.push_back(r); }
  /// One node's locked bytes at one sampler tick.
  void add_memory_sample(Bytes locked_bytes) {
    memory_footprint_.add(locked_bytes);
  }

  const std::vector<BlockReadRecord>& block_reads() const { return block_reads_; }
  const std::vector<TaskRecord>& tasks() const { return tasks_; }
  const std::vector<JobRecord>& jobs() const { return jobs_; }
  const MemoryFootprint& memory_footprint() const { return memory_footprint_; }

  /// Convenience aggregates used by many benches.
  Samples job_durations_seconds() const;
  Samples task_durations_seconds(TaskKind kind) const;
  Samples block_read_seconds() const;
  double mean_job_duration_seconds() const;
  double mean_map_task_seconds() const;
  double mean_block_read_seconds() const;

  /// Fraction of block reads served from memory.
  double memory_read_fraction() const;

  void clear();

 private:
  std::vector<BlockReadRecord> block_reads_;
  std::vector<TaskRecord> tasks_;
  std::vector<JobRecord> jobs_;
  MemoryFootprint memory_footprint_;
};

}  // namespace ignem

// Run-level measurement collection.
//
// Every experiment drives the cluster with a RunMetrics sink attached;
// benches aggregate what it keeps into the paper's tables and figures. A
// run keeps only what some reader reads, because the rows grow with the
// run (one per block read, one per task) and set a long run's peak memory:
//   - per block read, a 32-byte BlockReadSample: its start, duration and
//     size and whether it was served from memory, crossed the network or
//     failed. The Fig. 1/6 aggregates and the property tests read these.
//     Which block, job, reader and replica it was stay on the
//     BlockReadRecord that DfsClient::read_block hands its caller;
//   - per task, a 32-byte TaskRecord: its kind, launch, duration and read
//     time (Fig. 2, Table II). Which task, job and node it ran on and its
//     input size are not kept; no reader asks for them;
//   - per job, a whole JobRecord: a job has many reads and tasks, so its
//     one row hardly moves the peak;
//   - the memory sampler's per-node samples, folded into one per-run
//     MemoryFootprint instead of kept.
#pragma once

#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/ids.h"
#include "common/stats.h"
#include "common/units.h"

namespace ignem {

/// One HDFS block read, as the run keeps it (paper Figs. 1 and 6).
struct BlockReadSample {
  SimTime start;
  Duration duration;
  Bytes bytes = 0;
  bool from_memory = false;  ///< Served from the locked buffer-cache pool.
  bool remote = false;       ///< Read over the network from another node.
  bool failed = false;       ///< Terminal error: retry deadline exhausted.
};
static_assert(sizeof(BlockReadSample) == 32,
              "a new column costs every block read of a run; see the header");

enum class TaskKind { kMap, kReduce };

/// One task execution (paper Fig. 2, Table II).
struct TaskRecord {
  TaskKind kind = TaskKind::kMap;
  SimTime launch;
  Duration duration;
  Duration read_time;  ///< Portion spent reading input.
};
static_assert(sizeof(TaskRecord) == 32,
              "a new column costs every task of a run; see the header");

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
  void add_block_read(const BlockReadSample& r) { block_reads_.push_back(r); }
  void add_task(const TaskRecord& r) { tasks_.push_back(r); }
  void add_job(const JobRecord& r) { jobs_.push_back(r); }
  /// One node's locked bytes at one sampler tick.
  void add_memory_sample(Bytes locked_bytes) {
    memory_footprint_.add(locked_bytes);
  }

  const std::vector<BlockReadSample>& block_reads() const { return block_reads_; }
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

 private:
  std::vector<BlockReadSample> block_reads_;
  std::vector<TaskRecord> tasks_;
  std::vector<JobRecord> jobs_;
  MemoryFootprint memory_footprint_;
};

}  // namespace ignem

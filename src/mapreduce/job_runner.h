// JobRunner: the per-job application master.
//
// Drives one MapReduce job end-to-end: the job-submitter step (where the
// one-line Ignem migrate call lives, §III-B3), container acquisition via the
// ResourceManager, map tasks that read input blocks through the DfsClient,
// the shuffle, reduce tasks that write job output, and the final evict call.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <vector>

#include "cluster/resource_manager.h"
#include "common/ids.h"
#include "dfs/dfs_client.h"
#include "mapreduce/job_spec.h"
#include "metrics/run_metrics.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace ignem {

class JobRunner {
 public:
  using CompletionCallback = std::function<void(const JobRecord&)>;

  JobRunner(Simulator& sim, ResourceManager& rm, DfsClient& dfs,
            Network& network, RunMetrics* metrics, JobId id, JobSpec spec);

  JobRunner(const JobRunner&) = delete;
  JobRunner& operator=(const JobRunner&) = delete;

  /// Starts the job-submitter: migrate call (if enabled), optional injected
  /// lead-time, submission overhead, then scheduling. `on_complete` fires
  /// once with the job's record. A task attempt is its container: each
  /// continuation drops out unless the ResourceManager still holds the
  /// attempt's grant, so a superseded attempt (its container lost) never
  /// completes the task. The runner must outlive the job, since such
  /// continuations may still fire after it completes; they read only the
  /// ResourceManager. Completion frees the per-task state; the spec stays.
  void submit(CompletionCallback on_complete);

  JobId id() const { return id_; }
  const JobSpec& spec() const { return spec_; }
  bool finished() const { return finished_; }
  bool failed() const { return failed_; }
  Bytes input_bytes() const { return input_bytes_; }

 private:
  struct MapTask {
    BlockId block;
    Bytes bytes = 0;
  };

  void enter_scheduler();
  void request_map(std::size_t index);
  void launch_map(std::size_t index, const ContainerGrant& grant);
  void on_map_done();
  void start_reduce_stage();
  void request_reduce();
  void launch_reduce(const ContainerGrant& grant);
  /// Splits `total` shuffle bytes across the nodes that produced map
  /// output, proportional to their share of it (remainder to the last
  /// node), so the fan-in can be partition-gated per sender.
  std::vector<Network::IngressShare> shuffle_shares(Bytes total) const;
  /// One fan-in round of a reduce task's shuffle. Shares blocked by a
  /// partition (or refunded when the stream was severed) retry after a
  /// delay until they drain or the shuffle deadline fails the job.
  void run_shuffle(const ContainerGrant& grant, SimTime start,
                   std::vector<Network::IngressShare> shares,
                   SimTime shuffle_start);
  void finish_reduce(const ContainerGrant& grant, SimTime start);
  void on_reduce_done();
  void finish_job();
  void complete();

  Simulator& sim_;
  ResourceManager& rm_;
  DfsClient& dfs_;
  Network& network_;
  RunMetrics* metrics_;
  JobId id_;
  JobSpec spec_;
  CompletionCallback on_complete_;

  std::vector<MapTask> maps_;
  /// Where map output materialized (node -> bytes of map input processed
  /// there): the shuffle's sender set.
  std::map<NodeId, Bytes> map_output_nodes_;
  Bytes input_bytes_ = 0;
  Bytes shuffle_bytes_ = 0;
  Bytes output_bytes_ = 0;

  SimTime submit_time_;
  SimTime first_task_start_ = SimTime::max();
  std::size_t maps_done_ = 0;
  std::size_t reduces_done_ = 0;
  int reduce_count_ = 0;
  bool finished_ = false;
  bool failed_ = false;  ///< A map task's input became permanently unreadable.
};

}  // namespace ignem

// Testbed: one fully wired simulated cluster.
//
// Assembles the whole stack — simulator, per-node devices and buffer
// caches, DataNodes, NameNode, network, ResourceManager, DfsClient, and
// (depending on mode) the Ignem master/slaves, the vmtouch preload, or the
// instant-migration hypothetical — mirroring the paper's 8-server testbed
// (§IV-A). Benches and examples build a Testbed, create input files, and
// run a workload of JobSpecs with arrival times.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/resource_manager.h"
#include "common/ids.h"
#include "common/rate_limiter.h"
#include "common/rng.h"
#include "core/baselines.h"
#include "core/hot_data.h"
#include "core/ignem_config.h"
#include "core/ignem_master.h"
#include "core/ignem_slave.h"
#include "dfs/dfs_client.h"
#include "dfs/namenode.h"
#include "dfs/replication_manager.h"
#include "fault/failure_detector.h"
#include "fault/fault_target.h"
#include "integrity/integrity_config.h"
#include "integrity/integrity_manager.h"
#include "integrity/scrubber.h"
#include "mapreduce/job_runner.h"
#include "metrics/registry.h"
#include "metrics/report.h"
#include "metrics/run_metrics.h"
#include "net/network.h"
#include "net/rpc.h"
#include "obs/invariant_checker.h"
#include "obs/trace_recorder.h"
#include "sim/periodic.h"
#include "sim/simulator.h"
#include "storage/device.h"

namespace ignem {

/// Which of the paper's file-system configurations to run (§IV-A), plus the
/// related-work hot-data baseline (§V).
enum class RunMode {
  kHdfs,             ///< Stock HDFS, inputs cold on the primary device.
  kHdfsInputsInRam,  ///< vmtouch: every input replica locked in RAM.
  kIgnem,            ///< The real system.
  kInstantMigration, ///< Fig. 7's hypothetical instantaneous scheme.
  kHotDataPromotion, ///< Triple-H-style frequency-based promotion (§V).
};

const char* run_mode_name(RunMode mode);

struct TestbedConfig {
  RunMode mode = RunMode::kHdfs;
  ClusterConfig cluster;
  IgnemConfig ignem;
  MediaType storage_media = MediaType::kHdd;
  /// Custom primary-device profile (defaults to profile_for(storage_media));
  /// lets experiments model non-standard hardware.
  std::optional<DeviceProfile> primary_profile;
  /// Buffer-cache capacity per node. In kHdfsInputsInRam mode this must fit
  /// all input replicas (the paper's nodes have 128 GB RAM).
  Bytes cache_capacity_per_node = 16 * kGiB;
  int replication = 3;
  Bytes block_size = kDefaultBlockSize;
  /// Racks for HDFS-style placement; 1 = flat (the paper's 8-node testbed).
  int rack_count = 1;
  std::uint64_t seed = 42;
  /// Records every component's typed trace events (src/obs). Off by default:
  /// the recorder is a null pointer everywhere and emission costs one branch.
  bool enable_trace = false;
  /// Runs the live InvariantChecker over the trace (implies enable_trace).
  bool check_invariants = false;
  /// Enables the fault-tolerance stack: heartbeat failure detection on
  /// both the NameNode side and the ResourceManager (one 1 s scan runs
  /// both), re-replication of under-replicated blocks, and Ignem migration
  /// rerouting. Off by default because the scan's events change the
  /// dispatched-event count and would break bit-identical fault-free
  /// traces.
  bool fault_tolerance = false;
  /// Detector suspicion grace, used when fault_tolerance is set.
  FailureDetectorConfig detector;
  /// Data-integrity plane (checksummed reads, scrubbing, corrupt-replica
  /// repair). Read-path verification is always wired but only acts on
  /// injected corruption; the scrubber is opt-in because its periodic
  /// verification reads change the event stream of a clean run.
  IntegrityConfig integrity;
  /// Recovery-storm control: cluster-wide budget (bytes/sec) for
  /// re-replication traffic, paced through a deterministic token bucket
  /// (burst kReplicationBurst) so a mass failure cannot flood foreground
  /// jobs off the network. 0 keeps the historical unthrottled behavior
  /// (bit-identical traces).
  Bandwidth replication_rate_limit = 0.0;
  /// Control-plane fault domain (see docs/FAULTS.md "Control-plane
  /// partitions"): places the NameNode/RM/IgnemMaster on node 0's rack and
  /// routes every master<->slave control RPC (heartbeats, container grants,
  /// migration/evict commands, repair orders, rejoin block reports) through
  /// the RpcRouter — one latency per attempt, delivered only when the
  /// reachability matrix permits, deadline + capped-backoff retries with
  /// typed outcomes. A partition can then isolate the masters themselves.
  /// Off by default: every control exchange is a direct call.
  bool routed_control_plane = false;
};

/// Period of the per-node migration-memory sampler (Fig. 7), which runs in
/// the modes that migrate data.
inline constexpr Duration kMemorySamplePeriod = Duration::seconds(1.0);

/// Token-bucket burst of the re-replication limiter: this many bytes of
/// repair may start back-to-back before pacing kicks in.
inline constexpr Bytes kReplicationBurst = 128 * kMiB;

/// A job plus its arrival offset from workload start.
struct ScheduledJob {
  Duration arrival = Duration::zero();
  JobSpec spec;
};

class Testbed : public FaultTarget {
 public:
  explicit Testbed(TestbedConfig config);
  ~Testbed() override;

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  /// Creates an input file before the workload runs (inputs are generated
  /// ahead of the measured run, as in the paper).
  FileId create_file(const std::string& path, Bytes size);

  /// Pins all inputs in RAM. Called automatically by run_workload() in
  /// kHdfsInputsInRam mode for every job input; callable directly for
  /// custom setups.
  void preload(const std::vector<FileId>& files);

  /// Runs the jobs to completion (arrival offsets are relative to the call
  /// time). Forces each spec's use_ignem flag to match the mode. Returns
  /// when every job has finished.
  void run_workload(std::vector<ScheduledJob> jobs);

  /// Like run_workload(), but gives up after `limit` of simulated time
  /// (measured from the call). Returns true when every job completed.
  /// Chaos experiments use this so a wedged schedule fails an assertion
  /// instead of hanging the test binary.
  bool run_workload_limited(std::vector<ScheduledJob> jobs, Duration limit);

  /// Submits one job now (asynchronously). The spec's use_ignem flag is
  /// forced to `allow_migration && <mode uses migration>`. Used by drivers
  /// that chain jobs (e.g. multi-stage Hive queries). Pair with
  /// run_until_jobs_done().
  JobRunner* submit_job(JobSpec spec, JobRunner::CompletionCallback on_complete,
                        bool allow_migration = true);

  /// Runs the simulator until every job submitted so far has completed,
  /// including jobs submitted by completion callbacks.
  void run_until_jobs_done();

  /// True when this mode migrates data (Ignem or the instant hypothetical).
  bool migration_enabled() const;

  // FaultTarget — the injector's application surface, also callable directly
  // by tests. Each method emits the matching kFault*/kRecover* trace event
  // and applies the fault to every affected component.
  void fail_node(NodeId node) override;
  void restart_node(NodeId node) override;
  void crash_master() override;
  void restart_master() override;
  void crash_slave(NodeId node) override;
  void begin_disk_fail_stop(NodeId node) override;
  void end_disk_fail_stop(NodeId node) override;
  void begin_disk_fail_slow(NodeId node, double severity) override;
  void end_disk_fail_slow(NodeId node) override;
  void begin_network_degrade(NodeId node, double severity) override;
  void end_network_degrade(NodeId node) override;
  void begin_heartbeat_delay(NodeId node) override;
  void end_heartbeat_delay(NodeId node) override;
  void begin_network_partition(NodeId node, int variant) override;
  void end_network_partition(NodeId node, int variant) override;
  void begin_rack_partition(NodeId node) override;
  void end_rack_partition(NodeId node) override;
  void corrupt_block(NodeId node) override;
  void corrupt_cached_block(NodeId node) override;
  std::size_t node_count() const override { return datanodes_.size(); }

  /// Targeted corruption (the FaultTarget overloads pick a random block):
  /// silently rots `node`'s stored replica / locked in-memory copy of
  /// `block`, emitting kFaultBlockCorrupt. Nothing else happens until a
  /// checksum pass (read, scrub, migration verify) touches the copy.
  void corrupt_replica(NodeId node, BlockId block);
  void corrupt_cached_replica(NodeId node, BlockId block);

  Simulator& sim() { return sim_; }
  const RunMetrics& metrics() const { return metrics_; }
  /// The run's instrument registry, wired through every component.
  MetricsRegistry& metrics_registry() { return registry_; }
  const MetricsRegistry& metrics_registry() const { return registry_; }
  NameNode& namenode() { return *namenode_; }
  ResourceManager& resource_manager() { return *rm_; }
  DfsClient& dfs() { return *dfs_; }
  Network& network() { return *network_; }
  IgnemMaster* ignem_master() { return master_.get(); }
  IgnemSlave* ignem_slave(NodeId node);
  HotDataPromoter* hot_data_promoter(NodeId node);
  DataNode& datanode(NodeId node) { return *namenode_->datanode(node); }
  ReplicationManager& replication_manager() { return *replication_manager_; }
  /// Null unless config.fault_tolerance was set.
  FailureDetector* failure_detector() { return detector_.get(); }
  /// Null unless config.routed_control_plane was set.
  RpcRouter* rpc_router() { return rpc_router_.get(); }
  IntegrityManager& integrity_manager() { return *integrity_; }
  /// Null unless config.integrity.enable_scrubber was set.
  Scrubber* scrubber() { return scrubber_.get(); }
  const TestbedConfig& config() const { return config_; }

  /// Every DataNode's home device: config.primary_profile, else the
  /// profile of config.storage_media.
  DeviceProfile primary_profile() const {
    return config_.primary_profile.value_or(
        profile_for(config_.storage_media));
  }

  /// Allocates a fresh JobId (monotonic; submission order == id order).
  JobId next_job_id() { return JobId(next_job_++); }

  /// Null unless config.enable_trace (or check_invariants) was set.
  TraceRecorder* trace() { return trace_.get(); }
  /// Null unless config.check_invariants was set.
  InvariantChecker* invariant_checker() { return checker_.get(); }
  /// Digest of the recorded trace; 0 when tracing is off.
  std::uint64_t trace_hash() const;

  /// Cross-checks each DataNode's replica table against the blocks the
  /// NameNode lists on that node, then (when the checker is on) the
  /// event-derived replica model against the NameNode's block map. Returns
  /// an empty string when they agree; otherwise a description of the first
  /// mismatch, naming the first node that differs.
  std::string replica_model_mismatch() const;

  /// End-of-run integrity bookkeeping cross-check: every detected stored
  /// corruption was either invalidated or is still marked on a replica the
  /// namespace knows, and every cached-copy corruption mark sits on a copy
  /// its pool still holds. Empty when consistent.
  std::string integrity_accounting_mismatch() const;

  /// The config/build fingerprint this run stamps into reports. Mode is
  /// deliberately excluded (see ConfigFingerprint).
  ConfigFingerprint fingerprint() const;

  /// Assembles the end-of-run structured report: fingerprint, kernel
  /// self-profile, the counters and gauges each component adds about itself
  /// (add_counters), the registry's histograms and series, and headline
  /// summary numbers. Call after the workload finishes; the report borrows
  /// the registry, so write it before the Testbed dies. Building twice
  /// gives the same report.
  RunReport build_run_report(const std::string& name) const;

 private:
  void sample_memory();
  bool run_workload_to(std::vector<ScheduledJob> jobs, SimTime deadline);
  void emit_fault_event(TraceEventType type, NodeId node,
                        std::uint64_t detail = 0);
  /// Depth-counted heartbeat silencing shared by heartbeat-delay windows and
  /// partitions (which may overlap on one node): beats halt when the first
  /// suppressor arrives and resume only when the last one lifts — and only
  /// if the node is still alive (a crash during the window stays silent
  /// until its own restart).
  void suppress_heartbeats(NodeId node);
  void release_heartbeats(NodeId node);

  TestbedConfig config_;
  // Declared before every traced component so it is destroyed after them
  // (components hold raw TraceRecorder pointers).
  std::unique_ptr<TraceRecorder> trace_;
  std::unique_ptr<InvariantChecker> checker_;
  Simulator sim_;
  RunMetrics metrics_;
  MetricsRegistry registry_;
  Rng rng_;

  std::vector<std::unique_ptr<DataNode>> datanodes_;
  std::unique_ptr<NameNode> namenode_;
  std::unique_ptr<Network> network_;
  /// Routed control-plane RPCs (null when routed_control_plane is off —
  /// components then keep their historical direct-call paths).
  std::unique_ptr<RpcRouter> rpc_router_;
  std::unique_ptr<ResourceManager> rm_;
  /// Both liveness monitors' scan (null unless fault_tolerance).
  std::unique_ptr<PeriodicTask> liveness_scan_;
  std::unique_ptr<DfsClient> dfs_;
  std::unique_ptr<ReplicationManager> replication_manager_;
  /// Re-replication pacing (null when replication_rate_limit == 0).
  std::unique_ptr<RateLimiter> repl_limiter_;
  std::unique_ptr<FailureDetector> detector_;
  std::unique_ptr<IntegrityManager> integrity_;
  std::unique_ptr<Scrubber> scrubber_;

  std::unique_ptr<IgnemMaster> master_;
  std::vector<std::unique_ptr<IgnemSlave>> slaves_;
  std::unique_ptr<InstantMigrationService> instant_;
  std::vector<std::unique_ptr<HotDataPromoter>> promoters_;
  std::unique_ptr<PeriodicTask> memory_sampler_;

  std::vector<std::unique_ptr<JobRunner>> runners_;
  std::int64_t next_job_ = 0;
  std::size_t jobs_remaining_ = 0;

  // Background hog transfers pinned by fail-slow / network-degrade windows;
  // aborted (never completed) when the window closes.
  std::map<NodeId, std::vector<TransferHandle>> disk_hogs_;
  std::map<NodeId, std::vector<TransferHandle>> net_hogs_;
  /// Per-node heartbeat-suppression depth (see suppress_heartbeats).
  std::vector<int> hb_suppress_depth_;
};

}  // namespace ignem

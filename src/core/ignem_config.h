// Configuration for the Ignem migration framework.
#pragma once

#include "common/units.h"

namespace ignem {

/// Order in which a slave drains its migration queue (§III-A1, §IV-C5).
/// The paper ships smallest-job-first and evaluates FIFO as the ablation;
/// the other orders explore the §VI design space. Every migration moves a
/// block from the primary device into the RAM pool; this decides *what*
/// moves next.
enum class QueueOrder {
  kSmallestJobFirst,  ///< Prioritize blocks of jobs with smaller inputs.
  kFifo,              ///< Arrival order (the ablation baseline).
  kLargestJobFirst,   ///< Anti-policy: big jobs first (completeness check).
  kLifo,              ///< Most recent submission first.
};

const char* queue_order_name(QueueOrder policy);

struct IgnemConfig {
  /// Per-slave cap on locked migration memory (§III-B2). The paper's
  /// worst-case analysis (§II-C2) shows ~12.5 GB suffices for 50 concurrent
  /// 256 MB readers; we default to 16 GiB on 128 GB nodes.
  Bytes slave_memory_capacity = 16 * kGiB;

  QueueOrder policy = QueueOrder::kSmallestJobFirst;

  /// Per-slave ceiling on migration throughput. The mmap+mlock page-in path
  /// (§III-B1) runs well below raw sequential disk speed: each fault goes
  /// through the checksummed HDFS block files and the kernel populates the
  /// locked mapping page by page. The disk itself is released as soon as
  /// the physical read finishes; the remainder of the budget is CPU/VM
  /// work. Calibrated jointly against Table II's mapper speedup (~38%) and
  /// Fig. 6's migrated-block fraction on the SWIM workload.
  Bandwidth migration_rate_cap = mib_per_sec(80);

  /// How many replicas of each block the master migrates (§III-A2). The
  /// paper chooses exactly one — network bandwidth is plentiful, so one
  /// memory-resident copy serves the cluster; migrating more trades memory
  /// and disk bandwidth for task-placement flexibility. Exposed for the
  /// replica-count ablation.
  int replicas_to_migrate = 1;
};

/// Occupancy fraction at which a slave queries the scheduler for job
/// liveness and reaps references of dead jobs (§III-A4).
inline constexpr double kCleanupOccupancyThreshold = 0.8;

/// Fault tolerance (§III-A5): when a migration's source or destination node
/// dies mid-transfer the master reroutes it to a surviving replica, delayed
/// by capped exponential backoff — attempt n waits min(base * 2^(n-1), cap)
/// — and drops the migration for good after kMaxMigrationRetries. Master
/// and slave RPCs cost kRpcLatency per hop (net/control_plane.h).
inline constexpr Duration kRetryBackoffBase = Duration::millis(100);
inline constexpr Duration kRetryBackoffCap = Duration::seconds(5.0);
inline constexpr int kMaxMigrationRetries = 4;

}  // namespace ignem

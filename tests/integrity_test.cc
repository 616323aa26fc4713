// End-to-end data-integrity tests: silent corruption faults, checksummed
// reads, the background scrubber, corrupt-replica repair, and the Ignem
// coherence paths (cached-copy purge, migration-source verification,
// master rerouting). Plus unit tests for the CorruptReadRule invariant.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/testbed.h"
#include "obs/invariant_checker.h"
#include "obs/trace_recorder.h"

namespace ignem {
namespace {

std::size_t count_events(Testbed& testbed, TraceEventType type) {
  const auto& events = testbed.trace()->events();
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [type](const TraceEvent& e) { return e.type == type; }));
}

std::size_t count_events_detail(Testbed& testbed, TraceEventType type,
                                std::int64_t detail) {
  const auto& events = testbed.trace()->events();
  return static_cast<std::size_t>(std::count_if(
      events.begin(), events.end(), [type, detail](const TraceEvent& e) {
        return e.type == type && e.detail == detail;
      }));
}

void expect_clean(Testbed& testbed) {
  EXPECT_TRUE(testbed.invariant_checker()->ok())
      << testbed.invariant_checker()->report();
  EXPECT_EQ(testbed.replica_model_mismatch(), "");
  EXPECT_EQ(testbed.integrity_accounting_mismatch(), "");
}

TestbedConfig hdfs_config(std::size_t nodes, int replication) {
  TestbedConfig config;
  config.mode = RunMode::kHdfs;
  config.cluster.node_count = static_cast<int>(nodes);
  config.replication = replication;
  config.check_invariants = true;
  return config;
}

TestbedConfig ignem_config(int replication) {
  TestbedConfig config;
  config.mode = RunMode::kIgnem;
  config.cluster.node_count = 4;
  config.replication = replication;
  config.check_invariants = true;
  return config;
}

BlockReadRecord read_via_dfs(Testbed& testbed, NodeId reader, BlockId block,
                             JobId job, Duration limit) {
  BlockReadRecord out;
  testbed.dfs().read_block(reader, block, job,
                           [&](const BlockReadRecord& r) { out = r; });
  testbed.sim().run(testbed.sim().now() + limit);
  return out;
}

TEST(Integrity, ScrubberFindsAndRepairsLatentRotBeforeAnyReader) {
  TestbedConfig config = hdfs_config(4, 3);
  config.integrity.enable_scrubber = true;
  config.integrity.scrub_interval = Duration::seconds(1);
  Testbed testbed(config);
  const FileId file = testbed.create_file("/input", 640 * kMiB);  // 10 blocks
  const BlockId block = testbed.namenode().file(file).blocks[0];
  const NodeId holder = testbed.namenode().block(block).replicas[0];
  testbed.corrupt_replica(holder, block);

  // No reader ever touches the data: only the scrubber can find the rot.
  testbed.sim().run(SimTime::zero() + Duration::seconds(120));

  EXPECT_EQ(testbed.scrubber()->stats().corrupt_found, 1u);
  EXPECT_GT(testbed.scrubber()->stats().blocks_scanned, 0u);
  EXPECT_EQ(count_events_detail(testbed, TraceEventType::kScrub, 1), 1u);
  EXPECT_EQ(count_events(testbed, TraceEventType::kCorruptionDetected), 1u);
  // Detected by the scrubber (detail = source = 1), not a read.
  EXPECT_EQ(
      count_events_detail(testbed, TraceEventType::kCorruptionDetected, 1),
      1u);
  EXPECT_EQ(count_events(testbed, TraceEventType::kBlockReadCorrupt), 0u);

  // Repaired: the bad copy was invalidated, a verified copy re-replicated,
  // and the mark is gone.
  EXPECT_EQ(testbed.replication_manager().stats().corrupt_invalidated, 1u);
  EXPECT_GE(testbed.replication_manager().stats().blocks_repaired, 1u);
  EXPECT_EQ(testbed.namenode().corrupt_replica_count(), 0u);
  const auto live = testbed.namenode().live_locations(block);
  EXPECT_EQ(live.size(), 3u);
  EXPECT_EQ(std::find(live.begin(), live.end(), holder), live.end());

  // A later reader sees only clean copies.
  const auto record = read_via_dfs(testbed, holder, block, JobId(1),
                                   Duration::seconds(60));
  EXPECT_FALSE(record.failed);
  EXPECT_EQ(count_events(testbed, TraceEventType::kBlockReadCorrupt), 0u);
  expect_clean(testbed);
}

TEST(Integrity, ReaderDetectsCorruptionFailsOverAndTriggersRepair) {
  Testbed testbed(hdfs_config(4, 3));
  const FileId file = testbed.create_file("/input", 64 * kMiB);
  const BlockId block = testbed.namenode().file(file).blocks[0];
  const NodeId holder = testbed.namenode().block(block).replicas[0];
  testbed.corrupt_replica(holder, block);

  // The reader sits on the corrupt replica, so the local-disk preference
  // steers the first attempt straight into the rot.
  const auto record =
      read_via_dfs(testbed, holder, block, JobId(1), Duration::seconds(60));
  EXPECT_FALSE(record.failed);
  EXPECT_TRUE(record.remote);  // failed over to a clean copy elsewhere
  EXPECT_NE(record.source, holder);
  EXPECT_EQ(count_events(testbed, TraceEventType::kBlockReadCorrupt), 1u);
  EXPECT_EQ(
      count_events_detail(testbed, TraceEventType::kCorruptionDetected, 0),
      1u);

  // Detection kicked off repair: bad copy invalidated, replacement written,
  // and the bad node holds nothing.
  testbed.sim().run(testbed.sim().now() + Duration::seconds(120));
  EXPECT_EQ(testbed.replication_manager().stats().corrupt_invalidated, 1u);
  EXPECT_GE(testbed.replication_manager().stats().blocks_repaired, 1u);
  EXPECT_EQ(count_events(testbed, TraceEventType::kReplicaInvalidate), 1u);
  const auto live = testbed.namenode().live_locations(block);
  EXPECT_EQ(live.size(), 3u);
  EXPECT_EQ(std::find(live.begin(), live.end(), holder), live.end());
  expect_clean(testbed);
}

TEST(Integrity, AllReplicasCorruptIsUnrepairableAndReadFailsInBoundedTime) {
  Testbed testbed(hdfs_config(2, 2));
  const FileId file = testbed.create_file("/input", 64 * kMiB);
  const BlockId block = testbed.namenode().file(file).blocks[0];
  for (const NodeId node : testbed.namenode().block(block).replicas) {
    testbed.corrupt_replica(node, block);
  }

  // Every copy is rotten: the read must surface a terminal error at the
  // deadline instead of retrying forever.
  const Duration deadline = DfsClient::kReadDeadline;
  const auto record = read_via_dfs(testbed, NodeId(0), block, JobId(1),
                                   deadline + Duration::seconds(100));
  EXPECT_TRUE(record.failed);
  EXPECT_GE(record.duration.to_seconds(), deadline.to_seconds());
  EXPECT_LT(record.duration.to_seconds(), deadline.to_seconds() + 0.6);

  // Repair gets stuck: the first bad copy may be invalidated while the
  // second still looks live, but once the last copy is found rotten there is
  // no verified source — unrepairable, and the final mark stays (the last
  // copy is never deleted).
  testbed.sim().run(testbed.sim().now() + Duration::seconds(60));
  EXPECT_GE(testbed.replication_manager().stats().blocks_unrepairable, 1u);
  EXPECT_GE(testbed.namenode().corrupt_replica_count(), 1u);
  EXPECT_GE(testbed.namenode().block(block).replicas.size(), 1u);
  EXPECT_TRUE(testbed.namenode().live_locations(block).empty());
  expect_clean(testbed);
}

TEST(Integrity, JobFailsInsteadOfHangingWhenEveryCopyIsRotten) {
  Testbed testbed(hdfs_config(2, 2));
  const FileId file = testbed.create_file("/input", 64 * kMiB);
  const BlockId block = testbed.namenode().file(file).blocks[0];
  for (const NodeId node : testbed.namenode().block(block).replicas) {
    testbed.corrupt_replica(node, block);
  }

  ScheduledJob job;
  job.spec.name = "doomed";
  job.spec.inputs = {file};
  ASSERT_TRUE(
      testbed.run_workload_limited({job}, DfsClient::kReadDeadline * 2.0));
  ASSERT_EQ(testbed.metrics().jobs().size(), 1u);
  EXPECT_TRUE(testbed.metrics().jobs()[0].failed);
  expect_clean(testbed);
}

TEST(Integrity, CorruptCachedCopyIsPurgedAndReadFallsBackToCleanDisk) {
  Testbed testbed(ignem_config(/*replication=*/1));
  const FileId file = testbed.create_file("/input", 64 * kMiB);
  const BlockId block = testbed.namenode().file(file).blocks[0];
  const NodeId holder = testbed.namenode().block(block).replicas[0];
  IgnemSlave* slave = testbed.ignem_slave(holder);
  ASSERT_NE(slave, nullptr);

  // Migrate the block up, then rot the in-memory copy only.
  PendingMigration command;
  command.block = block;
  command.bytes = 64 * kMiB;
  command.job = JobId(1);
  command.job_input_bytes = 64 * kMiB;
  slave->handle_migrate_batch({command});
  testbed.sim().run(SimTime::zero() + Duration::seconds(30));
  ASSERT_TRUE(slave->holds(block));
  testbed.corrupt_cached_replica(holder, block);

  const auto record =
      read_via_dfs(testbed, holder, block, JobId(2), Duration::seconds(60));
  EXPECT_FALSE(record.failed);
  EXPECT_FALSE(record.from_memory);  // fell back to the clean disk replica
  EXPECT_FALSE(record.remote);
  EXPECT_EQ(count_events_detail(testbed, TraceEventType::kBlockReadCorrupt, 1),
            1u);
  EXPECT_EQ(count_events(testbed, TraceEventType::kCorruptionDetected), 1u);

  // The poisoned copy is gone; the disk replica is untouched (no repair,
  // no mark, no invalidation).
  EXPECT_FALSE(slave->holds(block));
  EXPECT_FALSE(testbed.datanode(holder).cache().contains(block));
  EXPECT_EQ(testbed.integrity_manager().stats().cache_corrupt_detected, 1u);
  EXPECT_EQ(testbed.integrity_manager().stats().cache_copies_purged, 1u);
  EXPECT_EQ(testbed.integrity_manager().stats().disk_corrupt_detected, 0u);
  EXPECT_EQ(testbed.namenode().corrupt_replica_count(), 0u);
  EXPECT_EQ(testbed.replication_manager().stats().corrupt_invalidated, 0u);
  expect_clean(testbed);
}

TEST(Integrity, MigrationVerifiesSourceAndAbortsOnRottenReplica) {
  Testbed testbed(ignem_config(/*replication=*/1));
  const FileId file = testbed.create_file("/input", 64 * kMiB);
  const BlockId block = testbed.namenode().file(file).blocks[0];
  const NodeId holder = testbed.namenode().block(block).replicas[0];
  IgnemSlave* slave = testbed.ignem_slave(holder);
  ASSERT_NE(slave, nullptr);
  testbed.corrupt_replica(holder, block);

  // Paging in a rotten replica must never commit a RAM-speed copy of it.
  PendingMigration command;
  command.block = block;
  command.bytes = 64 * kMiB;
  command.job = JobId(1);
  command.job_input_bytes = 64 * kMiB;
  slave->handle_migrate_batch({command});
  testbed.sim().run(SimTime::zero() + Duration::seconds(60));

  EXPECT_EQ(
      count_events_detail(testbed, TraceEventType::kMigrationComplete, 1), 1u);
  EXPECT_EQ(
      count_events_detail(testbed, TraceEventType::kMigrationComplete, 0), 0u);
  EXPECT_FALSE(slave->holds(block));
  EXPECT_EQ(testbed.datanode(holder).cache().used(), 0);
  // The verification pass reported the rot (source = 2, migration) and, with
  // the sole replica bad, repair is stuck.
  EXPECT_EQ(
      count_events_detail(testbed, TraceEventType::kCorruptionDetected, 2),
      1u);
  EXPECT_TRUE(testbed.namenode().is_replica_corrupt(block, holder));
  EXPECT_GE(testbed.replication_manager().stats().blocks_unrepairable, 1u);
  expect_clean(testbed);
}

TEST(Integrity, MasterReroutesMigrationOffCorruptReplica) {
  TestbedConfig config = ignem_config(/*replication=*/2);
  config.integrity.enable_scrubber = true;
  config.integrity.scrub_interval = Duration::seconds(1);
  Testbed testbed(config);
  const FileId file = testbed.create_file("/input", 64 * kMiB);
  const BlockId block = testbed.namenode().file(file).blocks[0];
  const auto replicas = testbed.namenode().block(block).replicas;
  ASSERT_EQ(replicas.size(), 2u);

  // A real migrate RPC so the master owns the (job, block) routing state.
  MigrationRequest request;
  request.job = JobId(7);
  request.job_input_bytes = 64 * kMiB;
  request.files = {file};
  testbed.dfs().migrate(request);
  testbed.sim().run(SimTime::zero() + Duration::seconds(20));
  const NodeId chosen = testbed.ignem_master()->chosen_replica(JobId(7), block);
  ASSERT_TRUE(chosen.valid());
  const NodeId other = chosen == replicas[0] ? replicas[1] : replicas[0];
  ASSERT_TRUE(testbed.ignem_slave(chosen)->holds(block));

  // Rot the chosen node's stored replica. The scrubber finds it; the node
  // can no longer serve the block, so its (clean) cached copy is purged and
  // the master reroutes the migration to the surviving replica.
  testbed.corrupt_replica(chosen, block);
  testbed.sim().run(testbed.sim().now() + Duration::seconds(120));

  EXPECT_GE(count_events(testbed, TraceEventType::kMigrationRetry), 1u);
  EXPECT_EQ(testbed.ignem_master()->chosen_replica(JobId(7), block), other);
  EXPECT_FALSE(testbed.ignem_slave(chosen)->holds(block));
  EXPECT_TRUE(testbed.ignem_slave(other)->holds(block));
  EXPECT_EQ(testbed.integrity_manager().stats().cache_copies_purged, 1u);
  // Repair also ran: the bad replica was replaced from the clean one.
  EXPECT_EQ(testbed.replication_manager().stats().corrupt_invalidated, 1u);
  const auto live = testbed.namenode().live_locations(block);
  EXPECT_EQ(live.size(), 2u);
  EXPECT_EQ(std::find(live.begin(), live.end(), chosen), live.end());
  expect_clean(testbed);
}

TEST(Integrity, ScrubberSkipsDeadAndDiskFailedNodes) {
  TestbedConfig config = hdfs_config(3, 2);
  config.fault_tolerance = true;
  config.integrity.enable_scrubber = true;
  config.integrity.scrub_interval = Duration::seconds(1);
  Testbed testbed(config);
  testbed.create_file("/input", 128 * kMiB);
  testbed.begin_disk_fail_stop(NodeId(0));
  testbed.fail_node(NodeId(1));
  testbed.sim().run(SimTime::zero() + Duration::seconds(10));
  // Only node 2's scrub task actually issued verification reads.
  for (const TraceEvent& e : testbed.trace()->events()) {
    if (e.type == TraceEventType::kScrub) {
      EXPECT_EQ(e.node, NodeId(2));
    }
  }
  EXPECT_GT(count_events(testbed, TraceEventType::kScrub), 0u);
}

// --- CorruptReadRule unit tests (RuleHarness idiom from invariant_test) ---

struct RuleHarness {
  explicit RuleHarness(std::unique_ptr<InvariantRule> rule)
      : checker(/*install_default_rules=*/false) {
    checker.add_rule(std::move(rule));
    recorder.add_observer(&checker);
  }
  TraceRecorder recorder;
  InvariantChecker checker;
};

TEST(CorruptReadRule, FiresOnCleanReadFromCorruptDiskReplica) {
  RuleHarness h(std::make_unique<CorruptReadRule>());
  h.recorder.emit(TraceEventType::kFaultBlockCorrupt, NodeId(1), BlockId(5),
                  JobId::invalid(), 64 * kMiB, /*detail=*/0);
  // A read off that disk completing without kBlockReadCorrupt is a checksum
  // pass that missed injected rot.
  h.recorder.emit(TraceEventType::kBlockReadEnd, NodeId(1), BlockId(5),
                  JobId(1), 64 * kMiB, /*detail=*/0);
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "corrupt_read");
}

TEST(CorruptReadRule, MemoryReadIsCleanWhenOnlyDiskIsCorrupt) {
  RuleHarness h(std::make_unique<CorruptReadRule>());
  h.recorder.emit(TraceEventType::kFaultBlockCorrupt, NodeId(1), BlockId(5),
                  JobId::invalid(), 64 * kMiB, /*detail=*/0);
  h.recorder.emit(TraceEventType::kBlockReadEnd, NodeId(1), BlockId(5),
                  JobId(1), 64 * kMiB, /*detail=*/1);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

TEST(CorruptReadRule, InvalidateClearsTheDiskMark) {
  RuleHarness h(std::make_unique<CorruptReadRule>());
  h.recorder.emit(TraceEventType::kFaultBlockCorrupt, NodeId(1), BlockId(5),
                  JobId::invalid(), 64 * kMiB, /*detail=*/0);
  h.recorder.emit(TraceEventType::kReplicaInvalidate, NodeId(1), BlockId(5),
                  JobId::invalid(), 64 * kMiB);
  // A fresh replica re-written to the same node later reads clean.
  h.recorder.emit(TraceEventType::kBlockReadEnd, NodeId(1), BlockId(5),
                  JobId(1), 64 * kMiB, /*detail=*/0);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

TEST(CorruptReadRule, CacheUnlockClearsTheCachedMark) {
  RuleHarness h(std::make_unique<CorruptReadRule>());
  h.recorder.emit(TraceEventType::kFaultBlockCorrupt, NodeId(2), BlockId(9),
                  JobId::invalid(), 64 * kMiB, /*detail=*/1);
  h.recorder.emit(TraceEventType::kCacheUnlock, NodeId(2), BlockId(9),
                  JobId::invalid(), 64 * kMiB);
  // A clean copy locked afterwards serves from memory legitimately.
  h.recorder.emit(TraceEventType::kCacheLock, NodeId(2), BlockId(9),
                  JobId::invalid(), 64 * kMiB);
  h.recorder.emit(TraceEventType::kBlockReadEnd, NodeId(2), BlockId(9),
                  JobId(1), 64 * kMiB, /*detail=*/1);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

TEST(CorruptReadRule, FiresOnCommittedMigrationFromCorruptSource) {
  RuleHarness h(std::make_unique<CorruptReadRule>());
  h.recorder.emit(TraceEventType::kFaultBlockCorrupt, NodeId(0), BlockId(3),
                  JobId::invalid(), 64 * kMiB, /*detail=*/0);
  // detail=1 (aborted) is the required outcome and must pass...
  h.recorder.emit(TraceEventType::kMigrationComplete, NodeId(0), BlockId(3),
                  JobId::invalid(), 64 * kMiB, /*detail=*/1);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
  // ...while a clean commit (detail=0) of the rotten bytes is a violation.
  h.recorder.emit(TraceEventType::kMigrationComplete, NodeId(0), BlockId(3),
                  JobId::invalid(), 64 * kMiB, /*detail=*/0);
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "corrupt_read");
}

TEST(CorruptReadRule, FiresOnRepairSourcedFromMarkedReplica) {
  RuleHarness h(std::make_unique<CorruptReadRule>());
  h.recorder.emit(TraceEventType::kFaultBlockCorrupt, NodeId(1), BlockId(4),
                  JobId::invalid(), 64 * kMiB, /*detail=*/0);
  // The cluster noticed (marked it corrupt)...
  h.recorder.emit(TraceEventType::kCorruptionDetected, NodeId(1), BlockId(4),
                  JobId::invalid(), 64 * kMiB, /*detail=*/0, 0.0);
  // ...yet re-replication still pulled from the marked copy.
  h.recorder.emit(TraceEventType::kRepairStart, NodeId(1), BlockId(4),
                  JobId::invalid(), 64 * kMiB, /*detail=*/2);
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "corrupt_read");
}

TEST(ReplicaAccounting, InvalidateWithoutAddFires) {
  RuleHarness h(std::make_unique<ReplicaAccountingRule>());
  h.recorder.emit(TraceEventType::kReplicaInvalidate, NodeId(2), BlockId(9),
                  JobId::invalid(), 64 * kMiB);
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "replica_accounting");
}

TEST(ReplicaAccounting, InvalidateThenReAddIsLegal) {
  RuleHarness h(std::make_unique<ReplicaAccountingRule>());
  h.recorder.emit(TraceEventType::kReplicaAdd, NodeId(2), BlockId(9),
                  JobId::invalid(), 64 * kMiB);
  h.recorder.emit(TraceEventType::kReplicaInvalidate, NodeId(2), BlockId(9),
                  JobId::invalid(), 64 * kMiB);
  h.recorder.emit(TraceEventType::kReplicaAdd, NodeId(2), BlockId(9),
                  JobId::invalid(), 64 * kMiB);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

TEST(WriteChecksum, FreshlyWrittenBlockVerifiesClean) {
  // Write-path regression: every replica created through add_block carries
  // the content-addressed checksum, so a fresh write verifies clean, rot
  // flips exactly that replica, and a repair re-write is clean again.
  Simulator sim;
  DataNode dn(sim, NodeId(0),
              profile_for(MediaType::kHdd), 1 * kGiB, Rng(7));
  dn.add_block(BlockId(1), 64 * kMiB);
  EXPECT_FALSE(dn.is_corrupt(BlockId(1)));
  EXPECT_EQ(dn.stored_checksum(BlockId(1)),
            DataNode::expected_checksum(BlockId(1), 64 * kMiB));

  dn.corrupt_block(BlockId(1));
  EXPECT_TRUE(dn.is_corrupt(BlockId(1)));
  EXPECT_NE(dn.stored_checksum(BlockId(1)),
            DataNode::expected_checksum(BlockId(1), 64 * kMiB));

  // Repair path: the invalidated copy is removed and re-written.
  dn.remove_block(BlockId(1));
  dn.add_block(BlockId(1), 64 * kMiB);
  EXPECT_FALSE(dn.is_corrupt(BlockId(1)));
}

TEST(WriteChecksum, ChecksumIsContentAddressed) {
  // Every healthy replica of the same (block, size) agrees, regardless of
  // which node holds it; different blocks and sizes disagree.
  EXPECT_EQ(DataNode::expected_checksum(BlockId(3), 64 * kMiB),
            DataNode::expected_checksum(BlockId(3), 64 * kMiB));
  EXPECT_NE(DataNode::expected_checksum(BlockId(3), 64 * kMiB),
            DataNode::expected_checksum(BlockId(4), 64 * kMiB));
  EXPECT_NE(DataNode::expected_checksum(BlockId(3), 64 * kMiB),
            DataNode::expected_checksum(BlockId(3), 32 * kMiB));
}

}  // namespace
}  // namespace ignem

#include "core/ignem_master.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "sim/simulator.h"

namespace ignem {
namespace {

class IgnemMasterTest : public ::testing::Test {
 protected:
  void build(std::size_t nodes, int replication) {
    namenode_ = std::make_unique<NameNode>(Rng(1), replication);
    DeviceProfile profile = hdd_profile();
    profile.access_jitter = 0.0;
    for (std::size_t i = 0; i < nodes; ++i) {
      datanodes_.push_back(std::make_unique<DataNode>(
          sim_, NodeId(static_cast<std::int64_t>(i)),
          profile, 16 * kGiB, Rng(50 + i)));
      namenode_->register_datanode(datanodes_.back().get());
    }
    master_ = std::make_unique<IgnemMaster>(sim_, *namenode_, config_, Rng(2));
    for (std::size_t i = 0; i < nodes; ++i) {
      slaves_.push_back(std::make_unique<IgnemSlave>(sim_, *datanodes_[i],
                                                     config_, nullptr));
      master_->register_slave(slaves_.back().get());
    }
  }

  MigrationRequest migrate_request(FileId file, std::int64_t job) {
    MigrationRequest r;
    r.op = MigrationOp::kMigrate;
    r.job = JobId(job);
    r.job_input_bytes = namenode_->file(file).size;
    r.files = {file};
    return r;
  }

  std::size_t cached_replica_count(BlockId block) {
    std::size_t n = 0;
    for (const auto& dn : datanodes_) {
      if (dn->cache().contains(block)) ++n;
    }
    return n;
  }

  Simulator sim_;
  IgnemConfig config_;
  std::unique_ptr<NameNode> namenode_;
  std::vector<std::unique_ptr<DataNode>> datanodes_;
  std::unique_ptr<IgnemMaster> master_;
  std::vector<std::unique_ptr<IgnemSlave>> slaves_;
};

TEST_F(IgnemMasterTest, MigratesExactlyOneReplicaPerBlock) {
  build(6, 3);
  const FileId file = namenode_->create_file("/a", 320 * kMiB);  // 5 blocks
  master_->request(migrate_request(file, 1));
  sim_.run();
  for (const BlockId block : namenode_->file(file).blocks) {
    EXPECT_EQ(cached_replica_count(block), 1u);  // §III-A2: one replica only
  }
}

TEST_F(IgnemMasterTest, ChosenReplicaIsARealReplica) {
  build(6, 2);
  const FileId file = namenode_->create_file("/a", 128 * kMiB);
  master_->request(migrate_request(file, 1));
  sim_.run();
  for (const BlockId block : namenode_->file(file).blocks) {
    const NodeId chosen = master_->chosen_replica(JobId(1), block);
    ASSERT_TRUE(chosen.valid());
    const auto& replicas = namenode_->block(block).replicas;
    EXPECT_NE(std::find(replicas.begin(), replicas.end(), chosen),
              replicas.end());
    EXPECT_TRUE(datanodes_[static_cast<std::size_t>(chosen.value())]
                    ->cache()
                    .contains(block));
  }
}

TEST_F(IgnemMasterTest, EvictRoutesToChosenSlave) {
  build(4, 3);
  const FileId file = namenode_->create_file("/a", 128 * kMiB);
  master_->request(migrate_request(file, 1));
  sim_.run();
  MigrationRequest evict = migrate_request(file, 1);
  evict.op = MigrationOp::kEvict;
  master_->request(evict);
  sim_.run();
  for (const BlockId block : namenode_->file(file).blocks) {
    EXPECT_EQ(cached_replica_count(block), 0u);
    EXPECT_FALSE(master_->chosen_replica(JobId(1), block).valid());
  }
}

TEST_F(IgnemMasterTest, EvictForUnknownJobIsNoOp) {
  build(2, 2);
  const FileId file = namenode_->create_file("/a", 64 * kMiB);
  MigrationRequest evict = migrate_request(file, 77);
  evict.op = MigrationOp::kEvict;
  master_->request(evict);
  sim_.run();  // no crash, nothing to do
  EXPECT_EQ(master_->stats().evict_commands, 0u);
}

TEST_F(IgnemMasterTest, DeadReplicasSkipped) {
  build(3, 3);
  const FileId file = namenode_->create_file("/a", 64 * kMiB);
  namenode_->set_node_alive(NodeId(0), false);
  master_->request(migrate_request(file, 1));
  sim_.run();
  EXPECT_FALSE(datanodes_[0]->cache().contains(
      namenode_->file(file).blocks[0]));
  EXPECT_EQ(cached_replica_count(namenode_->file(file).blocks[0]), 1u);
}

TEST_F(IgnemMasterTest, BatchesOneRpcPerSlave) {
  build(2, 2);  // every block replicated on both nodes
  const FileId file = namenode_->create_file("/a", 640 * kMiB);  // 10 blocks
  master_->request(migrate_request(file, 1));
  sim_.run();
  // 10 commands but at most 2 batches (one per slave).
  EXPECT_EQ(master_->stats().migrate_commands, 10u);
  EXPECT_LE(master_->stats().batches_sent, 2u);
}

TEST_F(IgnemMasterTest, FailurePurgesSlavesAndState) {
  build(4, 2);
  const FileId file = namenode_->create_file("/a", 256 * kMiB);
  master_->request(migrate_request(file, 1));
  sim_.run();
  master_->fail();
  for (const BlockId block : namenode_->file(file).blocks) {
    EXPECT_EQ(cached_replica_count(block), 0u);
    EXPECT_FALSE(master_->chosen_replica(JobId(1), block).valid());
  }
  EXPECT_TRUE(master_->failed());
  // While failed, requests are dropped.
  master_->request(migrate_request(file, 2));
  sim_.run();
  EXPECT_EQ(cached_replica_count(namenode_->file(file).blocks[0]), 0u);
  // A restarted master serves new requests.
  master_->restart();
  master_->request(migrate_request(file, 3));
  sim_.run();
  EXPECT_EQ(cached_replica_count(namenode_->file(file).blocks[0]), 1u);
}

TEST_F(IgnemMasterTest, MultiReplicaMigrationLocksSeveralCopies) {
  config_.replicas_to_migrate = 2;
  build(6, 3);
  const FileId file = namenode_->create_file("/a", 192 * kMiB);
  master_->request(migrate_request(file, 1));
  sim_.run();
  for (const BlockId block : namenode_->file(file).blocks) {
    EXPECT_EQ(cached_replica_count(block), 2u);
  }
}

TEST_F(IgnemMasterTest, MultiReplicaEvictReachesEveryCopy) {
  config_.replicas_to_migrate = 3;
  build(4, 3);
  const FileId file = namenode_->create_file("/a", 128 * kMiB);
  master_->request(migrate_request(file, 1));
  sim_.run();
  for (const BlockId block : namenode_->file(file).blocks) {
    EXPECT_EQ(cached_replica_count(block), 3u);
  }
  MigrationRequest evict = migrate_request(file, 1);
  evict.op = MigrationOp::kEvict;
  master_->request(evict);
  sim_.run();
  for (const BlockId block : namenode_->file(file).blocks) {
    EXPECT_EQ(cached_replica_count(block), 0u)
        << "evict must reach every migrated copy";
  }
}

TEST_F(IgnemMasterTest, ReplicaCountCappedByLiveReplicas) {
  config_.replicas_to_migrate = 5;  // more than the replication factor
  build(4, 2);
  const FileId file = namenode_->create_file("/a", 64 * kMiB);
  master_->request(migrate_request(file, 1));
  sim_.run();
  EXPECT_EQ(cached_replica_count(namenode_->file(file).blocks[0]), 2u);
}

TEST_F(IgnemMasterTest, RequestsCounted) {
  build(2, 1);
  const FileId file = namenode_->create_file("/a", 64 * kMiB);
  master_->request(migrate_request(file, 1));
  sim_.run();
  EXPECT_EQ(master_->stats().requests, 1u);
  EXPECT_EQ(master_->stats().migrate_commands, 1u);
}

TEST_F(IgnemMasterTest, RpcLatencyDelaysDelivery) {
  build(1, 1);
  config_ = IgnemConfig{};
  const FileId file = namenode_->create_file("/a", 64 * kMiB);
  master_->request(migrate_request(file, 1));
  // Nothing reaches the slave synchronously: two RPC hops first.
  EXPECT_FALSE(slaves_[0]->migration_in_progress());
  sim_.run_until([&] { return slaves_[0]->migration_in_progress(); });
  EXPECT_GE(sim_.now().count_micros(), 2 * kRpcLatency.count_micros());
  sim_.run();
}

}  // namespace
}  // namespace ignem

#include "core/ignem_master.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/trace_recorder.h"
#include "sim/simulator.h"
#include "test_util.h"

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


// The master as it stood when its soft state sat in std::maps keyed by
// (job, block): chosen_, job_info_ and retries_, walked in key order on a
// node failure or a rotten replica. Verbatim but for the routed control
// plane, which the streams below never wire. The model of
// IgnemMasterTable.MatchesMapModel.
class MapMaster {
 public:
  MapMaster(Simulator& sim, NameNode& namenode, const IgnemConfig& config,
            Rng rng)
      : sim_(sim), namenode_(namenode), config_(config), rng_(rng) {}

  void register_slave(IgnemSlave* slave) { slaves_.push_back(slave); }

  void request(const MigrationRequest& request) {
    if (failed_) return;
    sim_.schedule(kRpcLatency,
                  [this, request] {
                    if (!failed_) process(request);
                  },
                  EventClass::kRpc);
  }

  void fail() {
    failed_ = true;
    chosen_.clear();
    job_info_.clear();
    retries_.clear();
    for (IgnemSlave* slave : slaves_) slave->on_master_failure();
  }

  void restart() { failed_ = false; }

  void on_node_failure(NodeId node) {
    if (failed_) return;
    std::map<NodeId, std::vector<PendingMigration>> batches;
    for (auto it = chosen_.begin(); it != chosen_.end();) {
      if (reroute_away(it->first, it->second, node, batches)) {
        it = chosen_.erase(it);
      } else {
        ++it;
      }
    }
    send_migrate_batches(batches);
  }

  void on_node_rejoin(NodeId node) {
    if (failed_) return;
    auto exchange = [this, node] {
      if (failed_) return;
      IgnemSlave* slave = slaves_[static_cast<std::size_t>(node.value())];
      std::map<JobId, std::vector<BlockId>> evict;
      for (const auto& [block, job] : slave->tracked_references()) {
        const auto it = chosen_.find({job, block});
        if (it != chosen_.end() &&
            std::find(it->second.begin(), it->second.end(), node) !=
                it->second.end()) {
          ++stats_.rejoin_reclaimed;
          continue;
        }
        if (job_info_.contains(job)) {
          chosen_[{job, block}].push_back(node);
          ++stats_.rejoin_reclaimed;
          continue;
        }
        evict[job].push_back(block);
        ++stats_.rejoin_purged;
      }
      for (const auto& [job, blocks] : evict) {
        slave->handle_evict_batch(job, blocks);
      }
    };
    sim_.schedule(kRpcLatency, std::move(exchange), EventClass::kRpc);
  }

  void on_replica_corrupt(BlockId block, NodeId node) {
    if (failed_) return;
    std::map<NodeId, std::vector<PendingMigration>> batches;
    for (auto it = chosen_.begin(); it != chosen_.end();) {
      if (it->first.second == block &&
          reroute_away(it->first, it->second, node, batches)) {
        it = chosen_.erase(it);
      } else {
        ++it;
      }
    }
    send_migrate_batches(batches);
  }

  const MasterStats& stats() const { return stats_; }

  NodeId chosen_replica(JobId job, BlockId block) const {
    const auto it = chosen_.find({job, block});
    if (it == chosen_.end() || it->second.empty()) return NodeId::invalid();
    return it->second.front();
  }

  void set_trace(TraceRecorder* trace) { trace_ = trace; }

 private:
  void process(const MigrationRequest& request) {
    ++stats_.requests;
    if (trace_ != nullptr) {
      trace_->emit(request.op == MigrationOp::kMigrate
                       ? TraceEventType::kMigrateRequest
                       : TraceEventType::kEvictRequest,
                   NodeId::invalid(), BlockId::invalid(), request.job,
                   request.job_input_bytes,
                   static_cast<std::int64_t>(request.files.size()));
    }
    switch (request.op) {
      case MigrationOp::kMigrate:
        do_migrate(request);
        break;
      case MigrationOp::kEvict:
        do_evict(request);
        break;
    }
  }

  void do_migrate(const MigrationRequest& request) {
    job_info_[request.job] = request.job_input_bytes;
    std::map<NodeId, std::vector<PendingMigration>> batches;
    for (const FileId file : request.files) {
      for (const BlockId block_id : namenode_.file(file).blocks) {
        std::vector<NodeId> locations = namenode_.live_locations(block_id);
        if (locations.empty()) continue;
        const std::size_t count =
            std::min<std::size_t>(locations.size(),
                                  static_cast<std::size_t>(std::max(
                                      1, config_.replicas_to_migrate)));
        for (std::size_t i = 0; i < count; ++i) {
          const auto j = static_cast<std::size_t>(rng_.uniform_int(
              static_cast<std::int64_t>(i),
              static_cast<std::int64_t>(locations.size()) - 1));
          std::swap(locations[i], locations[j]);
        }
        for (std::size_t i = 0; i < count; ++i) {
          const NodeId target = locations[i];
          PendingMigration command;
          command.block = block_id;
          command.bytes = namenode_.block(block_id).size;
          command.job = request.job;
          command.job_input_bytes = request.job_input_bytes;
          batches[target].push_back(command);
          ++stats_.migrate_commands;
        }
        chosen_[{request.job, block_id}] =
            std::vector<NodeId>(locations.begin(),
                                locations.begin() + static_cast<std::ptrdiff_t>(count));
      }
    }
    send_migrate_batches(batches);
  }

  void do_evict(const MigrationRequest& request) {
    std::map<NodeId, std::vector<BlockId>> batches;
    for (const FileId file : request.files) {
      for (const BlockId block_id : namenode_.file(file).blocks) {
        retries_.erase({request.job, block_id});
        const auto it = chosen_.find({request.job, block_id});
        if (it == chosen_.end()) continue;
        for (const NodeId node : it->second) {
          batches[node].push_back(block_id);
          ++stats_.evict_commands;
        }
        chosen_.erase(it);
      }
    }
    job_info_.erase(request.job);
    for (auto& [node, blocks] : batches) {
      ++stats_.batches_sent;
      sim_.schedule(kRpcLatency,
                    [this, node, job = request.job, blocks] {
                      if (failed_) return;
                      slaves_[static_cast<std::size_t>(node.value())]
                          ->handle_evict_batch(job, blocks);
                    },
                    EventClass::kRpc);
    }
  }

  bool reroute_away(const std::pair<JobId, BlockId>& key,
                    std::vector<NodeId>& targets, NodeId away,
                    std::map<NodeId, std::vector<PendingMigration>>& batches) {
    const auto pos = std::find(targets.begin(), targets.end(), away);
    if (pos == targets.end()) return false;
    targets.erase(pos);
    const auto [job, block] = key;
    const int attempt = ++retries_[key];
    NodeId replacement = NodeId::invalid();
    if (attempt <= kMaxMigrationRetries) {
      for (const NodeId cand : namenode_.live_locations(block)) {
        if (std::find(targets.begin(), targets.end(), cand) != targets.end()) {
          continue;
        }
        const DataNode* dn = namenode_.datanode(cand);
        if (!dn->alive() || !dn->disk_ok()) continue;
        replacement = cand;
        break;
      }
    }
    const auto info = job_info_.find(job);
    if (!replacement.valid() || info == job_info_.end()) {
      return targets.empty();
    }
    const Duration backoff =
        std::min(kRetryBackoffBase *
                     static_cast<double>(std::int64_t{1} << (attempt - 1)),
                 kRetryBackoffCap);
    PendingMigration command;
    command.block = block;
    command.bytes = namenode_.block(block).size;
    command.job = job;
    command.job_input_bytes = info->second;
    command.not_before = sim_.now() + backoff;
    batches[replacement].push_back(command);
    targets.push_back(replacement);
    ++stats_.migrate_commands;
    if (trace_ != nullptr) {
      trace_->emit(TraceEventType::kMigrationRetry, replacement, block, job,
                   command.bytes, attempt);
    }
    return false;
  }

  void send_migrate_batches(
      std::map<NodeId, std::vector<PendingMigration>>& batches) {
    for (auto& [target, batch] : batches) {
      ++stats_.batches_sent;
      sim_.schedule(kRpcLatency,
                    [this, target, batch = std::move(batch)] {
                      if (failed_) return;
                      slaves_[static_cast<std::size_t>(target.value())]
                          ->handle_migrate_batch(batch);
                    },
                    EventClass::kRpc);
    }
  }

  Simulator& sim_;
  NameNode& namenode_;
  IgnemConfig config_;
  Rng rng_;
  TraceRecorder* trace_ = nullptr;
  std::vector<IgnemSlave*> slaves_;
  bool failed_ = false;
  std::map<std::pair<JobId, BlockId>, std::vector<NodeId>> chosen_;
  std::map<JobId, Bytes> job_info_;
  std::map<std::pair<JobId, BlockId>, int> retries_;
  MasterStats stats_;
};

class RunningJobs : public JobLivenessOracle {
 public:
  bool is_job_running(JobId job) const override {
    return running.contains(job);
  }
  std::set<JobId> running;
};

constexpr std::int64_t kTableNodes = 8;

// One cluster, its slaves and a master; a stream drives two of them, one
// per master type, through the same operations. Every event either side
// emits goes to its recorder.
template <typename Master>
struct MasterWorld {
  MasterWorld(std::uint64_t seed, const IgnemConfig& config)
      : namenode(Rng(seed), 3, kDefaultBlockSize, 2),
        master(sim, namenode, config, Rng(seed + 1)) {
    trace.set_clock([this] { return sim.now(); });
    for (std::int64_t i = 0; i < kTableNodes; ++i) {
      datanodes.push_back(std::make_unique<DataNode>(
          sim, NodeId(i), hdd_profile(), 512 * kMiB,
          Rng(seed * 31 + static_cast<std::uint64_t>(i))));
      namenode.register_datanode(datanodes.back().get());
      slaves.push_back(std::make_unique<IgnemSlave>(sim, *datanodes.back(),
                                                    config, &jobs));
      master.register_slave(slaves.back().get());
      datanodes.back()->set_trace(&trace);
      slaves.back()->set_trace(&trace);
    }
    master.set_trace(&trace);
    for (int f = 0; f < 8; ++f) {
      files.push_back(namenode.create_file("/f" + std::to_string(f),
                                           3 * kDefaultBlockSize));
    }
  }

  DataNode& dn(NodeId node) {
    return *datanodes[static_cast<std::size_t>(node.value())];
  }
  IgnemSlave& slave(NodeId node) {
    return *slaves[static_cast<std::size_t>(node.value())];
  }

  Simulator sim;
  TraceRecorder trace;
  NameNode namenode;
  RunningJobs jobs;
  std::vector<std::unique_ptr<DataNode>> datanodes;
  std::vector<std::unique_ptr<IgnemSlave>> slaves;
  Master master;
  std::vector<FileId> files;
};

// Where the two masters part ways, or empty. The trace carries every
// per-slave batch's effect in order: each command a slave queues, each
// reroute the master emits, each copy an evict batch unlocks. The slaves'
// reference tables, the master's counters and its chosen replicas carry
// the rest.
template <typename A, typename B>
std::string first_difference(MasterWorld<A>& model, MasterWorld<B>& table,
                             const std::vector<JobId>& jobs) {
  std::ostringstream out;
  const auto& m = model.trace.events();
  const auto& t = table.trace.events();
  for (std::size_t i = 0; i < std::min(m.size(), t.size()); ++i) {
    if (m[i].type != t[i].type || m[i].time != t[i].time ||
        m[i].node != t[i].node || m[i].block != t[i].block ||
        m[i].job != t[i].job || m[i].bytes != t[i].bytes ||
        m[i].detail != t[i].detail) {
      out << "event " << i << ": " << static_cast<int>(m[i].type) << " node "
          << m[i].node << " block " << m[i].block << " job " << m[i].job
          << " detail " << m[i].detail << " vs "
          << static_cast<int>(t[i].type) << " node " << t[i].node
          << " block " << t[i].block << " job " << t[i].job << " detail "
          << t[i].detail;
      return out.str();
    }
  }
  if (m.size() != t.size()) {
    out << m.size() << " events, " << t.size() << " in the table's run";
    return out.str();
  }
  for (std::int64_t n = 0; n < kTableNodes; ++n) {
    if (model.slave(NodeId(n)).tracked_references() !=
        table.slave(NodeId(n)).tracked_references()) {
      out << "slave " << n << " tracks other references";
      return out.str();
    }
  }
  const MasterStats& ms = model.master.stats();
  const MasterStats& ts = table.master.stats();
  if (ms.requests != ts.requests ||
      ms.migrate_commands != ts.migrate_commands ||
      ms.evict_commands != ts.evict_commands ||
      ms.batches_sent != ts.batches_sent ||
      ms.rejoin_reclaimed != ts.rejoin_reclaimed ||
      ms.rejoin_purged != ts.rejoin_purged) {
    out << "master counters differ: " << ms.migrate_commands << " vs "
        << ts.migrate_commands << " migrate commands, " << ms.batches_sent
        << " vs " << ts.batches_sent << " batches";
    return out.str();
  }
  for (const JobId job : jobs) {
    for (const FileId file : model.files) {
      for (const BlockId block : model.namenode.file(file).blocks) {
        if (model.master.chosen_replica(job, block) !=
            table.master.chosen_replica(job, block)) {
          out << "job " << job << " block " << block << " chose "
              << model.master.chosen_replica(job, block) << " vs "
              << table.master.chosen_replica(job, block);
          return out.str();
        }
      }
    }
  }
  return "";
}

// The master keeps its (job, block) state in a hash table and sorts only
// where order reaches the slaves; the std::map master is the model. Each
// seeded stream drives both through migrate and evict requests, reads,
// crashes and spurious deaths, rejoins, rotten replicas and master
// failures, with one and with two replicas per migration.
TEST(IgnemMasterTable, MatchesMapModel) {
  constexpr int kSeeds = 20;
  constexpr int kOps = 300;
  std::uint64_t retries = 0, reclaimed = 0, purged = 0;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint64_t world_seed = test::seed_for(1300 + seed);
    IgnemConfig config;
    config.replicas_to_migrate = seed % 4 == 3 ? 2 : 1;
    MasterWorld<MapMaster> model(world_seed, config);
    MasterWorld<IgnemMaster> table(world_seed, config);
    Rng rng(world_seed ^ 0x7ab1e);
    const auto both = [&](const auto& op) {
      op(model);
      op(table);
    };
    const auto pick = [&](std::int64_t n) { return rng.uniform_int(0, n - 1); };
    std::vector<JobId> submitted;
    std::map<JobId, std::vector<FileId>> live;
    std::int64_t next_job = 1;
    for (int op = 1; op <= kOps; ++op) {
      const std::int64_t roll = rng.uniform_int(0, 99);
      const NodeId node(pick(kTableNodes));
      if (roll < 25) {  // a job submits its inputs
        MigrationRequest request;
        request.op = MigrationOp::kMigrate;
        request.job = JobId(next_job++);
        for (std::int64_t i = rng.uniform_int(1, 3); i > 0; --i) {
          request.files.push_back(model.files[static_cast<std::size_t>(
              pick(static_cast<std::int64_t>(model.files.size())))]);
        }
        request.job_input_bytes = model.namenode.total_bytes(request.files);
        submitted.push_back(request.job);
        live[request.job] = request.files;
        both([&](auto& w) {
          w.jobs.running.insert(request.job);
          w.master.request(request);
        });
      } else if (roll < 40) {  // a job ends and evicts
        if (live.empty()) continue;
        auto it = std::next(live.begin(),
                            pick(static_cast<std::int64_t>(live.size())));
        MigrationRequest request;
        request.op = MigrationOp::kEvict;
        request.job = it->first;
        request.files = it->second;
        live.erase(it);
        both([&](auto& w) {
          w.jobs.running.erase(request.job);
          w.master.request(request);
        });
      } else if (roll < 50) {  // a task reads a block where it runs
        if (live.empty()) continue;
        const auto it =
            std::next(live.begin(), pick(static_cast<std::int64_t>(live.size())));
        const FileId file = it->second.front();
        const auto& blocks = model.namenode.file(file).blocks;
        const BlockId block =
            blocks[static_cast<std::size_t>(pick(static_cast<std::int64_t>(blocks.size())))];
        const auto& replicas = model.namenode.block(block).replicas;
        const NodeId holder = replicas[static_cast<std::size_t>(
            pick(static_cast<std::int64_t>(replicas.size())))];
        if (!model.dn(holder).alive() || !model.dn(holder).has_block(block)) {
          continue;
        }
        both([&](auto& w) {
          w.dn(holder).read_block(block, kDefaultBlockSize, it->first,
                                  [](const BlockReadResult&) {});
        });
      } else if (roll < 57) {  // a crash, declared dead
        if (!model.namenode.is_node_alive(node)) continue;
        both([&](auto& w) {
          if (w.dn(node).alive()) w.dn(node).fail();
          w.namenode.set_node_alive(node, false);
          w.master.on_node_failure(node);
        });
      } else if (roll < 62) {  // a spurious death: the process lives on
        if (!model.namenode.is_node_alive(node)) continue;
        both([&](auto& w) {
          w.namenode.set_node_alive(node, false);
          w.master.on_node_failure(node);
        });
      } else if (roll < 72) {  // a dead node rejoins
        if (model.namenode.is_node_alive(node)) continue;
        both([&](auto& w) {
          if (!w.dn(node).alive()) w.dn(node).restart();
          w.namenode.set_node_alive(node, true);
          w.master.on_node_rejoin(node);
        });
      } else if (roll < 78) {  // a replica rots and is reported
        const FileId file = model.files[static_cast<std::size_t>(
            pick(static_cast<std::int64_t>(model.files.size())))];
        const auto& blocks = model.namenode.file(file).blocks;
        const BlockId block =
            blocks[static_cast<std::size_t>(pick(static_cast<std::int64_t>(blocks.size())))];
        const auto& replicas = model.namenode.block(block).replicas;
        const NodeId holder = replicas[static_cast<std::size_t>(
            pick(static_cast<std::int64_t>(replicas.size())))];
        if (model.namenode.is_replica_corrupt(block, holder)) continue;
        both([&](auto& w) {
          w.namenode.mark_replica_corrupt(block, holder);
          w.slave(holder).purge_block(block);
          w.master.on_replica_corrupt(block, holder);
        });
      } else if (roll < 80) {  // the master fails over
        both([&](auto& w) {
          w.master.fail();
          w.master.restart();
        });
      } else {
        const Duration span = Duration::millis(rng.uniform_int(1, 4000));
        both([&](auto& w) { w.sim.run(w.sim.now() + span); });
      }
      const std::string diff = first_difference(model, table, submitted);
      ASSERT_TRUE(diff.empty()) << "after op " << op << ": " << diff;
    }
    both([](auto& w) { w.sim.run(); });
    const std::string diff = first_difference(model, table, submitted);
    ASSERT_TRUE(diff.empty()) << "at the end: " << diff;
    for (const TraceEvent& event : table.trace.events()) {
      if (event.type == TraceEventType::kMigrationRetry) ++retries;
    }
    reclaimed += table.master.stats().rejoin_reclaimed;
    purged += table.master.stats().rejoin_purged;
  }
  // The streams reach the reroute and both rejoin outcomes.
  EXPECT_GT(retries, 100u);
  EXPECT_GT(reclaimed, 10u);
  EXPECT_GT(purged, 10u);
  std::cout << "[table] " << retries << " reroutes, " << reclaimed
            << " references reclaimed and " << purged
            << " purged on rejoin\n";
}

}  // namespace
}  // namespace ignem

#include "dfs/dfs_client.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "sim/simulator.h"
#include "test_util.h"

namespace ignem {
namespace {

class DfsClientTest : public ::testing::Test {
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
    network_ = std::make_unique<Network>(sim_, nodes, NetworkProfile{});
    client_ = std::make_unique<DfsClient>(sim_, *namenode_, *network_,
                                          &metrics_);
  }

  BlockId one_block_file(const std::string& path) {
    const FileId id = namenode_->create_file(path, 64 * kMiB);
    return namenode_->file(id).blocks[0];
  }

  BlockReadRecord read(NodeId reader, BlockId block, JobId job = JobId(1)) {
    BlockReadRecord out;
    client_->read_block(reader, block, job,
                        [&](const BlockReadRecord& r) { out = r; });
    sim_.run();
    return out;
  }

  Simulator sim_;
  RunMetrics metrics_;
  std::vector<std::unique_ptr<DataNode>> datanodes_;
  std::unique_ptr<NameNode> namenode_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<DfsClient> client_;
};

TEST_F(DfsClientTest, LocalReplicaPreferredOverRemote) {
  build(4, 4);  // replica everywhere -> reader always has one
  const BlockId block = one_block_file("/a");
  const auto record = read(NodeId(2), block);
  EXPECT_FALSE(record.remote);
  EXPECT_FALSE(record.from_memory);
  EXPECT_EQ(record.bytes, 64 * kMiB);
}

TEST_F(DfsClientTest, RemoteReadWhenNoLocalReplica) {
  build(4, 1);
  const BlockId block = one_block_file("/a");
  const NodeId holder = namenode_->block(block).replicas[0];
  NodeId reader = NodeId((holder.value() + 1) % 4);
  const auto record = read(reader, block);
  EXPECT_TRUE(record.remote);
  EXPECT_GT(record.duration.to_seconds(), 0.0);
}

TEST_F(DfsClientTest, RemoteCachedBeatsLocalDisk) {
  build(4, 4);
  const BlockId block = one_block_file("/a");
  // Another node has it in memory; reader has it on disk.
  datanodes_[3]->cache().lock(block, 64 * kMiB);
  const auto record = read(NodeId(0), block);
  EXPECT_TRUE(record.remote);
  EXPECT_TRUE(record.from_memory);
  EXPECT_EQ(record.source, NodeId(3));
  // RAM + network is far faster than the contention-free local HDD read.
  const auto local = read(NodeId(1), BlockId(one_block_file("/b")));
  EXPECT_LT(record.duration.to_seconds(), local.duration.to_seconds());
}

TEST_F(DfsClientTest, LocalCachedIsFastest) {
  build(4, 4);
  const BlockId block = one_block_file("/a");
  datanodes_[1]->cache().lock(block, 64 * kMiB);
  const auto record = read(NodeId(1), block);
  EXPECT_FALSE(record.remote);
  EXPECT_TRUE(record.from_memory);
  EXPECT_LT(record.duration.to_seconds(), 0.1);
}

TEST_F(DfsClientTest, DeadReplicaAvoided) {
  build(4, 2);
  const BlockId block = one_block_file("/a");
  const auto replicas = namenode_->block(block).replicas;
  namenode_->set_node_alive(replicas[0], false);
  const auto record = read(replicas[0], block);  // reader node itself is dead as a DN
  // Must have read from the surviving replica over the network.
  EXPECT_TRUE(record.remote);
}

TEST_F(DfsClientTest, PreferredLocationsPutCachedFirst) {
  build(4, 3);
  const BlockId block = one_block_file("/a");
  const auto replicas = namenode_->block(block).replicas;
  datanodes_[static_cast<std::size_t>(replicas[2].value())]->cache().lock(
      block, 64 * kMiB);
  const auto preferred = client_->preferred_locations(block);
  ASSERT_EQ(preferred.size(), 3u);
  EXPECT_EQ(preferred[0], replicas[2]);
}

TEST_F(DfsClientTest, CachedCopyOnFailedDiskStillEligible) {
  // The block sits in the sole holder's locked memory while its disk is
  // fail-stopped: the cached copy must still serve the read.
  build(4, 1);
  const BlockId block = one_block_file("/a");
  const NodeId holder = namenode_->block(block).replicas[0];
  DataNode& dn = *datanodes_[static_cast<std::size_t>(holder.value())];
  dn.cache().lock(block, 64 * kMiB);
  dn.set_disk_failed(true);
  const auto record = read(NodeId((holder.value() + 1) % 4), block);
  EXPECT_FALSE(record.failed);
  EXPECT_TRUE(record.from_memory);
  EXPECT_EQ(record.source, holder);
}

TEST_F(DfsClientTest, RemoteDiskTieBreaksByNodeId) {
  build(4, 2);
  const BlockId block = one_block_file("/a");
  std::vector<NodeId> replicas = namenode_->block(block).replicas;
  std::sort(replicas.begin(), replicas.end());
  NodeId reader;
  for (std::int64_t i = 0; i < 4; ++i) {
    if (std::find(replicas.begin(), replicas.end(), NodeId(i)) ==
        replicas.end()) {
      reader = NodeId(i);
      break;
    }
  }
  ASSERT_TRUE(reader.valid());
  // Both holders idle: equal load, so the smallest node id must win.
  const auto record = read(reader, block);
  EXPECT_TRUE(record.remote);
  EXPECT_EQ(record.source, replicas.front());
}

TEST_F(DfsClientTest, RemoteDiskPrefersLeastLoadedReplica) {
  build(4, 2);
  const BlockId block = one_block_file("/a");
  std::vector<NodeId> replicas = namenode_->block(block).replicas;
  std::sort(replicas.begin(), replicas.end());
  NodeId reader;
  for (std::int64_t i = 0; i < 4; ++i) {
    if (std::find(replicas.begin(), replicas.end(), NodeId(i)) ==
        replicas.end()) {
      reader = NodeId(i);
      break;
    }
  }
  ASSERT_TRUE(reader.valid());
  // Busy the tie-break winner's device; load must steer to the other holder.
  datanodes_[static_cast<std::size_t>(replicas[0].value())]
      ->primary_device()
      .read(1 * kGiB, [] {});
  const auto record = read(reader, block);
  EXPECT_TRUE(record.remote);
  EXPECT_EQ(record.source, replicas[1]);
}

TEST_F(DfsClientTest, ReadFailsTerminallyAtDeadline) {
  // Sole replica behind a fail-stopped disk: the retry loop must give up at
  // the deadline with failed=true instead of retrying forever (sim_.run()
  // returning at all proves the loop terminated).
  build(2, 1);
  const BlockId block = one_block_file("/a");
  const NodeId holder = namenode_->block(block).replicas[0];
  datanodes_[static_cast<std::size_t>(holder.value())]->set_disk_failed(true);
  const double deadline = DfsClient::kReadDeadline.to_seconds();
  const auto record = read(NodeId((holder.value() + 1) % 2), block);
  EXPECT_TRUE(record.failed);
  EXPECT_GE(record.duration.to_seconds(), deadline);
  EXPECT_LT(record.duration.to_seconds(), deadline + 0.6);
  ASSERT_EQ(metrics_.block_reads().size(), 1u);
  EXPECT_TRUE(metrics_.block_reads()[0].failed);
}

TEST_F(DfsClientTest, ReadRecoversWhenDiskReturnsBeforeDeadline) {
  build(2, 1);
  const BlockId block = one_block_file("/a");
  const NodeId holder = namenode_->block(block).replicas[0];
  DataNode& dn = *datanodes_[static_cast<std::size_t>(holder.value())];
  dn.set_disk_failed(true);
  sim_.schedule(Duration::seconds(5), [&dn] { dn.set_disk_failed(false); });
  const auto record = read(NodeId((holder.value() + 1) % 2), block);
  EXPECT_FALSE(record.failed);
  EXPECT_GE(record.duration.to_seconds(), 5.0);
}

TEST_F(DfsClientTest, MetricsRecorded) {
  build(2, 2);
  const BlockId block = one_block_file("/a");
  const auto record = read(NodeId(0), block, JobId(42));
  EXPECT_EQ(record.job, JobId(42));
  EXPECT_EQ(record.reader, NodeId(0));
  ASSERT_EQ(metrics_.block_reads().size(), 1u);
  const auto& sample = metrics_.block_reads()[0];
  EXPECT_EQ(sample.bytes, 64 * kMiB);
  EXPECT_EQ(sample.start, record.start);
  EXPECT_EQ(sample.duration, record.duration);
}

TEST_F(DfsClientTest, MigrateWithoutServiceIsNoOp) {
  build(2, 2);
  MigrationRequest request;
  request.job = JobId(1);
  request.files = {namenode_->lookup("/nope")};
  EXPECT_FALSE(client_->has_migration_service());
  client_->migrate(request);  // must not crash
}

class CountingService : public MigrationService {
 public:
  void request(const MigrationRequest& r) override {
    ++calls;
    last = r;
  }
  int calls = 0;
  MigrationRequest last;
};

TEST_F(DfsClientTest, MigrateForwardsToService) {
  build(2, 2);
  CountingService service;
  client_->set_migration_service(&service);
  MigrationRequest request;
  request.op = MigrationOp::kEvict;
  request.job = JobId(9);
  client_->migrate(request);
  EXPECT_EQ(service.calls, 1);
  EXPECT_EQ(service.last.op, MigrationOp::kEvict);
  EXPECT_EQ(service.last.job, JobId(9));
}


// The read path as it stood when every rule re-derived its facts:
// choose_replica and preferred_locations verbatim (a fresh live_locations
// vector each, a pool probe per rule), and the retry loop unchanged but for
// the size DataNode::read_block now takes from its caller. The model of
// DfsClientView.MatchesPerCallModel.
class PerCallClient {
 public:
  using ReadCallback = DfsClient::ReadCallback;

  PerCallClient(Simulator& sim, NameNode& namenode, Network& network,
                RunMetrics* /*metrics*/)
      : sim_(sim), namenode_(namenode), network_(network) {}

  void read_block(NodeId reader, BlockId block, JobId job,
                  ReadCallback on_complete) {
    attempt_read(reader, block, job, sim_.now(), std::move(on_complete));
  }

  std::vector<NodeId> preferred_locations(BlockId block) const {
    std::vector<NodeId> locations = namenode_.live_locations(block);
    std::stable_partition(locations.begin(), locations.end(),
                          [this, block](NodeId node) {
                            return namenode_.datanode(node)->has_promoted_copy(block);
                          });
    return locations;
  }

  const DfsStats& stats() const { return stats_; }

 private:
  NodeId choose_replica(NodeId reader, BlockId block) const {
    std::vector<NodeId> locations;
    for (const NodeId node : namenode_.live_locations(block)) {
      const DataNode* dn = namenode_.datanode(node);
      if (!dn->alive()) continue;
      if (!dn->has_promoted_copy(block) && !dn->disk_ok()) continue;
      if (!network_.reachable(node, reader)) continue;
      locations.push_back(node);
    }
    if (locations.empty()) return NodeId::invalid();
    const bool reader_has_replica =
        std::find(locations.begin(), locations.end(), reader) != locations.end();

    // 1. Local memory-resident copy.
    if (reader_has_replica &&
        namenode_.datanode(reader)->has_promoted_copy(block)) {
      return reader;
    }
    // 2. Any memory-resident copy (remote RAM + network beats local disk).
    for (const NodeId node : locations) {
      if (namenode_.datanode(node)->has_promoted_copy(block)) return node;
    }
    // 3. Local disk.
    if (reader_has_replica) return reader;
    // 4. Remote disk: pick the least-loaded replica's device, breaking ties by
    //    node id for determinism.
    NodeId best = locations.front();
    std::size_t best_load = namenode_.datanode(best)->primary_device().active_requests();
    for (const NodeId node : locations) {
      const std::size_t load =
          namenode_.datanode(node)->primary_device().active_requests();
      if (load < best_load || (load == best_load && node < best)) {
        best = node;
        best_load = load;
      }
    }
    return best;
  }

  void fail_read(NodeId reader, BlockId block, JobId job, SimTime start,
                 const ReadCallback& on_complete) {
    BlockReadRecord record;
    record.block = block;
    record.job = job;
    record.reader = reader;
    record.bytes = namenode_.block(block).size;
    record.start = start;
    record.duration = sim_.now() - start;
    record.failed = true;
    ++stats_.reads_failed;
    on_complete(record);
  }

  void retry_read(NodeId reader, BlockId block, JobId job, SimTime start,
                  ReadCallback on_complete, Duration delay,
                  std::uint64_t* cause) {
    if (sim_.now() - start >= DfsClient::kReadDeadline) {
      fail_read(reader, block, job, start, on_complete);
      return;
    }
    ++stats_.retries;
    if (cause != nullptr) ++*cause;
    sim_.schedule(delay,
                  [this, reader, block, job, start,
                   cb = std::move(on_complete)]() mutable {
                    attempt_read(reader, block, job, start, std::move(cb));
                  },
                  EventClass::kRetry);
  }

  void attempt_read(NodeId reader, BlockId block, JobId job, SimTime start,
                    ReadCallback on_complete) {
    const NodeId source = choose_replica(reader, block);
    if (!source.valid()) {
      retry_read(reader, block, job, start, std::move(on_complete),
                 DfsClient::kReadRetryDelay, nullptr);
      return;
    }
    DataNode* source_node = namenode_.datanode(source);
    const Bytes bytes = namenode_.block(block).size;
    const bool remote = source != reader;

    source_node->read_block(
        block, bytes, job,
        [this, reader, source, block, job, bytes, start, remote,
         cb = std::move(on_complete)](const BlockReadResult& local) {
          if (local.failed) {
            retry_read(reader, block, job, start, cb,
                       DfsClient::kReadRetryDelay, &stats_.replica_failovers);
            return;
          }
          if (local.corrupt) {
            const Duration delay = choose_replica(reader, block) == source
                                       ? DfsClient::kReadRetryDelay
                                       : Duration::zero();
            retry_read(reader, block, job, start, cb, delay,
                       &stats_.checksum_failovers);
            return;
          }
          auto finish = [this, reader, source, block, job, bytes, start,
                         remote, from_memory = local.from_memory, cb]() {
            BlockReadRecord record;
            record.block = block;
            record.job = job;
            record.reader = reader;
            record.source = source;
            record.bytes = bytes;
            record.start = start;
            record.duration = sim_.now() - start;
            record.from_memory = from_memory;
            record.remote = remote;
            ++stats_.reads_completed;
            if (from_memory) ++stats_.memory_reads;
            if (remote) ++stats_.remote_reads;
            cb(record);
          };
          if (remote) {
            network_.transfer(
                source, reader, bytes, finish,
                [this, reader, block, job, start, cb] {
                  retry_read(reader, block, job, start, cb,
                             DfsClient::kReadRetryDelay,
                             &stats_.replica_failovers);
                });
          } else {
            finish();
          }
        });
  }

  Simulator& sim_;
  NameNode& namenode_;
  Network& network_;
  DfsStats stats_;
};

constexpr std::int64_t kViewNodes = 8;
constexpr int kViewRacks = 2;

// One cluster and one client; a stream drives two of them, one per client
// type, through the same operations.
template <typename Client>
struct ReadWorld {
  explicit ReadWorld(std::uint64_t seed)
      : namenode(Rng(seed), 3, kDefaultBlockSize, kViewRacks),
        network(sim, kViewNodes, NetworkProfile{}, kViewRacks) {
    for (std::int64_t i = 0; i < kViewNodes; ++i) {
      datanodes.push_back(std::make_unique<DataNode>(
          sim, NodeId(i), hdd_profile(), 512 * kMiB,
          Rng(seed * 31 + static_cast<std::uint64_t>(i))));
      namenode.register_datanode(datanodes.back().get());
      datanodes.back()->set_corruption_reporter(
          [this](NodeId node, BlockId block, bool cached, CorruptionSource) {
            report(node, block, cached);
          });
    }
    client = std::make_unique<Client>(sim, namenode, network, nullptr);
    for (int f = 0; f < 6; ++f) {
      namenode.create_file("/f" + std::to_string(f), 2 * kDefaultBlockSize);
    }
  }

  DataNode& dn(NodeId node) {
    return *datanodes[static_cast<std::size_t>(node.value())];
  }

  // The integrity plane's part, cut down: a rotten pool copy is purged; a
  // rotten home replica is marked in the namespace, except that one report
  // in three is lost, so the reader may pick the same copy again and back
  // off.
  void report(NodeId node, BlockId block, bool cached) {
    if (cached) {
      dn(node).cache().unlock(block);
      return;
    }
    if ((node.value() + block.value()) % 3 == 0) return;
    const auto& replicas = namenode.block(block).replicas;
    if (std::find(replicas.begin(), replicas.end(), node) == replicas.end() ||
        namenode.is_replica_corrupt(block, node)) {
      return;
    }
    namenode.mark_replica_corrupt(block, node);
  }

  void read(NodeId reader, BlockId block, JobId job) {
    client->read_block(reader, block, job, [this](const BlockReadRecord& r) {
      records.push_back(r);
    });
  }

  Simulator sim;
  NameNode namenode;
  Network network;
  std::vector<std::unique_ptr<DataNode>> datanodes;
  std::unique_ptr<Client> client;
  std::vector<BlockReadRecord> records;  ///< In completion order.
};

// Where the two clients part ways, or empty: every read's record (source,
// tier, duration, outcome), the read counters, each node's reads per tier
// (every attempt's chosen source) and the locality hint of every block.
template <typename A, typename B>
std::string first_difference(ReadWorld<A>& model, ReadWorld<B>& view) {
  std::ostringstream out;
  if (model.records.size() != view.records.size()) {
    out << model.records.size() << " reads done, " << view.records.size()
        << " in the view";
    return out.str();
  }
  for (std::size_t i = 0; i < model.records.size(); ++i) {
    const BlockReadRecord& m = model.records[i];
    const BlockReadRecord& v = view.records[i];
    if (m.block != v.block || m.reader != v.reader || m.source != v.source ||
        m.bytes != v.bytes || m.start != v.start || m.duration != v.duration ||
        m.from_memory != v.from_memory || m.remote != v.remote ||
        m.failed != v.failed) {
      out << "read " << i << " of block " << m.block << " by " << m.reader
          << ": source " << m.source << " vs " << v.source << ", duration "
          << m.duration.to_seconds() << " vs " << v.duration.to_seconds()
          << " s, failed " << m.failed << " vs " << v.failed;
      return out.str();
    }
  }
  const DfsStats& ms = model.client->stats();
  const DfsStats& vs = view.client->stats();
  if (ms.reads_completed != vs.reads_completed ||
      ms.reads_failed != vs.reads_failed ||
      ms.memory_reads != vs.memory_reads ||
      ms.remote_reads != vs.remote_reads || ms.retries != vs.retries ||
      ms.replica_failovers != vs.replica_failovers ||
      ms.checksum_failovers != vs.checksum_failovers) {
    out << "read counters differ: retries " << ms.retries << " vs "
        << vs.retries << ", checksum failovers " << ms.checksum_failovers
        << " vs " << vs.checksum_failovers;
    return out.str();
  }
  for (std::int64_t n = 0; n < kViewNodes; ++n) {
    const DataNodeStats& m = model.dn(NodeId(n)).stats();
    const DataNodeStats& v = view.dn(NodeId(n)).stats();
    if (m.pool_reads != v.pool_reads || m.home_reads != v.home_reads) {
      out << "node " << n << " served " << m.pool_reads << "/" << m.home_reads
          << " pool/home reads, " << v.pool_reads << "/" << v.home_reads
          << " in the view";
      return out.str();
    }
  }
  for (const auto& [block, info] : model.namenode.all_blocks()) {
    if (model.client->preferred_locations(block) !=
        view.client->preferred_locations(block)) {
      out << "preferred locations of block " << block << " differ";
      return out.str();
    }
  }
  return "";
}

// The client resolves a block once per attempt and ranks its replicas in
// one pass; the per-call functions it replaced are the model. Each seeded
// stream drives both through pool lock/unlock churn, crashes (detected or
// not) and restarts, disk fail-stops, rot of home replicas and pool copies,
// invalidations, re-replication and partition cuts, with reads throughout.
TEST(DfsClientView, MatchesPerCallModel) {
  constexpr int kSeeds = 20;
  constexpr int kOps = 400;
  struct {
    std::uint64_t reads = 0, memory = 0, retries = 0, checksum = 0,
                  failed = 0;
  } seen;
  for (int seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const std::uint64_t world_seed = test::seed_for(900 + seed);
    ReadWorld<PerCallClient> model(world_seed);
    ReadWorld<DfsClient> view(world_seed);
    Rng rng(world_seed ^ 0x5eed);
    std::vector<BlockId> blocks;
    for (const auto& [block, info] : model.namenode.all_blocks()) {
      blocks.push_back(block);
    }
    std::sort(blocks.begin(), blocks.end());
    const auto both = [&](const auto& op) {
      op(model);
      op(view);
    };
    const auto any_node = [&] {
      return NodeId(rng.uniform_int(0, kViewNodes - 1));
    };
    const auto any_block = [&] {
      return blocks[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(blocks.size()) - 1))];
    };
    const auto any_of = [&](const std::vector<NodeId>& nodes) {
      return nodes[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes.size()) - 1))];
    };
    bool cut = false;
    for (int op = 1; op <= kOps; ++op) {
      const std::int64_t roll = rng.uniform_int(0, 99);
      if (roll < 30) {
        const NodeId reader = any_node();
        const BlockId block = any_block();
        const JobId job(op);
        both([&](auto& w) { w.read(reader, block, job); });
      } else if (roll < 42) {  // a page-in lands on a live holder
        const BlockId block = any_block();
        const NodeId node = any_of(model.namenode.block(block).replicas);
        both([&](auto& w) {
          DataNode& dn = w.dn(node);
          if (dn.alive()) dn.cache().lock(block, kDefaultBlockSize);
        });
      } else if (roll < 50) {  // an eviction
        const NodeId node = any_node();
        const std::vector<BlockId> pooled =
            model.dn(node).cache().blocks_sorted();
        if (pooled.empty()) continue;
        const BlockId block = pooled[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(pooled.size()) - 1))];
        both([&](auto& w) { w.dn(node).cache().unlock(block); });
      } else if (roll < 55) {  // a crash, declared dead or not yet
        const NodeId node = any_node();
        const bool declared = rng.uniform_int(0, 1) == 1;
        both([&](auto& w) {
          w.dn(node).fail();
          if (declared) w.namenode.set_node_alive(node, false);
        });
      } else if (roll < 60) {
        const NodeId node = any_node();
        both([&](auto& w) {
          w.dn(node).restart();
          w.namenode.set_node_alive(node, true);
        });
      } else if (roll < 64) {
        const NodeId node = any_node();
        const bool failed = rng.uniform_int(0, 1) == 1;
        both([&](auto& w) { w.dn(node).set_disk_failed(failed); });
      } else if (roll < 68) {  // rot of a home replica
        const BlockId block = any_block();
        const NodeId node = any_of(model.namenode.block(block).replicas);
        both([&](auto& w) { w.dn(node).corrupt_block(block); });
      } else if (roll < 71) {  // rot of a pool copy
        const NodeId node = any_node();
        const std::vector<BlockId> pooled =
            model.dn(node).cache().blocks_sorted();
        if (pooled.empty()) continue;
        const BlockId block = pooled.front();
        both([&](auto& w) { w.dn(node).corrupt_cached_copy(block); });
      } else if (roll < 74) {  // an invalidation, never of the last replica
        const BlockId block = any_block();
        const std::vector<NodeId> replicas =
            model.namenode.block(block).replicas;
        if (replicas.size() < 2) continue;
        const NodeId node = any_of(replicas);
        both([&](auto& w) { w.namenode.invalidate_replica(block, node); });
      } else if (roll < 77) {  // re-replication onto a live non-holder
        const BlockId block = any_block();
        const NodeId node = any_node();
        const auto& replicas = model.namenode.block(block).replicas;
        if (!model.namenode.is_node_alive(node) ||
            std::find(replicas.begin(), replicas.end(), node) !=
                replicas.end()) {
          continue;
        }
        both([&](auto& w) { w.namenode.add_replica(block, node); });
      } else if (roll < 80) {  // a partition cut, or its heal
        std::vector<NodeId> side;
        for (std::int64_t n = 0; n < kViewNodes; ++n) {
          if (rng.uniform_int(0, 1) == 1) side.push_back(NodeId(n));
        }
        if (!cut && side.empty()) continue;
        both([&](auto& w) {
          if (cut) {
            w.network.reachability().unblock_group(1);
          } else {
            w.network.reachability().block_group(1, side);
            w.network.sever_partitioned_transfers();
          }
        });
        cut = !cut;
      } else {
        const Duration span = Duration::millis(rng.uniform_int(1, 3000));
        both([&](auto& w) { w.sim.run(w.sim.now() + span); });
      }
      const std::string diff = first_difference(model, view);
      ASSERT_TRUE(diff.empty()) << "after op " << op << ": " << diff;
    }
    both([](auto& w) { w.sim.run(); });  // every read ends by its deadline
    const std::string diff = first_difference(model, view);
    ASSERT_TRUE(diff.empty()) << "at the end: " << diff;
    const DfsStats& stats = view.client->stats();
    seen.reads += stats.reads_completed;
    seen.memory += stats.memory_reads;
    seen.retries += stats.retries;
    seen.checksum += stats.checksum_failovers;
    seen.failed += stats.reads_failed;
  }
  // The streams reach every outcome the comparison covers.
  EXPECT_GT(seen.reads, 1000u);
  EXPECT_GT(seen.memory, 100u);
  EXPECT_GT(seen.retries, 100u);
  EXPECT_GT(seen.checksum, 10u);
  EXPECT_GT(seen.failed, 0u);
  std::cout << "[view] " << seen.reads << " reads, " << seen.memory
            << " from memory, " << seen.retries << " retries, "
            << seen.checksum << " checksum failovers, " << seen.failed
            << " failed\n";
}

}  // namespace
}  // namespace ignem

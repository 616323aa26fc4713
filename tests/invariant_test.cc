// InvariantChecker suite: every rule fires on a crafted violating stream,
// and none fires across a seed sweep of real full-stack runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/sweep_runner.h"
#include "common/rng.h"
#include "core/testbed.h"
#include "obs/invariant_checker.h"
#include "obs/trace_recorder.h"
#include "test_util.h"
#include "workload/swim.h"

namespace ignem {
namespace {

// ---------------------------------------------------------------------------
// Harness for hand-built streams: one recorder, one checker, one rule.

struct RuleHarness {
  explicit RuleHarness(std::unique_ptr<InvariantRule> rule)
      : checker(/*install_default_rules=*/false) {
    checker.add_rule(std::move(rule));
    recorder.add_observer(&checker);
  }

  TraceRecorder recorder;
  InvariantChecker checker;
};

/// ReadProvenanceRule reads the replica map of the ReplicaAccountingRule
/// added before it, as in the default rule set.
struct ProvenanceHarness {
  ProvenanceHarness() : checker(/*install_default_rules=*/false) {
    auto replicas = std::make_unique<ReplicaAccountingRule>();
    auto provenance = std::make_unique<ReadProvenanceRule>(*replicas);
    checker.add_rule(std::move(replicas));
    checker.add_rule(std::move(provenance));
    recorder.add_observer(&checker);
  }

  TraceRecorder recorder;
  InvariantChecker checker;
};

TEST(InvariantRules, MonotoneTimeFiresOnBackwardClock) {
  RuleHarness h(std::make_unique<MonotoneTimeRule>());
  std::int64_t t = 100;
  h.recorder.set_clock([&t] { return SimTime(t); });
  h.recorder.emit(TraceEventType::kBlockReadStart, NodeId(0), BlockId(1));
  t = 50;  // clock runs backwards
  h.recorder.emit(TraceEventType::kBlockReadEnd, NodeId(0), BlockId(1));
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "monotone_time");
}

TEST(InvariantRules, MonotoneTimeAcceptsForwardClock) {
  RuleHarness h(std::make_unique<MonotoneTimeRule>());
  std::int64_t t = 0;
  h.recorder.set_clock([&t] { return SimTime(t); });
  for (int i = 0; i < 10; ++i) {
    h.recorder.emit(TraceEventType::kBlockReadStart, NodeId(0), BlockId(i));
    t += 5;  // equal or advancing times are both legal
    h.recorder.emit(TraceEventType::kBlockReadEnd, NodeId(0), BlockId(i));
  }
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

TEST(InvariantRules, ReplicaAccountingFiresOnDuplicateAdd) {
  RuleHarness h(std::make_unique<ReplicaAccountingRule>());
  h.recorder.emit(TraceEventType::kReplicaAdd, NodeId(2), BlockId(9),
                  JobId::invalid(), 64 * kMiB);
  h.recorder.emit(TraceEventType::kReplicaAdd, NodeId(2), BlockId(9),
                  JobId::invalid(), 64 * kMiB);
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "replica_accounting");
}

TEST(InvariantRules, ReadProvenanceFiresOnUnwrittenNode) {
  ProvenanceHarness h;
  h.recorder.emit(TraceEventType::kReplicaAdd, NodeId(0), BlockId(5),
                  JobId::invalid(), 64 * kMiB);
  // Node 3 never received block 5.
  h.recorder.emit(TraceEventType::kBlockReadStart, NodeId(3), BlockId(5),
                  JobId(1), 64 * kMiB);
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "read_provenance");
}

TEST(InvariantRules, ReadProvenanceFiresOnDeadNode) {
  ProvenanceHarness h;
  h.recorder.emit(TraceEventType::kReplicaAdd, NodeId(1), BlockId(5),
                  JobId::invalid(), 64 * kMiB);
  h.recorder.emit(TraceEventType::kNodeDead, NodeId(1));
  h.recorder.emit(TraceEventType::kBlockReadStart, NodeId(1), BlockId(5),
                  JobId(1), 64 * kMiB);
  ASSERT_FALSE(h.checker.ok());
  // Revival clears the state: the same read is legal again.
  ProvenanceHarness h2;
  h2.recorder.emit(TraceEventType::kReplicaAdd, NodeId(1), BlockId(5),
                   JobId::invalid(), 64 * kMiB);
  h2.recorder.emit(TraceEventType::kNodeDead, NodeId(1));
  h2.recorder.emit(TraceEventType::kNodeAlive, NodeId(1));
  h2.recorder.emit(TraceEventType::kBlockReadStart, NodeId(1), BlockId(5),
                   JobId(1), 64 * kMiB);
  EXPECT_TRUE(h2.checker.ok()) << h2.checker.report();
}

TEST(InvariantRules, BandwidthConservationFiresOnOversubscription) {
  RuleHarness h(std::make_unique<BandwidthConservationRule>());
  // 4 streams at 40 MiB/s each out of a 100 MiB/s sequential channel:
  // 160 > 100, the shares sum past capacity.
  h.recorder.emit(TraceEventType::kBandwidthChange, NodeId(0),
                  BlockId::invalid(), JobId::invalid(),
                  /*bytes=*/static_cast<Bytes>(mib_per_sec(100.0)),
                  /*detail=*/4, /*value=*/mib_per_sec(40.0));
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "bandwidth_conservation");
}

TEST(InvariantRules, BandwidthConservationAcceptsFairShares) {
  RuleHarness h(std::make_unique<BandwidthConservationRule>());
  h.recorder.emit(TraceEventType::kBandwidthChange, NodeId(0),
                  BlockId::invalid(), JobId::invalid(),
                  static_cast<Bytes>(mib_per_sec(100.0)),
                  /*detail=*/4, /*value=*/mib_per_sec(25.0));
  h.recorder.emit(TraceEventType::kBandwidthChange, NodeId(0),
                  BlockId::invalid(), JobId::invalid(),
                  static_cast<Bytes>(mib_per_sec(100.0)),
                  /*detail=*/0, /*value=*/0.0);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

TEST(InvariantRules, CacheCapacityFiresOnOverflow) {
  RuleHarness h(std::make_unique<CacheCapacityRule>());
  h.recorder.emit(TraceEventType::kCacheInit, NodeId(0), BlockId::invalid(),
                  JobId::invalid(), /*capacity=*/1 * kGiB);
  // A lock whose post-op occupancy (detail) exceeds the declared capacity.
  h.recorder.emit(TraceEventType::kCacheLock, NodeId(0), BlockId(1),
                  JobId::invalid(), 2 * kGiB, /*detail=*/2 * kGiB);
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "cache_capacity");
}

TEST(InvariantRules, CacheCapacityFiresOnNegativeOccupancy) {
  RuleHarness h(std::make_unique<CacheCapacityRule>());
  h.recorder.emit(TraceEventType::kCacheInit, NodeId(0), BlockId::invalid(),
                  JobId::invalid(), 1 * kGiB);
  h.recorder.emit(TraceEventType::kCacheUnlock, NodeId(0), BlockId(1),
                  JobId::invalid(), 64 * kMiB, /*detail=*/-64 * kMiB);
  ASSERT_FALSE(h.checker.ok());
}

TEST(InvariantRules, SingleMigrationFiresOnConcurrentStart) {
  RuleHarness h(std::make_unique<SingleMigrationRule>());
  h.recorder.emit(TraceEventType::kMigrationStart, NodeId(0), BlockId(1),
                  JobId(1), 64 * kMiB);
  h.recorder.emit(TraceEventType::kMigrationStart, NodeId(0), BlockId(2),
                  JobId(1), 64 * kMiB);
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "single_migration");
}

TEST(InvariantRules, SingleMigrationAcceptsSerialAndParallelNodes) {
  RuleHarness h(std::make_unique<SingleMigrationRule>());
  // Serial on node 0; node 1 migrating concurrently is fine (the rule is
  // per-slave, §III-A1).
  h.recorder.emit(TraceEventType::kMigrationStart, NodeId(0), BlockId(1),
                  JobId(1), 64 * kMiB);
  h.recorder.emit(TraceEventType::kMigrationStart, NodeId(1), BlockId(2),
                  JobId(1), 64 * kMiB);
  h.recorder.emit(TraceEventType::kMigrationComplete, NodeId(0), BlockId(1),
                  JobId::invalid(), 64 * kMiB);
  h.recorder.emit(TraceEventType::kMigrationStart, NodeId(0), BlockId(3),
                  JobId(1), 64 * kMiB);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

TEST(InvariantRules, QueueIntegrityFiresOnPhantomDequeue) {
  RuleHarness h(std::make_unique<QueueIntegrityRule>());
  h.recorder.emit(TraceEventType::kMigrationDequeue, NodeId(0), BlockId(1),
                  JobId(1), 64 * kMiB);
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "queue_integrity");
}

TEST(InvariantRules, QueueIntegrityAcceptsMatchedPairs) {
  RuleHarness h(std::make_unique<QueueIntegrityRule>());
  h.recorder.emit(TraceEventType::kMigrationEnqueue, NodeId(0), BlockId(1),
                  JobId(1), 64 * kMiB);
  h.recorder.emit(TraceEventType::kMigrationEnqueue, NodeId(0), BlockId(2),
                  JobId(2), 64 * kMiB);
  h.recorder.emit(TraceEventType::kMigrationDequeue, NodeId(0), BlockId(1),
                  JobId(1), 64 * kMiB);
  h.recorder.emit(TraceEventType::kMigrationDrop, NodeId(0), BlockId(2),
                  JobId(2), 64 * kMiB);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

TEST(InvariantRules, HotPromotionFiresOnColdBlock) {
  RuleHarness h(std::make_unique<HotPromotionRule>());
  // One read observed, threshold 2: the block is not hot yet.
  h.recorder.emit(TraceEventType::kBlockReadEnd, NodeId(0), BlockId(1),
                  JobId(1), 64 * kMiB);
  h.recorder.emit(TraceEventType::kHotPromote, NodeId(0), BlockId(1),
                  JobId::invalid(), 64 * kMiB, /*detail=*/1, /*value=*/2.0);
  ASSERT_FALSE(h.checker.ok());
  EXPECT_EQ(h.checker.violations().front().rule, "hot_promotion");
}

TEST(InvariantRules, HotPromotionAcceptsHotBlock) {
  RuleHarness h(std::make_unique<HotPromotionRule>());
  h.recorder.emit(TraceEventType::kBlockReadEnd, NodeId(0), BlockId(1),
                  JobId(1), 64 * kMiB);
  h.recorder.emit(TraceEventType::kBlockReadEnd, NodeId(0), BlockId(1),
                  JobId(2), 64 * kMiB);
  h.recorder.emit(TraceEventType::kHotPromote, NodeId(0), BlockId(1),
                  JobId::invalid(), 64 * kMiB, /*detail=*/2, /*value=*/2.0);
  EXPECT_TRUE(h.checker.ok()) << h.checker.report();
}

// ---------------------------------------------------------------------------
// Differential: the shared flat replica model against the two map/set copies
// it replaced, kept here as the model.

/// ReplicaAccountingRule as it stood with its own std::map of std::sets.
class MapReplicaAccountingModel : public InvariantRule {
 public:
  const char* name() const override { return "replica_accounting"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override {
    switch (event.type) {
      case TraceEventType::kReplicaAdd:
        if (!blocks_[event.block].insert(event.node).second) {
          std::ostringstream os;
          os << "node " << event.node << " already holds a replica of block "
             << event.block;
          violate(event, os.str(), out);
        }
        break;
      case TraceEventType::kReplicaInvalidate: {
        const auto it = blocks_.find(event.block);
        if (it == blocks_.end() || it->second.erase(event.node) == 0) {
          std::ostringstream os;
          os << "node " << event.node
             << " invalidated a replica it never held of block "
             << event.block;
          violate(event, os.str(), out);
        }
        break;
      }
      default:
        break;
    }
  }

  std::size_t replica_count(BlockId block) const {
    const auto it = blocks_.find(block);
    return it == blocks_.end() ? 0 : it->second.size();
  }
  bool has_replica(BlockId block, NodeId node) const {
    const auto it = blocks_.find(block);
    return it != blocks_.end() && it->second.contains(node);
  }

 private:
  std::map<BlockId, std::set<NodeId>> blocks_;
};

/// ReadProvenanceRule as it stood with its own second copy of the map.
class MapReadProvenanceModel : public InvariantRule {
 public:
  const char* name() const override { return "read_provenance"; }
  void check(const TraceEvent& event,
             std::vector<InvariantViolation>& out) override {
    switch (event.type) {
      case TraceEventType::kReplicaAdd:
        replicas_[event.block].insert(event.node);
        break;
      case TraceEventType::kReplicaInvalidate:
        replicas_[event.block].erase(event.node);
        break;
      case TraceEventType::kNodeDead:
        dead_nodes_.insert(event.node);
        break;
      case TraceEventType::kNodeAlive:
        dead_nodes_.erase(event.node);
        break;
      case TraceEventType::kBlockReadStart: {
        const auto it = replicas_.find(event.block);
        if (it == replicas_.end() || !it->second.contains(event.node)) {
          std::ostringstream os;
          os << "block " << event.block << " read on node " << event.node
             << " which never received a replica of it";
          violate(event, os.str(), out);
        }
        if (dead_nodes_.contains(event.node)) {
          std::ostringstream os;
          os << "block " << event.block << " read on dead node "
             << event.node;
          violate(event, os.str(), out);
        }
        break;
      }
      default:
        break;
    }
  }

 private:
  std::map<BlockId, std::set<NodeId>> replicas_;
  std::unordered_set<NodeId> dead_nodes_;
};

// 20 seeded streams of 5,000 events over up to 64 blocks and 8 nodes:
// adds (some duplicates), invalidates (some of replicas never held), node
// deaths and rejoins, and reads on holders, non-holders and dead nodes. Both
// checkers hear every event; after each one their new violations must agree
// in rule, seq and message, and every 250 events the two replica maps must
// agree on every (block, node).
TEST(InvariantDifferential, FlatReplicaModelMatchesMapModel) {
  constexpr int kSeeds = 20;
  constexpr int kEvents = 5000;
  constexpr int kCompareEvery = 250;
  constexpr std::int64_t kMaxBlocks = 64;
  constexpr std::int64_t kMaxNodes = 8;
  struct Coverage {
    int add = 0, duplicate_add = 0, invalidate = 0, phantom_invalidate = 0;
    int death = 0, rejoin = 0;
    int read_held = 0, read_unheld = 0, read_dead = 0;
  } seen;

  for (int stream = 0; stream < kSeeds; ++stream) {
    const std::uint64_t seed = test::seed_for(9100 + stream);
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const std::int64_t blocks = rng.uniform_int(1, kMaxBlocks);
    const std::int64_t nodes = rng.uniform_int(1, kMaxNodes);

    InvariantChecker flat(/*install_default_rules=*/false);
    auto flat_rule = std::make_unique<ReplicaAccountingRule>();
    const ReplicaAccountingRule& flat_replicas = *flat_rule;
    flat.add_rule(std::move(flat_rule));
    flat.add_rule(std::make_unique<ReadProvenanceRule>(flat_replicas));
    InvariantChecker model(/*install_default_rules=*/false);
    auto model_rule = std::make_unique<MapReplicaAccountingModel>();
    const MapReplicaAccountingModel& model_replicas = *model_rule;
    model.add_rule(std::move(model_rule));
    model.add_rule(std::make_unique<MapReadProvenanceModel>());
    TraceRecorder recorder;
    recorder.add_observer(&flat);
    recorder.add_observer(&model);

    std::vector<bool> dead(static_cast<std::size_t>(nodes), false);
    const auto pick_where = [&](auto&& wanted) {
      std::vector<NodeId> candidates;
      for (std::int64_t n = 0; n < nodes; ++n) {
        if (wanted(NodeId(n))) candidates.push_back(NodeId(n));
      }
      if (candidates.empty()) return NodeId(rng.uniform_int(0, nodes - 1));
      return candidates[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(candidates.size()) - 1))];
    };

    std::size_t compared = 0;
    for (int i = 0; i < kEvents; ++i) {
      const BlockId block(rng.uniform_int(0, blocks - 1));
      NodeId node(rng.uniform_int(0, nodes - 1));
      const double kind = rng.next_double();
      if (kind < 0.35) {
        ++(model_replicas.has_replica(block, node) ? seen.duplicate_add
                                                   : seen.add);
        recorder.emit(TraceEventType::kReplicaAdd, node, block,
                      JobId::invalid(), 64 * kMiB);
      } else if (kind < 0.5) {
        ++(model_replicas.has_replica(block, node) ? seen.invalidate
                                                   : seen.phantom_invalidate);
        recorder.emit(TraceEventType::kReplicaInvalidate, node, block,
                      JobId::invalid(), 64 * kMiB);
      } else if (kind < 0.56) {
        ++seen.death;
        dead[static_cast<std::size_t>(node.value())] = true;
        recorder.emit(TraceEventType::kNodeDead, node);
      } else if (kind < 0.62) {
        node = pick_where([&](NodeId n) {
          return dead[static_cast<std::size_t>(n.value())];
        });
        if (dead[static_cast<std::size_t>(node.value())]) ++seen.rejoin;
        dead[static_cast<std::size_t>(node.value())] = false;
        recorder.emit(TraceEventType::kNodeAlive, node);
      } else {
        // A holder, any node, or a dead node, each a third of the time.
        const std::int64_t target = rng.uniform_int(0, 2);
        if (target == 0) {
          node = pick_where(
              [&](NodeId n) { return model_replicas.has_replica(block, n); });
        } else if (target == 2) {
          node = pick_where([&](NodeId n) {
            return dead[static_cast<std::size_t>(n.value())];
          });
        }
        if (dead[static_cast<std::size_t>(node.value())]) ++seen.read_dead;
        ++(model_replicas.has_replica(block, node) ? seen.read_held
                                                   : seen.read_unheld);
        recorder.emit(TraceEventType::kBlockReadStart, node, block, JobId(1),
                      64 * kMiB);
      }

      ASSERT_EQ(flat.violations().size(), model.violations().size())
          << "after event " << i << ":\nflat:\n"
          << flat.report() << "model:\n"
          << model.report();
      for (; compared < model.violations().size(); ++compared) {
        const InvariantViolation& got = flat.violations()[compared];
        const InvariantViolation& want = model.violations()[compared];
        EXPECT_EQ(got.rule, want.rule) << "event " << i;
        EXPECT_EQ(got.seq, want.seq) << "event " << i;
        EXPECT_EQ(got.message, want.message) << "event " << i;
      }
      if ((i + 1) % kCompareEvery != 0) continue;
      for (std::int64_t b = 0; b < kMaxBlocks; ++b) {
        ASSERT_EQ(flat_replicas.replica_count(BlockId(b)),
                  model_replicas.replica_count(BlockId(b)))
            << "block " << b << " after event " << i;
        for (std::int64_t n = 0; n < kMaxNodes; ++n) {
          ASSERT_EQ(flat_replicas.has_replica(BlockId(b), NodeId(n)),
                    model_replicas.has_replica(BlockId(b), NodeId(n)))
              << "block " << b << ", node " << n << " after event " << i;
        }
      }
    }
  }
  // Every branch of both rules was taken.
  EXPECT_GT(seen.add, 0);
  EXPECT_GT(seen.duplicate_add, 0);
  EXPECT_GT(seen.invalidate, 0);
  EXPECT_GT(seen.phantom_invalidate, 0);
  EXPECT_GT(seen.death, 0);
  EXPECT_GT(seen.rejoin, 0);
  EXPECT_GT(seen.read_held, 0);
  EXPECT_GT(seen.read_unheld, 0);
  EXPECT_GT(seen.read_dead, 0);
}

// ---------------------------------------------------------------------------
// Full-stack sweep: the default rule set stays clean across seeds and modes.

TestbedConfig checked_config(RunMode mode, std::uint64_t seed) {
  TestbedConfig config;
  config.mode = mode;
  config.cluster.node_count = 4;
  config.cluster.slots_per_node = 6;
  config.cache_capacity_per_node = 64 * kGiB;
  config.seed = test::seed_for(seed);
  config.check_invariants = true;
  return config;
}

SwimConfig sweep_swim(std::uint64_t seed) {
  SwimConfig config;
  config.job_count = 10;
  config.total_input = 2 * kGiB;
  config.tail_max = 1 * kGiB;
  config.mean_interarrival = Duration::seconds(1.0);
  config.seed = test::seed_for(seed);
  return config;
}

/// One seed's outcome, rich enough that equality across runner widths means
/// the runs really were identical (not merely all-clean).
struct SweepOutcome {
  std::uint64_t seed = 0;
  bool ok = false;
  std::string report;
  std::string replica_mismatch;
  std::uint64_t events_dispatched = 0;
  std::int64_t end_micros = 0;
  bool operator==(const SweepOutcome&) const = default;
};

SweepOutcome run_checked_seed(std::uint64_t seed) {
  Testbed testbed(checked_config(RunMode::kIgnem, seed));
  testbed.run_workload(build_swim_workload(testbed, sweep_swim(seed)));
  SweepOutcome out;
  out.seed = seed;
  out.ok = testbed.invariant_checker() != nullptr &&
           testbed.invariant_checker()->ok();
  if (testbed.invariant_checker() != nullptr) {
    out.report = testbed.invariant_checker()->report();
  }
  out.replica_mismatch = testbed.replica_model_mismatch();
  out.events_dispatched = testbed.sim().events_dispatched();
  out.end_micros = testbed.sim().now().count_micros();
  return out;
}

// The 20-seed sweep runs through the parallel sweep runner: every seed must
// be violation-free, and the result vector must not depend on the worker
// count (one worker versus the full pool yields identical outcomes in
// identical order).
TEST(InvariantSweep, TwentySeedsCleanAndOrderIndependent) {
  const auto run_all = [](std::size_t threads) {
    return bench::run_indexed_sweep(
        20, [](std::size_t i) { return run_checked_seed(i + 1); }, threads);
  };
  const std::vector<SweepOutcome> pooled = run_all(bench::sweep_thread_count());
  for (const SweepOutcome& out : pooled) {
    EXPECT_TRUE(out.ok) << "seed " << out.seed << ":\n" << out.report;
    EXPECT_EQ(out.replica_mismatch, "") << "seed " << out.seed;
    EXPECT_GT(out.events_dispatched, 0u) << "seed " << out.seed;
  }
  const std::vector<SweepOutcome> serial = run_all(1);
  ASSERT_EQ(pooled.size(), serial.size());
  for (std::size_t i = 0; i < pooled.size(); ++i) {
    EXPECT_TRUE(pooled[i] == serial[i])
        << "seed " << serial[i].seed
        << " differs between 1 worker and the pool (events "
        << serial[i].events_dispatched << " vs " << pooled[i].events_dispatched
        << ", end " << serial[i].end_micros << " vs " << pooled[i].end_micros
        << ")";
  }
}

TEST(InvariantSweepModes, AllModesCleanOnOneSeed) {
  for (const RunMode mode :
       {RunMode::kHdfs, RunMode::kHdfsInputsInRam, RunMode::kIgnem,
        RunMode::kInstantMigration, RunMode::kHotDataPromotion}) {
    Testbed testbed(checked_config(mode, 42));
    testbed.run_workload(build_swim_workload(testbed, sweep_swim(42)));
    EXPECT_TRUE(testbed.invariant_checker()->ok())
        << run_mode_name(mode) << ":\n"
        << testbed.invariant_checker()->report();
    EXPECT_EQ(testbed.replica_model_mismatch(), "") << run_mode_name(mode);
  }
}

}  // namespace
}  // namespace ignem

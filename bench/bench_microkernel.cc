// Microbenchmarks of the simulation substrate itself, on the shapes real
// runs produce rather than synthetic sizes:
//
//   1. Event-queue churn at the pending-event depths a SWIM run holds at
//      8, 128, 512 and 2048 nodes (peak pending 243 / 3.8k / 13.9k / 54k).
//      Every step pops or cancels one event and schedules a successor, so
//      the depth stays put; a warmed queue must churn with zero heap
//      calls, counted by this binary's own operator new/delete.
//   2. Raw dispatch throughput of the Simulator (push + drain), kernel
//      self-profile included: the best of five 1M-event loops.
//   3. Bandwidth churn on an HDD channel at 1, 2, 4 and 8 concurrent
//      block-sized streams — the range a device sees in the scale runs
//      (mean 1.0-1.6, peak 6). Every completion starts a successor.
//   4. Migration-queue churn.
//   5. The scrubber's cursor (DataNode::next_block_after) at 1,074 blocks
//      per node, the scale benchmark's shape, and at 16,384, a full 1 TB
//      HDD of the paper's testbed in 64 MiB blocks.
//   6. Replica placement (NameNode::create_file) at 128 nodes in 4 racks,
//      512 in 16 (the scale benchmark's swim shape) and 2048 in 64.
//   7. ResourceManager heartbeats at the queue depths the SWIM ladder's RM
//      holds: 16 requests at 128 nodes, 57 at 512 and 226 at 2048.
//   8. A block touch on 512 nodes at 1,074 and 16,384 blocks per node: the
//      slave's page-in verify (DataNode::is_corrupt) and a read's replica
//      choice (DfsClient::choose_replica), with the replica-table search a
//      disk read still makes (DataNode::block_size) beside them, ungated.
//
// Timing is wall-clock (steady_clock). Every headline number lands in
// BENCH_microkernel.json via BenchReport; scripts/perf_smoke.sh gates the
// six machine-independent ratios (depth growth of queue churn, stream
// growth of bandwidth churn, block-count growth of the scrub cursor,
// node-count growth of placement, queue-depth growth of RM heartbeats,
// block-count growth of a block touch).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "bench/experiment_common.h"
#include "cluster/resource_manager.h"
#include "common/rng.h"
#include "core/migration_queue.h"
#include "dfs/datanode.h"
#include "dfs/dfs_client.h"
#include "dfs/namenode.h"
#include "net/network.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "storage/bandwidth_resource.h"
#include "storage/device.h"

// Every call into the global allocator this binary makes, counted here so
// the warmed-queue check trusts nothing the kernel says about itself. The
// library's array forms forward to these. They stay out of line: GCC flags
// an inlined malloc or free meeting a new-expression as a mismatch.
namespace {
std::atomic<std::uint64_t> g_heap_calls{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t bytes) {
  g_heap_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept {
  g_heap_calls.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace ignem::bench {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// ---------------------------------------------------------------------------
// 1. Event-queue churn at workload depths.

struct ChurnStep {
  bool cancel = false;      // cancel `victim` instead of popping the head
  std::size_t victim = 0;   // index into the push sequence
  std::int64_t delay = 0;   // successor's delay after the current time, us
};

/// `depth` prefill delays followed by `steps` churn steps. Delays are
/// exponential around 1 s (heartbeat-scale events beside short transfer
/// hops); 30% of steps cancel a recent push, as bandwidth channels cancel
/// and reschedule their completion on every transfer-set change.
std::vector<ChurnStep> make_churn_script(std::size_t depth, std::size_t steps) {
  Rng rng(2024 + depth);
  std::vector<ChurnStep> script;
  script.reserve(depth + steps);
  for (std::size_t i = 0; i < depth; ++i) {
    script.push_back({false, 0, static_cast<std::int64_t>(rng.exponential(1e6))});
  }
  for (std::size_t i = 0; i < steps; ++i) {
    const std::size_t pushed = depth + i;
    ChurnStep step;
    step.cancel = rng.next_double() < 0.30;
    step.victim = static_cast<std::size_t>(rng.uniform_int(
        static_cast<std::int64_t>(pushed - depth),
        static_cast<std::int64_t>(pushed) - 1));
    step.delay = static_cast<std::int64_t>(rng.exponential(1e6));
    script.push_back(step);
  }
  return script;
}

/// Replays the script on `queue` (which must be empty) and drains it;
/// returns a checksum so the work cannot be elided. Draining leaves the
/// queue empty but warmed, so a second replay on the same instance is the
/// steady state the zero-allocation check probes.
std::uint64_t replay_churn(EventQueue& queue, std::size_t depth,
                           const std::vector<ChurnStep>& script,
                           std::vector<EventHandle>& handles) {
  handles.clear();
  std::uint64_t checksum = 0;
  std::int64_t now = 0;
  const auto push = [&](std::int64_t delay) {
    handles.push_back(
        queue.push(SimTime(now + delay), [&checksum] { ++checksum; }));
  };
  for (std::size_t i = 0; i < depth; ++i) push(script[i].delay);
  for (std::size_t i = depth; i < script.size(); ++i) {
    const ChurnStep& step = script[i];
    if (step.cancel && queue.cancel(handles[step.victim])) {
      ++checksum;
    } else {
      auto [when, action] = queue.pop();
      now = when.count_micros();
      action();
    }
    push(step.delay);
  }
  while (!queue.empty()) {
    auto [when, action] = queue.pop();
    checksum += static_cast<std::uint64_t>(when.count_micros());
    action();
  }
  return checksum;
}

void bench_event_churn(BenchReport& report) {
  constexpr std::size_t kDepths[] = {243, 3800, 13900, 54000};
  constexpr std::size_t kSteps = 400000;
  std::printf("event churn (pop or cancel + push at steady depth; a warmed "
              "queue must not allocate):\n");
  std::printf("  %8s %12s\n", "depth", "ns/step");
  double first_ns = 0;
  double last_ns = 0;
  for (const std::size_t depth : kDepths) {
    const std::vector<ChurnStep> script = make_churn_script(depth, kSteps);
    EventQueue queue;
    std::vector<EventHandle> handles;
    handles.reserve(script.size());
    const std::uint64_t warm_sum = replay_churn(queue, depth, script, handles);
    const std::uint64_t heap_calls = g_heap_calls.load();
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t sum = replay_churn(queue, depth, script, handles);
    const double ns = seconds_since(start) * 1e9 / kSteps;
    IGNEM_CHECK(sum == warm_sum);
    // A warmed queue recycles every slot, heap entry and inline callback.
    IGNEM_CHECK(g_heap_calls.load() == heap_calls);
    std::printf("  %8zu %12.1f\n", depth, ns);
    report.metric("event_churn_ns_per_step_d" + std::to_string(depth), ns);
    if (first_ns == 0) first_ns = ns;
    last_ns = ns;
  }
  // O(log n) in depth: 243 -> 54k is ~4 levels of a 4-ary heap, plus the
  // cache misses a 54k-entry heap pays.
  std::printf("  cost growth %zu -> %zu pending: %.2fx\n", kDepths[0],
              kDepths[3], last_ns / first_ns);
  report.metric("event_churn_depth_growth", last_ns / first_ns);
}

// ---------------------------------------------------------------------------
// 2. Raw dispatch throughput.

// Every dispatch also updates the kernel self-profile (a class-count
// increment plus queue-depth max/sum), so this rate includes the metrics
// plane's whole hot-loop cost. One 1M push+drain per process swings by
// ~30% on a shared host, so the loop runs kDispatchReps times, each on a
// fresh Simulator, and the best rep is reported.
constexpr int kDispatchEvents = 1000000;
constexpr int kDispatchReps = 5;

/// Host seconds for one push+drain of kDispatchEvents events.
double dispatch_seconds(BenchReport& report) {
  Rng rng(7);
  Simulator sim;
  std::uint64_t fired = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kDispatchEvents; ++i) {
    sim.schedule(Duration::micros(rng.uniform_int(0, 1 << 20)),
                 [&fired] { ++fired; });
  }
  sim.run();
  const double seconds = seconds_since(start);
  IGNEM_CHECK(fired == kDispatchEvents);
  IGNEM_CHECK(sim.profile().events_dispatched == kDispatchEvents);
  report.add_events(sim.events_dispatched());
  return seconds;
}

void bench_dispatch(BenchReport& report) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kDispatchReps; ++rep) {
    best = std::min(best, dispatch_seconds(report));
  }
  const double per_sec = kDispatchEvents / best;
  const double ns_per_event = best * 1e9 / kDispatchEvents;
  std::printf(
      "event dispatch (1M push+drain, best of %d): %10.0f events/s "
      "(%.1f ns/event)\n",
      kDispatchReps, per_sec, ns_per_event);
  report.metric("dispatch_events_per_sec", per_sec);
  report.metric("dispatch_ns_per_event", ns_per_event);
}

// ---------------------------------------------------------------------------
// 3. Bandwidth churn at device stream counts.

/// `streams` concurrent block-sized transfers on one HDD channel; every
/// completion starts a successor until `transfers` have run. The first
/// streams carry 1/n, 2/n, ... of a block so completions stay staggered, as
/// independent readers' are, instead of all landing in one event. Returns
/// host ns per completed transfer.
double bandwidth_churn_ns(std::size_t streams, std::uint64_t transfers) {
  constexpr Bytes kBlock = 64 * kMiB;
  Simulator sim;
  SharedBandwidthResource channel(sim, "hdd", hdd_profile().bandwidth);
  std::uint64_t started = 0;
  std::uint64_t completed = 0;
  std::function<void(Bytes)> start_one = [&](Bytes bytes) {
    if (started == transfers) return;
    ++started;
    channel.start(bytes, [&] {
      ++completed;
      start_one(kBlock);
    });
  };
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < streams; ++i) {
    start_one(kBlock * static_cast<Bytes>(i + 1) /
              static_cast<Bytes>(streams));
  }
  sim.run();
  IGNEM_CHECK(completed == transfers);
  return seconds_since(start) * 1e9 / static_cast<double>(completed);
}

void bench_bandwidth_churn(BenchReport& report) {
  constexpr std::uint64_t kTransfers = 400000;
  std::printf("bandwidth churn (start/complete, HDD, 64 MiB blocks):\n");
  std::printf("  %8s %16s\n", "streams", "ns/transfer");
  double n1 = 0;
  double n8 = 0;
  for (std::size_t n = 1; n <= 8; n *= 2) {
    const double ns = bandwidth_churn_ns(n, kTransfers);
    std::printf("  %8zu %16.1f\n", n, ns);
    report.metric("bw_churn_ns_per_transfer_n" + std::to_string(n), ns);
    if (n == 1) n1 = ns;
    if (n == 8) n8 = ns;
  }
  // Each set change settles every active transfer, so per-transfer cost
  // grows with the stream count; at device scale that stays small.
  std::printf("  cost growth 1 -> 8 streams: %.2fx\n", n8 / n1);
  report.metric("bw_churn_stream_growth", n8 / n1);
}

// ---------------------------------------------------------------------------
// 4. Migration-queue churn.

void bench_migration_queue(BenchReport& report) {
  constexpr int kEntries = 1024;
  constexpr int kRounds = 200;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t popped = 0;
  for (int round = 0; round < kRounds; ++round) {
    MigrationQueue queue(QueueOrder::kSmallestJobFirst);
    for (int i = 0; i < kEntries; ++i) {
      PendingMigration m;
      m.block = BlockId(i);
      m.bytes = 64 * kMiB;
      m.job = JobId(i % 37);
      m.job_input_bytes = (i * 7919) % 1000 * kMiB;
      m.arrival_seq = static_cast<std::uint64_t>(i) + 1;
      queue.push(m);
    }
    while (queue.pop().has_value()) ++popped;
  }
  const double secs = seconds_since(start);
  const double per_sec = static_cast<double>(popped) * 2 / secs;
  std::printf("migration queue (%d x %d push+pop): %10.0f ops/s (%.3f s)\n",
              kRounds, kEntries, per_sec, secs);
  report.metric("migration_queue_ops_per_sec", per_sec);
}

// ---------------------------------------------------------------------------
// 5. Scrub cursor at per-node block counts.

/// DataNode::next_block_after on kNodes DataNodes holding `blocks` replicas
/// each, ids dealt round-robin as placement spreads them. Consecutive calls
/// go to different nodes, as the staggered scrub ticks do, from a random
/// stored id; every call has its own cursor, so no pass re-warms the cache.
/// Stops after the probe list or ~30 ms, whichever comes first. Returns host
/// ns per call.
double scrub_cursor_ns(std::int64_t blocks) {
  constexpr std::int64_t kNodes = 64;
  constexpr std::size_t kProbes = 1 << 17;
  Simulator sim;
  std::vector<std::unique_ptr<DataNode>> nodes;
  for (std::int64_t n = 0; n < kNodes; ++n) {
    nodes.push_back(std::make_unique<DataNode>(
        sim, NodeId(n), hdd_profile(), 1 * kGiB, Rng(n)));
  }
  for (std::int64_t b = 0; b < blocks * kNodes; ++b) {
    nodes[static_cast<std::size_t>(b % kNodes)]->add_block(BlockId(b),
                                                            64 * kMiB);
  }
  Rng rng(11);
  std::vector<std::pair<const DataNode*, BlockId>> probes;
  probes.reserve(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) {
    const std::int64_t n = static_cast<std::int64_t>(i) % kNodes;
    probes.emplace_back(nodes[static_cast<std::size_t>(n)].get(),
                        BlockId(n + kNodes * rng.uniform_int(0, blocks - 1)));
  }
  std::int64_t checksum = 0;
  std::size_t calls = 0;
  const auto start = std::chrono::steady_clock::now();
  while (calls < kProbes && (calls % 64 != 0 || seconds_since(start) < 0.03)) {
    const auto& [node, cursor] = probes[calls++];
    checksum += node->next_block_after(cursor).value();
  }
  const double ns = seconds_since(start) * 1e9 / static_cast<double>(calls);
  IGNEM_CHECK(checksum != 0);
  return ns;
}

void bench_scrub_cursor(BenchReport& report) {
  constexpr std::int64_t kShape = 1074;  // perfbench shape.blocks_per_node
  constexpr std::int64_t kFullDisk = 16384;  // 1 TB / 64 MiB
  std::printf("scrub cursor (next_block_after, 64 nodes, consecutive calls "
              "on different nodes):\n");
  std::printf("  %10s %10s\n", "blocks/node", "ns/call");
  const double shape = scrub_cursor_ns(kShape);
  std::printf("  %10lld %10.1f\n", static_cast<long long>(kShape), shape);
  const double full = scrub_cursor_ns(kFullDisk);
  std::printf("  %10lld %10.1f\n", static_cast<long long>(kFullDisk), full);
  report.metric("scrub_cursor_ns_b1074", shape);
  report.metric("scrub_cursor_ns_b16384", full);
  // A binary search grows with log(blocks) plus the cache misses of a
  // bigger table; a scan over every stored replica grows ~15x.
  std::printf("  cost growth %lld -> %lld blocks/node: %.2fx\n",
              static_cast<long long>(kShape),
              static_cast<long long>(kFullDisk), full / shape);
  report.metric("scrub_cursor_growth", full / shape);
}

// ---------------------------------------------------------------------------
// 6. Replica placement at cluster sizes.

/// Host ns per block of NameNode::create_file on `nodes` DataNodes dealt
/// into `racks` racks, 3 replicas of 64 MiB blocks: 2,048 files of 1 GiB,
/// 32,768 blocks, the same for every cluster size so only the node count
/// moves. Every node is live, as during a benchmark's set-up. Best of three
/// fresh clusters, so one scheduler tick does not decide the figure.
double placement_ns(std::int64_t nodes, int racks) {
  constexpr int kFiles = 2048;
  constexpr Bytes kFileBytes = 16 * 64 * kMiB;
  constexpr int kBlocks = kFiles * 16;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    Simulator sim;
    std::vector<std::unique_ptr<DataNode>> datanodes;
    NameNode namenode(Rng(31), 3, 64 * kMiB, racks);
    for (std::int64_t n = 0; n < nodes; ++n) {
      datanodes.push_back(std::make_unique<DataNode>(
          sim, NodeId(n), hdd_profile(), 1 * kGiB, Rng(n)));
      namenode.register_datanode(datanodes.back().get());
    }
    const auto start = std::chrono::steady_clock::now();
    for (int f = 0; f < kFiles; ++f) {
      namenode.create_file("/f" + std::to_string(f), kFileBytes);
    }
    best = std::min(best, seconds_since(start) * 1e9 / kBlocks);
    IGNEM_CHECK(namenode.block_count() == static_cast<std::size_t>(kBlocks));
  }
  return best;
}

void bench_placement(BenchReport& report) {
  struct Shape {
    std::int64_t nodes;
    int racks;
  };
  constexpr Shape kShapes[] = {{128, 4}, {512, 16}, {2048, 64}};
  std::printf("replica placement (create_file, 3 replicas, 32,768 blocks):\n");
  std::printf("  %8s %6s %10s\n", "nodes", "racks", "ns/block");
  double first_ns = 0;
  double last_ns = 0;
  for (const Shape& shape : kShapes) {
    const double ns = placement_ns(shape.nodes, shape.racks);
    std::printf("  %8lld %6d %10.1f\n", static_cast<long long>(shape.nodes),
                shape.racks, ns);
    report.metric("placement_ns_per_block_n" + std::to_string(shape.nodes),
                  ns);
    if (first_ns == 0) first_ns = ns;
    last_ns = ns;
  }
  // Each pick is a few binary searches over the live-node index, so the
  // cost barely moves with the node count; a scan of every node per pick
  // grows 10-14x from 128 to 2048 nodes.
  std::printf("  cost growth %lld -> %lld nodes: %.2fx\n",
              static_cast<long long>(kShapes[0].nodes),
              static_cast<long long>(kShapes[2].nodes), last_ns / first_ns);
  report.metric("placement_growth", last_ns / first_ns);
}

// ---------------------------------------------------------------------------
// 7. RM heartbeats at ladder queue depths.

/// Host ns per heartbeat of a standalone ResourceManager on `nodes` nodes
/// (the ladder's: 6 slots, 3 s heartbeats and locality delay) that holds
/// `depth` requests. Each request prefers 3 distinct random nodes, as
/// a block's replicas do; each grant re-requests at once (launch delay
/// zero) and holds its container 5 s. Times ~80k heartbeats after two warm
/// intervals, so every shape times the same number of beats; stores the
/// queue length the RM sampled in `mean_queue`.
double rm_heartbeat_ns(std::size_t nodes, std::size_t depth,
                       double& mean_queue) {
  constexpr std::size_t kBeats = 80000;
  Simulator sim;
  ClusterConfig cluster;
  cluster.node_count = nodes;
  cluster.slots_per_node = 6;
  cluster.container_launch = Duration::zero();
  ResourceManager rm(sim, cluster);
  Rng rng(nodes);
  std::function<void()> request = [&] {
    ContainerRequest r;
    r.job = JobId(1);
    while (r.preferred.size() < 3) {
      const NodeId node(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
      if (std::find(r.preferred.begin(), r.preferred.end(), node) ==
          r.preferred.end()) {
        r.preferred.push_back(node);
      }
    }
    r.on_allocated = [&](const ContainerGrant& grant) {
      request();
      sim.schedule(Duration::seconds(5.0),
                   [&rm, grant] { rm.release_container(grant); });
    };
    rm.request_container(std::move(r));
  };
  for (std::size_t i = 0; i < depth; ++i) request();
  const Duration interval = cluster.heartbeat_interval;
  sim.run(SimTime::zero() + interval * 2);
  const auto intervals = static_cast<double>(kBeats / nodes);
  const auto start = std::chrono::steady_clock::now();
  sim.run(sim.now() + interval * intervals);
  const double ns = seconds_since(start) * 1e9 /
                    (static_cast<double>(nodes) * intervals);
  mean_queue = rm.mean_queue_length();
  return ns;
}

void bench_rm_heartbeat(BenchReport& report) {
  struct Shape {
    std::size_t nodes;
    std::size_t depth;
  };
  constexpr Shape kShapes[] = {{128, 16}, {512, 57}, {2048, 226}};
  constexpr int kReps = 5;
  std::printf("RM heartbeat (3 preferred nodes per request, 5 s holds, "
              "best of %d):\n", kReps);
  std::printf("  %8s %6s %11s %10s\n", "nodes", "depth", "mean queue",
              "ns/beat");
  double first_ns = 0;
  double last_ns = 0;
  for (const Shape& shape : kShapes) {
    double best = std::numeric_limits<double>::infinity();
    double mean_queue = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      best = std::min(best, rm_heartbeat_ns(shape.nodes, shape.depth,
                                            mean_queue));
    }
    std::printf("  %8zu %6zu %11.1f %10.1f\n", shape.nodes, shape.depth,
                mean_queue, best);
    report.metric("rm_heartbeat_ns_d" + std::to_string(shape.depth), best);
    if (first_ns == 0) first_ns = best;
    last_ns = best;
  }
  // The indexed queue pays per grant and per stale handle popped, not per
  // queued request; a scan of the queue grows ~4x from depth 16 to 226.
  std::printf("  cost growth depth %zu -> %zu: %.2fx\n", kShapes[0].depth,
              kShapes[2].depth, last_ns / first_ns);
  report.metric("rm_heartbeat_growth", last_ns / first_ns);
}

// ---------------------------------------------------------------------------
// 8. Block touch at per-node block counts.

struct BlockTouchNs {
  double verify = 0;  ///< DataNode::is_corrupt, the page-in verify.
  double choice = 0;  ///< DfsClient::choose_replica, a read's source.
  double search = 0;  ///< DataNode::block_size, the replica-table search.
};

/// 512 DataNodes, each holding `blocks` replicas: block b lives on nodes b,
/// b+1 and b+2 (mod 512), ids ascending per node as set-up appends them.
/// Each probed block has a pool copy on its first holder, as a migrated
/// block has before its read. Consecutive probes go to different nodes, as
/// reads across a cluster do, so no table stays warm (the scrub cursor's
/// set-up in section 5). The choice gets the BlockInfo a read resolves from
/// the NameNode. Each loop stops after the probe list or ~30 ms. Returns
/// host ns per call.
BlockTouchNs block_touch_ns(std::int64_t blocks) {
  constexpr std::int64_t kNodes = 512;
  constexpr std::size_t kProbes = 1 << 15;
  Simulator sim;
  NameNode namenode(Rng(1), 3);
  std::vector<std::unique_ptr<DataNode>> nodes;
  for (std::int64_t n = 0; n < kNodes; ++n) {
    nodes.push_back(std::make_unique<DataNode>(
        sim, NodeId(n), hdd_profile(), 8 * kGiB, Rng(n)));
    namenode.register_datanode(nodes.back().get());
  }
  Network network(sim, kNodes, NetworkProfile{});
  DfsClient client(sim, namenode, network, nullptr);
  const std::int64_t distinct = blocks * kNodes / 3;
  for (std::int64_t b = 0; b < distinct; ++b) {
    for (std::int64_t r = 0; r < 3; ++r) {
      nodes[static_cast<std::size_t>((b + r) % kNodes)]->add_block(BlockId(b),
                                                                  64 * kMiB);
    }
  }
  struct Probe {
    BlockInfo info;
    NodeId reader;
    const DataNode* holder;  // the replica a page-in verifies
  };
  Rng rng(13);
  std::vector<Probe> probes;
  probes.reserve(kProbes);
  for (std::size_t i = 0; i < kProbes; ++i) {
    // Probe i lands on node i mod 512 as its first holder.
    const std::int64_t first = static_cast<std::int64_t>(i) % kNodes;
    const std::int64_t b =
        first + kNodes * rng.uniform_int(0, distinct / kNodes - 1);
    Probe probe;
    probe.info.id = BlockId(b);
    probe.info.size = 64 * kMiB;
    for (std::int64_t r = 0; r < 3; ++r) {
      probe.info.replicas.push_back(NodeId((b + r) % kNodes));
    }
    probe.reader = NodeId(rng.uniform_int(0, kNodes - 1));
    const std::int64_t holder = (b + rng.uniform_int(0, 2)) % kNodes;
    probe.holder = nodes[static_cast<std::size_t>(holder)].get();
    nodes[static_cast<std::size_t>(first)]->cache().lock(BlockId(b), 64 * kMiB);
    probes.push_back(std::move(probe));
  }
  const auto time_loop = [&](const auto& touch) {
    std::int64_t checksum = 0;
    std::size_t calls = 0;
    const auto start = std::chrono::steady_clock::now();
    while (calls < kProbes &&
           (calls % 64 != 0 || seconds_since(start) < 0.03)) {
      checksum += touch(probes[calls++]);
    }
    const double ns = seconds_since(start) * 1e9 / static_cast<double>(calls);
    IGNEM_CHECK(checksum >= 0);
    return ns;
  };
  BlockTouchNs ns;
  ns.verify = time_loop([](const Probe& p) -> std::int64_t {
    return p.holder->is_corrupt(p.info.id) ? 1 : 0;
  });
  ns.choice = time_loop([&client](const Probe& p) {
    return client.choose_replica(p.reader, p.info).value();
  });
  ns.search = time_loop([](const Probe& p) {
    return p.holder->block_size(p.info.id);
  });
  return ns;
}

void bench_block_touch(BenchReport& report) {
  constexpr std::int64_t kShape = 1074;      // perfbench shape.blocks_per_node
  constexpr std::int64_t kFullDisk = 16384;  // 1 TB / 64 MiB
  std::printf("block touch (512 nodes, consecutive calls on different "
              "nodes):\n");
  std::printf("  %10s %10s %10s %10s\n", "blocks/node", "verify ns",
              "choice ns", "search ns");
  const BlockTouchNs shape = block_touch_ns(kShape);
  std::printf("  %10lld %10.1f %10.1f %10.1f\n", static_cast<long long>(kShape),
              shape.verify, shape.choice, shape.search);
  const BlockTouchNs full = block_touch_ns(kFullDisk);
  std::printf("  %10lld %10.1f %10.1f %10.1f\n",
              static_cast<long long>(kFullDisk), full.verify, full.choice,
              full.search);
  report.metric("block_touch_verify_ns_b1074", shape.verify);
  report.metric("block_touch_verify_ns_b16384", full.verify);
  report.metric("block_touch_choice_ns_b1074", shape.choice);
  report.metric("block_touch_choice_ns_b16384", full.choice);
  report.metric("block_touch_search_ns_b1074", shape.search);
  report.metric("block_touch_search_ns_b16384", full.search);
  // The verify and the choice read no replica table, so their cost stays
  // flat as the tables grow; the search grows like the scrub cursor's.
  const double growth =
      (full.verify + full.choice) / (shape.verify + shape.choice);
  std::printf("  cost growth %lld -> %lld blocks/node: verify + choice "
              "%.2fx, search %.2fx\n",
              static_cast<long long>(kShape),
              static_cast<long long>(kFullDisk), growth,
              full.search / shape.search);
  report.metric("block_touch_growth", growth);
}

void main_impl() {
  print_header(
      "Microkernel: event queue, dispatch, bandwidth channel, scrub cursor, "
      "placement, RM heartbeat, block touch");
  bench_event_churn(report());
  bench_dispatch(report());
  bench_bandwidth_churn(report());
  bench_migration_queue(report());
  bench_scrub_cursor(report());
  bench_placement(report());
  bench_rm_heartbeat(report());
  bench_block_touch(report());
}

}  // namespace
}  // namespace ignem::bench

int main() { return ignem::bench::bench_main("microkernel", ignem::bench::main_impl); }

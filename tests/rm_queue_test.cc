// Differential test of the ResourceManager's indexed pending queue.
//
// FifoScanModel is the ResourceManager as it was before the queue was
// indexed: one std::deque of requests that every heartbeat walks twice, a
// locality pass and then a delay-scheduling pass, erasing grants from the
// middle. It is kept here verbatim as the reference, with a counter on each
// branch. The harness drives the real RM and the model through identical
// seeded streams in two simulators: requests preferring 0-3 nodes (drawn
// with replacement, so some name a node twice, and some name halted or
// dead nodes), releases (some of them repeated or of purged grants),
// heartbeat halts and resumes with the deaths and rejoins that follow (the
// harness judges liveness from the beats it hears, as the failure detector
// does, and hands its verdicts to declare_node_dead and readmit_node), one
// node halted for 600 s, and, on half the shapes, grants delivered over an
// RpcRouter whose links to some nodes are cut for a while. Both runs stop
// after every heartbeat, where every trace event (each grant's node and
// request tag, in order), every launched grant (tag, container id, node),
// every on_lost call (in order), pending_requests() and mean_queue_length()
// must match.
//
// The same streams check ResourceManager::holds against an attempt-epoch
// model, the JobRunner's bookkeeping before a task attempt became its
// container: each task has an epoch that its on_lost bumps, and a launched
// attempt is live while its epoch is current and it has not released. After
// every heartbeat, liveness scan and fault, holds(grant) must equal that
// for every outstanding attempt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "cluster/resource_manager.h"
#include "common/rng.h"
#include "net/control_plane.h"
#include "net/network.h"
#include "net/rpc.h"
#include "obs/trace_recorder.h"
#include "sim/periodic.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace ignem {
namespace {

/// How often each branch of the scan ran.
struct ScanBranches {
  std::uint64_t node_list_grants = 0;       // locality pass, located request
  std::uint64_t free_grants_locality = 0;   // locality pass, location-free
  std::uint64_t free_grants_delay = 0;      // delay pass, location-free
  std::uint64_t delay_grants = 0;           // delay pass, located request
  std::uint64_t budget_out_locality = 0;    // location-free, budget spent
  std::uint64_t budget_out_delay = 0;
  std::uint64_t slots_out_mid_pass = 0;     // a pass ended with requests unseen

  void add(const ScanBranches& o) {
    node_list_grants += o.node_list_grants;
    free_grants_locality += o.free_grants_locality;
    free_grants_delay += o.free_grants_delay;
    delay_grants += o.delay_grants;
    budget_out_locality += o.budget_out_locality;
    budget_out_delay += o.budget_out_delay;
    slots_out_mid_pass += o.slots_out_mid_pass;
  }
};

// ---------------------------------------------------------------------------
// The model: the FIFO scan, as ResourceManager ran it before the index.

class FifoScanModel {
 public:
  FifoScanModel(Simulator& sim, ClusterConfig config)
      : sim_(sim), config_(config) {
    IGNEM_CHECK(config_.node_count > 0);
    nodes_.reserve(config_.node_count);
    heartbeats_.reserve(config_.node_count);
    for (std::size_t i = 0; i < config_.node_count; ++i) {
      const NodeId id(static_cast<std::int64_t>(i));
      nodes_.push_back(
          std::make_unique<NodeManager>(id, config_.slots_per_node));
      const Duration offset = config_.heartbeat_interval *
                              (static_cast<double>(i + 1) /
                               static_cast<double>(config_.node_count));
      heartbeats_.push_back(std::make_unique<PeriodicTask>(
          sim_, offset, config_.heartbeat_interval,
          [this, id] { send_heartbeat(id); }));
    }
  }

  FifoScanModel(const FifoScanModel&) = delete;
  FifoScanModel& operator=(const FifoScanModel&) = delete;

  void request_container(ContainerRequest request) {
    IGNEM_CHECK(request.on_allocated != nullptr);
    queue_.push_back(QueuedRequest{std::move(request), sim_.now()});
  }

  void release_container(const ContainerGrant& grant) {
    if (active_.erase(grant.id) == 0) return;
    node_manager(grant.node).release();
    if (trace_ != nullptr) {
      trace_->emit(TraceEventType::kContainerRelease, grant.node);
    }
  }

  void declare_node_dead(NodeId node) {
    NodeManager& manager = node_manager(node);
    manager.set_alive(false);
    manager.reset_slots();
    std::vector<std::function<void()>> lost;
    for (auto it = active_.begin(); it != active_.end();) {
      if (it->second.node == node) {
        if (it->second.on_lost != nullptr) {
          lost.push_back(std::move(it->second.on_lost));
        }
        it = active_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto& cb : lost) cb();
  }

  void readmit_node(NodeId node) {
    NodeManager& manager = node_manager(node);
    IGNEM_CHECK(!manager.alive());
    manager.set_alive(true);
    manager.reset_slots();
  }

  void set_heartbeat_listener(std::function<void(NodeId)> listener) {
    heartbeat_listener_ = std::move(listener);
  }

  void halt_heartbeat(NodeId node) {
    heartbeats_[static_cast<std::size_t>(node.value())].reset();
  }

  void resume_heartbeat(NodeId node) {
    heartbeats_[static_cast<std::size_t>(node.value())] =
        std::make_unique<PeriodicTask>(
            sim_, config_.heartbeat_interval, config_.heartbeat_interval,
            [this, node] { send_heartbeat(node); });
  }

  std::size_t pending_requests() const { return queue_.size(); }

  double mean_queue_length() const {
    if (heartbeat_count_ == 0) return 0.0;
    return static_cast<double>(queue_length_accum_) /
           static_cast<double>(heartbeat_count_);
  }

  void set_trace(TraceRecorder* trace) { trace_ = trace; }
  void set_rpc_router(RpcRouter* router) { router_ = router; }

  const ScanBranches& branches() const { return branches_; }

 private:
  void send_heartbeat(NodeId node) {
    if (router_ == nullptr) {
      on_heartbeat(node);
      return;
    }
    router_->oneway(node, router_->control_node(),
                    [this, node] { on_heartbeat(node); });
  }

  void reclaim_grant(const ContainerGrant& grant) {
    const auto it = active_.find(grant.id);
    if (it == active_.end()) return;
    auto on_lost = std::move(it->second.on_lost);
    active_.erase(it);
    node_manager(grant.node).release();
    if (trace_ != nullptr) {
      trace_->emit(TraceEventType::kContainerRelease, grant.node);
    }
    if (on_lost != nullptr) on_lost();
  }

  NodeManager& node_manager(NodeId node) {
    return *nodes_[static_cast<std::size_t>(node.value())];
  }

  bool prefers(const ContainerRequest& request, NodeId node) const {
    if (request.preferred.empty()) return true;
    return std::find(request.preferred.begin(), request.preferred.end(),
                     node) != request.preferred.end();
  }

  void on_heartbeat(NodeId node) {
    if (heartbeat_listener_ != nullptr) heartbeat_listener_(node);
    ++heartbeat_count_;
    queue_length_accum_ += queue_.size();
    NodeManager& manager = node_manager(node);

    std::size_t unpreferred_budget = std::max<std::size_t>(
        1, (queue_.size() + config_.node_count - 1) / config_.node_count);

    for (const bool locality_pass : {true, false}) {
      auto it = queue_.begin();
      while (it != queue_.end() && manager.free_slots() > 0) {
        const bool unpreferred = it->request.preferred.empty();
        const bool budget_ok = !unpreferred || unpreferred_budget > 0;
        if (!budget_ok) {
          ++(locality_pass ? branches_.budget_out_locality
                           : branches_.budget_out_delay);
        }
        const bool eligible =
            locality_pass
                ? prefers(it->request, node) && budget_ok
                : sim_.now() - it->enqueued >= config_.locality_delay &&
                      budget_ok;
        if (!eligible) {
          ++it;
          continue;
        }
        if (unpreferred) --unpreferred_budget;
        ++(locality_pass
               ? (unpreferred ? branches_.free_grants_locality
                              : branches_.node_list_grants)
               : (unpreferred ? branches_.free_grants_delay
                              : branches_.delay_grants));
        manager.allocate();
        if (trace_ != nullptr) {
          trace_->emit(TraceEventType::kContainerAllocate, node,
                       BlockId::invalid(), it->request.job);
        }
        const ContainerGrant grant{next_container_++, node};
        active_.emplace(grant.id,
                        ActiveContainer{node, it->request.job,
                                        std::move(it->request.on_lost)});
        auto on_allocated = std::move(it->request.on_allocated);
        it = queue_.erase(it);
        auto launch = [this, cb = std::move(on_allocated), grant]() {
          sim_.schedule(config_.container_launch, [this, cb, grant] {
            if (!active_.contains(grant.id)) return;
            cb(grant);
          });
        };
        if (router_ == nullptr) {
          launch();
        } else {
          router_->call(router_->control_node(), grant.node, std::move(launch),
                        [this, grant](RpcOutcome) { reclaim_grant(grant); });
        }
      }
      if (it != queue_.end()) ++branches_.slots_out_mid_pass;
      if (manager.free_slots() == 0) break;
    }
  }

  Simulator& sim_;
  ClusterConfig config_;
  TraceRecorder* trace_ = nullptr;
  RpcRouter* router_ = nullptr;
  std::vector<std::unique_ptr<NodeManager>> nodes_;
  std::vector<std::unique_ptr<PeriodicTask>> heartbeats_;
  std::function<void(NodeId)> heartbeat_listener_;

  struct QueuedRequest {
    ContainerRequest request;
    SimTime enqueued;
  };
  std::deque<QueuedRequest> queue_;

  struct ActiveContainer {
    NodeId node;
    JobId job;
    std::function<void()> on_lost;
  };
  std::map<std::uint64_t, ActiveContainer> active_;
  std::uint64_t next_container_ = 1;

  std::uint64_t heartbeat_count_ = 0;
  std::uint64_t queue_length_accum_ = 0;
  ScanBranches branches_;
};

// ---------------------------------------------------------------------------
// The harness: one seeded stream against either implementation.

struct Shape {
  std::size_t nodes;
  int slots;
  Duration locality_delay;
  Duration container_launch;
  bool routed;
};

constexpr Duration kInterval = Duration::seconds(3.0);
constexpr SimTime kHorizon = SimTime::zero() + Duration::seconds(900.0);
// Halted from kLongHaltAt for 600 s: its preferred-node list sees pushes
// for ten minutes without a heartbeat to pop it.
constexpr NodeId kLongHaltNode(1);
constexpr Duration kLongHaltAt = Duration::seconds(40.0);
constexpr Duration kLongHalt = Duration::seconds(600.0);

/// A grant whose on_allocated fired.
struct Launch {
  std::uint64_t tag;
  std::uint64_t id;
  NodeId node;
  SimTime at;
  bool operator==(const Launch&) const = default;
};

template <typename Rm>
class Harness {
 public:
  Harness(const Shape& shape, std::uint64_t seed)
      : shape_(shape),
        net_(sim_, shape.nodes, NetworkProfile{}),
        router_(sim_, net_, RpcConfig{}),
        rm_(sim_, cluster(shape)),
        rng_(seed),
        halted_(shape.nodes, false),
        last_heard_(shape.nodes, SimTime::zero()),
        dead_(shape.nodes, false),
        liveness_(sim_, kLivenessCheckInterval, [this] {
          check_liveness();
          verify_attempts("liveness scan");
        }) {
    trace_.set_clock([this] { return sim_.now(); });
    rm_.set_trace(&trace_);
    if (shape.routed) {
      router_.set_trace(&trace_);
      rm_.set_rpc_router(&router_);
    }
    rm_.set_heartbeat_listener([this](NodeId node) {
      last_beat_ = node;
      beat_ = true;
      const auto i = static_cast<std::size_t>(node.value());
      last_heard_[i] = sim_.now();
      if (dead_[i]) {
        dead_[i] = false;
        ++rejoins_;
        rm_.readmit_node(node);
      }
    });
    sim_.schedule(Duration::zero(), [this] { arrive(); });
    sim_.schedule(Duration::seconds(5.0), [this] { fault(); });
    sim_.schedule(kLongHaltAt, [this] {
      halt(kLongHaltNode, kLongHalt);
    });
  }

  /// Runs to the end of the next heartbeat; false once past the horizon.
  bool next_heartbeat() {
    beat_ = false;
    sim_.run_until([this] { return beat_; }, kHorizon);
    return beat_;
  }

  /// Checks holds(grant) against the attempt-epoch model for every
  /// outstanding attempt (the real RM only; the scan model has no holds).
  /// A dead attempt is checked once, then dropped from the list.
  void verify_attempts(const char* where) {
    if constexpr (std::is_same_v<Rm, ResourceManager>) {
      std::size_t kept = 0;
      for (const std::size_t index : outstanding_) {
        const Attempt& a = attempts_[index];
        const bool live = !a.released && a.epoch == epoch_[a.task];
        if (rm_.holds(a.grant) != live && attempt_failure_.empty()) {
          std::ostringstream out;
          out << where << " at t=" << sim_.now().count_micros()
              << "us: container " << a.grant.id << " of task " << a.task
              << " (epoch " << a.epoch << ", now " << epoch_[a.task]
              << (a.released ? ", released" : "") << ") holds "
              << rm_.holds(a.grant) << ", model " << live;
          attempt_failure_ = out.str();
        }
        if (live) {
          outstanding_[kept++] = index;
        } else if (!a.released) {
          ++lost_launched_;
        }
      }
      outstanding_.resize(kept);
      ++attempt_checks_;
    }
  }

  Simulator& sim() { return sim_; }
  Rm& rm() { return rm_; }
  const std::string& attempt_failure() const { return attempt_failure_; }
  std::uint64_t attempt_checks() const { return attempt_checks_; }
  std::uint64_t lost_launched() const { return lost_launched_; }
  const TraceRecorder& trace() const { return trace_; }
  const std::vector<Launch>& launches() const { return launches_; }
  NodeId last_beat() const { return last_beat_; }
  const std::vector<std::uint64_t>& lost() const { return lost_; }
  const RpcStats& rpc() const { return router_.stats(); }
  std::uint64_t long_halt_resumed() const { return long_halt_resumed_; }
  std::uint64_t deaths() const { return deaths_; }
  std::uint64_t rejoins() const { return rejoins_; }

 private:
  static ClusterConfig cluster(const Shape& shape) {
    ClusterConfig c;
    c.node_count = shape.nodes;
    c.slots_per_node = shape.slots;
    c.heartbeat_interval = kInterval;
    c.locality_delay = shape.locality_delay;
    c.container_launch = shape.container_launch;
    return c;
  }

  /// The failure detector's judgement, with no grace: a node silent past
  /// kLivenessTimeout is declared dead; its next beat readmits it.
  void check_liveness() {
    for (std::size_t i = 0; i < last_heard_.size(); ++i) {
      if (dead_[i] || sim_.now() - last_heard_[i] <= kLivenessTimeout) {
        continue;
      }
      dead_[i] = true;
      ++deaths_;
      rm_.declare_node_dead(NodeId(static_cast<std::int64_t>(i)));
    }
  }

  /// Delays on a grid of half a heartbeat stagger, so arrivals, beats and
  /// releases often share an instant and a wait can equal the delay.
  Duration grid(double mean_steps) {
    const std::int64_t step =
        kInterval.count_micros() / static_cast<std::int64_t>(2 * shape_.nodes);
    const auto steps = static_cast<std::int64_t>(rng_.exponential(mean_steps));
    return Duration::micros(step * std::max<std::int64_t>(1, steps));
  }

  NodeId random_node() {
    return NodeId(
        rng_.uniform_int(0, static_cast<std::int64_t>(shape_.nodes) - 1));
  }

  /// A new task's first request.
  void request() {
    epoch_.push_back(0);
    request_for(epoch_.size() - 1);
  }

  void request_for(std::size_t task) {
    ContainerRequest r;
    const std::uint64_t tag = next_tag_++;
    r.job = JobId(static_cast<std::int64_t>(tag));
    const auto count = rng_.uniform_int(0, 3);
    for (std::int64_t i = 0; i < count; ++i) {
      r.preferred.push_back(random_node());
    }
    r.on_allocated = [this, tag, task](const ContainerGrant& grant) {
      launches_.push_back({tag, grant.id, grant.node, sim_.now()});
      const std::size_t attempt = attempts_.size();
      attempts_.push_back({grant, task, epoch_[task], false});
      outstanding_.push_back(attempt);
      if (rng_.next_double() < 0.3) request();
      const Duration hold = grid(4.0 * static_cast<double>(shape_.nodes));
      sim_.schedule(hold, [this, grant, attempt] {
        // Stale when the grant's node was declared dead meanwhile.
        rm_.release_container(grant);
        attempts_[attempt].released = true;
        // A second release of the same grant must be a no-op.
        if (rng_.next_double() < 0.1) rm_.release_container(grant);
      });
    };
    r.on_lost = [this, tag, task] {
      lost_.push_back(tag);
      ++epoch_[task];
      request_for(task);
    };
    rm_.request_container(std::move(r));
  }

  /// Open arrivals: mostly one to three requests, sometimes a burst deep
  /// enough to outlast several heartbeats.
  void arrive() {
    const bool burst = rng_.next_double() < 0.04;
    const auto count =
        burst ? rng_.uniform_int(10, 40) : rng_.uniform_int(1, 3);
    for (std::int64_t i = 0; i < count; ++i) request();
    // ~4.2 container demands per arrival (with re-requests) at a mean hold
    // of two heartbeats: ~60% of the slots, before the wait for a beat.
    sim_.schedule(grid(40.0 / shape_.slots), [this] { arrive(); });
  }

  void halt(NodeId node, Duration length) {
    const auto i = static_cast<std::size_t>(node.value());
    if (halted_[i]) return;
    halted_[i] = true;
    rm_.halt_heartbeat(node);
    sim_.schedule(length, [this, node, i] {
      halted_[i] = false;
      rm_.resume_heartbeat(node);
      if (node == kLongHaltNode) ++long_halt_resumed_;
    });
  }

  /// Halts a random node's heartbeat for 1-40 s (past the liveness timeout
  /// about 70% of the time; never the long-halt node), and on routed shapes
  /// cuts the links into another node for 0.5-5 s so grants to it time out.
  void fault() {
    const NodeId victim = random_node();
    if (victim != kLongHaltNode) {
      halt(victim, Duration::seconds(rng_.uniform_int(1, 40)));
    }
    if (shape_.routed && rng_.next_double() < 0.7) {
      // Never the control node: that would silence every heartbeat.
      const NodeId cut(
          rng_.uniform_int(1, static_cast<std::int64_t>(shape_.nodes) - 1));
      net_.reachability().block_inbound(cut);
      sim_.schedule(Duration::millis(rng_.uniform_int(500, 5000)),
                    [this, cut] { net_.reachability().unblock_inbound(cut); });
    }
    sim_.schedule(Duration::seconds(rng_.uniform_int(5, 30)),
                  [this] { fault(); });
    verify_attempts("fault");
  }

  Shape shape_;
  Simulator sim_;
  Network net_;
  RpcRouter router_;
  TraceRecorder trace_;
  Rm rm_;
  Rng rng_;
  std::vector<bool> halted_;
  std::vector<SimTime> last_heard_;  // index == node
  std::vector<bool> dead_;           // declared dead, not yet readmitted
  PeriodicTask liveness_;
  std::uint64_t next_tag_ = 1;
  std::vector<Launch> launches_;
  NodeId last_beat_;
  std::vector<std::uint64_t> lost_;
  std::uint64_t long_halt_resumed_ = 0;
  std::uint64_t deaths_ = 0;
  std::uint64_t rejoins_ = 0;
  bool beat_ = false;

  // The attempt-epoch model.
  struct Attempt {
    ContainerGrant grant;
    std::size_t task;
    int epoch;
    bool released;
  };
  std::vector<int> epoch_;                // index == task
  std::vector<Attempt> attempts_;         // every launched attempt
  std::vector<std::size_t> outstanding_;  // attempts_ still to check
  std::uint64_t lost_launched_ = 0;  // lost before their own release
  std::uint64_t attempt_checks_ = 0;
  std::string attempt_failure_;
};

std::string describe(const TraceEvent& e) {
  std::ostringstream out;
  out << "seq " << e.seq << " t=" << e.time.count_micros() << "us type "
      << static_cast<int>(e.type) << " node " << e.node.value() << " job "
      << e.job.value() << " detail " << e.detail;
  return out.str();
}

bool same(const TraceEvent& a, const TraceEvent& b) {
  return a.seq == b.seq && a.time == b.time && a.type == b.type &&
         a.node == b.node && a.job == b.job && a.detail == b.detail;
}

/// Totals over one stream, for the branch and coverage checks.
struct StreamTotals {
  ScanBranches branches;
  std::uint64_t heartbeats = 0;
  std::uint64_t grants = 0;
  std::uint64_t deaths = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t lost = 0;
  std::uint64_t rpc_failures = 0;
  std::uint64_t long_halts_resumed = 0;
  std::uint64_t lost_launched = 0;   // of `lost`, attempts that launched
  std::uint64_t attempt_checks = 0;  // holds-vs-model passes
  std::size_t max_pending = 0;
};

/// Runs one stream through both implementations in lockstep, comparing at
/// every heartbeat; adds its totals to `totals`.
void run_stream(const Shape& shape, std::uint64_t seed, StreamTotals& totals) {
  Harness<ResourceManager> real(shape, seed);
  Harness<FifoScanModel> model(shape, seed);
  std::size_t events_checked = 0;
  std::size_t launches_checked = 0;
  std::size_t lost_checked = 0;
  std::uint64_t beats = 0;
  while (true) {
    const bool real_beat = real.next_heartbeat();
    const bool model_beat = model.next_heartbeat();
    ASSERT_EQ(real_beat, model_beat) << "heartbeat " << beats;
    if (!real_beat) break;
    ++beats;
    ASSERT_EQ(real.sim().now(), model.sim().now()) << "heartbeat " << beats;
    ASSERT_EQ(real.last_beat(), model.last_beat()) << "heartbeat " << beats;
    const auto& got = real.trace().events();
    const auto& want = model.trace().events();
    ASSERT_EQ(got.size(), want.size())
        << "heartbeat " << beats << " at t=" << real.sim().now().count_micros()
        << "us";
    for (; events_checked < got.size(); ++events_checked) {
      ASSERT_TRUE(same(got[events_checked], want[events_checked]))
          << "index " << events_checked << "\n  indexed "
          << describe(got[events_checked]) << "\n  scan    "
          << describe(want[events_checked]);
    }
    ASSERT_EQ(real.launches().size(), model.launches().size())
        << "heartbeat " << beats;
    for (; launches_checked < real.launches().size(); ++launches_checked) {
      const Launch& a = real.launches()[launches_checked];
      const Launch& b = model.launches()[launches_checked];
      ASSERT_EQ(a, b) << "launch " << launches_checked << ": indexed tag "
                      << a.tag << " id " << a.id << " node " << a.node.value()
                      << ", scan tag " << b.tag << " id " << b.id << " node "
                      << b.node.value();
    }
    ASSERT_EQ(real.lost().size(), model.lost().size()) << "heartbeat " << beats;
    for (; lost_checked < real.lost().size(); ++lost_checked) {
      ASSERT_EQ(real.lost()[lost_checked], model.lost()[lost_checked])
          << "on_lost call " << lost_checked << " out of grant order";
    }
    real.verify_attempts("heartbeat");
    ASSERT_EQ(real.attempt_failure(), "") << "heartbeat " << beats;
    ASSERT_EQ(real.rm().pending_requests(), model.rm().pending_requests())
        << "heartbeat " << beats;
    ASSERT_EQ(real.rm().mean_queue_length(), model.rm().mean_queue_length())
        << "heartbeat " << beats;
    totals.max_pending =
        std::max(totals.max_pending, model.rm().pending_requests());
  }
  ASSERT_EQ(real.lost(), model.lost());
  ASSERT_EQ(real.trace().trace_hash(), model.trace().trace_hash());
  totals.branches.add(model.rm().branches());
  totals.heartbeats += beats;
  const auto count = [&](TraceEventType type) {
    return static_cast<std::uint64_t>(std::count_if(
        model.trace().events().begin(), model.trace().events().end(),
        [type](const TraceEvent& e) { return e.type == type; }));
  };
  totals.grants += count(TraceEventType::kContainerAllocate);
  ASSERT_EQ(real.deaths(), model.deaths());
  ASSERT_EQ(real.rejoins(), model.rejoins());
  totals.deaths += model.deaths();
  totals.rejoins += model.rejoins();
  totals.lost += model.lost().size();
  totals.rpc_failures += model.rpc().timeouts + model.rpc().unreachable;
  totals.long_halts_resumed += model.long_halt_resumed();
  totals.lost_launched += real.lost_launched();
  totals.attempt_checks += real.attempt_checks();
}

TEST(ResourceManagerQueue, MatchesFifoScanModel) {
  // Node counts whose half-stagger is a whole number of microseconds.
  constexpr std::size_t kNodes[] = {4, 5, 6, 8, 10, 12};
  constexpr Duration kDelays[] = {Duration::seconds(3.0), Duration::zero(),
                                  Duration::seconds(4.5),
                                  Duration::seconds(1.5)};
  StreamTotals direct;
  StreamTotals routed;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng pick(test::seed_for(seed * 7919));
    const Shape shape{
        kNodes[pick.uniform_int(0, 5)],
        static_cast<int>(pick.uniform_int(1, 3)),
        kDelays[(seed / 2) % 4],
        pick.next_double() < 0.5 ? Duration::zero() : Duration::seconds(1.0),
        /*routed=*/seed % 2 == 0};
    SCOPED_TRACE(::testing::Message()
                 << "seed " << seed << ": " << shape.nodes << " nodes x "
                 << shape.slots << " slots, delay "
                 << shape.locality_delay.to_seconds() << " s, launch "
                 << shape.container_launch.to_seconds() << " s, "
                 << (shape.routed ? "routed" : "direct"));
    run_stream(shape, test::seed_for(seed), shape.routed ? routed : direct);
    if (::testing::Test::HasFatalFailure()) return;
  }
  for (const StreamTotals* totals : {&direct, &routed}) {
    const ScanBranches& b = totals->branches;
    const char* mode = totals == &direct ? "direct" : "routed";
    SCOPED_TRACE(mode);
    std::cout << mode << ": " << totals->heartbeats << " heartbeats, "
              << totals->grants << " grants (node list " << b.node_list_grants
              << ", location-free " << b.free_grants_locality << " + "
              << b.free_grants_delay << ", delay " << b.delay_grants
              << "), budget spent " << b.budget_out_locality << " + "
              << b.budget_out_delay << ", slots out mid-pass "
              << b.slots_out_mid_pass << ", deaths " << totals->deaths
              << ", rejoins " << totals->rejoins << ", lost " << totals->lost
              << " (" << totals->lost_launched << " launched)"
              << ", rpc failures " << totals->rpc_failures << ", max pending "
              << totals->max_pending << ", holds checks "
              << totals->attempt_checks << "\n";
    EXPECT_GT(b.node_list_grants, 0u);
    EXPECT_GT(b.free_grants_locality, 0u);
    // Unreachable in the scan: its locality pass stops early only when the
    // slots run out, and otherwise takes every location-free request until
    // the budget is spent, so none is left for the delay pass to take.
    EXPECT_EQ(b.free_grants_delay, 0u);
    EXPECT_GT(b.delay_grants, 0u);
    EXPECT_GT(b.budget_out_locality, 0u);
    EXPECT_GT(b.budget_out_delay, 0u);
    EXPECT_GT(b.slots_out_mid_pass, 0u);
    EXPECT_GT(totals->rejoins, 0u);
    EXPECT_GT(totals->deaths, 0u);
    EXPECT_GT(totals->lost, 0u);
    EXPECT_EQ(totals->long_halts_resumed, 12u);
    EXPECT_GT(totals->lost_launched, 0u);
    EXPECT_GT(totals->attempt_checks, totals->heartbeats);
  }
  EXPECT_GT(routed.rpc_failures, 0u);
}

}  // namespace
}  // namespace ignem

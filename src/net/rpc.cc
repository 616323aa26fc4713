#include "net/rpc.h"

#include <algorithm>
#include <utility>

namespace ignem {

RpcRouter::RpcRouter(Simulator& sim, Network& network, RpcConfig config)
    : sim_(sim), network_(network), config_(config) {
  IGNEM_CHECK(config_.control_node.valid());
  IGNEM_CHECK(config_.latency > Duration::zero());
  IGNEM_CHECK(config_.max_retries >= 0);
}

Duration RpcRouter::backoff(int attempt_no) const {
  // min(base * 2^(attempts so far - 1), cap) — the same schedule the Ignem
  // master has always used for migration reroutes.
  Duration d = config_.backoff_base;
  for (int i = 1; i < attempt_no && d < config_.backoff_cap; ++i) d = d * 2.0;
  return std::min(d, config_.backoff_cap);
}

void RpcRouter::oneway(NodeId from, NodeId to, Action deliver) {
  ++stats_.oneways;
  if (!network_.reachable(from, to)) {
    ++stats_.oneways_dropped;
    return;
  }
  sim_.schedule(config_.latency,
                [this, from, to, deliver = std::move(deliver)]() mutable {
                  // A cut that landed while the datagram was in flight eats
                  // it; the sender never learns.
                  if (!network_.reachable(from, to)) {
                    ++stats_.oneways_dropped;
                    return;
                  }
                  deliver();
                },
                EventClass::kRpc);
}

void RpcRouter::call(NodeId from, NodeId to, Action deliver,
                     FailureCallback on_fail) {
  ++stats_.calls;
  attempt(from, to, std::move(deliver), std::move(on_fail), sim_.now(), 1);
}

void RpcRouter::attempt(NodeId from, NodeId to, Action deliver,
                        FailureCallback on_fail, SimTime start,
                        int attempt_no) {
  sim_.schedule(
      config_.latency,
      [this, from, to, deliver = std::move(deliver),
       on_fail = std::move(on_fail), start, attempt_no]() mutable {
        if (network_.reachable(from, to)) {
          ++stats_.delivered;
          deliver();
          return;
        }
        if (attempt_no > config_.max_retries) {
          fail(to, RpcOutcome::kUnreachable, attempt_no, on_fail);
          return;
        }
        const Duration wait = backoff(attempt_no);
        if (sim_.now() + wait + config_.latency - start > config_.deadline) {
          fail(to, RpcOutcome::kTimeout, attempt_no, on_fail);
          return;
        }
        ++stats_.retries;
        sim_.schedule(wait,
                      [this, from, to, deliver = std::move(deliver),
                       on_fail = std::move(on_fail), start,
                       attempt_no]() mutable {
                        attempt(from, to, std::move(deliver),
                                std::move(on_fail), start, attempt_no + 1);
                      },
                      EventClass::kRetry);
      },
      EventClass::kRpc);
}

void RpcRouter::fail(NodeId to, RpcOutcome outcome, int attempts,
                     const FailureCallback& on_fail) {
  if (outcome == RpcOutcome::kTimeout) {
    ++stats_.timeouts;
  } else {
    ++stats_.unreachable;
  }
  if (trace_ != nullptr) {
    trace_->emit(TraceEventType::kRpcTimeout, to, BlockId::invalid(),
                 JobId::invalid(), attempts,
                 static_cast<std::int64_t>(outcome), 0.0);
  }
  if (on_fail != nullptr) on_fail(outcome);
}

static_assert(sizeof(RpcStats) == 7 * sizeof(std::uint64_t),
              "name the new RpcStats field in RpcRouter::add_counters");

void RpcRouter::add_counters(
    std::map<std::string, std::uint64_t>& counters) const {
  counters["rpc.calls_total"] += stats_.calls;
  counters["rpc.delivered_total"] += stats_.delivered;
  counters["rpc.retries_total"] += stats_.retries;
  counters["rpc.timeout_total"] += stats_.timeouts;
  counters["rpc.unreachable_total"] += stats_.unreachable;
  counters["rpc.oneways_total"] += stats_.oneways;
  counters["rpc.oneways_dropped_total"] += stats_.oneways_dropped;
}

}  // namespace ignem

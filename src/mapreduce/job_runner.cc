#include "mapreduce/job_runner.h"

#include <algorithm>
#include <memory>

#include "common/check.h"

namespace ignem {
namespace {
// A shuffle whose senders are cut off retries the missing shares at this
// cadence until the partition heals...
constexpr Duration kShuffleRetryDelay = Duration::seconds(1.0);
// ...and gives up — failing the job like a terminal read — once a cut
// outlives this window, so no reduce task hangs forever.
constexpr Duration kShuffleDeadline = Duration::seconds(600.0);
}  // namespace

JobRunner::JobRunner(Simulator& sim, ResourceManager& rm, DfsClient& dfs,
                     Network& network, RunMetrics* metrics, JobId id,
                     JobSpec spec)
    : sim_(sim),
      rm_(rm),
      dfs_(dfs),
      network_(network),
      metrics_(metrics),
      id_(id),
      spec_(std::move(spec)) {
  IGNEM_CHECK(id_.valid());
  IGNEM_CHECK_MSG(!spec_.inputs.empty(), "job needs at least one input file");
  for (const FileId file : spec_.inputs) {
    for (const BlockId block : dfs_.namenode().file(file).blocks) {
      const Bytes bytes = dfs_.namenode().block(block).size;
      maps_.push_back(MapTask{block, bytes});
      input_bytes_ += bytes;
    }
  }
  shuffle_bytes_ = static_cast<Bytes>(static_cast<double>(input_bytes_) *
                                      spec_.compute.map_output_ratio);
  output_bytes_ = static_cast<Bytes>(static_cast<double>(input_bytes_) *
                                     spec_.compute.output_ratio);
  reduce_count_ = spec_.compute.reduce_tasks;
}

void JobRunner::submit(CompletionCallback on_complete) {
  IGNEM_CHECK(on_complete != nullptr);
  on_complete_ = std::move(on_complete);
  submit_time_ = sim_.now();

  // The job submitter runs first (§III-B3): issue the migrate call before
  // anything else so the slaves get the maximum lead-time.
  if (spec_.use_ignem) {
    MigrationRequest request;
    request.op = MigrationOp::kMigrate;
    request.job = id_;
    request.job_input_bytes = input_bytes_;
    request.files = spec_.inputs;
    dfs_.migrate(request);
  }
  // Injected lead-time (Fig. 8 "Ignem+10s") sleeps *after* the migrate call
  // but before submission, and is counted in the job's duration.
  sim_.schedule(spec_.extra_lead_time + spec_.submit_overhead,
                [this] { enter_scheduler(); });
}

void JobRunner::enter_scheduler() {
  rm_.register_job(id_);
  for (std::size_t i = 0; i < maps_.size(); ++i) request_map(i);
}

void JobRunner::request_map(std::size_t index) {
  ContainerRequest request;
  request.job = id_;
  // Recompute preferences fresh: after a failure the replica set (and which
  // copies sit in memory) may have changed since the original attempt.
  request.preferred = dfs_.preferred_locations(maps_[index].block);
  request.on_allocated = [this, index](const ContainerGrant& grant) {
    launch_map(index, grant);
  };
  request.on_lost = [this, index] { request_map(index); };
  rm_.request_container(std::move(request));
}

void JobRunner::launch_map(std::size_t index, const ContainerGrant& grant) {
  const SimTime start = sim_.now();
  first_task_start_ = std::min(first_task_start_, start);

  sim_.schedule(spec_.compute.task_overhead, [this, index, grant, start] {
    if (!rm_.holds(grant)) return;
    const MapTask& task = maps_[index];
    dfs_.read_block(
        grant.node, task.block, id_,
        [this, index, grant, start](const BlockReadRecord& read) {
          if (!rm_.holds(grant)) return;
          if (read.failed) {
            // Terminal read error: the input is unreadable everywhere (all
            // replicas lost or corrupt) and the deadline ran out. Fail the
            // job but keep its lifecycle moving — the container goes back,
            // the barrier advances, and complete() still runs so the sim
            // never hangs on lost data.
            failed_ = true;
            rm_.release_container(grant);
            on_map_done();
            return;
          }
          const MapTask& task = maps_[index];
          const double mib_in =
              static_cast<double>(task.bytes) / static_cast<double>(kMiB);
          const Duration compute =
              Duration::seconds(spec_.compute.map_cpu_secs_per_mib * mib_in);
          sim_.schedule(compute, [this, index, grant, start,
                                  read_time = read.duration] {
            if (!rm_.holds(grant)) return;
            map_output_nodes_[grant.node] += maps_[index].bytes;
            if (metrics_ != nullptr) {
              metrics_->add_task(
                  {TaskKind::kMap, start, sim_.now() - start, read_time});
            }
            rm_.release_container(grant);
            on_map_done();
          });
        });
  });
}

void JobRunner::on_map_done() {
  ++maps_done_;
  if (maps_done_ == maps_.size()) start_reduce_stage();
}

void JobRunner::start_reduce_stage() {
  if (failed_) {
    // Map input was lost; the map outputs never materialized, so there is
    // nothing to shuffle. Tear the job down as failed.
    finish_job();
    return;
  }
  if (reduce_count_ <= 0 || shuffle_bytes_ <= 0) {
    finish_job();
    return;
  }
  for (int i = 0; i < reduce_count_; ++i) request_reduce();
}

void JobRunner::request_reduce() {
  ContainerRequest request;
  request.job = id_;
  request.on_allocated = [this](const ContainerGrant& grant) {
    launch_reduce(grant);
  };
  request.on_lost = [this] { request_reduce(); };
  rm_.request_container(std::move(request));
}

void JobRunner::launch_reduce(const ContainerGrant& grant) {
  const SimTime start = sim_.now();
  sim_.schedule(spec_.compute.task_overhead, [this, grant, start] {
    if (!rm_.holds(grant)) return;
    // Shuffle: fan-in through the reducer's NIC. Map outputs sit in the
    // senders' page caches, so the network is the chokepoint. Each sender's
    // share is gated on reachability; blocked shares retry until the
    // partition heals.
    run_shuffle(grant, start, shuffle_shares(shuffle_bytes_ / reduce_count_),
                sim_.now());
  });
}

std::vector<Network::IngressShare> JobRunner::shuffle_shares(
    Bytes total) const {
  std::vector<Network::IngressShare> shares;
  if (total <= 0 || map_output_nodes_.empty()) return shares;
  Bytes map_total = 0;
  for (const auto& [node, bytes] : map_output_nodes_) map_total += bytes;
  shares.reserve(map_output_nodes_.size());
  Bytes assigned = 0;
  std::size_t i = 0;
  for (const auto& [node, bytes] : map_output_nodes_) {
    ++i;
    Bytes share;
    if (i == map_output_nodes_.size()) {
      share = total - assigned;  // Remainder keeps the sum exact.
    } else {
      share = std::min(total - assigned,
                       static_cast<Bytes>(static_cast<double>(total) *
                                          (static_cast<double>(bytes) /
                                           static_cast<double>(map_total))));
    }
    assigned += share;
    if (share > 0) shares.push_back({node, share});
  }
  return shares;
}

void JobRunner::run_shuffle(const ContainerGrant& grant, SimTime start,
                            std::vector<Network::IngressShare> shares,
                            SimTime shuffle_start) {
  network_.ingress_transfer(
      grant.node, std::move(shares),
      [this, grant, start, shuffle_start](
          Bytes arrived, std::vector<Network::IngressShare> unserved) {
        (void)arrived;
        if (!rm_.holds(grant)) return;
        if (unserved.empty()) {
          finish_reduce(grant, start);
          return;
        }
        if (sim_.now() - shuffle_start > kShuffleDeadline) {
          // Senders stayed unreachable past the deadline: fail the job but
          // keep its lifecycle moving, as the map-side terminal read does.
          failed_ = true;
          rm_.release_container(grant);
          on_reduce_done();
          return;
        }
        sim_.schedule(
            kShuffleRetryDelay,
            [this, grant, start, shuffle_start,
             unserved = std::move(unserved)]() mutable {
              if (!rm_.holds(grant)) return;
              run_shuffle(grant, start, std::move(unserved), shuffle_start);
            },
            EventClass::kRetry);
      });
}

void JobRunner::finish_reduce(const ContainerGrant& grant, SimTime start) {
  const double mib = static_cast<double>(shuffle_bytes_ / reduce_count_) /
                     static_cast<double>(kMiB);
  const Duration compute =
      Duration::seconds(spec_.compute.reduce_cpu_secs_per_mib * mib);
  // Merge compute and the output write overlap: reducers stream merged
  // output to the DFS as they go. The write still rides the local
  // device channel, so write-heavy jobs (sort) contend with reads.
  auto barrier = std::make_shared<int>(2);
  auto arm = [this, grant, start, barrier] {
    if (--*barrier > 0) return;
    if (!rm_.holds(grant)) return;
    if (metrics_ != nullptr) {
      metrics_->add_task(
          {TaskKind::kReduce, start, sim_.now() - start, Duration::zero()});
    }
    rm_.release_container(grant);
    on_reduce_done();
  };
  sim_.schedule(compute, arm);
  const Bytes output_share = output_bytes_ / reduce_count_;
  if (output_share > 0) {
    dfs_.namenode().datanode(grant.node)->write(output_share, arm);
  } else {
    arm();
  }
}

void JobRunner::on_reduce_done() {
  ++reduces_done_;
  if (reduces_done_ == static_cast<std::size_t>(reduce_count_)) finish_job();
}

void JobRunner::finish_job() {
  // Output commit + teardown before the job is reported complete.
  sim_.schedule(spec_.commit_overhead, [this] { complete(); });
}

void JobRunner::complete() {
  IGNEM_CHECK(!finished_);
  finished_ = true;
  rm_.complete_job(id_);

  // The job submitter's completion hook: drop this job's references so the
  // slaves can release migration memory (§III-A4).
  if (spec_.use_ignem) {
    MigrationRequest request;
    request.op = MigrationOp::kEvict;
    request.job = id_;
    request.job_input_bytes = input_bytes_;
    request.files = spec_.inputs;
    dfs_.migrate(request);
  }

  JobRecord record;
  record.job = id_;
  record.name = spec_.name;
  record.input_bytes = input_bytes_;
  record.submit = submit_time_;
  record.first_task_start =
      first_task_start_ == SimTime::max() ? submit_time_ : first_task_start_;
  record.end = sim_.now();
  record.duration = record.end - record.submit;
  record.failed = failed_;

  // A finished job reads its per-task state no more: every attempt has
  // released its container, so a superseded one that fires late drops out
  // on rm_.holds before touching it.
  maps_ = std::vector<MapTask>();
  map_output_nodes_.clear();

  if (metrics_ != nullptr) metrics_->add_job(record);
  on_complete_(record);
}

}  // namespace ignem

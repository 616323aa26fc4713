#include "metrics/run_metrics.h"

namespace ignem {

void MemoryFootprint::add(Bytes locked_bytes) {
  if (locked_bytes <= 0) return;
  const double gib =
      static_cast<double>(locked_bytes) / static_cast<double>(kGiB);
  sum_gib_ += gib;
  histogram_.add(gib);
}

double MemoryFootprint::mean_gib() const {
  if (count() == 0) return 0.0;
  return sum_gib_ / static_cast<double>(count());
}

Samples RunMetrics::job_durations_seconds() const {
  Samples s;
  s.reserve(jobs_.size());
  for (const auto& j : jobs_) s.add(j.duration.to_seconds());
  return s;
}

Samples RunMetrics::task_durations_seconds(TaskKind kind) const {
  Samples s;
  for (const auto& t : tasks_) {
    if (t.kind == kind) s.add(t.duration.to_seconds());
  }
  return s;
}

Samples RunMetrics::block_read_seconds() const {
  Samples s;
  s.reserve(block_reads_.size());
  for (const auto& r : block_reads_) {
    if (!r.failed) s.add(r.duration.to_seconds());
  }
  return s;
}

double RunMetrics::mean_job_duration_seconds() const {
  return job_durations_seconds().mean();
}

double RunMetrics::mean_map_task_seconds() const {
  return task_durations_seconds(TaskKind::kMap).mean();
}

double RunMetrics::mean_block_read_seconds() const {
  return block_read_seconds().mean();
}

double RunMetrics::memory_read_fraction() const {
  std::size_t hits = 0;
  std::size_t completed = 0;
  for (const auto& r : block_reads_) {
    if (r.failed) continue;
    ++completed;
    if (r.from_memory) ++hits;
  }
  if (completed == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(completed);
}

}  // namespace ignem

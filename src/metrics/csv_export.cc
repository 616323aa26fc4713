#include "metrics/csv_export.h"

namespace ignem {

namespace {
// CSV needs full precision but no locale surprises; values here are simple
// numerics so operator<< suffices.
const char* bool_str(bool b) { return b ? "1" : "0"; }
}  // namespace

std::string csv_escape(const std::string& field) {
  if (field.find_first_of(",\"\n\r") == std::string::npos) return field;
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

void write_block_reads_csv(const RunMetrics& metrics, std::ostream& os) {
  os << "block,job,reader,bytes,start_s,duration_s,from_memory,remote\n";
  for (const auto& r : metrics.block_reads()) {
    os << r.block << ',' << r.job << ',' << r.reader << ',' << r.bytes << ','
       << r.start.to_seconds() << ',' << r.duration.to_seconds() << ','
       << bool_str(r.from_memory) << ',' << bool_str(r.remote) << '\n';
  }
}

void write_tasks_csv(const RunMetrics& metrics, std::ostream& os) {
  os << "task,job,node,kind,input_bytes,launch_s,duration_s,read_s\n";
  for (const auto& t : metrics.tasks()) {
    os << t.task << ',' << t.job << ',' << t.node << ','
       << (t.kind == TaskKind::kMap ? "map" : "reduce") << ','
       << t.input_bytes << ',' << t.launch.to_seconds() << ','
       << t.duration.to_seconds() << ',' << t.read_time.to_seconds() << '\n';
  }
}

void write_jobs_csv(const RunMetrics& metrics, std::ostream& os) {
  os << "job,name,input_bytes,submit_s,first_task_s,end_s,duration_s\n";
  for (const auto& j : metrics.jobs()) {
    os << j.job << ',' << csv_escape(j.name) << ',' << j.input_bytes << ','
       << j.submit.to_seconds() << ',' << j.first_task_start.to_seconds()
       << ',' << j.end.to_seconds() << ',' << j.duration.to_seconds() << '\n';
  }
}

void write_integrity_csv(const IntegrityStats& integrity,
                         const ScrubberStats& scrubber, std::ostream& os) {
  os << "disk_corrupt_detected,cache_corrupt_detected,cache_copies_purged,"
        "blocks_scanned,scrub_corrupt_found\n";
  os << integrity.disk_corrupt_detected << ','
     << integrity.cache_corrupt_detected << ','
     << integrity.cache_copies_purged << ',' << scrubber.blocks_scanned << ','
     << scrubber.corrupt_found << '\n';
}

double tier_cost_total(const std::vector<TierSpec>& tiers) {
  double total = 0.0;
  for (const TierSpec& tier : tiers) {
    total +=
        tier.cost_per_gib * (static_cast<double>(tier.capacity) / kGiB);
  }
  return total;
}

void write_tier_cost_csv(const std::vector<TierSpec>& tiers,
                         std::ostream& os) {
  os << "tier,capacity_gib,cost_per_gib,cost\n";
  for (const TierSpec& tier : tiers) {
    const double gib = static_cast<double>(tier.capacity) / kGiB;
    os << csv_escape(tier.name) << ',' << gib << ',' << tier.cost_per_gib
       << ',' << tier.cost_per_gib * gib << '\n';
  }
  os << "total,,," << tier_cost_total(tiers) << '\n';
}

void write_timeseries_csv(const MetricsRegistry& registry, std::ostream& os) {
  os << "series,window_us,start_s,last,min,max,mean,count\n";
  for (const auto& [name, series] : registry.series()) {
    for (const TimeSeries::Window& w : series.windows()) {
      os << csv_escape(name) << ',' << series.window().count_micros() << ','
         << static_cast<double>(w.start_micros) / 1e6 << ',' << w.last << ','
         << w.min << ',' << w.max << ',' << w.mean() << ',' << w.count
         << '\n';
    }
  }
}

}  // namespace ignem

// Table I — mean job duration for the SWIM workload under HDFS, Ignem, and
// HDFS-Inputs-in-RAM.
//
// Paper: HDFS 14.4 s; Ignem 12.7 s (12% speedup); RAM 11.4 s (21%). Ignem
// realizes ~60% of the upper-bound benefit.
#include "bench/experiment_common.h"
#include "storage/tier.h"

namespace ignem::bench {
namespace {

void main_impl() {
  print_header("Table I: SWIM mean job duration");

  const auto runs = run_swim_modes(
      {RunMode::kHdfs, RunMode::kIgnem, RunMode::kHdfsInputsInRam});
  const double hdfs = runs[0]->metrics().mean_job_duration_seconds();
  const double ignem = runs[1]->metrics().mean_job_duration_seconds();
  const double ram = runs[2]->metrics().mean_job_duration_seconds();
  report().metric("hdfs_mean_job_s", hdfs);
  report().metric("ignem_mean_job_s", ignem);
  report().metric("ram_mean_job_s", ram);
  report().metric("ignem_speedup", speedup(hdfs, ignem));

  TextTable table({"Configuration", "Mean job duration (s)",
                   "Speedup w.r.t. HDFS", "Paper"});
  table.add_row({"HDFS", TextTable::fixed(hdfs, 2), "-", "14.4 s"});
  table.add_row({"Ignem", TextTable::fixed(ignem, 2),
                 TextTable::percent(speedup(hdfs, ignem)), "12.7 s (12%)"});
  table.add_row({"HDFS-Inputs-in-RAM", TextTable::fixed(ram, 2),
                 TextTable::percent(speedup(hdfs, ram)), "11.4 s (21%)"});
  std::cout << table.render() << "\n";

  std::cout << "Ignem realizes "
            << TextTable::percent(speedup(hdfs, ignem) / speedup(hdfs, ram))
            << " of the upper-bound benefit (paper: ~60%)\n";

  // Structured run report for the Ignem run: kernel self-profile,
  // locked-bytes series, cache-hit timeline. CI uploads it as an artifact.
  write_run_report(*runs[1], "table1_swim");

  // Hardware cost of the modeled per-node hierarchy — the denominator of
  // the paper's "speedup without buying more RAM" argument.
  const std::vector<TierSpec> tiers =
      two_tier_specs(runs[1]->primary_profile(),
                     runs[1]->config().cache_capacity_per_node);
  const double node_cost = tier_cost_total(tiers);
  report().metric("tier_cost_per_node", node_cost);
  std::cout << "Per-node tier cost (capacity x $/GiB):";
  for (const TierSpec& tier : tiers) {
    std::cout << "  " << tier.name << " "
              << TextTable::fixed(
                     tier.cost_per_gib *
                         (static_cast<double>(tier.capacity) / kGiB),
                     2);
  }
  std::cout << "  total " << TextTable::fixed(node_cost, 2) << "\n";
}

}  // namespace
}  // namespace ignem::bench

int main() { return ignem::bench::bench_main("table1_swim", ignem::bench::main_impl); }

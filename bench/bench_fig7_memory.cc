// Fig. 7 — per-server migration-memory usage: Ignem vs a hypothetical
// scheme that migrates and evicts instantaneously.
//
// Paper: Ignem's footprint is ~2.6x lower on average (non-zero samples),
// while still delivering ~60% of the hypothetical scheme's benefit.
#include "bench/experiment_common.h"

namespace ignem::bench {
namespace {

void main_impl() {
  print_header("Fig. 7: per-server migration memory, Ignem vs hypothetical");

  auto runs = run_swim_modes(
      {RunMode::kIgnem, RunMode::kInstantMigration, RunMode::kHdfs});
  auto& ignem = runs[0];
  auto& instant = runs[1];

  const MemoryFootprint& ignem_mem = ignem->metrics().memory_footprint();
  const MemoryFootprint& instant_mem = instant->metrics().memory_footprint();
  std::cout << ignem_mem.histogram_gib().render(
                   "Ignem per-server memory (GiB, non-zero samples)", "GiB")
            << "\n";
  std::cout << instant_mem.histogram_gib().render(
                   "Hypothetical instant scheme per-server memory (GiB)",
                   "GiB")
            << "\n";

  std::cout << "Mean non-zero memory: Ignem "
            << TextTable::fixed(ignem_mem.mean_gib(), 2)
            << " GiB vs hypothetical "
            << TextTable::fixed(instant_mem.mean_gib(), 2) << " GiB => "
            << TextTable::fixed(instant_mem.mean_gib() / ignem_mem.mean_gib(),
                                1)
            << "x lower for Ignem   (paper: 2.6x)\n";

  const double hdfs = runs[2]->metrics().mean_job_duration_seconds();
  report().metric("ignem_mean_nonzero_mem_gib", ignem_mem.mean_gib());
  report().metric("instant_mean_nonzero_mem_gib", instant_mem.mean_gib());
  const double ignem_jobs = ignem->metrics().mean_job_duration_seconds();
  const double instant_jobs = instant->metrics().mean_job_duration_seconds();
  std::cout << "Speedup: Ignem " << TextTable::percent(speedup(hdfs, ignem_jobs))
            << " vs hypothetical "
            << TextTable::percent(speedup(hdfs, instant_jobs))
            << " => Ignem delivers "
            << TextTable::percent(speedup(hdfs, ignem_jobs) /
                                  speedup(hdfs, instant_jobs))
            << " of the hypothetical benefit (paper: ~60%)\n";
}

}  // namespace
}  // namespace ignem::bench

int main() { return ignem::bench::bench_main("fig7_memory", ignem::bench::main_impl); }

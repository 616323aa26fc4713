// Fig. 6 — CDF of HDFS block-read durations, HDFS vs Ignem.
//
// Paper: ~40% mean reduction; a large drop for the ~60% of blocks that were
// migrated and read from memory; even non-migrated blocks improve because
// migration moves disk IO earlier, cutting the contention they see.
#include "bench/experiment_common.h"

namespace ignem::bench {
namespace {

void main_impl() {
  print_header("Fig. 6: block read duration CDF, HDFS vs Ignem");

  auto runs = run_swim_modes({RunMode::kHdfs, RunMode::kIgnem});
  auto& hdfs = runs[0];
  auto& ignem = runs[1];

  const Samples hdfs_reads = hdfs->metrics().block_read_seconds();
  const Samples ignem_reads = ignem->metrics().block_read_seconds();

  TextTable table({"Percentile", "HDFS (s)", "Ignem (s)"});
  for (const double p : {10.0, 25.0, 50.0, 75.0, 90.0, 99.0}) {
    table.add_row({"p" + std::to_string(static_cast<int>(p)),
                   TextTable::fixed(hdfs_reads.percentile(p), 3),
                   TextTable::fixed(ignem_reads.percentile(p), 3)});
  }
  std::cout << table.render() << "\n";

  report().metric("mean_read_reduction",
                  speedup(hdfs_reads.mean(), ignem_reads.mean()));
  report().metric("memory_read_fraction",
                  ignem->metrics().memory_read_fraction());
  std::cout << "Mean block read: HDFS "
            << TextTable::fixed(hdfs_reads.mean(), 3) << " s -> Ignem "
            << TextTable::fixed(ignem_reads.mean(), 3) << " s, reduction "
            << TextTable::percent(speedup(hdfs_reads.mean(), ignem_reads.mean()))
            << "   (paper: ~40%)\n";
  std::cout << "Fraction of reads served from memory under Ignem: "
            << TextTable::percent(ignem->metrics().memory_read_fraction())
            << "   (paper: ~60% of blocks migrated)\n";

  // Non-migrated blocks also improve (less disk contention). A failed read
  // served nothing, so it counts as no disk read, as in block_read_seconds().
  Samples hdfs_disk, ignem_disk;
  for (const auto& read : hdfs->metrics().block_reads()) {
    if (!read.from_memory && !read.failed) {
      hdfs_disk.add(read.duration.to_seconds());
    }
  }
  for (const auto& read : ignem->metrics().block_reads()) {
    if (!read.from_memory && !read.failed) {
      ignem_disk.add(read.duration.to_seconds());
    }
  }
  std::cout << "Mean *disk-served* block read: HDFS "
            << TextTable::fixed(hdfs_disk.mean(), 3) << " s vs Ignem "
            << TextTable::fixed(ignem_disk.mean(), 3)
            << " s (non-migrated blocks see less contention)\n";
}

}  // namespace
}  // namespace ignem::bench

int main() { return ignem::bench::bench_main("fig6_block_cdf", ignem::bench::main_impl); }

// Fig. 1 — HDFS block-read time histograms for HDD vs SSD vs RAM.
//
// Paper finding: reads from RAM are on average ~160x faster than from HDD
// and ~7x faster than from SSD, because HDD throughput collapses under the
// concurrent reads of mapper waves.
#include "bench/experiment_common.h"

#include "common/histogram.h"

namespace ignem::bench {
namespace {

struct MediumResult {
  std::string label;
  double mean_read_s = 0;
  Samples reads;
};

MediumResult run(const std::string& label, RunMode mode, MediaType media) {
  auto testbed = run_swim(mode, media);
  MediumResult result;
  result.label = label;
  result.reads = testbed->metrics().block_read_seconds();
  result.mean_read_s = result.reads.mean();
  return result;
}

void main_impl() {
  print_header("Fig. 1: HDFS block read durations by storage medium");

  const std::vector<MediumResult> results = run_indexed_sweep(
      3,
      [](std::size_t i) {
        switch (i) {
          case 0: return run("HDD", RunMode::kHdfs, MediaType::kHdd);
          case 1: return run("SSD", RunMode::kHdfs, MediaType::kSsd);
          default:
            return run("RAM (vmtouch)", RunMode::kHdfsInputsInRam,
                       MediaType::kHdd);
        }
      },
      trace_requested() ? 1 : 0);
  const MediumResult& hdd = results[0];
  const MediumResult& ssd = results[1];
  const MediumResult& ram = results[2];
  report().metric("ram_vs_hdd_read_speedup", hdd.mean_read_s / ram.mean_read_s);
  report().metric("ram_vs_ssd_read_speedup", ssd.mean_read_s / ram.mean_read_s);

  for (const MediumResult* r : {&hdd, &ssd, &ram}) {
    Histogram histogram = Histogram::log(0.005, 2.0, 14);
    for (const double v : r->reads.values()) histogram.add(v);
    std::cout << histogram.render("Block reads from " + r->label, "s") << "\n";
  }

  TextTable table({"Medium", "Mean block read (s)", "p50 (s)", "p99 (s)"});
  for (const MediumResult* r : {&hdd, &ssd, &ram}) {
    table.add_row({r->label, TextTable::fixed(r->mean_read_s, 3),
                   TextTable::fixed(r->reads.percentile(50), 3),
                   TextTable::fixed(r->reads.percentile(99), 3)});
  }
  std::cout << table.render() << "\n";

  std::cout << "RAM vs HDD speedup: " << TextTable::fixed(
                   hdd.mean_read_s / ram.mean_read_s, 1)
            << "x   (paper: ~160x)\n";
  std::cout << "RAM vs SSD speedup: " << TextTable::fixed(
                   ssd.mean_read_s / ram.mean_read_s, 1)
            << "x   (paper: ~7x)\n";
}

}  // namespace
}  // namespace ignem::bench

int main() { return ignem::bench::bench_main("fig1_block_reads", ignem::bench::main_impl); }

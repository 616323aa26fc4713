// Related-work comparison (§I, §V) — hot-data promotion vs Ignem.
//
// Triple-H-style schemes promote blocks to RAM once access frequency makes
// them "hot"; PACMan keeps already-hot data cached. The paper's motivating
// claim is that neither helps the large class of jobs reading cold,
// singly-accessed data (30%+ of tasks in production). This bench runs both
// schemes on (a) the SWIM workload, whose inputs are singly read, and (b)
// an iterative workload (five passes over one dataset, the Spark/ML regime
// where hot-data schemes shine).
#include "bench/experiment_common.h"

#include "workload/standalone.h"

namespace ignem::bench {
namespace {

double iterative_mean_job(RunMode mode) {
  Testbed testbed(paper_testbed(mode));
  JobSpec pass = make_grep_job(testbed, "/iter", 2 * kGiB);
  std::vector<ScheduledJob> jobs;
  for (int i = 0; i < 5; ++i) {
    ScheduledJob job;
    job.arrival = Duration::seconds(i * 60.0);
    job.spec = pass;
    job.spec.name = "pass-" + std::to_string(i);
    jobs.push_back(job);
  }
  testbed.run_workload(std::move(jobs));
  report().add_run(testbed);
  // The one run of the baseline that promotes: its report shows the
  // promotions and the tier moves they made.
  if (mode == RunMode::kHotDataPromotion) {
    write_run_report(testbed, "related_hotdata_iterative");
  }
  return testbed.metrics().mean_job_duration_seconds();
}

void main_impl() {
  print_header("Related work (SV): hot-data promotion vs Ignem");

  const std::vector<RunMode> modes = {RunMode::kHdfs,
                                      RunMode::kHotDataPromotion,
                                      RunMode::kIgnem};

  std::cout << "(a) SWIM — cold, singly-read inputs\n\n";
  TextTable swim_table({"Scheme", "Mean job (s)", "Speedup", "Memory reads"});
  const auto runs = run_swim_modes(modes);
  const double hdfs_mean = runs[0]->metrics().mean_job_duration_seconds();
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const double mean = runs[i]->metrics().mean_job_duration_seconds();
    swim_table.add_row(
        {run_mode_name(modes[i]), TextTable::fixed(mean, 2),
         i == 0 ? "-" : TextTable::percent(speedup(hdfs_mean, mean)),
         TextTable::percent(runs[i]->metrics().memory_read_fraction())});
  }
  report().metric(
      "swim_hotdata_speedup",
      speedup(hdfs_mean, runs[1]->metrics().mean_job_duration_seconds()));
  report().metric(
      "swim_ignem_speedup",
      speedup(hdfs_mean, runs[2]->metrics().mean_job_duration_seconds()));
  std::cout << swim_table.render() << "\n";

  std::cout << "(b) Iterative — five passes over one 2 GB dataset\n\n";
  TextTable iter_table({"Scheme", "Mean pass (s)", "Speedup"});
  const std::vector<double> iter = run_indexed_sweep(
      modes.size(),
      [&](std::size_t i) { return iterative_mean_job(modes[i]); },
      trace_requested() ? 1 : 0);
  const double iter_hdfs = iter[0];
  iter_table.add_row({"HDFS", TextTable::fixed(iter_hdfs, 2), "-"});
  for (std::size_t i = 1; i < modes.size(); ++i) {
    iter_table.add_row({run_mode_name(modes[i]), TextTable::fixed(iter[i], 2),
                        TextTable::percent(speedup(iter_hdfs, iter[i]))});
  }
  report().metric("iter_hotdata_speedup", speedup(iter_hdfs, iter[1]));
  report().metric("iter_ignem_speedup", speedup(iter_hdfs, iter[2]));
  std::cout << iter_table.render() << "\n";

  std::cout << "Hot-data promotion buys nothing on singly-read inputs (the "
               "paper's motivating claim)\nbut works on the iterative "
               "workload; Ignem helps both, because it migrates on *intent* "
               "(the\nsubmitter's file list) rather than on access history.\n";
}

}  // namespace
}  // namespace ignem::bench

int main() { return ignem::bench::bench_main("related_hotdata", ignem::bench::main_impl); }

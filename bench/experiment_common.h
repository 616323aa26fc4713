// Shared configuration for the paper-reproduction benches.
//
// Every macro experiment runs on the same calibrated testbed, mirroring the
// paper's §IV-A setup: 8 servers, 1 HDD each, 10 Gbps network, 64 MB HDFS
// blocks, 3x replication, Hadoop-style 3 s heartbeats. Device constants
// live in src/storage/device.cc (profiles); they were calibrated once
// against the Fig. 1/Fig. 2 motivation ratios and are held fixed for all
// macro experiments — Tables I-III and Figs. 5-9 are emergent.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench/sweep_runner.h"
#include "core/testbed.h"
#include "metrics/report.h"
#include "metrics/table.h"
#include "workload/swim.h"

namespace ignem::bench {

/// Benches record a full event trace when IGNEM_TRACE_OUT=<path> is set;
/// maybe_dump_trace() writes it as JSONL after the run (docs/TRACING.md).
/// The environment is read once — callers get a stable pointer (or null).
inline const char* trace_out_path() {
  static const char* path = [] {
    const char* p = std::getenv("IGNEM_TRACE_OUT");
    return (p != nullptr && *p != '\0') ? p : nullptr;
  }();
  return path;
}

inline bool trace_requested() { return trace_out_path() != nullptr; }

inline void maybe_dump_trace(Testbed& testbed) {
  const char* path = trace_out_path();
  if (path == nullptr || testbed.trace() == nullptr) return;
  std::ofstream out(path, std::ios::trunc);
  if (!out.good()) {
    std::cerr << "[trace] cannot open " << path << "\n";
    return;
  }
  testbed.trace()->write_jsonl(out);
  std::cout << "[trace] " << testbed.trace()->size() << " events -> " << path
            << " (hash " << testbed.trace_hash() << ")\n";
}

/// Collects a bench's headline numbers and writes BENCH_<name>.json on
/// destruction: wall-clock, total kernel events dispatched across every run
/// (an ops/sec figure for the DES engine itself), and the bench's own
/// metrics. add_events() is atomic so parallel sweep workers can feed it.
class BenchReport {
 public:
  explicit BenchReport(std::string name)
      : name_(std::move(name)), start_(std::chrono::steady_clock::now()) {}

  BenchReport(const BenchReport&) = delete;
  BenchReport& operator=(const BenchReport&) = delete;

  ~BenchReport() { write(); }

  void metric(std::string key, double value) {
    metrics_.emplace_back(std::move(key), value);
  }

  void add_events(std::uint64_t n) {
    kernel_events_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Convenience: credit a finished run's dispatched events and stamp the
  /// run's config fingerprint into the JSON.
  void add_run(Testbed& testbed) {
    add_events(testbed.sim().events_dispatched());
    set_fingerprint(testbed.fingerprint());
  }

  /// Stamps the config fingerprint written into BENCH_<name>.json. The
  /// lowest sweep index wins, so a sweep whose runs differ (Fig. 2's HDD
  /// and SSD) stamps its first run's however its workers finish; among
  /// equal indices (outside a sweep) the first call wins. Thread-safe.
  void set_fingerprint(const ConfigFingerprint& fp,
                       std::size_t sweep_index = current_sweep_index()) {
    std::lock_guard<std::mutex> lock(fingerprint_mutex_);
    if (!fingerprint_.has_value() || sweep_index < fingerprint_index_) {
      fingerprint_ = fp;
      fingerprint_index_ = sweep_index;
    }
  }

  void write() {
    if (written_) return;
    written_ = true;
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    const auto events = static_cast<double>(kernel_events_.load());
    const std::string file = "BENCH_" + name_ + ".json";
    std::ofstream out(file, std::ios::trunc);
    if (!out.good()) {
      std::cerr << "[bench-json] cannot open " << file << "\n";
      return;
    }
    out << "{\n  \"bench\": \"" << name_ << "\",\n";
    {
      std::lock_guard<std::mutex> lock(fingerprint_mutex_);
      // Benches that never run a Testbed (trace analyses, the kernel
      // microbenchmarks) have no cluster to describe and omit the block.
      if (fingerprint_.has_value()) {
        out << "  \"fingerprint\": ";
        fingerprint_->write_json(out, 2);
        out << ",\n";
      }
    }
    out << "  \"wall_seconds\": " << wall << ",\n";
    out << "  \"kernel_events\": " << kernel_events_.load() << ",\n";
    out << "  \"kernel_events_per_sec\": " << (wall > 0 ? events / wall : 0)
        << ",\n";
    out << "  \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      out << (i == 0 ? "\n" : ",\n") << "    \"" << metrics_[i].first
          << "\": " << metrics_[i].second;
    }
    out << (metrics_.empty() ? "}" : "\n  }") << "\n}\n";
    std::cout << "[bench-json] wrote " << file << "\n";
  }

 private:
  std::string name_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> kernel_events_{0};
  std::vector<std::pair<std::string, double>> metrics_;
  std::mutex fingerprint_mutex_;
  std::optional<ConfigFingerprint> fingerprint_;
  std::size_t fingerprint_index_ = 0;
  bool written_ = false;
};

namespace detail {
inline BenchReport* g_report = nullptr;
}  // namespace detail

/// The active bench's report (valid inside bench_main). run_swim() credits
/// kernel events to it automatically.
inline BenchReport& report() {
  IGNEM_CHECK(detail::g_report != nullptr);
  return *detail::g_report;
}

/// Uniform bench entry point: wraps the body in a BenchReport so every
/// bench writes BENCH_<name>.json (wall clock, kernel events/sec, metrics).
inline int bench_main(const char* name, void (*body)()) {
  BenchReport bench_report(name);
  detail::g_report = &bench_report;
  body();
  detail::g_report = nullptr;
  return 0;
}

/// The paper's 8-server cluster (§IV-A).
inline TestbedConfig paper_testbed(RunMode mode,
                                   MediaType media = MediaType::kHdd) {
  TestbedConfig config;
  config.mode = mode;
  config.storage_media = media;
  config.cluster.node_count = 8;
  config.cluster.slots_per_node = 6;  // one mapper per core (Xeon E5-1650)
  config.cluster.heartbeat_interval = Duration::seconds(3.0);
  config.cluster.locality_delay = Duration::seconds(3.0);
  config.cluster.container_launch = Duration::seconds(1.0);
  // 128 GB servers: large enough for the vmtouch configuration to pin all
  // input replicas. The pool is also an Ignem slave's only budget: it locks
  // each migrated block there until the block's last job reads it or ends.
  config.cache_capacity_per_node = 100 * kGiB;
  config.replication = 3;
  config.block_size = 64 * kMiB;
  config.seed = 42;
  config.enable_trace = trace_requested();
  return config;
}

/// The paper's SWIM scaling (§IV-B1): 200 jobs, 170 GB, halved arrivals.
inline SwimConfig paper_swim() { return SwimConfig{}; }

/// Runs the SWIM workload under a mode and returns the testbed (metrics
/// inside). Deterministic: same seed => same workload across modes.
inline std::unique_ptr<Testbed> run_swim(RunMode mode,
                                         MediaType media = MediaType::kHdd,
                                         BenchReport* report = nullptr) {
  auto testbed = std::make_unique<Testbed>(paper_testbed(mode, media));
  testbed->run_workload(build_swim_workload(*testbed, paper_swim()));
  maybe_dump_trace(*testbed);
  if (report == nullptr) report = detail::g_report;
  if (report != nullptr) report->add_run(*testbed);
  return testbed;
}

/// Runs the SWIM workload under several modes through the parallel sweep
/// runner; results come back in `modes` order regardless of worker count.
/// Falls back to one worker when tracing (the dump shares one output path).
inline std::vector<std::unique_ptr<Testbed>> run_swim_modes(
    const std::vector<RunMode>& modes, MediaType media = MediaType::kHdd,
    BenchReport* report = nullptr) {
  return run_indexed_sweep(
      modes.size(),
      [&](std::size_t i) { return run_swim(modes[i], media, report); },
      trace_requested() ? 1 : 0);
}

/// Writes a run's structured report to REPORT_<name>.json (CI uploads these
/// as artifacts next to BENCH_*.json). Deterministic: the file content is a
/// pure function of config + seed — no wall-clock numbers.
inline void write_run_report(Testbed& testbed, const std::string& name) {
  const RunReport run_report = testbed.build_run_report(name);
  const std::string file = "REPORT_" + name + ".json";
  std::ofstream out(file, std::ios::trunc);
  if (!out.good()) {
    std::cerr << "[run-report] cannot open " << file << "\n";
    return;
  }
  run_report.write_json(out);
  std::cout << "[run-report] wrote " << file << "\n";
}

inline void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

inline double speedup(double baseline, double value) {
  return (baseline - value) / baseline;
}

}  // namespace ignem::bench

// pin_dump: dumps every pinned scenario (tests/pin_scenarios.h) and
// compares two dumps. scripts/regen_pins.sh builds it twice, against an
// older commit's simulator sources and against the working tree's, and
// reads the comparison.
//
//   pin_dump dump <dir>              runs each scenario; writes
//                                    <dir>/<name>.trace (binary trace) and
//                                    <dir>/pins.txt ("<name> <pin values>")
//   pin_dump compare <old> <new>     prints, per scenario, the old and new
//                                    pin values, the first divergence, the
//                                    same with kTier* events dropped and
//                                    seq ignored, and the per-job end-time
//                                    deltas; then a summary table
//
// Job end times are the kJobComplete event times. Exits non-zero only when
// a dump cannot be written or read.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench/sweep_runner.h"
#include "obs/trace_diff.h"
#include "obs/trace_recorder.h"
#include "pin_scenarios.h"

namespace ignem {
namespace {

std::string trace_path(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".trace";
}

int dump(const std::string& dir) {
  const std::vector<pins::Scenario> scenarios = pins::all_scenarios();
  const std::vector<std::string> lines = bench::run_indexed_sweep(
      scenarios.size(), [&](std::size_t i) {
        const pins::Scenario& scenario = scenarios[i];
        const pins::PinnedRun run = scenario.run();
        const std::string path = trace_path(dir, scenario.name);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        run.testbed->trace()->write_binary(out);
        if (!out.good()) throw std::runtime_error("cannot write " + path);
        return scenario.name + " " + run.pin;
      });
  std::ofstream pins_out(dir + "/pins.txt", std::ios::trunc);
  for (const std::string& line : lines) pins_out << line << "\n";
  if (!pins_out.good()) {
    std::cerr << "pin_dump: cannot write " << dir << "/pins.txt\n";
    return 1;
  }
  std::cout << "pin_dump: " << lines.size() << " scenarios -> " << dir
            << "\n";
  return 0;
}

/// Scenario name -> pin values, in file order.
std::vector<std::pair<std::string, std::string>> read_pins(
    const std::string& dir) {
  std::ifstream in(dir + "/pins.txt");
  if (!in.good()) throw std::runtime_error("cannot read " + dir + "/pins.txt");
  std::vector<std::pair<std::string, std::string>> pins;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t space = line.find(' ');
    pins.emplace_back(line.substr(0, space),
                      space == std::string::npos ? "" : line.substr(space + 1));
  }
  return pins;
}

std::vector<TraceEvent> read_trace(const std::string& dir,
                                   const std::string& name) {
  std::ifstream in(trace_path(dir, name), std::ios::binary);
  if (!in.good()) {
    throw std::runtime_error("cannot read " + trace_path(dir, name));
  }
  return TraceRecorder::read_binary(in);
}

bool is_tier_event(const TraceEvent& event) {
  return event.type == TraceEventType::kTierInit ||
         event.type == TraceEventType::kTierPromote ||
         event.type == TraceEventType::kTierDemote;
}

/// The trace without kTier* events, every seq zeroed.
std::vector<TraceEvent> sans_tier_events(const std::vector<TraceEvent>& in) {
  std::vector<TraceEvent> out;
  out.reserve(in.size());
  for (TraceEvent event : in) {
    if (is_tier_event(event)) continue;
    event.seq = 0;
    out.push_back(event);
  }
  return out;
}

std::map<std::int64_t, SimTime> job_end_times(
    const std::vector<TraceEvent>& events) {
  std::map<std::int64_t, SimTime> ends;
  for (const TraceEvent& event : events) {
    if (event.type == TraceEventType::kJobComplete) {
      ends[event.job.value()] = event.time;
    }
  }
  return ends;
}

struct JobDeltas {
  std::size_t jobs = 0;       ///< Jobs that completed in both runs.
  std::size_t unmatched = 0;  ///< Jobs that completed in only one run.
  std::size_t moved = 0;      ///< Matched jobs whose end time changed.
  double max_abs_s = 0.0;
  double mean_abs_s = 0.0;  ///< Over every matched job.
};

JobDeltas job_deltas(const std::vector<TraceEvent>& before,
                     const std::vector<TraceEvent>& after) {
  const auto old_ends = job_end_times(before);
  const auto new_ends = job_end_times(after);
  JobDeltas d;
  double sum = 0.0;
  for (const auto& [job, old_end] : old_ends) {
    const auto it = new_ends.find(job);
    if (it == new_ends.end()) {
      ++d.unmatched;
      continue;
    }
    ++d.jobs;
    const double delta = std::abs((it->second - old_end).to_seconds());
    if (delta > 0.0) ++d.moved;
    d.max_abs_s = std::max(d.max_abs_s, delta);
    sum += delta;
  }
  for (const auto& [job, new_end] : new_ends) {
    if (!old_ends.contains(job)) ++d.unmatched;
  }
  if (d.jobs > 0) d.mean_abs_s = sum / static_cast<double>(d.jobs);
  return d;
}

std::size_t count_tier_events(const std::vector<TraceEvent>& events) {
  std::size_t n = 0;
  for (const TraceEvent& event : events) n += is_tier_event(event) ? 1 : 0;
  return n;
}

void print_indented(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) std::cout << "      " << line << "\n";
}

int compare(const std::string& old_dir, const std::string& new_dir) {
  const auto old_pins = read_pins(old_dir);
  std::map<std::string, std::string> new_pins;
  for (auto& [name, pin] : read_pins(new_dir)) new_pins[name] = pin;

  struct Row {
    std::string name;
    bool pin_moved;
    bool identical;
    bool identical_sans_tier;
    JobDeltas jobs;
  };
  std::vector<Row> rows;
  std::cout << std::fixed << std::setprecision(6);
  for (const auto& [name, old_pin] : old_pins) {
    const auto it = new_pins.find(name);
    if (it == new_pins.end()) {
      std::cout << "== " << name << ": only in the base dump\n\n";
      continue;
    }
    const std::string& new_pin = it->second;
    const std::vector<TraceEvent> before = read_trace(old_dir, name);
    const std::vector<TraceEvent> after = read_trace(new_dir, name);
    const TraceDiffResult diff = diff_traces(before, after);
    const TraceDiffResult sans =
        diff_traces(sans_tier_events(before), sans_tier_events(after));
    const JobDeltas jobs = job_deltas(before, after);
    rows.push_back({name, old_pin != new_pin, diff.identical,
                    sans.identical, jobs});

    std::cout << "== " << name << "\n";
    std::cout << "  pin     " << old_pin << "\n"
              << "       -> " << new_pin
              << (old_pin == new_pin ? "  (unchanged)" : "") << "\n";
    std::cout << "  events  " << before.size() << " -> " << after.size()
              << " (kTier* " << count_tier_events(before) << " -> "
              << count_tier_events(after) << ")\n";
    if (diff.identical) {
      std::cout << "  trace   identical\n";
    } else {
      std::cout << "  trace   first divergence at event "
                << diff.first_divergence << " (a = base, b = working tree)\n";
      print_indented(diff.description);
    }
    if (sans.identical) {
      std::cout << "  sans kTier*, seq ignored: identical\n";
    } else {
      std::cout << "  sans kTier*, seq ignored: first divergence at event "
                << sans.first_divergence << "\n";
      print_indented(sans.description);
    }
    std::cout << "  jobs    " << jobs.jobs << " completed in both";
    if (jobs.unmatched > 0) {
      std::cout << ", " << jobs.unmatched << " in only one";
    }
    std::cout << "; moved " << jobs.moved << "; max |d end| "
              << jobs.max_abs_s << " s; mean |d end| " << jobs.mean_abs_s
              << " s\n\n";
  }
  for (const auto& [name, pin] : new_pins) {
    const bool in_old = std::any_of(
        old_pins.begin(), old_pins.end(),
        [&](const auto& entry) { return entry.first == name; });
    if (!in_old) std::cout << "== " << name << ": only in the new dump\n\n";
  }

  std::cout << "Summary (a = base, b = working tree; |d end| in seconds)\n";
  std::cout << std::left << std::setw(34) << "scenario" << std::setw(7)
            << "pin" << std::setw(11) << "trace" << std::setw(13)
            << "sans kTier*" << std::setw(7) << "jobs" << std::setw(7)
            << "moved" << std::setw(12) << "max |d|"
            << "mean |d|\n";
  for (const Row& row : rows) {
    std::cout << std::setw(34) << row.name << std::setw(7)
              << (row.pin_moved ? "moved" : "same") << std::setw(11)
              << (row.identical ? "identical" : "differs") << std::setw(13)
              << (row.identical_sans_tier ? "identical" : "differs")
              << std::setw(7) << row.jobs.jobs << std::setw(7)
              << row.jobs.moved << std::setw(12) << row.jobs.max_abs_s
              << row.jobs.mean_abs_s << "\n";
  }
  return 0;
}

}  // namespace
}  // namespace ignem

int main(int argc, char** argv) {
  const std::string usage =
      "usage: pin_dump dump <dir> | pin_dump compare <old-dir> <new-dir>\n";
  try {
    const std::string command = argc > 1 ? argv[1] : "";
    if (command == "dump" && argc == 3) return ignem::dump(argv[2]);
    if (command == "compare" && argc == 4) {
      return ignem::compare(argv[2], argv[3]);
    }
  } catch (const std::exception& e) {
    std::cerr << "pin_dump: " << e.what() << "\n";
    return 1;
  }
  std::cerr << usage;
  return 2;
}

// pin_dump: dumps every pinned scenario (tests/pin_scenarios.h) and
// compares two dumps. scripts/regen_pins.sh builds it twice, against an
// older commit's simulator sources and against the working tree's, and
// reads the comparison.
//
//   pin_dump dump <dir>              runs each scenario; writes
//                                    <dir>/<name>.trace (the binary trace
//                                    or, for the golden, its slice),
//                                    <dir>/pins.txt ("<name> <pin values>")
//                                    and <dir>/types.txt (this build's
//                                    event-type names in enum order)
//   pin_dump compare <old> <new>     prints, per scenario, the old and new
//                                    pin values, the first divergence, the
//                                    same with the events of one-sided
//                                    types dropped and seq ignored, and the
//                                    per-job end-time deltas; then a
//                                    summary table
//
// The two builds may number event types differently: an enum change shifts
// every type after it. So compare maps each dump's type numbers onto this
// build's enum through the dump's own types.txt, by name. A type only one
// of the two dumps knows is one-sided; its events read as kCount (when
// this build lacks it) and always count as a divergence in the full
// comparison. Job end times are the kJobComplete event times. Exits
// non-zero only when a dump cannot be written or read.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
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

std::string types_path(const std::string& dir) { return dir + "/types.txt"; }

int dump(const std::string& dir) {
  const std::vector<pins::Scenario> scenarios = pins::all_scenarios();
  const std::vector<std::string> lines = bench::run_indexed_sweep(
      scenarios.size(), [&](std::size_t i) {
        const pins::Scenario& scenario = scenarios[i];
        const pins::PinnedRun run = scenario.run();
        const std::string path = trace_path(dir, scenario.name);
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        (run.slice ? *run.slice : *run.testbed->trace()).write_binary(out);
        if (!out.good()) throw std::runtime_error("cannot write " + path);
        return scenario.name + " " + run.pin;
      });
  std::ofstream pins_out(dir + "/pins.txt", std::ios::trunc);
  for (const std::string& line : lines) pins_out << line << "\n";
  std::ofstream types_out(types_path(dir), std::ios::trunc);
  for (std::size_t t = 0; t < kTraceEventTypeCount; ++t) {
    types_out << trace_event_name(static_cast<TraceEventType>(t)) << "\n";
  }
  if (!pins_out.good() || !types_out.good()) {
    std::cerr << "pin_dump: cannot write " << dir << "/pins.txt or "
              << types_path(dir) << "\n";
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

/// A dump's event-type names, indexed by the type numbers its traces use.
std::vector<std::string> read_types(const std::string& dir) {
  std::ifstream in(types_path(dir));
  if (!in.good()) throw std::runtime_error("cannot read " + types_path(dir));
  std::vector<std::string> names;
  std::string name;
  while (std::getline(in, name)) names.push_back(name);
  return names;
}

/// One dump's traces, read with its type numbers mapped by name onto this
/// build's enum; a name this build lacks maps to kCount. `one_sided` names
/// the types only one of the two dumps has (one_sided_types()).
class DumpReader {
 public:
  DumpReader(std::string dir,
             const std::map<std::string, std::string>& one_sided)
      : dir_(std::move(dir)), names_(read_types(dir_)) {
    std::map<std::string, TraceEventType> ours;
    for (std::size_t t = 0; t < kTraceEventTypeCount; ++t) {
      const auto type = static_cast<TraceEventType>(t);
      ours.emplace(trace_event_name(type), type);
    }
    for (const std::string& name : names_) {
      const auto it = ours.find(name);
      types_.push_back(it == ours.end() ? TraceEventType::kCount : it->second);
      if (one_sided.contains(name)) dropped_.insert(types_.back());
    }
  }

  /// The scenario's whole trace, and the per-type counts of its one-sided
  /// events (by name).
  std::vector<TraceEvent> read(const std::string& scenario,
                               std::map<std::string, std::size_t>& one_sided)
      const {
    // write_binary's layout: an 8-byte magic, the event count, then nine
    // little-endian u64 fields per event (seq, time, type, node, block,
    // job, bytes, detail, value).
    const std::string path = trace_path(dir_, scenario);
    std::ifstream in(path, std::ios::binary);
    char magic[8];
    in.read(magic, sizeof(magic));
    if (!in.good() || std::string(magic, sizeof(magic)) != "IGNTRC01") {
      throw std::runtime_error(path + " is not an ignem binary trace");
    }
    const auto u64 = [&] {
      unsigned char bytes[8];
      in.read(reinterpret_cast<char*>(bytes), sizeof(bytes));
      if (!in.good()) throw std::runtime_error("cannot read " + path);
      std::uint64_t v = 0;
      for (int i = 7; i >= 0; --i) v = (v << 8) | bytes[i];
      return v;
    };
    const std::uint64_t count = u64();
    std::vector<TraceEvent> events;
    for (std::uint64_t i = 0; i < count; ++i) {
      TraceEvent event;
      event.seq = u64();
      event.time = SimTime(static_cast<std::int64_t>(u64()));
      const std::uint64_t type = u64();
      if (type >= types_.size()) {
        throw std::runtime_error(path + ": event type " +
                                 std::to_string(type) + " not in types.txt");
      }
      event.type = types_[type];
      if (dropped_.contains(event.type)) ++one_sided[names_[type]];
      event.node = NodeId(static_cast<std::int64_t>(u64()));
      event.block = BlockId(static_cast<std::int64_t>(u64()));
      event.job = JobId(static_cast<std::int64_t>(u64()));
      event.bytes = static_cast<Bytes>(u64());
      event.detail = static_cast<std::int64_t>(u64());
      event.value = std::bit_cast<double>(u64());
      events.push_back(event);
    }
    return events;
  }

  /// `events` (from read()) without the one-sided ones, every seq zeroed.
  std::vector<TraceEvent> sans_one_sided(
      const std::vector<TraceEvent>& events) const {
    std::vector<TraceEvent> out;
    out.reserve(events.size());
    for (TraceEvent event : events) {
      if (dropped_.contains(event.type)) continue;
      event.seq = 0;
      out.push_back(event);
    }
    return out;
  }

 private:
  std::string dir_;
  std::vector<std::string> names_;
  std::vector<TraceEventType> types_;  ///< Dump type number -> ours.
  std::set<TraceEventType> dropped_;   ///< Ours, for one-sided names.
};

/// Event types only one of two type tables names, each tagged with the
/// side that has it.
std::map<std::string, std::string> one_sided_types(
    const std::vector<std::string>& base,
    const std::vector<std::string>& head) {
  const std::set<std::string> in_base(base.begin(), base.end());
  const std::set<std::string> in_head(head.begin(), head.end());
  std::map<std::string, std::string> sides;
  for (const std::string& name : in_base) {
    if (!in_head.contains(name)) sides[name] = "base only";
  }
  for (const std::string& name : in_head) {
    if (!in_base.contains(name)) sides[name] = "working tree only";
  }
  return sides;
}

std::string describe_counts(const std::map<std::string, std::size_t>& counts) {
  if (counts.empty()) return "none";
  std::string out;
  for (const auto& [name, n] : counts) {
    out += (out.empty() ? "" : ", ") + name + " " + std::to_string(n);
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

void print_indented(const std::string& text) {
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) std::cout << "      " << line << "\n";
}

int compare(const std::string& old_dir, const std::string& new_dir) {
  const auto old_pins = read_pins(old_dir);
  std::map<std::string, std::string> new_pins;
  for (auto& [name, pin] : read_pins(new_dir)) new_pins[name] = pin;
  const std::map<std::string, std::string> sides =
      one_sided_types(read_types(old_dir), read_types(new_dir));
  const DumpReader old_reader(old_dir, sides);
  const DumpReader new_reader(new_dir, sides);

  struct Row {
    std::string name;
    bool pin_moved;
    bool identical;
    bool identical_sans_one_sided;
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
    std::map<std::string, std::size_t> old_one_sided;
    std::map<std::string, std::size_t> new_one_sided;
    const std::vector<TraceEvent> before = old_reader.read(name, old_one_sided);
    const std::vector<TraceEvent> after = new_reader.read(name, new_one_sided);
    const TraceDiffResult diff = diff_traces(before, after);
    const TraceDiffResult sans =
        diff_traces(old_reader.sans_one_sided(before),
                    new_reader.sans_one_sided(after));
    const JobDeltas jobs = job_deltas(before, after);
    // An event of a one-sided type is a difference even where the mapped
    // fields happen to agree.
    const bool identical = diff.identical && old_one_sided.empty() &&
                           new_one_sided.empty();
    rows.push_back({name, old_pin != new_pin, identical, sans.identical, jobs});

    std::cout << "== " << name << "\n";
    std::cout << "  pin     " << old_pin << "\n"
              << "       -> " << new_pin
              << (old_pin == new_pin ? "  (unchanged)" : "") << "\n";
    std::cout << "  events  " << before.size() << " -> " << after.size()
              << " (one-sided: " << describe_counts(old_one_sided) << " -> "
              << describe_counts(new_one_sided) << ")\n";
    if (identical) {
      std::cout << "  trace   identical\n";
    } else if (diff.identical) {
      std::cout << "  trace   differs only by its one-sided types\n";
    } else {
      std::cout << "  trace   first divergence at event "
                << diff.first_divergence << " (a = base, b = working tree)\n";
      print_indented(diff.description);
    }
    if (sans.identical) {
      std::cout << "  sans one-sided types, seq ignored: identical\n";
    } else {
      std::cout << "  sans one-sided types, seq ignored: first divergence at "
                << "event " << sans.first_divergence << "\n";
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
  std::cout << "One-sided types, dropped from the \"sans 1-sided\" column: ";
  std::string dropped;
  for (const auto& [name, side] : sides) {
    dropped += (dropped.empty() ? "" : ", ") + name + " (" + side + ")";
  }
  std::cout << (dropped.empty() ? "none" : dropped) << "\n";
  std::cout << std::left << std::setw(34) << "scenario" << std::setw(7)
            << "pin" << std::setw(11) << "trace" << std::setw(14)
            << "sans 1-sided" << std::setw(7) << "jobs" << std::setw(7)
            << "moved" << std::setw(12) << "max |d|"
            << "mean |d|\n";
  for (const Row& row : rows) {
    std::cout << std::setw(34) << row.name << std::setw(7)
              << (row.pin_moved ? "moved" : "same") << std::setw(11)
              << (row.identical ? "identical" : "differs") << std::setw(14)
              << (row.identical_sans_one_sided ? "identical" : "differs")
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

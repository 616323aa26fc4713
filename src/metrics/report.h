// Structured end-of-run reports.
//
// A RunReport is the single JSON artifact a run leaves behind: the config
// fingerprint that identifies what was run, the kernel self-profile, the
// end-of-run counters and gauges each component reports about itself, every
// instrument in the run's MetricsRegistry, and a flat summary section of
// headline numbers. Everything in it is derived from simulated time and
// deterministic state — never the wall clock — so two identical seeded runs
// emit byte-identical files (pinned by metrics_test).
//
// The ConfigFingerprint deliberately excludes RunMode: a bench that sweeps
// several modes over one cluster shape shares a single fingerprint, and the
// mode appears at the report's top level instead.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "metrics/registry.h"
#include "sim/simulator.h"

namespace ignem {

/// Identifies the knobs that shape a run's event stream: cluster shape
/// (nodes, racks), seed, the control plane's path (direct or routed), and
/// storage/fault configuration. Stamped into every RunReport and every
/// Testbed bench's BENCH_*.json so a result can never be compared against
/// the wrong configuration silently.
struct ConfigFingerprint {
  std::uint64_t seed = 0;
  int nodes = 0;
  int racks = 0;
  int replication = 0;
  std::string storage_media;             ///< media_name() of the home tier.
  bool fault_tolerance = false;
  bool scrubber = false;
  std::string control_plane;             ///< "direct" or "routed".

  /// FNV-1a over the canonical field serialization; equal fingerprints hash
  /// equal, and the hash survives into artifacts that drop the full object.
  std::uint64_t hash() const;

  /// Canonical "k=v k=v ..." form (sorted, stable) — the hashed text.
  std::string canonical() const;

  void write_json(std::ostream& os, int indent) const;
};

/// The end-of-run structured report. Build one with
/// Testbed::build_run_report, then write_json() it to REPORT_<name>.json.
struct RunReport {
  std::string name;
  std::string mode;  ///< run_mode_name(); empty for non-testbed runs.
  ConfigFingerprint fingerprint;

  /// Kernel self-profile.
  KernelProfile kernel;

  /// Headline numbers (job durations, hit fractions) in insertion order.
  std::vector<std::pair<std::string, double>> summary;

  /// End-of-run counts, sorted by name. Each component adds its own under
  /// its report names (its `add_counters`); components that exist once per
  /// node add into the same names, so each entry is the cluster-wide sum.
  std::map<std::string, std::uint64_t> counters;
  /// End-of-run levels and ratios, sorted by name.
  std::map<std::string, double> gauges;

  /// Histograms and series to embed; null embeds none. Not owned — must
  /// outlive the report.
  const MetricsRegistry* registry = nullptr;

  void write_json(std::ostream& os) const;
};

/// Formats a double so the text round-trips to the same bits: the shortest
/// of %.15g/%.16g/%.17g that parses back exactly. Infinities and NaN (not
/// valid JSON) render as quoted strings.
std::string format_json_double(double v);

/// Escapes a string for inclusion in a JSON document (quotes included).
std::string json_quote(const std::string& s);

}  // namespace ignem

#include "metrics/report.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/fnv.h"

namespace ignem {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "0x%016" PRIx64, v);
  return buf;
}

const char* bool_json(bool b) { return b ? "true" : "false"; }

void pad(std::ostream& os, int indent) {
  for (int i = 0; i < indent; ++i) os.put(' ');
}

/// One top-level object of name -> value entries, in the map's (sorted)
/// order; `write_value` renders one value.
template <typename Map, typename WriteValue>
void write_section(std::ostream& os, const char* key, const Map& entries,
                   WriteValue write_value) {
  os << "  \"" << key << "\": {";
  bool first = true;
  for (const auto& [name, value] : entries) {
    os << (first ? "\n" : ",\n") << "    " << json_quote(name) << ": ";
    write_value(value);
    first = false;
  }
  os << (first ? "" : "\n  ") << "},\n";
}

/// Count, sum, min, max, mean and the non-empty [bucket_lo, count] pairs.
void write_histogram(std::ostream& os, const HistogramMetric& h) {
  os << "{\"count\": " << h.count() << ", \"sum\": " << h.sum()
     << ", \"min\": " << h.min() << ", \"max\": " << h.max()
     << ", \"mean\": " << format_json_double(h.mean()) << ", \"buckets\": [";
  bool first = true;
  for (std::size_t i = 0; i < HistogramMetric::kBuckets; ++i) {
    if (h.bucket_count(i) == 0) continue;
    if (!first) os << ", ";
    os << "[" << HistogramMetric::bucket_lo(i) << ", " << h.bucket_count(i)
       << "]";
    first = false;
  }
  os << "]}";
}

/// The window width and one [start, last, min, max, mean, count] per window.
void write_series(std::ostream& os, const TimeSeries& s) {
  os << "{\"window_us\": " << s.window().count_micros() << ", \"samples\": [";
  bool first = true;
  for (const TimeSeries::Window& w : s.windows()) {
    if (!first) os << ", ";
    os << "[" << w.start_micros << ", " << format_json_double(w.last) << ", "
       << format_json_double(w.min) << ", " << format_json_double(w.max)
       << ", " << format_json_double(w.mean()) << ", " << w.count << "]";
    first = false;
  }
  os << "]}";
}

}  // namespace

std::string format_json_double(double v) {
  if (std::isnan(v)) return "\"nan\"";
  if (std::isinf(v)) return v > 0 ? "\"inf\"" : "\"-inf\"";
  char buf[40];
  for (int prec = 15; prec <= 17; ++prec) {
    std::snprintf(buf, sizeof buf, "%.*g", prec, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  std::string out = buf;
  // Bare integers are still doubles; keep them unambiguous for readers that
  // type-switch on the token ("1" -> "1.0" stays a float everywhere).
  if (out.find_first_of(".eEn") == std::string::npos) out += ".0";
  return out;
}

std::string json_quote(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(static_cast<char>(c));
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string ConfigFingerprint::canonical() const {
  std::ostringstream os;
  os << "control_plane=" << control_plane
     << " fault_tolerance=" << bool_json(fault_tolerance)
     << " nodes=" << nodes << " racks=" << racks
     << " replication=" << replication
     << " scrubber=" << bool_json(scrubber) << " seed=" << seed
     << " storage_media=" << storage_media;
  return os.str();
}

std::uint64_t ConfigFingerprint::hash() const {
  return fnv1a(canonical(), kFnvTraceOffset);
}

void ConfigFingerprint::write_json(std::ostream& os, int indent) const {
  os << "{\n";
  const auto field = [&](const char* key, const std::string& value,
                         bool last = false) {
    pad(os, indent + 2);
    os << '"' << key << "\": " << value << (last ? "\n" : ",\n");
  };
  field("seed", std::to_string(seed));
  field("nodes", std::to_string(nodes));
  field("racks", std::to_string(racks));
  field("replication", std::to_string(replication));
  field("storage_media", json_quote(storage_media));
  field("fault_tolerance", bool_json(fault_tolerance));
  field("scrubber", bool_json(scrubber));
  field("control_plane", json_quote(control_plane));
  field("hash", json_quote(hex64(hash())), /*last=*/true);
  pad(os, indent);
  os << '}';
}

void RunReport::write_json(std::ostream& os) const {
  os << "{\n";
  os << "  \"name\": " << json_quote(name) << ",\n";
  if (!mode.empty()) os << "  \"mode\": " << json_quote(mode) << ",\n";
  os << "  \"fingerprint\": ";
  fingerprint.write_json(os, 2);
  os << ",\n";

  os << "  \"kernel\": {\n";
  os << "    \"events_dispatched\": " << kernel.events_dispatched << ",\n";
  os << "    \"max_pending\": " << kernel.max_pending << ",\n";
  os << "    \"mean_pending\": " << format_json_double(kernel.mean_pending())
     << ",\n";
  for (std::size_t i = 0; i < kEventClassCount; ++i) {
    os << "    \"class." << event_class_name(static_cast<EventClass>(i))
       << "\": " << kernel.class_counts[i]
       << (i + 1 < kEventClassCount ? ",\n" : "\n  },\n");
  }

  write_section(os, "counters", counters,
                [&](std::uint64_t v) { os << v; });
  write_section(os, "gauges", gauges,
                [&](double v) { os << format_json_double(v); });
  if (registry != nullptr) {
    write_section(os, "histograms", registry->histograms(),
                  [&](const HistogramMetric& h) { write_histogram(os, h); });
    write_section(os, "series", registry->series(),
                  [&](const TimeSeries& s) { write_series(os, s); });
  }

  os << "  \"summary\": {";
  bool first = true;
  for (const auto& [sname, v] : summary) {
    os << (first ? "\n" : ",\n") << "    " << json_quote(sname) << ": "
       << format_json_double(v);
    first = false;
  }
  os << (first ? "" : "\n  ") << "}\n";
  os << "}\n";
}

}  // namespace ignem

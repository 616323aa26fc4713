// CSV export of run metrics, for external plotting/analysis of bench runs.
#pragma once

#include <ostream>
#include <vector>

#include <string>

#include "integrity/integrity_manager.h"
#include "integrity/scrubber.h"
#include "metrics/registry.h"
#include "metrics/run_metrics.h"
#include "storage/tier.h"

namespace ignem {

/// RFC-4180 field escaping: fields containing a comma, quote, or newline are
/// wrapped in quotes with internal quotes doubled; everything else passes
/// through untouched.
std::string csv_escape(const std::string& field);

/// block,job,reader,bytes,start_s,duration_s,from_memory,remote
void write_block_reads_csv(const RunMetrics& metrics, std::ostream& os);

/// task,job,node,kind,input_bytes,launch_s,duration_s,read_s
void write_tasks_csv(const RunMetrics& metrics, std::ostream& os);

/// job,name,input_bytes,submit_s,first_task_s,end_s,duration_s
void write_jobs_csv(const RunMetrics& metrics, std::ostream& os);

/// One-row summary of the data-integrity plane:
/// disk_corrupt_detected,cache_corrupt_detected,cache_copies_purged,
/// blocks_scanned,scrub_corrupt_found. Pass a default ScrubberStats when
/// the scrubber was disabled.
void write_integrity_csv(const IntegrityStats& integrity,
                         const ScrubberStats& scrubber, std::ostream& os);

/// tier,capacity_gib,cost_per_gib,cost — one row per tier of one node's
/// hierarchy (capacity × $/GiB), plus a trailing `total` row. This is the
/// hardware cost the paper's upward-migration argument trades against: RAM
/// capacity is ~100x HDD cost per GiB, so serving hot data from a thin fast
/// tier must beat buying more of it.
void write_tier_cost_csv(const std::vector<TierSpec>& tiers, std::ostream& os);

/// Total acquisition cost of one node's hierarchy (sum of capacity × $/GiB).
double tier_cost_total(const std::vector<TierSpec>& tiers);

/// series,window_us,start_s,last,min,max,mean,count — one row per recorded
/// window of every TimeSeries in the registry, in sorted series-name order.
/// A registry with no series (or only empty ones) writes the header alone.
void write_timeseries_csv(const MetricsRegistry& registry, std::ostream& os);

}  // namespace ignem

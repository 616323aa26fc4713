// Knobs for the data-integrity plane (checksummed reads, scrubbing,
// corrupt-replica repair). Defaults keep everything that generates events
// off, so fault-free traces stay bit-identical.
#pragma once

#include "common/units.h"

namespace ignem {

struct IntegrityConfig {
  /// Constructs the background per-DataNode scrubber (HDFS DataBlockScanner
  /// analogue). Off by default: the scrubber's periodic verification reads
  /// change the event stream even when nothing is corrupt.
  bool enable_scrubber = false;

  /// One verification read per DataNode per interval. HDFS scans each block
  /// every ~3 weeks; experiments compress that so latent rot is found
  /// within a run.
  Duration scrub_interval = Duration::seconds(10);

  /// DfsClient per-read retry budget: total time a read may spend waiting
  /// for any replica to become reachable before surfacing a terminal error.
  /// Generous by default so transient chaos outages (tens of seconds) never
  /// fail a job, while a truly lost block still unblocks the sim.
  Duration read_deadline = Duration::seconds(600);

  /// Cluster-wide scrub-read budget in bytes/sec (token bucket shared by
  /// every node's scanner). A tick whose block does not conform is skipped
  /// — the cursor stays put and the block is retried next interval — so
  /// scrubbing yields to foreground IO instead of piling up behind it.
  /// Zero (the default) scrubs unthrottled, the historical behaviour.
  Bandwidth scrub_rate_limit = 0.0;

  /// Burst allowance for the scrub limiter; only meaningful with a nonzero
  /// scrub_rate_limit.
  Bytes scrub_burst = 256 * kMiB;
};

}  // namespace ignem

// Settings of the data-integrity plane. Checksummed reads and
// corrupt-replica repair are always wired; only the background scrubber is
// optional, and it is off by default so fault-free traces stay
// bit-identical.
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
};

}  // namespace ignem

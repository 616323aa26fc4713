// The client-facing migration API (paper §III-B3).
//
// DfsClient::migrate() forwards to this interface; the Ignem master
// implements it. Defined here so the DFS layer has no dependency on the
// Ignem core — a stock-HDFS configuration simply runs without a service.
#pragma once

#include <vector>

#include "common/ids.h"
#include "common/units.h"

namespace ignem {

enum class MigrationOp {
  kMigrate,  ///< Pull the files' blocks into memory ahead of the job's reads.
  kEvict,    ///< Drop this job from the blocks' reference lists.
};

struct MigrationRequest {
  MigrationOp op = MigrationOp::kMigrate;
  JobId job;
  Bytes job_input_bytes = 0;  ///< Used by slaves to prioritize small jobs.
  std::vector<FileId> files;
};

class MigrationService {
 public:
  virtual ~MigrationService() = default;

  /// Handles one migrate/evict RPC from a job submitter.
  virtual void request(const MigrationRequest& request) = 0;
};

}  // namespace ignem

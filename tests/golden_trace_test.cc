// Golden-trace regression: the quickstart scenario's event trace, diffed
// line by line against a checked-in JSONL file.
//
// The scenario (pins::run_quickstart, tests/pin_scenarios.h) records every
// event; the file keeps its golden slice (pins::golden_slice), so it stays
// small and every line is integer-exact (doubles are serialized as bit
// patterns). Any behavioral change to scheduling, placement, migration, or
// the read path shows up as a one-line diff here.
//
// Regenerating after an intentional change: `scripts/regen_pins.sh
// <base-ref>` compares the scenario between the base and the working tree
// (first divergence, per-job end-time deltas) and then rewrites the file,
// as does, from the build directory,
//
//   IGNEM_REGEN_GOLDEN=1 ctest -R GoldenTrace
//
// then review the golden file's diff like any other code change.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "obs/trace_diff.h"
#include "pin_scenarios.h"

namespace ignem {
namespace {

std::string golden_path() {
  return std::string(GOLDEN_DIR) + "/quickstart_trace.jsonl";
}

std::string run_quickstart_trace() {
  std::ostringstream out;
  pins::golden_slice(*pins::run_quickstart()->trace())->write_jsonl(out);
  return out.str();
}

TEST(GoldenTrace, QuickstartScenarioMatchesGolden) {
  const std::string fresh = run_quickstart_trace();
  ASSERT_FALSE(fresh.empty());

  const char* regen = std::getenv("IGNEM_REGEN_GOLDEN");
  if (regen != nullptr && std::string(regen) == "1") {
    std::ofstream out(golden_path(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << fresh;
    GTEST_SKIP() << "regenerated " << golden_path();
  }

  std::ifstream in(golden_path());
  ASSERT_TRUE(in.good())
      << "missing golden file " << golden_path()
      << " — regenerate with IGNEM_REGEN_GOLDEN=1 ctest -R GoldenTrace";
  std::stringstream buffer;
  buffer << in.rdbuf();

  const TraceDiffResult diff = diff_jsonl(buffer.str(), fresh);
  EXPECT_TRUE(diff.identical)
      << "trace diverged from golden at line " << diff.first_divergence
      << ":\n" << diff.description
      << "\nIf intentional: IGNEM_REGEN_GOLDEN=1 ctest -R GoldenTrace";
}

TEST(GoldenTrace, ReRunIsByteIdentical) {
  // The golden check is only meaningful if the scenario itself replays
  // byte-for-byte; guard that independently of the checked-in file.
  EXPECT_EQ(run_quickstart_trace(), run_quickstart_trace());
}

}  // namespace
}  // namespace ignem

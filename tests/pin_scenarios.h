// The pinned scenarios, each defined once.
//
// kernel_regression_test, golden_trace_test and liveness_anchor_test pin
// the traces of the runs below; tests/pin_dump.cc dumps the same runs so
// scripts/regen_pins.sh can compare two builds of them. Every scenario runs
// at a fixed literal seed: pins must not follow IGNEM_TEST_SEED.
//
// This file compiles against the simulator sources of the working tree and
// of an older commit alike (scripts/regen_pins.sh builds it both ways), so
// it uses only long-standing Testbed API.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "obs/trace_event.h"
#include "obs/trace_recorder.h"

namespace ignem::pins {

// ---------------------------------------------------------------------------
// Kernel regression: a small SWIM run in every RunMode and a scaled-down
// Google-trace run in two, fault tolerance off. The pin is the trace hash.

/// Four nodes, seed 42, tracing on.
TestbedConfig kernel_config(RunMode mode);

/// Runs the SWIM workload (12 jobs over 3 GiB) or the scaled-down Google
/// trace (8 servers, 30 minutes, mixing CPU-bound and IO-heavy jobs) on
/// `config`: kernel_config(mode), or a variant of it.
std::unique_ptr<Testbed> run_kernel_swim(const TestbedConfig& config);
std::unique_ptr<Testbed> run_kernel_google(const TestbedConfig& config);

inline constexpr RunMode kKernelSwimModes[] = {
    RunMode::kHdfs, RunMode::kHdfsInputsInRam, RunMode::kIgnem,
    RunMode::kInstantMigration, RunMode::kHotDataPromotion};
inline constexpr RunMode kKernelGoogleModes[] = {RunMode::kHdfs,
                                                 RunMode::kIgnem};

// ---------------------------------------------------------------------------
// Golden trace: examples/quickstart.cpp's exact setup (8-node Ignem
// cluster, seed 1, one 1 GiB file, one log-scan job). The pin is the JSONL
// text of the trace's golden slice.

std::unique_ptr<Testbed> run_quickstart();

/// The golden slice of `trace`: the events of the types the golden file
/// keeps (the control plane, migrations, block reads and the pools' lock
/// and unlock edges), re-recorded in order at their own times, so that seq
/// counts the slice alone and write_jsonl/write_binary serve it. The golden
/// test and the pin dumper both write this slice.
std::unique_ptr<TraceRecorder> golden_slice(const TraceRecorder& trace);

// ---------------------------------------------------------------------------
// Liveness anchor: 8 Ignem nodes on 2 racks running 48 SWIM jobs with the
// whole fault-tolerance stack on, on the direct and the routed control
// plane, each with suspicion grace 0 s and 6 s, times six fault seeds.
// Each seed's plan is eight faults drawn by FaultPlan::random over
// kLoudFaultKinds | kPartitionFaultKinds; seed 5 also cuts the control
// node's own rack for 18 s mid-run. The pins are anchor_digest() and, on
// the direct path, the trace hash.

struct AnchorCase {
  bool routed;
  int grace_seconds;
  int seed;
};

/// All 24 cases in pin order: direct before routed, grace 0 before 6,
/// then seed.
std::vector<AnchorCase> anchor_cases();

struct AnchorRun {
  std::unique_ptr<Testbed> testbed;
  bool completed = false;  ///< The workload finished inside its limit.
};

/// Runs the workload, then the simulator until every fault window has
/// healed and detection and rejoin have settled.
AnchorRun run_anchor(const AnchorCase& c);

/// A digest of `events` sorted by (time, type, node, block, job, bytes,
/// detail, value): the same events at the same times, whatever their order
/// within one instant. On the routed path two monitors that hear the same
/// beat can readmit a node in either order at one instant, so only this
/// digest is pinned there.
std::uint64_t anchor_digest(std::vector<TraceEvent> events);

// ---------------------------------------------------------------------------
// Every pinned scenario, for tests/pin_dump.cc.

struct PinnedRun {
  std::unique_ptr<Testbed> testbed;  ///< Its trace holds the events.
  std::string pin;  ///< The values the tests pin, as "key=value ..." text.
  /// The events the tests pin, when not the whole trace (the golden slice).
  std::unique_ptr<TraceRecorder> slice;
};

struct Scenario {
  std::string name;  ///< e.g. "kernel.swim.Ignem", "anchor.direct.g6.s3".
  std::function<PinnedRun()> run;
};

/// The 5 SWIM and 2 Google kernel runs, the quickstart and the 24 anchor
/// runs, in that order.
std::vector<Scenario> all_scenarios();

}  // namespace ignem::pins

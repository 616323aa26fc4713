// Unit tests for the trace recorder, sinks, and diff tool themselves.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/check.h"
#include "obs/trace_diff.h"
#include "obs/trace_recorder.h"

namespace ignem {
namespace {

TEST(TraceRecorder, StampsSeqAndClockTime) {
  TraceRecorder recorder;
  std::int64_t t = 10;
  recorder.set_clock([&t] { return SimTime(t); });
  recorder.emit(TraceEventType::kBlockReadStart, NodeId(1), BlockId(2),
                JobId(3), 64 * kMiB);
  t = 25;
  recorder.emit(TraceEventType::kBlockReadEnd, NodeId(1), BlockId(2), JobId(3),
                64 * kMiB);
  ASSERT_EQ(recorder.size(), 2u);
  EXPECT_EQ(recorder.events()[0].seq, 0u);
  EXPECT_EQ(recorder.events()[1].seq, 1u);
  EXPECT_EQ(recorder.events()[0].time.count_micros(), 10);
  EXPECT_EQ(recorder.events()[1].time.count_micros(), 25);
  EXPECT_EQ(recorder.events()[0].node, NodeId(1));
  EXPECT_EQ(recorder.events()[0].block, BlockId(2));
  EXPECT_EQ(recorder.events()[0].job, JobId(3));
  EXPECT_EQ(recorder.events()[0].bytes, 64 * kMiB);
}

TEST(TraceRecorder, HashIsOrderSensitive) {
  TraceRecorder a, b;
  a.emit(TraceEventType::kBlockReadStart, NodeId(0), BlockId(1));
  a.emit(TraceEventType::kBlockReadEnd, NodeId(0), BlockId(2));
  b.emit(TraceEventType::kBlockReadEnd, NodeId(0), BlockId(2));
  b.emit(TraceEventType::kBlockReadStart, NodeId(0), BlockId(1));
  EXPECT_NE(a.trace_hash(), b.trace_hash());
}

TEST(TraceRecorder, JsonlIsStableAndIntegerExact) {
  TraceRecorder recorder;
  recorder.emit(TraceEventType::kBandwidthChange, NodeId(3),
                BlockId::invalid(), JobId::invalid(), 1000, 2, 0.5);
  std::ostringstream out;
  recorder.write_jsonl(out);
  // Doubles are serialized as raw bit patterns (value_bits), so the line is
  // reproducible across compilers and locales.
  EXPECT_EQ(out.str(),
            "{\"seq\":0,\"t\":0,\"type\":\"bandwidth_change\",\"node\":3,"
            "\"block\":-1,\"job\":-1,\"bytes\":1000,\"detail\":2,"
            "\"value_bits\":4602678819172646912}\n");
}

TEST(TraceRecorder, BinaryRoundTrip) {
  TraceRecorder recorder;
  std::int64_t t = 5;
  recorder.set_clock([&t] { return SimTime(t); });
  recorder.emit(TraceEventType::kReplicaAdd, NodeId(1), BlockId(2),
                JobId::invalid(), 64 * kMiB);
  t = 9;
  recorder.emit(TraceEventType::kBandwidthChange, NodeId(1), BlockId::invalid(),
                JobId::invalid(), 1000, 3, 123.456);
  std::stringstream buffer;
  recorder.write_binary(buffer);
  const auto reloaded = TraceRecorder::read_binary(buffer);
  const TraceDiffResult diff = diff_traces(recorder.events(), reloaded);
  EXPECT_TRUE(diff.identical) << diff.description;
}

TEST(TraceRecorder, ReadBinaryRejectsGarbage) {
  std::stringstream buffer("not a trace");
  EXPECT_THROW(TraceRecorder::read_binary(buffer), CheckFailure);
}

TEST(TraceDiff, ReportsLengthMismatch) {
  TraceRecorder a, b;
  a.emit(TraceEventType::kBlockReadStart, NodeId(0), BlockId(1));
  const TraceDiffResult diff = diff_traces(a.events(), b.events());
  ASSERT_FALSE(diff.identical);
  EXPECT_EQ(diff.first_divergence, 0u);
}

TEST(TraceDiff, JsonlLineDiff) {
  const std::string a = "line1\nline2\nline3\n";
  const std::string b = "line1\nlineX\nline3\n";
  const TraceDiffResult diff = diff_jsonl(a, b);
  ASSERT_FALSE(diff.identical);
  EXPECT_EQ(diff.first_divergence, 1u);
  EXPECT_TRUE(diff_jsonl(a, a).identical);
}

TEST(TraceEventNames, AllTypesNamed) {
  for (std::size_t i = 0; i < kTraceEventTypeCount; ++i) {
    const char* name = trace_event_name(static_cast<TraceEventType>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "?") << "unnamed TraceEventType " << i;
  }
}

}  // namespace
}  // namespace ignem

#include "core/migration_queue.h"

#include <gtest/gtest.h>

#include "common/check.h"

namespace ignem {
namespace {

PendingMigration make(std::int64_t block, std::int64_t job, Bytes job_input,
                      std::uint64_t seq, Bytes bytes = 64 * kMiB) {
  PendingMigration m;
  m.block = BlockId(block);
  m.bytes = bytes;
  m.job = JobId(job);
  m.job_input_bytes = job_input;
  m.arrival_seq = seq;
  return m;
}

TEST(MigrationQueue, SmallestJobFirst) {
  MigrationQueue q(QueueOrder::kSmallestJobFirst);
  q.push(make(1, 1, 10 * kGiB, 1));
  q.push(make(2, 2, 1 * kMiB, 2));
  q.push(make(3, 3, 1 * kGiB, 3));
  EXPECT_EQ(q.pop()->job, JobId(2));
  EXPECT_EQ(q.pop()->job, JobId(3));
  EXPECT_EQ(q.pop()->job, JobId(1));
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MigrationQueue, SubmissionOrderBreaksTies) {
  MigrationQueue q(QueueOrder::kSmallestJobFirst);
  q.push(make(1, 5, 1 * kGiB, 10));
  q.push(make(2, 6, 1 * kGiB, 5));  // same input size, earlier submission
  EXPECT_EQ(q.pop()->job, JobId(6));
  EXPECT_EQ(q.pop()->job, JobId(5));
}

TEST(MigrationQueue, FifoIgnoresJobSize) {
  MigrationQueue q(QueueOrder::kFifo);
  q.push(make(1, 1, 10 * kGiB, 1));
  q.push(make(2, 2, 1 * kMiB, 2));
  EXPECT_EQ(q.pop()->job, JobId(1));
  EXPECT_EQ(q.pop()->job, JobId(2));
}

TEST(MigrationQueue, BlocksOfOneJobKeepArrivalOrder) {
  MigrationQueue q(QueueOrder::kSmallestJobFirst);
  q.push(make(3, 1, 1 * kGiB, 3));
  q.push(make(1, 1, 1 * kGiB, 1));
  q.push(make(2, 1, 1 * kGiB, 2));
  EXPECT_EQ(q.pop()->block, BlockId(1));
  EXPECT_EQ(q.pop()->block, BlockId(2));
  EXPECT_EQ(q.pop()->block, BlockId(3));
}

TEST(MigrationQueue, EraseBlockRemovesAllJobsEntries) {
  MigrationQueue q(QueueOrder::kFifo);
  q.push(make(1, 1, 1, 1));
  q.push(make(1, 2, 1, 2));  // two jobs want block 1
  q.push(make(2, 1, 1, 3));
  EXPECT_EQ(q.erase_block(BlockId(1)), 2u);
  ASSERT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop()->block, BlockId(2));
  EXPECT_EQ(q.erase_block(BlockId(1)), 0u);
}

TEST(MigrationQueue, DuplicateEntryIgnored) {
  MigrationQueue q(QueueOrder::kFifo);
  q.push(make(1, 1, 1, 1));
  q.push(make(1, 1, 1, 1));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop()->block, BlockId(1));
  EXPECT_FALSE(q.pop().has_value());
}

TEST(MigrationQueue, LargestJobFirst) {
  MigrationQueue q(QueueOrder::kLargestJobFirst);
  q.push(make(1, 1, 10 * kGiB, 1));
  q.push(make(2, 2, 1 * kMiB, 2));
  q.push(make(3, 3, 1 * kGiB, 3));
  EXPECT_EQ(q.pop()->job, JobId(1));
  EXPECT_EQ(q.pop()->job, JobId(3));
  EXPECT_EQ(q.pop()->job, JobId(2));
}

TEST(MigrationQueue, LifoPrefersNewest) {
  MigrationQueue q(QueueOrder::kLifo);
  q.push(make(1, 1, 1, 1));
  q.push(make(2, 2, 1, 2));
  q.push(make(3, 3, 1, 3));
  EXPECT_EQ(q.pop()->job, JobId(3));
  EXPECT_EQ(q.pop()->job, JobId(2));
  EXPECT_EQ(q.pop()->job, JobId(1));
}

TEST(MigrationQueue, PolicyNames) {
  EXPECT_STREQ(queue_order_name(QueueOrder::kSmallestJobFirst),
               "smallest-job-first");
  EXPECT_STREQ(queue_order_name(QueueOrder::kFifo), "fifo");
  EXPECT_STREQ(queue_order_name(QueueOrder::kLargestJobFirst),
               "largest-job-first");
  EXPECT_STREQ(queue_order_name(QueueOrder::kLifo), "lifo");
}

TEST(MigrationQueue, RejectsInvalidEntries) {
  MigrationQueue q(QueueOrder::kFifo);
  PendingMigration m = make(1, 1, 1, 1);
  m.bytes = 0;
  EXPECT_THROW(q.push(m), CheckFailure);
}

}  // namespace
}  // namespace ignem

// SmallFunction, the kernel's event payload: every storage shape the stack
// produces — an inline capture, a spilled one, one that holds another
// SmallFunction (a callback scheduling a callback), and a move-only
// capture — invoked, moved, moved over a live callable and reset, with
// every construction and destruction of the capture counted.
#include "common/small_function.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <utility>

namespace ignem {
namespace {

struct Tally {
  int constructed = 0;  ///< Every constructor, moves included.
  int destroyed = 0;
  int invoked = 0;
};

/// A capture of about `kBytes` bytes that reports to a Tally.
template <std::size_t kBytes>
struct Counted {
  explicit Counted(Tally* t) : tally(t) { ++tally->constructed; }
  Counted(const Counted& other) : tally(other.tally) { ++tally->constructed; }
  Counted(Counted&& other) noexcept : tally(other.tally) {
    ++tally->constructed;
  }
  Counted& operator=(const Counted&) = delete;
  ~Counted() { ++tally->destroyed; }

  void operator()() const { ++tally->invoked; }

  Tally* tally;
  unsigned char pad[kBytes - sizeof(Tally*)] = {};
};

using Small = Counted<16>;
using Large = Counted<SmallFunction::kInlineBytes + 16>;
static_assert(sizeof(Small) <= SmallFunction::kInlineBytes);
static_assert(sizeof(Large) > SmallFunction::kInlineBytes);

SmallFunction make_inline(Tally* t) { return Small(t); }
SmallFunction make_spilled(Tally* t) { return Large(t); }
SmallFunction make_nested(Tally* t) {
  // Larger than the inline buffer itself, so the outer one spills.
  return [inner = SmallFunction(Small(t))]() mutable { inner(); };
}
SmallFunction make_move_only(Tally* t) {
  return [owned = std::make_unique<Small>(t)] { (*owned)(); };
}

/// Drives one shape through invoke, move-construct, move-assign over a
/// live callable and reset, checking the tally at each step.
void exercise(SmallFunction (*make)(Tally*)) {
  Tally tally;
  {
    SmallFunction f = make(&tally);
    ASSERT_TRUE(f);
    f();
    EXPECT_EQ(tally.invoked, 1);

    SmallFunction moved(std::move(f));
    EXPECT_FALSE(f);  // NOLINT(bugprone-use-after-move): the contract
    moved();
    EXPECT_EQ(tally.invoked, 2);

    SmallFunction live = make(&tally);
    const int destroyed_before = tally.destroyed;
    live = std::move(moved);  // destroys live's own capture
    EXPECT_FALSE(moved);      // NOLINT(bugprone-use-after-move)
    EXPECT_GT(tally.destroyed, destroyed_before);
    live();
    EXPECT_EQ(tally.invoked, 3);

    live = nullptr;
    EXPECT_FALSE(live);
    EXPECT_TRUE(live == nullptr);
    EXPECT_EQ(tally.destroyed, tally.constructed);

    // A moved-from SmallFunction takes a new callable.
    f = make(&tally);
    f();
    EXPECT_EQ(tally.invoked, 4);
  }
  EXPECT_GT(tally.constructed, 0);
  EXPECT_EQ(tally.destroyed, tally.constructed);
}

TEST(SmallFunction, InlineCapture) { exercise(make_inline); }
TEST(SmallFunction, SpilledCapture) { exercise(make_spilled); }
TEST(SmallFunction, NestedSmallFunction) { exercise(make_nested); }
TEST(SmallFunction, MoveOnlyCapture) { exercise(make_move_only); }

TEST(SmallFunction, EmptyIsFalseAndResetIsIdempotent) {
  SmallFunction f;
  EXPECT_FALSE(f);
  SmallFunction g(nullptr);
  EXPECT_TRUE(g == nullptr);
  f = nullptr;
  f = std::move(g);
  EXPECT_FALSE(f);
}

}  // namespace
}  // namespace ignem

// Unit tests for the simulator's event core: strict (at, seq) ordering,
// deadline semantics of run_for/run_until, the pending/executed counters,
// and the exploration chooser's out-of-order picks.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "sim/event_loop.hpp"

namespace sdvm::sim {
namespace {

TEST(EventLoopTest, SameInstantEventsPopInScheduleOrder) {
  EventLoop loop;
  std::vector<int> order;
  constexpr int kEvents = 10'000;
  for (int i = 0; i < kEvents; ++i) {
    loop.schedule(5, [&order, i] { order.push_back(i); });
  }
  while (loop.step()) {
  }
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kEvents));
  for (int i = 0; i < kEvents; ++i) ASSERT_EQ(order[i], i);
  EXPECT_EQ(loop.now(), 5);
}

TEST(EventLoopTest, ZeroDelayEventFromHandlerRunsBeforeLaterEvents) {
  EventLoop loop;
  std::vector<char> order;
  loop.schedule(10, [&] {
    order.push_back('a');
    loop.schedule(0, [&] { order.push_back('c'); });
  });
  loop.schedule(10, [&] { order.push_back('b'); });
  loop.schedule(11, [&] { order.push_back('d'); });
  while (loop.step()) {
  }
  // 'c' shares 'b''s instant but was scheduled later, so it runs after it.
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c', 'd'}));
}

TEST(EventLoopTest, RunForRunsEventsAtTheDeadlineAndLandsOnIt) {
  EventLoop loop;
  std::vector<Nanos> ran;
  for (Nanos at : {50, 100, 101}) {
    loop.schedule(at, [&] { ran.push_back(loop.now()); });
  }
  loop.run_for(100);
  EXPECT_EQ(ran, (std::vector<Nanos>{50, 100}));
  EXPECT_EQ(loop.now(), 100);
  loop.run_for(30);  // empty window past the last event still advances
  EXPECT_EQ(ran, (std::vector<Nanos>{50, 100, 101}));
  EXPECT_EQ(loop.now(), 130);
}

TEST(EventLoopTest, RunUntilHonorsDeadlineAndPredicate) {
  EventLoop loop;
  int ran = 0;
  for (Nanos at : {100, 200, 300}) {
    loop.schedule(at, [&] { ++ran; });
  }
  EXPECT_FALSE(loop.run_until([] { return false; }, 200));
  EXPECT_EQ(ran, 2);  // the event exactly at the deadline ran
  EXPECT_EQ(loop.now(), 200);

  loop.schedule(50, [&] { ++ran; });  // at 250
  EXPECT_TRUE(loop.run_until([&] { return ran == 3; }));
  EXPECT_EQ(loop.now(), 250);
  EXPECT_EQ(loop.pending(), 1u);

  // Unbounded with an unmet predicate: drains the queue and reports false.
  EXPECT_FALSE(loop.run_until([] { return false; }));
  EXPECT_EQ(ran, 4);
  EXPECT_EQ(loop.now(), 300);
}

TEST(EventLoopTest, PendingAndExecutedCounts) {
  EventLoop loop;
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_FALSE(loop.step());
  for (int i = 0; i < 5; ++i) {
    loop.schedule(i, [&loop] { loop.schedule(100, [] {}); });
  }
  EXPECT_EQ(loop.pending(), 5u);
  EXPECT_EQ(loop.executed(), 0u);
  ASSERT_TRUE(loop.step());
  EXPECT_EQ(loop.pending(), 5u);  // one ran, one was scheduled
  EXPECT_EQ(loop.executed(), 1u);
  loop.run_for(10);
  EXPECT_EQ(loop.pending(), 5u);
  EXPECT_EQ(loop.executed(), 5u);
  while (loop.step()) {
  }
  EXPECT_EQ(loop.pending(), 0u);
  EXPECT_EQ(loop.executed(), 10u);
}

/// Picks the middle enabled event; checks that every offered list is in
/// (at, seq) order.
class PickMiddle final : public EventChooser {
 public:
  std::size_t choose(const std::vector<Choice>& enabled) override {
    for (std::size_t i = 1; i < enabled.size(); ++i) {
      const Choice& a = enabled[i - 1];
      const Choice& b = enabled[i];
      EXPECT_TRUE(a.at < b.at || (a.at == b.at && a.seq < b.seq));
    }
    const std::size_t mid = enabled.size() / 2;
    picked.push_back(enabled[mid].seq);
    return mid;
  }
  std::vector<std::uint64_t> picked;
};

TEST(EventLoopTest, ChooserPicksLeaveTheRestInTimestampOrder) {
  EventLoop loop;
  PickMiddle chooser;
  loop.set_chooser(&chooser, /*window=*/1'000'000);
  struct Ran {
    Nanos at;
    std::uint64_t seq;
  };
  std::vector<Ran> ran;
  std::uint64_t x = 12345;
  constexpr int kEvents = 500;
  for (int i = 0; i < kEvents; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const Nanos at = static_cast<Nanos>((x >> 33) % 100);  // shared instants
    const EventTag tag{i % 3 == 0 ? EventTag::Kind::kInternal
                                  : EventTag::Kind::kDelivery,
                       static_cast<std::uint32_t>(i % 7)};
    const std::uint64_t seq = static_cast<std::uint64_t>(i) + 1;
    loop.schedule_tagged(at, tag,
                         [&ran, at, seq] { ran.push_back({at, seq}); });
  }
  // Pull events out of the middle of the pending set, then drain the
  // rest without a chooser: it must come out in strict (at, seq) order.
  constexpr int kPicks = 100;
  for (int i = 0; i < kPicks; ++i) ASSERT_TRUE(loop.step());
  loop.set_chooser(nullptr, 0);
  while (loop.step()) {
  }
  ASSERT_EQ(ran.size(), static_cast<std::size_t>(kEvents));
  ASSERT_EQ(chooser.picked.size(), static_cast<std::size_t>(kPicks));
  for (int i = 0; i < kPicks; ++i) EXPECT_EQ(ran[i].seq, chooser.picked[i]);
  for (std::size_t i = kPicks + 1; i < ran.size(); ++i) {
    const Ran& a = ran[i - 1];
    const Ran& b = ran[i];
    ASSERT_TRUE(a.at < b.at || (a.at == b.at && a.seq < b.seq))
        << "position " << i;
  }
}

}  // namespace
}  // namespace sdvm::sim

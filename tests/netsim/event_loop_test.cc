#include "netsim/event_loop.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace liberate::netsim {
namespace {

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(milliseconds(30), [&] { order.push_back(3); });
  loop.schedule(milliseconds(10), [&] { order.push_back(1); });
  loop.schedule(milliseconds(20), [&] { order.push_back(2); });
  loop.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), milliseconds(30));
}

TEST(EventLoop, TieBrokenByInsertionOrder) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  loop.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, CallbacksCanScheduleMore) {
  EventLoop loop;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) loop.schedule(seconds(1), tick);
  };
  loop.schedule(seconds(1), tick);
  loop.run_until_idle();
  EXPECT_EQ(count, 5);
  EXPECT_EQ(loop.now(), seconds(5));
}

TEST(EventLoop, RunUntilAdvancesTimeEvenWhenIdle) {
  EventLoop loop;
  loop.run_until(seconds(42));
  EXPECT_EQ(loop.now(), seconds(42));
}

TEST(EventLoop, RunUntilStopsAtDeadline) {
  EventLoop loop;
  bool early = false;
  bool late = false;
  loop.schedule(seconds(1), [&] { early = true; });
  loop.schedule(seconds(10), [&] { late = true; });
  loop.run_for(seconds(5));
  EXPECT_TRUE(early);
  EXPECT_FALSE(late);
  EXPECT_EQ(loop.now(), seconds(5));
  EXPECT_EQ(loop.pending(), 1u);
  loop.run_until_idle();
  EXPECT_TRUE(late);
}

// One seeded script for the ordering oracle. It schedules a mix of constant
// hop delays, zero delays, random jitter and long timers; callbacks schedule
// more events (some at the current time); run_until and run_for deadlines
// cut it at random points. A reference list sorted by (when, seq) predicts
// which callback runs at each step, its now(), and pending() after each
// deadline. The first disagreement is kept in `failure`.
class OrderingScript {
 public:
  explicit OrderingScript(std::uint64_t seed)
      : rng_(seed), budget_(200 + rng_.below(1000)) {}

  std::string run() {
    for (std::uint64_t i = 0, n = 1 + rng_.below(32); i < n; ++i) {
      schedule_one();
    }
    for (int turn = 0; turn < 100000 && failure_.empty(); ++turn) {
      if (loop_.idle() && budget_ == 0) break;
      const TimePoint before = loop_.now();
      switch (rng_.below(3)) {
        case 0: {
          const TimePoint deadline = before + rng_.below(seconds(1));
          loop_.run_until(deadline);
          check_deadline(before, deadline);
          break;
        }
        case 1: {
          const Duration d = rng_.below(milliseconds(50));
          loop_.run_for(d);
          check_deadline(before, before + d);
          break;
        }
        default:
          schedule_one();  // from outside any callback
          break;
      }
    }
    loop_.run_until_idle();
    if (failure_.empty() && (!reference_.empty() || loop_.pending() != 0)) {
      fail("run_until_idle left events pending");
    }
    return failure_;
  }

 private:
  Duration draw_delay() {
    switch (rng_.below(4)) {
      case 0:
        return milliseconds(1);  // constant per-hop delay
      case 1:
        return 0;  // at the current time
      case 2:
        return rng_.below(5000);  // jitter
      default:
        return milliseconds(200) + rng_.below(seconds(2));  // long timer
    }
  }

  void schedule_one() {
    if (budget_ == 0) return;
    --budget_;
    const Duration delay = draw_delay();
    const std::uint64_t seq = next_seq_++;
    reference_.emplace_back(loop_.now() + delay, seq);
    loop_.schedule(delay, [this, seq] { fire(seq); });
  }

  void fire(std::uint64_t seq) {
    const auto expected =
        std::min_element(reference_.begin(), reference_.end());
    if (expected == reference_.end() || expected->second != seq ||
        expected->first != loop_.now()) {
      fail("ran seq " + std::to_string(seq) + " at " +
           std::to_string(loop_.now()) + ", expected seq " +
           (expected == reference_.end()
                ? std::string("none")
                : std::to_string(expected->second) + " at " +
                      std::to_string(expected->first)));
    }
    // Keep the reference in step with what actually ran.
    const auto ran =
        std::find_if(reference_.begin(), reference_.end(),
                     [seq](const auto& e) { return e.second == seq; });
    if (ran == reference_.end()) {
      fail("seq " + std::to_string(seq) + " ran twice");
      return;
    }
    reference_.erase(ran);
    for (std::uint64_t i = 0, n = rng_.below(3); i < n; ++i) schedule_one();
  }

  void check_deadline(TimePoint before, TimePoint deadline) {
    const TimePoint expected_now = std::max(before, deadline);
    if (loop_.now() != expected_now) {
      fail("now() " + std::to_string(loop_.now()) + " after deadline " +
           std::to_string(deadline) + ", expected " +
           std::to_string(expected_now));
    }
    if (loop_.pending() != reference_.size() ||
        loop_.idle() != reference_.empty()) {
      fail("pending() " + std::to_string(loop_.pending()) +
           " after deadline " + std::to_string(deadline) + ", expected " +
           std::to_string(reference_.size()));
    }
    for (const auto& [when, seq] : reference_) {
      if (when <= deadline) {
        fail("seq " + std::to_string(seq) + " at " + std::to_string(when) +
             " still pending after deadline " + std::to_string(deadline));
        break;
      }
    }
  }

  void fail(const std::string& what) {
    if (failure_.empty()) failure_ = what;
  }

  EventLoop loop_;
  Rng rng_;
  std::size_t budget_;  // schedules left in this script
  std::uint64_t next_seq_ = 0;
  std::vector<std::pair<TimePoint, std::uint64_t>> reference_;  // (when, seq)
  std::string failure_;
};

TEST(EventLoop, OrderMatchesReferenceSortByTimeThenSeq) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const std::string failure = OrderingScript(seed).run();
    ASSERT_TRUE(failure.empty()) << "seed " << seed << ": " << failure;
  }
}

}  // namespace
}  // namespace liberate::netsim

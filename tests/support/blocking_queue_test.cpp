#include "support/blocking_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace asyncml::support {
namespace {

using namespace std::chrono_literals;

TEST(BlockingQueue, PushPopSingleThread) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_TRUE(q.empty());
}

TEST(BlockingQueue, FifoOrderPreserved) {
  BlockingQueue<int> q;
  for (int i = 0; i < 100; ++i) q.push(i);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(BlockingQueue, TryPopEmptyReturnsNullopt) {
  BlockingQueue<int> q;
  EXPECT_FALSE(q.try_pop().has_value());
}

TEST(BlockingQueue, DrainTakesEverythingInOrder) {
  BlockingQueue<int> q;
  for (int i = 0; i < 10; ++i) q.push(i);
  const std::deque<int> all = q.drain();
  ASSERT_EQ(all.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(all[static_cast<std::size_t>(i)], i);
  EXPECT_TRUE(q.empty());
  EXPECT_TRUE(q.drain().empty());
}

TEST(BlockingQueue, DrainForWaitsForFirstItem) {
  BlockingQueue<int> q;
  std::thread producer([&q] {
    std::this_thread::sleep_for(10ms);
    q.push(1);
    q.push(2);
  });
  std::deque<int> got;
  while (got.empty()) got = q.drain_for(200ms);
  producer.join();
  // Everything pushed before the swap arrives in one batch; anything later
  // is picked up by the next drain.
  std::size_t total = got.size();
  while (total < 2) total += q.drain_for(200ms).size();
  EXPECT_EQ(total, 2u);
}

TEST(BlockingQueue, DrainForTimesOutEmpty) {
  BlockingQueue<int> q;
  EXPECT_TRUE(q.drain_for(10ms).empty());
}

TEST(BlockingQueue, DrainForReturnsEmptyWhenClosedAndDrained) {
  BlockingQueue<int> q;
  q.push(7);
  q.close();
  EXPECT_EQ(q.drain_for(50ms).size(), 1u);  // pending items remain poppable
  EXPECT_TRUE(q.drain_for(5ms).empty());    // closed + drained: no wait
}

TEST(BlockingQueue, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::thread producer([&] {
    std::this_thread::sleep_for(20ms);
    q.push(99);
  });
  EXPECT_EQ(q.pop().value(), 99);
  producer.join();
}

TEST(BlockingQueue, CloseWakesBlockedPopper) {
  BlockingQueue<int> q;
  std::thread closer([&] {
    std::this_thread::sleep_for(20ms);
    q.close();
  });
  EXPECT_FALSE(q.pop().has_value());
  closer.join();
}

TEST(BlockingQueue, CloseRefusesNewPushesButDrainsPending) {
  BlockingQueue<int> q;
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BlockingQueue, ManyProducersManyConsumersDeliverEverything) {
  BlockingQueue<int> q;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 2'500;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  std::atomic<int> popped{0};
  std::atomic<long long> sum{0};
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto item = q.pop()) {
        sum.fetch_add(*item);
        popped.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();
  const long long total = kProducers * kPerProducer;
  EXPECT_EQ(popped.load(), total);
  EXPECT_EQ(sum.load(), total * (total - 1) / 2);
}

TEST(BlockingQueue, MoveOnlyPayloadsWork) {
  BlockingQueue<std::unique_ptr<int>> q;
  q.push(std::make_unique<int>(5));
  auto out = q.pop();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(**out, 5);
}

}  // namespace
}  // namespace asyncml::support

// Tests for the flight recorder's SeqRing: publish/copy round trips,
// ring order and clearing, and a publisher-vs-reader stress run whose
// payloads check themselves, so an accepted torn copy cannot go unseen.

#include "obs/seq_ring.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace mldcs::obs::detail {
namespace {

TEST(SeqRingTest, EmptyRingCopiesNothing) {
  SeqRing<64> ring(2);
  char buf[64];
  EXPECT_EQ(ring.copy_newest(buf, sizeof(buf)), 0u);
  EXPECT_EQ(ring.for_each_oldest_first([](const char*, std::size_t) {}), 0u);
}

TEST(SeqRingTest, NewestAndOldestFirstAfterWrap) {
  SeqRing<64> ring(3);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.publish("payload-" + std::to_string(i)));
  }
  char buf[64];
  const std::size_t n = ring.copy_newest(buf, sizeof(buf));
  EXPECT_EQ(std::string(buf, n), "payload-4");

  std::vector<std::string> seen;
  ring.for_each_oldest_first([&](const char* p, std::size_t len) {
    seen.emplace_back(p, len);
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"payload-2", "payload-3",
                                            "payload-4"}));
}

TEST(SeqRingTest, OversizePayloadAndSmallDestinationAreRefused) {
  SeqRing<16> ring(2);
  EXPECT_FALSE(ring.publish(std::string(17, 'x')));
  EXPECT_TRUE(ring.publish(std::string(16, 'y')));
  char small[8];
  EXPECT_EQ(ring.copy_newest(small, sizeof(small)), 0u);  // whole or nothing
  char buf[16];
  EXPECT_EQ(ring.copy_newest(buf, sizeof(buf)), 16u);
}

TEST(SeqRingTest, ClearHidesEarlierPayloads) {
  SeqRing<32> ring(4);
  ring.publish("old");
  ring.clear();
  char buf[32];
  EXPECT_EQ(ring.copy_newest(buf, sizeof(buf)), 0u);
  ring.publish("new");
  std::size_t count = 0;
  ring.for_each_oldest_first([&](const char* p, std::size_t len) {
    EXPECT_EQ(std::string(p, len), "new");
    ++count;
  });
  EXPECT_EQ(count, 1u);
}

/// Payload k: its decimal, a ':', then filler bytes that are all a
/// function of k, to a length that varies with k.
std::string make_payload(std::uint64_t k) {
  std::string p = std::to_string(k) + ':';
  const std::size_t fill = 40 + k % 200;
  for (std::size_t i = 0; i < fill; ++i) {
    p += static_cast<char>('a' + (k + i) % 26);
  }
  return p;
}

// One publisher hammers a two-slot ring (the shape of the event tail and
// the profiler appendix) while a reader copies the newest payload in a
// loop: every accepted copy must be exactly some published payload, and
// tickets must never go backwards.
TEST(SeqRingTest, ConcurrentReaderNeverAcceptsTornCopy) {
  SeqRing<256> ring(2);
  constexpr std::uint64_t kPublishes = 20000;
  std::atomic<bool> done{false};
  std::uint64_t accepted = 0;
  std::uint64_t bad = 0;

  std::thread reader([&] {
    char buf[256];
    std::uint64_t last = 0;
    for (bool finished = false; !finished;) {
      // One last copy after the publisher is done, so at least one read
      // always sees a quiescent ring.
      finished = done.load(std::memory_order_acquire);
      const std::size_t n = ring.copy_newest(buf, sizeof(buf));
      if (n == 0) continue;
      const std::string got(buf, n);
      std::uint64_t k = 0;
      std::size_t i = 0;
      for (; i < got.size() && got[i] >= '0' && got[i] <= '9'; ++i) {
        k = k * 10 + static_cast<std::uint64_t>(got[i] - '0');
      }
      if (i == 0 || k >= kPublishes || got != make_payload(k) || k < last) {
        ++bad;
      }
      last = k;
      ++accepted;
    }
  });
  for (std::uint64_t k = 0; k < kPublishes; ++k) {
    EXPECT_TRUE(ring.publish(make_payload(k)));
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(bad, 0u);
  EXPECT_GT(accepted, 0u);
}

}  // namespace
}  // namespace mldcs::obs::detail

#include "platform/flash.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fault/crash_scheduler.hpp"
#include "support/error.hpp"

namespace ndpgen::platform {
namespace {

class FlashFixture : public ::testing::Test {
 protected:
  FlashFixture() : flash_(queue_, timing_) {}

  EventQueue queue_;
  TimingConfig timing_;
  FlashModel flash_;
};

TEST_F(FlashFixture, TopologyDefaults) {
  const auto& topology = flash_.topology();
  EXPECT_EQ(topology.controllers, 2u);
  EXPECT_EQ(topology.total_luns(), 32u);
  EXPECT_EQ(topology.page_bytes, 16u * 1024);
}

TEST_F(FlashFixture, LinearizeRoundTrip) {
  for (std::uint64_t page : {0ull, 1ull, 31ull, 32ull, 1000ull, 123456ull}) {
    const FlashAddr addr = flash_.delinearize(page);
    EXPECT_EQ(flash_.linearize(addr), page) << page;
  }
}

TEST_F(FlashFixture, ConsecutivePagesInterleaveLuns) {
  // LUN-major interleave: consecutive linear pages land on distinct LUNs.
  const FlashAddr a = flash_.delinearize(0);
  const FlashAddr b = flash_.delinearize(1);
  EXPECT_FALSE(a.controller == b.controller && a.channel == b.channel &&
               a.lun == b.lun);
}

TEST_F(FlashFixture, ContentRoundTrip) {
  const std::vector<std::uint8_t> data(100, 0x42);
  const FlashAddr addr{0, 1, 2, 3, 4};
  EXPECT_FALSE(flash_.page_written(addr));
  flash_.write_page_immediate(addr, data);
  ASSERT_TRUE(flash_.page_written(addr));
  const auto view = flash_.page_data(addr);
  EXPECT_EQ(view.size(), flash_.topology().page_bytes);
  EXPECT_EQ(view[0], 0x42);
  EXPECT_EQ(view[99], 0x42);
  EXPECT_EQ(view[100], 0x00);  // Zero-padded to page size.
}

TEST_F(FlashFixture, ReadingUnwrittenPageThrows) {
  EXPECT_THROW((void)flash_.page_data(FlashAddr{0, 0, 0, 0, 0}),
               ndpgen::Error);
}

TEST_F(FlashFixture, BadAddressThrows) {
  EXPECT_THROW(flash_.linearize(FlashAddr{9, 0, 0, 0, 0}), ndpgen::Error);
  EXPECT_THROW(flash_.delinearize(flash_.topology().total_pages()),
               ndpgen::Error);
}

TEST_F(FlashFixture, SingleReadLatency) {
  SimTime done_at = 0;
  flash_.read_page(FlashAddr{0, 0, 0, 0, 0},
                   [&] { done_at = queue_.now(); });
  queue_.run();
  // tR + one page over the per-channel bus (controller rate / channels).
  const SimTime expected =
      timing_.flash_read_page_latency + flash_.page_transfer_time();
  EXPECT_EQ(done_at, expected);
  EXPECT_EQ(flash_.pages_read(), 1u);
  // Channel bus rate x channels x controllers = the paper's ~200 MB/s.
  const double channel_mbps =
      16.0 * 1024 /
      (static_cast<double>(flash_.page_transfer_time()) / 1e9) / 1e6;
  EXPECT_NEAR(channel_mbps * 4 * 2, 200.0, 5.0);
}

TEST_F(FlashFixture, SameLunReadsSerializeOnSense) {
  SimTime first = 0, second = 0;
  const FlashAddr addr{0, 0, 0, 0, 0};
  const FlashAddr next{0, 0, 0, 0, 1};
  flash_.read_page(addr, [&] { first = queue_.now(); });
  flash_.read_page(next, [&] { second = queue_.now(); });
  queue_.run();
  EXPECT_GT(second, first);
}

TEST_F(FlashFixture, DifferentControllersRunInParallel) {
  SimTime a = 0, b = 0;
  flash_.read_page(FlashAddr{0, 0, 0, 0, 0}, [&] { a = queue_.now(); });
  flash_.read_page(FlashAddr{1, 0, 0, 0, 0}, [&] { b = queue_.now(); });
  queue_.run();
  // Both complete at single-read latency: separate LUNs AND buses.
  EXPECT_EQ(a, b);
}

TEST_F(FlashFixture, ChannelBusSerializesTransfers) {
  // Two reads on different LUNs of the SAME channel: tR overlaps but the
  // channel-bus transfer serializes.
  SimTime a = 0, b = 0;
  flash_.read_page(FlashAddr{0, 0, 0, 0, 0}, [&] { a = queue_.now(); });
  flash_.read_page(FlashAddr{0, 0, 1, 0, 0}, [&] { b = queue_.now(); });
  queue_.run();
  EXPECT_EQ(b - a, flash_.page_transfer_time());
}

TEST_F(FlashFixture, DifferentChannelsRunInParallel) {
  // Same controller, different channels: independent NAND buses.
  SimTime a = 0, b = 0;
  flash_.read_page(FlashAddr{0, 0, 0, 0, 0}, [&] { a = queue_.now(); });
  flash_.read_page(FlashAddr{0, 1, 0, 0, 0}, [&] { b = queue_.now(); });
  queue_.run();
  EXPECT_EQ(a, b);
}

TEST_F(FlashFixture, SustainedBandwidthMatchesPaper) {
  // Stream 256 pages across all LUNs: aggregate ~200 MB/s (2 x Tiger4).
  constexpr int kPages = 256;
  for (int i = 0; i < kPages; ++i) {
    flash_.read_page(flash_.delinearize(static_cast<std::uint64_t>(i)),
                     [] {});
  }
  const SimTime elapsed = queue_.run();
  const double bytes = static_cast<double>(kPages) * 16 * 1024;
  const double mbps = bytes / (static_cast<double>(elapsed) / 1e9) / 1e6;
  EXPECT_NEAR(mbps, 200.0, 20.0);
}

TEST_F(FlashFixture, ProgramPageStoresDataAndTakesLonger) {
  const std::vector<std::uint8_t> data(16, 0x7);
  SimTime done = 0;
  flash_.program_page(FlashAddr{0, 2, 1, 5, 0}, data,
                      [&] { done = queue_.now(); });
  queue_.run();
  EXPECT_GE(done, timing_.flash_program_page_latency);
  EXPECT_EQ(flash_.page_data(FlashAddr{0, 2, 1, 5, 0})[0], 0x7);
  EXPECT_EQ(flash_.pages_programmed(), 1u);
}

TEST_F(FlashFixture, EstimateMatchesSchedule) {
  const FlashAddr addr{0, 3, 2, 1, 0};
  const SimTime estimate = flash_.estimate_read_completion(addr);
  SimTime actual = 0;
  flash_.read_page(addr, [&] { actual = queue_.now(); });
  queue_.run();
  EXPECT_EQ(estimate, actual);
}

TEST_F(FlashFixture, StatsReset) {
  flash_.read_page(FlashAddr{0, 0, 0, 0, 0}, [] {});
  queue_.run();
  EXPECT_EQ(flash_.bytes_read(), 16u * 1024);
  flash_.reset_stats();
  EXPECT_EQ(flash_.pages_read(), 0u);
}

/// The bytes page_data must return after programming `data`: the data,
/// then zeros to the end of the page.
std::vector<std::uint8_t> padded(std::vector<std::uint8_t> data,
                                 std::size_t page_bytes) {
  data.resize(page_bytes, 0);
  return data;
}

std::vector<std::uint8_t> read(const FlashModel& flash, const FlashAddr& at) {
  const auto view = flash.page_data(at);
  return {view.begin(), view.end()};
}

// Erased and discarded pages hand their buffers to later programs, which
// zero only what the buffer's earlier programs wrote: every read returns
// the programmed bytes and zeros, whatever the buffer held before (a full
// page, a torn page's garbage tail), and a torn program on a reused
// buffer leaves the same garbage as on a fresh one.
TEST_F(FlashFixture, ReusedPageBuffersReadBackExactly) {
  const std::size_t page_bytes = flash_.topology().page_bytes;
  const FlashAddr full{0, 0, 0, 5, 0};
  const FlashAddr torn{0, 0, 0, 5, 1};
  fault::CrashScheduler crash(fault::CrashPlan{.crash_at_step = 2});
  flash_.set_crash_scheduler(&crash);
  flash_.write_page_immediate(full, std::vector<std::uint8_t>(page_bytes, 0xFF));
  flash_.write_page_immediate(torn, std::vector<std::uint8_t>(100, 0x77));
  flash_.set_crash_scheduler(nullptr);
  ASSERT_TRUE(flash_.page_torn(flash_.linearize(torn)));
  flash_.erase_block_immediate(full);  // Both buffers are free now.
  EXPECT_FALSE(flash_.page_written(full));

  const FlashAddr small{1, 0, 0, 9, 0};
  const FlashAddr smaller{1, 0, 0, 9, 1};
  const std::vector<std::uint8_t> a(40, 0x11);
  const std::vector<std::uint8_t> b(7, 0x22);
  flash_.write_page_immediate(small, a);
  flash_.write_page_immediate(smaller, b);
  EXPECT_EQ(read(flash_, small), padded(a, page_bytes));
  EXPECT_EQ(read(flash_, smaller), padded(b, page_bytes));

  // Reprogramming a page in place clears the longer earlier image.
  const std::vector<std::uint8_t> c(3, 0x33);
  flash_.write_page_immediate(small, c);
  EXPECT_EQ(read(flash_, small), padded(c, page_bytes));
  flash_.write_page_immediate(small, {});
  EXPECT_EQ(read(flash_, small), padded({}, page_bytes));

  // A discarded page's buffer, then a torn program into it.
  flash_.write_page_immediate(full, std::vector<std::uint8_t>(page_bytes, 0xEE));
  flash_.discard_page(flash_.linearize(full));
  fault::CrashScheduler crash2(fault::CrashPlan{.crash_at_step = 1});
  flash_.set_crash_scheduler(&crash2);
  const FlashAddr again{1, 1, 0, 3, 0};
  const std::vector<std::uint8_t> d(200, 0x44);
  flash_.write_page_immediate(again, d);
  flash_.set_crash_scheduler(nullptr);
  std::vector<std::uint8_t> expected(d.begin(), d.begin() + 100);
  for (std::size_t i = 100; i < page_bytes; ++i) {
    expected.push_back(crash2.garbage_byte(flash_.linearize(again), i));
  }
  EXPECT_EQ(read(flash_, again), expected);
  // Its garbage tail is cleared by the next program of the page.
  flash_.write_page_immediate(again, a);
  EXPECT_EQ(read(flash_, again), padded(a, page_bytes));
}

}  // namespace
}  // namespace ndpgen::platform

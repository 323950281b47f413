#include "hwsim/memport.hpp"

#include <gtest/gtest.h>

#include "support/error.hpp"

namespace ndpgen::hwsim {
namespace {

TEST(SimMemory, ReadWriteU64) {
  SimMemory memory(1024);
  memory.write_u64(8, 0x1122334455667788ULL);
  EXPECT_EQ(memory.read_u64(8), 0x1122334455667788ULL);
  // Little-endian byte order.
  EXPECT_EQ(memory.read_bytes(8, 1)[0], 0x88);
}

TEST(SimMemory, BytesRoundTrip) {
  SimMemory memory(64);
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  memory.write_bytes(10, data);
  const auto view = memory.read_bytes(10, 5);
  EXPECT_TRUE(std::equal(data.begin(), data.end(), view.begin()));
}

TEST(SimMemory, OutOfBoundsThrows) {
  SimMemory memory(16);
  EXPECT_THROW(memory.read_u64(9), ndpgen::Error);
  EXPECT_THROW(memory.write_u64(16, 1), ndpgen::Error);
}

TEST(SimMemory, WrappingAddressThrows) {
  // addr + length wraps past 2^64 for these addresses; the bounds checks
  // must not.
  SimMemory memory(64);
  const std::uint64_t near_end = ~std::uint64_t{0} - 3;  // 2^64 - 4
  const std::vector<std::uint8_t> bytes(8, 0xab);
  EXPECT_THROW((void)memory.read_bytes(near_end, 8), ndpgen::Error);
  EXPECT_THROW(memory.write_bytes(near_end, bytes), ndpgen::Error);
  EXPECT_THROW((void)memory.read_u64(near_end), ndpgen::Error);
  EXPECT_THROW(memory.write_u64(near_end, 1), ndpgen::Error);
  EXPECT_THROW((void)memory.read_bytes(65, 0), ndpgen::Error);
  EXPECT_NO_THROW((void)memory.read_bytes(64, 0));
  EXPECT_NO_THROW((void)memory.read_u64(56));
}

class InterconnectFixture : public ::testing::Test {
 protected:
  InterconnectFixture()
      : memory_(1 << 16),
        interconnect_(memory_, AxiInterconnect::Config{2, 10, 64}) {
    kernel_.add_module(&interconnect_);
  }

  void run_cycles(int n) {
    for (int i = 0; i < n; ++i) kernel_.tick();
  }

  AxiReadChannel& rd() { return interconnect_.read_channel(); }
  AxiWriteChannel& wr() { return interconnect_.write_channel(); }

  SimMemory memory_;
  AxiInterconnect interconnect_;
  SimKernel kernel_;
};

TEST_F(InterconnectFixture, ReadReturnsAfterLatency) {
  memory_.write_u64(0x100, 0xabcd);
  rd().request(0x100, 1);
  run_cycles(1);  // Grant.
  EXPECT_FALSE(rd().data_available(kernel_.now()));
  run_cycles(10);  // Latency.
  ASSERT_TRUE(rd().data_available(kernel_.now()));
  EXPECT_EQ(rd().pop_data(kernel_.now()), 0xabcdu);
  EXPECT_TRUE(rd().idle());
  EXPECT_TRUE(interconnect_.idle());
}

TEST_F(InterconnectFixture, WritesLandInMemory) {
  wr().request(0x200, 42);
  EXPECT_FALSE(interconnect_.idle());
  run_cycles(1);
  EXPECT_EQ(memory_.read_u64(0x200), 42u);
  EXPECT_TRUE(wr().idle());
}

TEST_F(InterconnectFixture, BandwidthCapSharedAcrossPorts) {
  // The read and the write channel share the cap.
  rd().request(0, 20);
  for (std::uint64_t i = 0; i < 20; ++i) wr().request(0x1000 + i * 8, i);
  // 2 beats/cycle in total: 40 beats need 20 cycles to grant.
  run_cycles(19);
  EXPECT_EQ(rd().pending_requests() + wr().pending_requests(), 2u);
  run_cycles(1);
  EXPECT_EQ(rd().pending_requests() + wr().pending_requests(), 0u);
}

TEST_F(InterconnectFixture, SingleChannelUsesTheWholeCap) {
  rd().request(0, 20);
  run_cycles(9);
  EXPECT_EQ(rd().pending_requests(), 2u);
  run_cycles(1);
  EXPECT_EQ(rd().pending_requests(), 0u);
}

TEST_F(InterconnectFixture, RoundRobinIsFair) {
  // At one beat per cycle both channels under demand take turns, read
  // first after construction or reset.
  AxiInterconnect interconnect(memory_, AxiInterconnect::Config{1, 10, 64});
  SimKernel kernel;
  kernel.add_module(&interconnect);
  AxiReadChannel& reads = interconnect.read_channel();
  AxiWriteChannel& writes = interconnect.write_channel();
  const auto contend = [&](std::size_t cycles) {
    reads.request(0, 10);
    for (std::uint64_t i = 0; i < 10; ++i) writes.request(0x800 + i * 8, i);
    for (std::size_t cycle = 1; cycle <= cycles; ++cycle) {
      kernel.tick();
      EXPECT_EQ(reads.pending_requests(), 10 - (cycle + 1) / 2);
      EXPECT_EQ(writes.pending_requests(), 10 - cycle / 2);
    }
  };
  contend(3);  // Stops with the write channel next in turn.
  interconnect.reset();
  contend(10);
}

TEST_F(InterconnectFixture, ResponsesAreOrdered) {
  memory_.write_u64(0, 1);
  memory_.write_u64(8, 2);
  memory_.write_u64(16, 3);
  rd().request(0, 3);
  run_cycles(30);
  EXPECT_EQ(rd().pop_data(kernel_.now()), 1u);
  EXPECT_EQ(rd().pop_data(kernel_.now()), 2u);
  EXPECT_EQ(rd().pop_data(kernel_.now()), 3u);
}

TEST_F(InterconnectFixture, MaxOutstandingThrottles) {
  rd().request(0, 100);
  wr().request(0x2000, 7);
  run_cycles(40);
  // 64 outstanding responses max; the rest remain queued until consumed,
  // while the write channel still gets its grant.
  EXPECT_EQ(rd().pending_requests(), 36u);
  EXPECT_TRUE(wr().idle());
  while (rd().data_available(kernel_.now())) {
    (void)rd().pop_data(kernel_.now());
  }
  run_cycles(60);
  while (rd().data_available(kernel_.now())) {
    (void)rd().pop_data(kernel_.now());
  }
  EXPECT_EQ(rd().pending_requests(), 0u);
}

TEST_F(InterconnectFixture, ResetClearsState) {
  rd().request(0, 5);
  wr().request(0x200, 1);
  wr().request(0x208, 2);
  run_cycles(1);
  interconnect_.reset();
  EXPECT_TRUE(rd().idle());
  EXPECT_TRUE(wr().idle());
  EXPECT_TRUE(interconnect_.idle());
  // The write granted before the reset landed; the queued one did not.
  EXPECT_EQ(memory_.read_u64(0x200), 1u);
  EXPECT_EQ(memory_.read_u64(0x208), 0u);
}

TEST_F(InterconnectFixture, PopWithoutDataThrows) {
  EXPECT_THROW((void)rd().pop_data(kernel_.now()), ndpgen::Error);
}

}  // namespace
}  // namespace ndpgen::hwsim

#include "hwsim/stream.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "hwsim/kernel.hpp"
#include "support/error.hpp"

namespace ndpgen::hwsim {
namespace {

TEST(Stream, TwoPhaseVisibility) {
  Stream<int> stream("s", 4);
  EXPECT_TRUE(stream.can_push());
  EXPECT_FALSE(stream.can_pop());
  stream.push(42);
  // Not visible until commit (registered output).
  EXPECT_FALSE(stream.can_pop());
  stream.commit();
  ASSERT_TRUE(stream.can_pop());
  EXPECT_EQ(stream.front(), 42);
  EXPECT_EQ(stream.pop(), 42);
  EXPECT_FALSE(stream.can_pop());
}

TEST(Stream, CapacityCountsStaged) {
  Stream<int> stream("s", 2);
  stream.push(1);
  stream.push(2);
  EXPECT_FALSE(stream.can_push());
  EXPECT_THROW(stream.push(3), ndpgen::Error);
  stream.commit();
  EXPECT_FALSE(stream.can_push());
  (void)stream.pop();
  EXPECT_TRUE(stream.can_push());
}

TEST(Stream, FifoOrder) {
  Stream<int> stream("s", 8);
  for (int i = 0; i < 5; ++i) stream.push(i);
  stream.commit();
  for (int i = 0; i < 5; ++i) EXPECT_EQ(stream.pop(), i);
}

TEST(Stream, PopEmptyThrows) {
  Stream<int> stream("s", 2);
  EXPECT_THROW(stream.pop(), ndpgen::Error);
  EXPECT_THROW(stream.front(), ndpgen::Error);
}

TEST(Stream, ResetClearsBoth) {
  Stream<int> stream("s", 4);
  stream.push(1);
  stream.commit();
  stream.push(2);
  EXPECT_FALSE(stream.empty());
  stream.reset();
  EXPECT_TRUE(stream.empty());
  EXPECT_EQ(stream.occupancy(), 0u);
}

TEST(Stream, OccupancyTracksBoth) {
  Stream<int> stream("s", 4);
  stream.push(1);
  EXPECT_EQ(stream.occupancy(), 1u);
  stream.commit();
  stream.push(2);
  EXPECT_EQ(stream.occupancy(), 2u);
}

// --- Kernel ----------------------------------------------------------

class CounterModule final : public Module {
 public:
  CounterModule(Stream<int>* out, int limit)
      : Module("counter"), out_(out), limit_(limit) {}
  void cycle(std::uint64_t) override {
    if (next_ < limit_ && out_->can_push()) out_->push(next_++);
  }
  void reset() override { next_ = 0; }
  [[nodiscard]] bool idle() const noexcept override { return next_ == limit_; }

 private:
  Stream<int>* out_;
  int limit_;
  int next_ = 0;
};

class SinkModule final : public Module {
 public:
  explicit SinkModule(Stream<int>* in) : Module("sink"), in_(in) {}
  void cycle(std::uint64_t) override {
    if (in_->can_pop()) values.push_back(in_->pop());
  }
  std::vector<int> values;

 private:
  Stream<int>* in_;
};

TEST(Kernel, PipelineMovesData) {
  SimKernel kernel;
  auto* stream = kernel.make_stream<int>("pipe", 2);
  CounterModule producer(stream, 10);
  SinkModule consumer(stream);
  kernel.add_module(&producer);
  kernel.add_module(&consumer);
  const auto cycles = kernel.run_until(
      [&] { return consumer.values.size() == 10 && kernel.streams_empty(); },
      1000);
  EXPECT_GT(cycles, 10u);  // At least one cycle of pipeline latency.
  ASSERT_EQ(consumer.values.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(consumer.values[i], i);
}

TEST(Kernel, RunUntilTimesOut) {
  SimKernel kernel;
  EXPECT_THROW(kernel.run_until([] { return false; }, 100), ndpgen::Error);
  EXPECT_EQ(kernel.now(), 100u);
}

TEST(Kernel, SimModeFromEnvRejectsUnknownValue) {
  // A typo must not silently select fast mode: CI would then diff fast
  // against fast.
  const char* saved = std::getenv("NDPGEN_SIM_MODE");
  const std::string previous = saved != nullptr ? saved : "";
  setenv("NDPGEN_SIM_MODE", "exakt", 1);
  try {
    (void)sim_mode_from_env();
    ADD_FAILURE() << "unknown NDPGEN_SIM_MODE accepted";
  } catch (const ndpgen::Error& e) {
    EXPECT_EQ(e.kind(), ndpgen::ErrorKind::kInvalidArg);
    EXPECT_EQ(e.message(),
              "NDPGEN_SIM_MODE='exakt' (expected 'exact' or 'fast')");
  }
  if (saved != nullptr) {
    setenv("NDPGEN_SIM_MODE", previous.c_str(), 1);
  } else {
    unsetenv("NDPGEN_SIM_MODE");
  }
}

TEST(Kernel, ResetRestoresInitialState) {
  SimKernel kernel;
  auto* stream = kernel.make_stream<int>("pipe", 2);
  CounterModule producer(stream, 3);
  kernel.add_module(&producer);
  kernel.tick();
  kernel.tick();
  EXPECT_GT(kernel.now(), 0u);
  kernel.reset();
  EXPECT_EQ(kernel.now(), 0u);
  EXPECT_TRUE(kernel.streams_empty());
}

TEST(Kernel, OneItemPerCycleThroughput) {
  // An elastic stage sustains one item per cycle once primed.
  SimKernel kernel;
  auto* stream = kernel.make_stream<int>("pipe", 2);
  CounterModule producer(stream, 100);
  SinkModule consumer(stream);
  kernel.add_module(&producer);
  kernel.add_module(&consumer);
  const auto cycles = kernel.run_until(
      [&] { return consumer.values.size() == 100; }, 10'000);
  EXPECT_LE(cycles, 105u);
}

}  // namespace
}  // namespace ndpgen::hwsim

// Background scrubber: budget pacing, cyclic patrol coverage, persistent
// rot detection, and the wrong-data blind spot anti-entropy exists for.
#include "cluster/scrub.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "kv/block_format.hpp"
#include "support/error.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::cluster {
namespace {

constexpr platform::SimTime kMs = 1000 * 1000;

std::unique_ptr<SmartSsdDevice> loaded_device() {
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 2048});
  auto device = std::make_unique<SmartSsdDevice>(
      0, platform::CosmosConfig{},
      workload::db_config(workload::Dataset::kPapers));
  device->enable_digests(16, [](const kv::Key& key) {
    return static_cast<std::uint32_t>(key.hi % 16);
  });
  std::uint64_t index = 0;
  device->load_sorted(
      /*level=*/2,
      [&](std::vector<std::uint8_t>& record) {
        if (index >= generator.paper_count()) return false;
        record = generator.paper(index++).serialize();
        return true;
      },
      /*records_per_sst=*/64 * 255);
  return device;
}

ScrubConfig default_scrub() {
  ScrubConfig config;
  config.enabled = true;
  return config;  // share 0.1 of 200 MB/s = 0.02 bytes per virtual ns.
}

TEST(DeviceScrubberTest, ValidatesConfiguration) {
  auto device = loaded_device();
  ScrubConfig bad = default_scrub();
  bad.scrub_share = 0.0;
  EXPECT_THROW(DeviceScrubber(*device, bad), Error);
  bad.scrub_share = 1.0;
  EXPECT_THROW(DeviceScrubber(*device, bad), Error);
  bad = default_scrub();
  bad.bandwidth_mbps = 0.0;
  EXPECT_THROW(DeviceScrubber(*device, bad), Error);
}

TEST(DeviceScrubberTest, PacingFollowsTheByteBudget) {
  auto device = loaded_device();
  DeviceScrubber scrubber(*device, default_scrub());
  // 0.02 B/ns x 2 ms covers exactly one 32 KiB block (1.64 ms each).
  scrubber.advance(2 * kMs);
  EXPECT_EQ(scrubber.report().blocks_verified, 1u);
  scrubber.advance(4 * kMs);
  EXPECT_EQ(scrubber.report().blocks_verified, 2u);
  EXPECT_EQ(scrubber.report().bytes_scanned,
            2u * kv::kDataBlockBytes);
  EXPECT_EQ(scrubber.report().crc_failures, 0u);
}

TEST(DeviceScrubberTest, AdvanceGranularityNeverChangesCoverage) {
  auto device = loaded_device();
  DeviceScrubber coarse(*device, default_scrub());
  DeviceScrubber fine(*device, default_scrub());
  // 8 ms stays under a full pass, so the per-advance one-pass cap (see
  // PatrolIsCyclicAndCleanMediaNeverAlarms) never bites for either pace.
  coarse.advance(8 * kMs);
  for (int step = 1; step <= 8; ++step) fine.advance(step * kMs);
  // The patrol is a pure function of (config, now) — how often the
  // coordinator happens to dispatch must not move it.
  EXPECT_EQ(coarse.report().blocks_verified, fine.report().blocks_verified);
  EXPECT_EQ(coarse.report().bytes_scanned, fine.report().bytes_scanned);
  EXPECT_GT(coarse.report().blocks_verified, 2u);
}

TEST(DeviceScrubberTest, PatrolIsCyclicAndCleanMediaNeverAlarms) {
  auto device = loaded_device();
  DeviceScrubber scrubber(*device, default_scrub());
  // Budget per advance is capped at one full pass; two huge advances
  // walk the store at least twice (the cursor wraps, patrol never ends).
  scrubber.advance(platform::SimTime{1} << 40);
  const std::uint64_t one_pass = scrubber.report().blocks_verified;
  ASSERT_GT(one_pass, 0u);
  scrubber.advance(platform::SimTime{1} << 41);
  EXPECT_EQ(scrubber.report().blocks_verified, 2 * one_pass);
  EXPECT_EQ(scrubber.report().crc_failures, 0u);
  EXPECT_EQ(scrubber.report().transient_recovered, 0u);
}

TEST(DeviceScrubberTest, DetectsPersistentRotUntilRepaired) {
  auto device = loaded_device();
  DeviceScrubber scrubber(*device, default_scrub());
  const std::uint64_t rotted = device->corrupt_blocks(2, /*seed=*/7);
  ASSERT_EQ(rotted, 2u);

  // One full pass finds every rotted block; real rot never comes back
  // clean on the recovery re-read, so these are persistent failures.
  const std::uint64_t detected = scrubber.advance(platform::SimTime{1} << 40);
  EXPECT_EQ(detected, 2u);
  EXPECT_EQ(scrubber.report().crc_failures, 2u);
  EXPECT_TRUE(device->has_corruption());

  // After the replica-sourced repair the next pass is quiet again.
  EXPECT_GT(device->repair_corruption(), 0u);
  EXPECT_FALSE(device->has_corruption());
  EXPECT_EQ(scrubber.advance(platform::SimTime{1} << 41), 0u);
  EXPECT_EQ(scrubber.report().crc_failures, 2u);
}

TEST(DeviceScrubberTest, WrongDataRotEvadesEveryCrcCheck) {
  auto device = loaded_device();
  DeviceScrubber scrubber(*device, default_scrub());
  ASSERT_EQ(device->corrupt_blocks(2, /*seed=*/7, /*wrong_data=*/true), 2u);

  // The rewritten index CRC matches the rotten bytes: a full patrol pass
  // sees nothing wrong. This is the structural blind spot that makes
  // cross-replica digest comparison necessary, not optional.
  EXPECT_EQ(scrubber.advance(platform::SimTime{1} << 40), 0u);
  EXPECT_EQ(scrubber.report().crc_failures, 0u);
  EXPECT_GT(scrubber.report().blocks_verified, 0u);

  // The digests do see it.
  const PartitionDigestSet observed = device->observed_digests();
  bool diverged = false;
  for (std::uint32_t p = 0; p < observed.partitions(); ++p) {
    diverged = diverged ||
               observed.digest(p) != device->maintained_digests().digest(p);
  }
  EXPECT_TRUE(diverged);
}

TEST(DeviceScrubberTest, CorruptBlockPickIsSeedDeterministic) {
  auto a = loaded_device();
  auto b = loaded_device();
  ASSERT_EQ(a->corrupt_blocks(3, /*seed=*/99), 3u);
  ASSERT_EQ(b->corrupt_blocks(3, /*seed=*/99), 3u);
  const PartitionDigestSet oa = a->observed_digests();
  const PartitionDigestSet ob = b->observed_digests();
  for (std::uint32_t p = 0; p < oa.partitions(); ++p) {
    EXPECT_EQ(oa.digest(p), ob.digest(p)) << p;
  }
}

}  // namespace
}  // namespace ndpgen::cluster

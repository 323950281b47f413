// Partition digest trees: order/layout independence, XOR self-inverse,
// divergence localization, and the maintained==observed contract on
// clean devices.
#include "cluster/antientropy.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/device.hpp"
#include "support/error.hpp"
#include "workload/pubgraph.hpp"

namespace ndpgen::cluster {
namespace {

constexpr std::uint32_t kPartitions = 16;

std::uint32_t test_partition_of(const kv::Key& key) {
  return static_cast<std::uint32_t>(key.hi % kPartitions);
}

/// A digest-enabled device bulk-loaded with every generator paper, packed
/// `records_per_sst` to an SST (the layout knob the digests must ignore).
std::unique_ptr<SmartSsdDevice> loaded_device(
    const workload::PubGraphGenerator& generator,
    std::uint64_t records_per_sst) {
  auto device = std::make_unique<SmartSsdDevice>(
      0, platform::CosmosConfig{},
      workload::db_config(workload::Dataset::kPapers));
  device->enable_digests(kPartitions, test_partition_of);
  std::uint64_t index = 0;
  device->load_sorted(
      /*level=*/2,
      [&](std::vector<std::uint8_t>& record) {
        if (index >= generator.paper_count()) return false;
        record = generator.paper(index++).serialize();
        return true;
      },
      records_per_sst);
  return device;
}

TEST(PartitionDigestTest, RecordHashIsAPureFunctionOfTheBytes) {
  const std::vector<std::uint8_t> a = {1, 2, 3, 4};
  const std::vector<std::uint8_t> b = {1, 2, 3, 5};
  EXPECT_EQ(record_digest_hash(a), record_digest_hash(a));
  EXPECT_NE(record_digest_hash(a), record_digest_hash(b));
  EXPECT_NE(record_digest_hash(a), 0u);
}

TEST(PartitionDigestTest, ToggleIsSelfInverse) {
  PartitionDigestSet set(kPartitions);
  const std::uint64_t empty_root = set.root(3);
  set.toggle(3, 0xdeadbeefcafe1234ULL);
  EXPECT_NE(set.root(3), empty_root);
  // The same call removes what it added: add/remove need no separate
  // bookkeeping, which is what lets one kv hook serve both directions.
  set.toggle(3, 0xdeadbeefcafe1234ULL);
  EXPECT_EQ(set.root(3), empty_root);
  EXPECT_EQ(set.digest(3), PartitionDigest{});
}

TEST(PartitionDigestTest, ToggleOrderNeverMatters) {
  PartitionDigestSet forward(kPartitions), reverse(kPartitions);
  const std::uint64_t hashes[] = {11, 0xffULL << 40, 12345, 11 * 997};
  for (const std::uint64_t h : hashes) forward.toggle(5, h);
  for (int i = 3; i >= 0; --i) reverse.toggle(5, hashes[i]);
  EXPECT_EQ(forward.digest(5), reverse.digest(5));
}

TEST(PartitionDigestTest, RootIsPositionSalted) {
  PartitionDigest a, b;
  a.leaves[0] = 0x1111;
  b.leaves[1] = 0x1111;
  // The same leaf value in different buckets must not fold to the same
  // root, or a bucket swap would be invisible.
  EXPECT_NE(a.root(), b.root());
}

TEST(PartitionDigestTest, DivergentLeavesLocalizeTheDifference) {
  PartitionDigest a, b;
  b.leaves[3] ^= 0xabc;
  b.leaves[7] ^= 0xdef;
  const std::vector<std::uint32_t> expected = {3, 7};
  EXPECT_EQ(PartitionDigestSet::divergent_leaves(a, b), expected);
  EXPECT_TRUE(PartitionDigestSet::divergent_leaves(a, a).empty());
}

TEST(PartitionDigestTest, ObservedDigestsIgnoreSstLayout) {
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 2048});
  // Same logical records, very different physical layouts: one fat SST
  // vs many small ones (different block packing, different tables).
  auto fat = loaded_device(generator, 64 * 255);
  auto slim = loaded_device(generator, 50);

  const PartitionDigestSet fat_observed = fat->observed_digests();
  const PartitionDigestSet slim_observed = slim->observed_digests();
  ASSERT_EQ(fat_observed.partitions(), kPartitions);
  bool any_nonempty = false;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(fat_observed.digest(p), slim_observed.digest(p)) << p;
    // Clean flash: what each device holds is what its write-time
    // maintained tree says it should hold.
    EXPECT_EQ(fat_observed.digest(p), fat->maintained_digests().digest(p))
        << p;
    EXPECT_EQ(slim_observed.digest(p), slim->maintained_digests().digest(p))
        << p;
    any_nonempty = any_nonempty || fat_observed.digest(p) != PartitionDigest{};
  }
  EXPECT_TRUE(any_nonempty);
}

TEST(PartitionDigestTest, CorruptionMovesObservedNotMaintained) {
  const workload::PubGraphGenerator generator(
      workload::PubGraphConfig{.scale_divisor = 2048});
  auto device = loaded_device(generator, 64 * 255);
  const PartitionDigestSet before = device->observed_digests();

  ASSERT_GE(device->corrupt_blocks(1, /*seed=*/42), 1u);
  const PartitionDigestSet rotted = device->observed_digests();
  std::uint32_t divergent = 0;
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    if (rotted.digest(p) != before.digest(p)) ++divergent;
    // Write-time trees never see media damage.
    EXPECT_EQ(device->maintained_digests().digest(p), before.digest(p)) << p;
  }
  EXPECT_GE(divergent, 1u);

  device->repair_corruption();
  const PartitionDigestSet repaired = device->observed_digests();
  for (std::uint32_t p = 0; p < kPartitions; ++p) {
    EXPECT_EQ(repaired.digest(p), before.digest(p)) << p;
  }
}

TEST(PartitionDigestTest, IntegrityErrorsExitTwenty) {
  EXPECT_EQ(exit_code(ErrorKind::kIntegrity), 20);
  EXPECT_EQ(to_string(ErrorKind::kIntegrity), "integrity");
}

}  // namespace
}  // namespace ndpgen::cluster

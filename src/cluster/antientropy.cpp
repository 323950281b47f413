#include "cluster/antientropy.hpp"

#include "kv/sst_reader.hpp"
#include "support/crc32c.hpp"

namespace ndpgen::cluster {

namespace {

/// splitmix64 finalizer (same stateless mix the placement ring uses).
[[nodiscard]] std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

std::uint64_t record_digest_hash(
    std::span<const std::uint8_t> record) noexcept {
  const std::uint64_t crc = support::crc32c(record);
  return mix64(crc ^ (static_cast<std::uint64_t>(record.size()) << 32));
}

std::uint64_t PartitionDigest::root() const noexcept {
  std::uint64_t h = 0;
  for (std::size_t i = 0; i < leaves.size(); ++i) {
    h = mix64(h ^ leaves[i] ^ (static_cast<std::uint64_t>(i) << 56));
  }
  return h;
}

void PartitionDigestSet::toggle(std::uint32_t partition,
                                std::uint64_t record_hash) {
  NDPGEN_CHECK_ARG(partition < digests_.size(),
                   "digest partition out of range");
  digests_[partition].leaves[record_hash % kDigestLeaves] ^= record_hash;
}

const PartitionDigest& PartitionDigestSet::digest(
    std::uint32_t partition) const {
  NDPGEN_CHECK_ARG(partition < digests_.size(),
                   "digest partition out of range");
  return digests_[partition];
}

std::vector<std::uint32_t> PartitionDigestSet::divergent_leaves(
    const PartitionDigest& a, const PartitionDigest& b) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t leaf = 0; leaf < kDigestLeaves; ++leaf) {
    if (a.leaves[leaf] != b.leaves[leaf]) out.push_back(leaf);
  }
  return out;
}

PartitionDigestSet compute_observed_digests(kv::NKV& db,
                                            const PartitionOfKey& partition_of,
                                            std::uint32_t partitions) {
  NDPGEN_CHECK_ARG(static_cast<bool>(partition_of),
                   "observed digests need a partition function");
  PartitionDigestSet observed(partitions);
  const kv::KeyExtractor extractor = db.config().extractor;
  for (const auto& table : db.version().recency_ordered()) {
    kv::SSTReader reader(*table, db.platform().flash(), extractor);
    reader.for_each_record([&](std::span<const std::uint8_t> record) {
      observed.toggle(partition_of(extractor(record)),
                      record_digest_hash(record));
    });
  }
  return observed;
}

}  // namespace ndpgen::cluster

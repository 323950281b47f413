#include "kv/manifest.hpp"

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {

namespace {

constexpr std::uint32_t kManifestMagic = 0x6e4b564d;  // "nKVM"
// Version history:
//   1 — initial format.
//   2 — BlockHandle carries a CRC32C over the 32 KiB block image.
//   3 — header gains last_sequence + next_sst_id (crash recovery).
// Older manifests still decode (missing fields read as 0/unverified).
constexpr std::uint32_t kManifestVersion = 3;

Key get_key(std::span<const std::uint8_t> in, std::size_t& offset) {
  Key key;
  key.hi = support::get_u64(in, offset);
  key.lo = support::get_u64(in, offset + 8);
  offset += 16;
  return key;
}

[[nodiscard]] constexpr std::size_t varint_bytes(std::uint64_t v) noexcept {
  std::size_t bytes = 1;
  for (; v >= 0x80; v >>= 7) ++bytes;
  return bytes;
}

/// Encoded size of one table, field for field as ImageWriter::table
/// writes it.
std::size_t table_bytes(const SSTable& table) {
  const std::size_t words = table.bloom.words().size();
  std::size_t bytes = 8 + 4 + 4 + 16 + 16 + 8 + 8 +
                      varint_bytes(table.blocks.size()) +
                      varint_bytes(table.tombstones.size()) +
                      24 * table.tombstones.size() + varint_bytes(words) +
                      8 * words;
  for (const auto& block : table.blocks) {
    const std::size_t pages = block.flash_pages.size();
    bytes += 16 + 16 + 2 + 4 + varint_bytes(pages) + 8 * pages;
  }
  return bytes;
}

/// Writes a manifest image front to back into a buffer sized up front.
class ImageWriter {
 public:
  explicit ImageWriter(std::uint8_t* out) noexcept : at_(out) {}

  [[nodiscard]] const std::uint8_t* position() const noexcept { return at_; }

  void u16(std::uint16_t v) noexcept {
    support::store_u16(at_, v);
    at_ += 2;
  }
  void u32(std::uint32_t v) noexcept {
    support::store_u32(at_, v);
    at_ += 4;
  }
  void u64(std::uint64_t v) noexcept {
    support::store_u64(at_, v);
    at_ += 8;
  }
  void key(const Key& key) noexcept {
    u64(key.hi);
    u64(key.lo);
  }
  void varint(std::uint64_t v) noexcept {
    for (; v >= 0x80; v >>= 7) *at_++ = static_cast<std::uint8_t>(v) | 0x80;
    *at_++ = static_cast<std::uint8_t>(v);
  }
  /// Little-endian u64s in bulk.
  void u64s(std::span<const std::uint64_t> words) noexcept {
    support::store_u64s(at_, words);
    at_ += words.size_bytes();
  }

  void table(const SSTable& table) noexcept {
    u64(table.id);
    u32(table.level);
    u32(table.record_bytes);
    key(table.min_key);
    key(table.max_key);
    u64(table.min_seq);
    u64(table.max_seq);
    varint(table.blocks.size());
    for (const auto& block : table.blocks) {
      key(block.first_key);
      key(block.last_key);
      u16(block.record_count);
      u32(block.crc32c);
      varint(block.flash_pages.size());
      u64s(block.flash_pages);
    }
    varint(table.tombstones.size());
    for (const auto& tombstone : table.tombstones) {
      key(tombstone.key);
      u64(tombstone.seq);
    }
    varint(table.bloom.words().size());
    u64s(table.bloom.words());
  }

 private:
  std::uint8_t* at_;
};

std::shared_ptr<SSTable> decode_table(std::span<const std::uint8_t> in,
                                      std::size_t& offset,
                                      std::uint32_t version) {
  auto table = std::make_shared<SSTable>();
  table->id = support::get_u64(in, offset);
  offset += 8;
  table->level = support::get_u32(in, offset);
  offset += 4;
  table->record_bytes = support::get_u32(in, offset);
  offset += 4;
  table->min_key = get_key(in, offset);
  table->max_key = get_key(in, offset);
  table->min_seq = support::get_u64(in, offset);
  offset += 8;
  table->max_seq = support::get_u64(in, offset);
  offset += 8;
  const auto block_count = support::get_varint(in, offset);
  table->blocks.reserve(block_count);
  for (std::uint64_t b = 0; b < block_count; ++b) {
    BlockHandle handle;
    handle.first_key = get_key(in, offset);
    handle.last_key = get_key(in, offset);
    handle.record_count = support::get_u16(in, offset);
    offset += 2;
    if (version >= 2) {
      handle.crc32c = support::get_u32(in, offset);
      offset += 4;
    }
    const auto page_count = support::get_varint(in, offset);
    handle.flash_pages.reserve(page_count);
    for (std::uint64_t p = 0; p < page_count; ++p) {
      handle.flash_pages.push_back(support::get_u64(in, offset));
      offset += 8;
    }
    table->blocks.push_back(std::move(handle));
  }
  const auto tombstone_count = support::get_varint(in, offset);
  table->tombstones.reserve(tombstone_count);
  for (std::uint64_t t = 0; t < tombstone_count; ++t) {
    Tombstone tombstone;
    tombstone.key = get_key(in, offset);
    tombstone.seq = support::get_u64(in, offset);
    offset += 8;
    table->tombstones.push_back(tombstone);
  }
  const auto bloom_words = support::get_varint(in, offset);
  std::vector<std::uint64_t> words;
  words.reserve(bloom_words);
  for (std::uint64_t w = 0; w < bloom_words; ++w) {
    words.push_back(support::get_u64(in, offset));
    offset += 8;
  }
  table->bloom = BloomFilter::from_words(std::move(words));
  return table;
}

}  // namespace

std::vector<std::uint8_t> encode_manifest_image(const ManifestImage& image) {
  // Size the image, then write it in one pass.
  std::size_t bytes = 4 + 4 + 8 + 8;
  for (std::uint32_t level = 1; level <= kMaxLevels; ++level) {
    const auto& tables = image.version.level(level);
    bytes += varint_bytes(tables.size());
    for (const auto& table : tables) bytes += table_bytes(*table);
  }
  std::vector<std::uint8_t> out(bytes);
  ImageWriter writer(out.data());
  writer.u32(kManifestMagic);
  writer.u32(kManifestVersion);
  writer.u64(image.last_sequence);
  writer.u64(image.next_sst_id);
  for (std::uint32_t level = 1; level <= kMaxLevels; ++level) {
    const auto& tables = image.version.level(level);
    writer.varint(tables.size());
    for (const auto& table : tables) writer.table(*table);
  }
  NDPGEN_CHECK(writer.position() == out.data() + out.size(),
               "manifest image size mismatch");
  return out;
}

ManifestImage decode_manifest_image(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < 8 || support::get_u32(bytes, 0) != kManifestMagic) {
    ndpgen::raise(ErrorKind::kStorage, "bad manifest magic");
  }
  const std::uint32_t format_version = support::get_u32(bytes, 4);
  if (format_version < 1 || format_version > kManifestVersion) {
    ndpgen::raise(ErrorKind::kStorage, "unsupported manifest version");
  }
  std::size_t offset = 8;
  ManifestImage image;
  if (format_version >= 3) {
    image.last_sequence = support::get_u64(bytes, offset);
    offset += 8;
    image.next_sst_id = support::get_u64(bytes, offset);
    offset += 8;
  }
  for (std::uint32_t level = 1; level <= kMaxLevels; ++level) {
    const auto table_count = support::get_varint(bytes, offset);
    for (std::uint64_t t = 0; t < table_count; ++t) {
      image.version.add(level, decode_table(bytes, offset, format_version));
    }
  }
  if (offset != bytes.size()) {
    ndpgen::raise(ErrorKind::kStorage, "trailing bytes in manifest");
  }
  return image;
}

std::vector<std::uint8_t> encode_manifest(const Version& version) {
  ManifestImage image;
  // Shallow-share the tables: Version holds shared_ptr<SSTable>.
  image.version = version;
  return encode_manifest_image(image);
}

Version decode_manifest(std::span<const std::uint8_t> bytes) {
  return decode_manifest_image(bytes).version;
}

}  // namespace ndpgen::kv

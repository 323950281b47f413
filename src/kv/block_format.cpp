#include "kv/block_format.hpp"

#include <cstring>

#include "support/bytes.hpp"
#include "support/error.hpp"

namespace ndpgen::kv {

DataBlockBuilder::DataBlockBuilder(std::uint32_t record_bytes)
    : record_bytes_(record_bytes), capacity_(records_per_block(record_bytes)) {
  NDPGEN_CHECK_ARG(record_bytes > 0 &&
                       record_bytes <= kDataBlockBytes - kBlockTrailerBytes,
                   "record size must fit a data block");
  image_.resize(kDataBlockBytes);
}

void DataBlockBuilder::add(std::span<const std::uint8_t> record) {
  NDPGEN_CHECK_ARG(record.size() == record_bytes_,
                   "record size does not match the block geometry");
  NDPGEN_CHECK_ARG(has_space(), "data block is full");
  std::memcpy(slot().data(), record.data(), record_bytes_);
  commit();
}

std::span<const std::uint8_t> DataBlockBuilder::seal() {
  const std::size_t base = kDataBlockBytes - kBlockTrailerBytes;
  const std::size_t payload = std::size_t{count_} * record_bytes_;
  std::memset(image_.data() + payload, 0, base - payload);
  // Trailer: count u16, record size u16, magic u32.
  support::store_u32(image_.data() + base, count_ | record_bytes_ << 16);
  support::store_u32(image_.data() + base + 4, kBlockMagic);
  count_ = 0;
  return image_;
}

std::vector<std::uint8_t> DataBlockBuilder::finish() {
  const std::span<const std::uint8_t> image = seal();
  return {image.begin(), image.end()};
}

BlockTrailer read_trailer(std::span<const std::uint8_t> block) {
  if (block.size() != kDataBlockBytes) {
    ndpgen::raise(ErrorKind::kStorage, "data block has wrong size");
  }
  const std::size_t base = kDataBlockBytes - kBlockTrailerBytes;
  const std::uint32_t magic = support::get_u32(block, base + 4);
  if (magic != kBlockMagic) {
    ndpgen::raise(ErrorKind::kStorage, "bad data-block magic");
  }
  BlockTrailer trailer;
  trailer.record_count = support::get_u16(block, base);
  trailer.record_bytes = support::get_u16(block, base + 2);
  if (std::uint32_t{trailer.record_count} * trailer.record_bytes >
      kDataBlockBytes - kBlockTrailerBytes) {
    ndpgen::raise(ErrorKind::kStorage, "data-block trailer inconsistent");
  }
  return trailer;
}

std::span<const std::uint8_t> block_record(std::span<const std::uint8_t> block,
                                           const BlockTrailer& trailer,
                                           std::uint32_t index) {
  NDPGEN_CHECK_ARG(index < trailer.record_count, "record index out of range");
  return block.subspan(std::size_t{index} * trailer.record_bytes,
                       trailer.record_bytes);
}

}  // namespace ndpgen::kv

// Simulated Control Register File (Fig. 3.a).
//
// "Simply a register file, which is mapped into the memory space of the
// on-chip ARM core." MMIO writes/reads are decoded against the generated
// RegisterMap, so the generated software interface addresses work
// unchanged against the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "hwgen/register_map.hpp"

namespace ndpgen::hwsim {

/// A register looked up once: its word index in the file, or absent when
/// the map lacks it. Reading or setting an absent slot raises the map's
/// RegisterMap::offset_of error for its name.
struct RegSlot {
  static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  std::uint32_t index = kAbsent;
  std::string name;

  [[nodiscard]] bool present() const noexcept { return index != kAbsent; }
};

class SimRegFile {
 public:
  explicit SimRegFile(const hwgen::RegisterMap& map);

  /// MMIO write. Writes to read-only registers are ignored (matching the
  /// AXI4-Lite decode of the generated hardware). Unknown offsets throw.
  void mmio_write(std::uint32_t offset, std::uint32_t value);

  /// MMIO read. Unknown offsets return 0xdead_beef like the generated
  /// Verilog's default case.
  [[nodiscard]] std::uint32_t mmio_read(std::uint32_t offset) const;

  /// Resolves register `name` once for the accesses below.
  [[nodiscard]] RegSlot slot(std::string_view name) const;
  [[nodiscard]] std::uint32_t offset(const RegSlot& slot) const {
    return index(slot) * 4;
  }

  /// Internal (hardware-side) access, bypassing the RO check.
  void hw_set(const RegSlot& slot, std::uint32_t value) {
    values_[index(slot)] = value;
  }
  [[nodiscard]] std::uint32_t value(const RegSlot& slot) const {
    return values_[index(slot)];
  }
  /// 64-bit helper for address/value register pairs (LO/HI).
  [[nodiscard]] std::uint64_t value64(const RegSlot& lo,
                                      const RegSlot& hi) const {
    return static_cast<std::uint64_t>(value(lo)) |
           (static_cast<std::uint64_t>(value(hi)) << 32);
  }

  void reset();

  [[nodiscard]] const hwgen::RegisterMap& map() const noexcept { return map_; }

 private:
  [[nodiscard]] std::uint32_t index(const RegSlot& slot) const {
    return slot.present() ? slot.index : map_.offset_of(slot.name) / 4;
  }

  hwgen::RegisterMap map_;
  std::vector<std::uint32_t> values_;
};

}  // namespace ndpgen::hwsim

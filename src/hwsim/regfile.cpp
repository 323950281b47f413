#include "hwsim/regfile.hpp"

#include "support/error.hpp"

namespace ndpgen::hwsim {

SimRegFile::SimRegFile(const hwgen::RegisterMap& map)
    : map_(map), values_(map.size(), 0) {}

void SimRegFile::mmio_write(std::uint32_t offset, std::uint32_t value) {
  const hwgen::RegisterDef* def = map_.at_offset(offset);
  if (def == nullptr) {
    ndpgen::raise(ErrorKind::kSimulation,
                  "MMIO write to unmapped offset " + std::to_string(offset));
  }
  if (def->access == hwgen::RegAccess::kReadOnly) {
    return;  // Hardware ignores writes to RO registers.
  }
  values_[offset / 4] = value;
}

std::uint32_t SimRegFile::mmio_read(std::uint32_t offset) const {
  const hwgen::RegisterDef* def = map_.at_offset(offset);
  if (def == nullptr) return 0xdeadbeef;
  return values_[offset / 4];
}

RegSlot SimRegFile::slot(std::string_view name) const {
  const hwgen::RegisterDef* def = map_.find(name);
  return RegSlot{def != nullptr ? def->offset / 4 : RegSlot::kAbsent,
                 std::string(name)};
}

void SimRegFile::reset() {
  std::fill(values_.begin(), values_.end(), 0);
}

}  // namespace ndpgen::hwsim

// Seeded random struct specs shared by the property suites.
#pragma once

#include <cstdint>
#include <sstream>
#include <string>

#include "support/rng.hpp"

namespace ndpgen::test_support {

/// Generates a random (but valid) struct spec: primitives, arrays, nested
/// structs and string fields.
inline std::string random_spec(support::Xoshiro256& rng,
                               std::uint32_t max_fields) {
  static const char* kPrimitives[] = {"uint8_t",  "uint16_t", "uint32_t",
                                      "uint64_t", "int8_t",   "int16_t",
                                      "int32_t",  "int64_t",  "float",
                                      "double"};
  std::ostringstream out;
  const bool nested = rng.below(2) == 1;
  if (nested) {
    out << "typedef struct { uint32_t a; uint16_t b[2]; } Inner;\n";
  }
  out << "typedef struct {\n";
  const std::uint32_t fields =
      1 + static_cast<std::uint32_t>(rng.below(max_fields));
  bool any_primitive = false;
  for (std::uint32_t f = 0; f < fields; ++f) {
    const auto choice = rng.below(nested ? 4 : 3);
    if (choice == 0) {
      out << "  " << kPrimitives[rng.below(10)] << " f" << f << ";\n";
      any_primitive = true;
    } else if (choice == 1) {
      out << "  " << kPrimitives[rng.below(10)] << " f" << f << "["
          << 1 + rng.below(4) << "];\n";
      any_primitive = true;
    } else if (choice == 2) {
      const std::uint32_t prefix = 1 + rng.below(8);
      const std::uint32_t length = prefix + 1 + rng.below(24);
      out << "  /* @string prefix = " << prefix << " */ char f" << f << "["
          << length << "];\n";
      any_primitive = true;  // Prefix is filterable.
    } else {
      out << "  Inner f" << f << ";\n";
      any_primitive = true;
    }
  }
  if (!any_primitive) out << "  uint32_t fallback;\n";
  out << "} T;\n";
  out << "/* @autogen define parser P with input = T, output = T */\n";
  return out.str();
}

}  // namespace ndpgen::test_support

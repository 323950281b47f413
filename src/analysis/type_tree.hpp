// Type trees — the input representation of the contextual analysis.
//
// Paper §IV-B: "The input to the contextual analysis are trees representing
// the struct-types. Each node describes a different part of the overall
// structs, with leaf nodes representing actual primitive types (e.g.
// integers), while regular nodes can be nested structs or arrays."
//
// TypeNode is exactly that tree. The passes in passes.hpp transform it
// (string resolution, array scalarization) until only structs of primitive
// leaves and opaque string postfixes remain.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "spec/ast.hpp"

namespace ndpgen::analysis {

class TypeNode;
using TypeNodePtr = std::unique_ptr<TypeNode>;

class TypeNode {
 public:
  enum class Kind : std::uint8_t {
    kPrimitive,      ///< Leaf: integer or float field.
    kStruct,         ///< Inner node: ordered children.
    kArray,          ///< Inner node: `count` × element.
    kStringPostfix,  ///< Leaf: opaque string payload (not filterable).
  };

  /// Field (or type) name this node was declared with.
  std::string name;
  Kind kind = Kind::kStruct;

  // kPrimitive:
  spec::PrimitiveKind primitive = spec::PrimitiveKind::kU32;

  // kStruct:
  std::vector<TypeNodePtr> children;

  // kArray:
  TypeNodePtr element;
  std::uint32_t count = 0;

  // kStringPostfix:
  std::uint32_t postfix_bytes = 0;

  /// Pending @string annotation (consumed by the string-resolution pass).
  std::uint32_t string_prefix_bytes = 0;  ///< 0 = not annotated.

  /// Total packed storage width of the subtree in bits.
  [[nodiscard]] std::uint64_t storage_width_bits() const;

  /// Number of primitive (filterable) leaves in the subtree.
  [[nodiscard]] std::size_t primitive_leaf_count() const;

  /// Deep copy.
  [[nodiscard]] TypeNodePtr clone() const;

  /// Structural equality (names included).
  [[nodiscard]] bool equals(const TypeNode& other) const;

  /// Pretty tree dump for diagnostics/tests.
  [[nodiscard]] std::string dump(int depth = 0) const;
};

/// Builds the type tree for struct `type_name` from a parsed module.
/// Resolves named struct references recursively; rejects unknown types and
/// recursive (self-referential) structures.
[[nodiscard]] TypeNodePtr build_type_tree(const spec::SpecModule& module,
                                          const std::string& type_name);

}  // namespace ndpgen::analysis

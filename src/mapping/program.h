#ifndef LEGODB_MAPPING_PROGRAM_H_
#define LEGODB_MAPPING_PROGRAM_H_

#include <cstdint>
#include <span>
#include <vector>

#include "mapping/mapping.h"

namespace legodb::map {

// One position in a compiled type body. The body tree is walked once at
// compile time, so the column a position reads or writes and the type a
// reference names are resolved before any document or row is touched.
struct BodyOp {
  // The schema node at this position (kind, tag or attribute name, scalar
  // kind, occurrence bounds); it lives as long as the Mapping.
  const xs::Type* type = nullptr;
  // kScalar and kAttribute: the column holding the value; a wildcard
  // kElement: the column holding its tag; -1 otherwise, or when the mapper
  // laid out no such slot.
  int column = -1;
  // kTypeRef: the referenced type's index in Mapping::types(); -1
  // otherwise.
  int ref = -1;
  // The child positions: the content of an element, attribute or
  // repetition, the items of a sequence, the alternatives of a union.
  uint32_t kids_begin = 0;
  uint32_t kids_end = 0;
};

// A type compiled for shredding and reconstruction.
struct TypeProgram {
  const TypeMapping* tm = nullptr;
  // Concrete types: the body, ops[0] its root. Empty for virtual unions,
  // which tm->union_alternatives expands.
  std::vector<BodyOp> ops;
  // The ops' child op indexes, grouped per parent op.
  std::vector<uint32_t> kids;

  std::span<const uint32_t> Kids(const BodyOp& op) const {
    return {kids.data() + op.kids_begin, op.kids_end - op.kids_begin};
  }
};

// Compiles every type of `mapping`; a type's program sits at its index in
// Mapping::types().
std::vector<TypeProgram> CompileTypes(const Mapping& mapping);

}  // namespace legodb::map

#endif  // LEGODB_MAPPING_PROGRAM_H_

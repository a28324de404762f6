#ifndef LEGODB_XSCHEMA_FINGERPRINT_H_
#define LEGODB_XSCHEMA_FINGERPRINT_H_

// Canonical p-schema fingerprints: a stable 64-bit hash over the types
// reachable from the root, covering structure, name classes, occurrence
// bounds, and every statistics annotation (scalar stats, average counts,
// branch weights). Two schemas with equal fingerprints produce the same
// relational configuration and cost, so the configuration search dedupes
// candidate schemas and keys cost caches on fingerprints instead of
// rendered schema text.
//
// Properties:
//  - deterministic across runs/platforms (no pointers, no std::hash);
//  - insensitive to definitions unreachable from the root and to the
//    declaration order of reachable definitions (canonical name order);
//  - sensitive to type names (they name relations), structure, and stats.

#include <cstdint>

#include "xschema/schema.h"
#include "xschema/type.h"

namespace legodb::xs {

// Structural hash of one type expression, statistics included. Type
// references hash by name only (the schema fingerprint binds names to
// bodies).
uint64_t FingerprintType(const TypePtr& type);

// Fingerprint of the whole schema: root name plus (name, body fingerprint)
// for every type reachable from the root, combined in sorted-name order.
// The body fingerprints are the ones the schema stored when each type was
// defined, so no body is rehashed here.
uint64_t FingerprintSchema(const Schema& schema);

}  // namespace legodb::xs

#endif  // LEGODB_XSCHEMA_FINGERPRINT_H_

#ifndef LEGODB_STORAGE_RECONSTRUCT_H_
#define LEGODB_STORAGE_RECONSTRUCT_H_

#include "common/status.h"
#include "mapping/mapping.h"
#include "storage/database.h"
#include "xml/dom.h"

namespace legodb::store {

// Rebuilds the XML content of one type instance (row) and appends it to
// `parent` — the inverse of shredding. Instances are read from the tables'
// decoded columns (a paged table's pages are not read again once decoded).
// Children are fetched via foreign-key indexes and emitted in node-id
// order, which is document order because the shredder assigns ids in
// document order. Each type's columns, FK indexes and key column are
// resolved once per call, on the type's first use, building what is not
// built yet (hence the non-const Database).
Status ReconstructInstance(Database* db, const map::Mapping& mapping,
                           const std::string& type_name, int64_t id,
                           xml::Node* parent);

// Rebuilds the whole document from the root type's single instance.
// Round-tripping Parse -> Shred -> Reconstruct is the identity on documents
// that are valid under the p-schema (the key correctness property of the
// mapping).
StatusOr<xml::Document> ReconstructDocument(Database* db,
                                            const map::Mapping& mapping);

}  // namespace legodb::store

#endif  // LEGODB_STORAGE_RECONSTRUCT_H_

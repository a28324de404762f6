#ifndef LEGODB_STORAGE_SHREDDER_H_
#define LEGODB_STORAGE_SHREDDER_H_

#include "common/status.h"
#include "mapping/mapping.h"
#include "storage/database.h"
#include "xml/dom.h"

namespace legodb::store {

// Shreds an XML document into relational rows per the fixed mapping
// rel(ps): one row per named-type instance, node ids as keys, parent ids as
// foreign keys, scalar content in the mapped columns (Section 3.1's
// "corresponding mapping from XML documents to databases").
//
// Each call first compiles the mapping into per-type shred programs (body
// ops with their columns, the table, the FK column per parent type, and
// the items an instance can start with) and binds their names to the
// document's name ids, so matching does no name lookups or string
// compares. Matching is greedy with local backtracking over optionals and
// union alternatives, which is complete for the (unambiguous) content
// models the transformations produce; a backtracking point marks trails of
// the cells and attributes written instead of copying the row, and a type
// that cannot start at the current item is skipped before it draws an id.
// Values are stored canonicalized (integer text as integers), matching the
// DOM evaluator.
//
// Multiple documents may be shredded into the same database; each gets
// fresh node ids, unique and increasing in document pre-order. Nothing is
// inserted if the document does not match.
Status ShredDocument(const xml::Document& doc, const map::Mapping& mapping,
                     Database* db);

}  // namespace legodb::store

#endif  // LEGODB_STORAGE_SHREDDER_H_

#ifndef LEGODB_STORAGE_DATABASE_H_
#define LEGODB_STORAGE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "relational/catalog.h"
#include "storage/backend.h"

namespace legodb::store {

using Row = std::vector<Value>;

class ColumnVector;

// An equality (hash) index over one column: key -> the ascending positions
// that hold it. One flat layout serves both a StoredTable's shared index
// (positions are row indices) and a hash join's private build side
// (positions are build ordinals):
//  - slots_: power-of-two open-addressing table of group ids (-1 = empty);
//  - per group its key: an int64 when the column is typed_int(), otherwise
//    a Value plus its cached hash;
//  - CSR starts_/rows_: group g's positions are rows_[starts_[g],
//    starts_[g + 1]), filled by a counting pass so they stay ascending.
// Equality is exact Value equality: NULL never matches and Int(5) does not
// equal Str("5"). Immutable once built — shared indexes are built under the
// table's registry lock and published as a const pointer, so any number of
// concurrent queries may probe one without further synchronization.
class HashIndex {
 public:
  // Every non-null row of `column` (see StoredTable::GetOrBuildIndex); the
  // positions are row indices.
  explicit HashIndex(const ColumnVector& column);
  // The non-null rows of `column` named by `rows` (negative entries are
  // unbound lanes and are skipped); the positions are ordinals into `rows`.
  HashIndex(const ColumnVector& column, std::span<const int32_t> rows);

  // True when keys are int64 (the column was typed_int()).
  bool int_keys() const { return int_keyed_; }

  // Positions whose key equals `key`; empty when none (always for NULL).
  std::span<const int32_t> Find(const Value& key) const;
  // Find(Value::Int(key)) without building the Value.
  std::span<const int32_t> FindInt(int64_t key) const {
    const size_t mask = slots_.size() - 1;
    const uint64_t h = HashInt(key);
    for (size_t s = h & mask;; s = (s + 1) & mask) {
      const int32_t g = slots_[s];
      if (g < 0) return {};
      if (int_keyed_ ? int_keys_[g] == key
                     : hashes_[g] == h && keys_[g].is_int() &&
                           keys_[g].as_int() == key) {
        return Group(g);
      }
    }
  }

 private:
  static uint64_t HashInt(int64_t v) {  // splitmix64 finalizer
    uint64_t x = static_cast<uint64_t>(v);
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
  }
  static uint64_t HashValue(const Value& v);

  // `rows` null: every row of `column`, positions are row indices.
  void Build(const ColumnVector& column, const int32_t* rows, size_t n);

  std::span<const int32_t> Group(int32_t g) const {
    return {rows_.data() + starts_[g],
            static_cast<size_t>(starts_[g + 1] - starts_[g])};
  }

  bool int_keyed_ = false;
  std::vector<int32_t> slots_;     // group id per slot, -1 when empty
  std::vector<int64_t> int_keys_;  // per group, when int-keyed
  std::vector<Value> keys_;        // per group, otherwise
  std::vector<uint64_t> hashes_;   // per group, beside keys_
  std::vector<int32_t> starts_;    // CSR offsets, one per group plus one
  std::vector<int32_t> rows_;      // positions grouped by key
};

// One column of a StoredTable: the per-row values of the column laid out
// contiguously, so vectorized operators can run tight per-column loops.
// On memory tables these columns *are* the table (appended by Insert,
// truncated by RemoveLastRows); on paged tables they are the table's pages
// decoded once, immutable once published (same publication contract as
// HashIndex).
//
// Three parallel views, all indexed by row position:
//  - null_mask(): 1 byte per row, nonzero = SQL NULL;
//  - ints(): the int64 payload, meaningful only when typed_int() — i.e.
//    every non-null value in the column is an integer (catalog drift or
//    mixed-kind data degrade gracefully to the generic view);
//  - value(i): the Value of row i, owned by this vector.
class ColumnVector {
 public:
  void Reserve(size_t n);
  // Appends one value; a non-integer drops the packed ints.
  void Append(Value v);
  // Keeps the first `n` values; restores the packed ints when the values
  // that made the column untyped are gone.
  void Truncate(size_t n);
  // Releases spare capacity left by appends.
  void ShrinkToFit();

  size_t size() const { return values_.size(); }
  bool typed_int() const { return non_ints_ == 0; }

  bool is_null(size_t i) const { return nulls_[i] != 0; }
  const uint8_t* null_mask() const { return nulls_.data(); }
  const int64_t* ints() const { return ints_.data(); }
  const Value& value(size_t i) const { return values_[i]; }

 private:
  std::vector<Value> values_;
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;  // one per row while typed_int(), else empty
  size_t non_ints_ = 0;        // non-null values that are not integers
};

// IO attributable to one table access: seeks and bytes read. The paged
// backend reports the buffer-pool faults the access actually caused; the
// memory backend reports the cost model's charge (row width bytes per row
// read, one seek per random row access or probe).
struct TableIo {
  double seeks = 0;
  double bytes = 0;
};

// A table laid out per the catalog's column order, with hash indexes.
// Two physical forms behind one interface:
//
//  - memory (no PagedBackend): one ColumnVector per catalog column, which
//    GetOrBuildColumn hands out directly;
//  - paged: rows serialized into fixed-size slotted pages behind the
//    database's buffer pool, a RowLocator (page, slot) per row, and the
//    same columns decoded from one page scan on first use (see Decode).
//
// Either way, ReadRow() materializes one row, and readers charge IO
// through SeekIo()/FetchRowRange()/FetchRows(), so the executor never asks
// which form it runs on.
//
// Loading (Insert/RemoveLastRows) must be single-threaded and finish before
// query serving starts; after that, any number of threads may read rows and
// fetch/build indexes or column vectors concurrently — the registries are
// internally synchronized, and published HashIndex / ColumnVector pointers
// stay valid until the next mutation. Every mutation bumps
// mutation_count(), which prepared plans record and re-check at Open().
class StoredTable {
 public:
  explicit StoredTable(rel::Table meta, PagedBackend* paged = nullptr);
  StoredTable(StoredTable&& other) noexcept
      : meta_(std::move(other.meta_)),
        paged_(other.paged_),
        columns_(std::move(other.columns_)),
        locators_(std::move(other.locators_)),
        pages_(std::move(other.pages_)),
        mutations_(other.mutations_.load(std::memory_order_relaxed)),
        indexes_(std::move(other.indexes_)) {}

  const rel::Table& meta() const { return meta_; }
  bool paged() const { return paged_ != nullptr; }
  BufferPool* pool() const { return paged_ ? paged_->pool() : nullptr; }
  Pager* pager() const { return paged_ ? paged_->pager() : nullptr; }

  size_t row_count() const {
    if (paged()) return locators_.size();
    return columns_.empty() ? 0 : columns_.front().size();
  }

  // Monotonic mutation counter: bumped by every Insert/RemoveLastRows.
  // Prepared plans snapshot it and refuse to run when it has moved.
  uint64_t mutation_count() const {
    return mutations_.load(std::memory_order_acquire);
  }

  // Appends a row; must have one value per column. Drops the indexes and a
  // paged table's decoded columns. On the paged backend this serializes the
  // row into the tail slotted page (allocating a fresh page when it does
  // not fit) and can fail on real IO — memory inserts always succeed.
  Status Insert(Row row);
  // Removes the n most recently inserted rows (shredder rollback support).
  Status RemoveLastRows(size_t n);
  // Ends a load: memory tables release the spare capacity of their columns
  // (no-op on paged tables).
  void ShrinkToFit();

  // Materializes row `i` as a Row (copy). Memory tables assemble it from
  // the columns; the paged read pins the row's page (IO charged to the
  // pool, not attributed — use FetchRows for attribution).
  StatusOr<Row> ReadRow(size_t i) const;

  // The positioning cost of starting `n` scans or index probes: one seek
  // each on memory, nothing on paged (where the faults the following
  // fetches cause are the whole cost).
  TableIo SeekIo(size_t n = 1) const;
  // The sequential-scan IO path: the IO of reading rows [begin, end). Paged
  // tables touch the pages holding them in order and report only the pool
  // faults (resident pages are free); memory tables charge width bytes per
  // row.
  StatusOr<TableIo> FetchRowRange(size_t begin, size_t end) const;
  // The index-probe IO path, for an explicit row-index list (negative
  // entries are skipped — they are unbound lanes). Memory tables charge one
  // seek plus width bytes per row.
  StatusOr<TableIo> FetchRows(const int32_t* rows, size_t n) const;

  // Returns the index on column `column` (its position in meta().columns),
  // building it on first use (thread-safe). NotFound when the position is
  // outside the table.
  StatusOr<const HashIndex*> GetOrBuildIndex(int column);

  // Returns column `column`: on memory tables the column itself, on paged
  // tables its decoded copy (see Decode). NotFound when the position is
  // outside the table.
  StatusOr<const ColumnVector*> GetOrBuildColumn(int column);

  // Paged tables: unless already decoded, decodes the pages into the
  // columns in one page scan (thread-safe). No-op on memory tables.
  Status Decode();

 private:
  struct RowLocator {
    uint32_t page = 0;
    uint16_t slot = 0;
  };

  // Paged-backend internals (all assume paged()).
  Status InsertPaged(const Row& row);
  StatusOr<Row> ReadRowPaged(size_t i) const;
  // Bumps mutation_count() and drops the indexes and decoded columns.
  void Mutated();

  rel::Table meta_;
  PagedBackend* paged_ = nullptr;  // owned by the Database; null on memory

  // One per catalog column: the data, or a paged table's decode (or empty).
  std::vector<ColumnVector> columns_;

  // Paged backend: one locator per row, plus the owned pages in order (the
  // tail page is the insertion target).
  std::vector<RowLocator> locators_;
  std::vector<uint32_t> pages_;

  std::atomic<uint64_t> mutations_{0};

  // Guards the paged decode and indexes_ (one per column, null until built).
  mutable std::mutex index_mu_;
  std::vector<std::unique_ptr<HashIndex>> indexes_;
};

// A relational database instance for one storage configuration.
class Database {
 public:
  // Creates an empty table(i) for each catalog table i, in the storage form
  // `options` describes (in-memory columns by default). A paged backend that
  // cannot create its backing file aborts — callers wanting to handle that
  // probe with PagedBackend::Open first.
  explicit Database(const rel::Catalog& catalog,
                    StorageOptions options = StorageOptions());

  // Movable (the atomic id counter would otherwise delete the default);
  // move only while single-threaded, i.e. before serving starts.
  Database(Database&& other) noexcept
      : options_(std::move(other.options_)),
        paged_(std::move(other.paged_)),
        tables_(std::move(other.tables_)),
        by_name_(std::move(other.by_name_)),
        next_id_(other.next_id_.load(std::memory_order_relaxed)) {}

  const StorageOptions& storage_options() const { return options_; }
  bool paged() const { return paged_ != nullptr; }
  // Paged machinery, for metrics and spill paths (nullptr on memory).
  BufferPool* buffer_pool() const { return paged_ ? paged_->pool() : nullptr; }
  Pager* pager() const { return paged_ ? paged_->pager() : nullptr; }

  // Ends a load; called by the shredder. Paged storage writes back and
  // syncs (the durability barrier); memory tables trim their columns to
  // size.
  Status Flush();

  // Aborts (LEGODB_CHECK, all build modes) outside [0, size()): callers
  // holding an index from outside the catalog range-check it first.
  StoredTable& table(int index);
  const StoredTable& table(int index) const;
  size_t size() const { return tables_.size(); }

  // Builds the primary-key and foreign-key indexes of every table up front,
  // so concurrent queries never pay (or contend on) a first-use build.
  // Call after loading, before serving. Walks the tables in name order, as
  // PrewarmColumns does: on the paged backend that order decides which
  // pages are still in the pool when a table is read.
  Status PrewarmIndexes();

  // Decodes every paged table up front, one page scan each — the column
  // counterpart of PrewarmIndexes() (memory tables have nothing to decode).
  // Without this, the first post-startup queries decode lazily under the
  // per-table mutex, serializing concurrent sessions behind one another.
  Status PrewarmColumns();

  // Fresh unique id for a new row (shared across tables, like the paper's
  // element node ids). Atomic: a Database is documented as shared, and the
  // migrator's shadow loads may run concurrently with other writers of
  // *other* databases — a plain increment here was a latent lost-update
  // bug for any two threads shredding into one database.
  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Total number of rows across all tables.
  size_t TotalRows() const;

 private:
  StorageOptions options_;
  // Null on memory. Declared before tables_: StoredTables point into the
  // backend, so it must be destroyed after them.
  std::unique_ptr<PagedBackend> paged_;
  std::vector<StoredTable> tables_;   // in catalog order
  std::vector<int> by_name_;          // table indexes sorted by name
  std::atomic<int64_t> next_id_{1};
};

}  // namespace legodb::store

#endif  // LEGODB_STORAGE_DATABASE_H_

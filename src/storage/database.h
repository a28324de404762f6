#ifndef LEGODB_STORAGE_DATABASE_H_
#define LEGODB_STORAGE_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "relational/catalog.h"
#include "storage/backend.h"

namespace legodb::store {

using Row = std::vector<Value>;

class ColumnVector;

// An equality (hash) index over one column of a StoredTable. Immutable once
// built — built under the table's registry lock and published as a const
// pointer, so any number of concurrent queries may probe it without further
// synchronization.
class HashIndex {
 public:
  // Builds from the column's shadow (see StoredTable::GetOrBuildIndex).
  explicit HashIndex(const ColumnVector& column);

  // Row indices whose indexed column equals `key`; empty vector when none.
  const std::vector<size_t>& Find(const Value& key) const {
    auto it = map_.find(key);
    return it == map_.end() ? kEmpty : it->second;
  }

 private:
  static const std::vector<size_t> kEmpty;
  std::unordered_map<Value, std::vector<size_t>, ValueHash> map_;
};

// A columnar shadow of one StoredTable column: the per-row values of the
// column laid out contiguously, so vectorized operators can run tight
// per-column loops instead of chasing one heap-allocated Row per tuple.
// Immutable once built (same publication contract as HashIndex).
//
// Three parallel views, all indexed by row position:
//  - null_mask(): 1 byte per row, nonzero = SQL NULL;
//  - ints(): the int64 payload, meaningful only when typed_int() — i.e.
//    every non-null value in the column is an integer (catalog drift or
//    mixed-kind data degrade gracefully to the generic view);
//  - value(i): the Value of row i — in the owning table's rows for
//    the memory backend, or into this vector's own deserialized copies for
//    the paged backend (the owning constructor).
class ColumnVector {
 public:
  ColumnVector(const std::vector<Row>& rows, int column_index);
  // Owning variant: takes the column's values by value (deserialized from
  // pages) and keeps them alive inside the shadow itself.
  explicit ColumnVector(std::vector<Value> owned);

  size_t size() const { return vals_.size(); }
  bool typed_int() const { return typed_int_; }

  bool is_null(size_t i) const { return nulls_[i] != 0; }
  const uint8_t* null_mask() const { return nulls_.data(); }
  const int64_t* ints() const { return ints_.data(); }
  const Value& value(size_t i) const { return *vals_[i]; }

 private:
  void Build();  // fills nulls_/ints_ from vals_

  bool typed_int_ = true;
  std::vector<Value> owned_;  // paged backend only; empty otherwise
  std::vector<uint8_t> nulls_;
  std::vector<int64_t> ints_;
  std::vector<const Value*> vals_;
};

// IO attributable to one table access: seeks and bytes read. The paged
// backend reports the buffer-pool faults the access actually caused; the
// memory backend reports the cost model's charge (row width bytes per row
// read, one seek per random row access or probe).
struct TableIo {
  double seeks = 0;
  double bytes = 0;
};

// A table laid out per the catalog's column order, with hash indexes and
// columnar shadows. Two physical forms behind one interface:
//
//  - memory (backend == nullptr or MemoryBackend): rows in a heap
//    std::vector<Row>, directly addressable via rows();
//  - paged: rows serialized into fixed-size slotted pages behind the
//    database's buffer pool; a RowLocator (page, slot) per row. rows() is
//    then illegal — readers go through ReadRow()/column shadows.
//
// Either way, readers charge IO through SeekIo()/FetchRowRange()/
// FetchRows(), so the executor never asks which backend it runs on.
//
// Loading (Insert/RemoveLastRows) must be single-threaded and finish before
// query serving starts; after that, any number of threads may read rows and
// fetch/build indexes or column vectors concurrently — both registries are
// internally synchronized, and published HashIndex / ColumnVector pointers
// stay valid until the next mutation. Every mutation bumps
// mutation_count(), which prepared plans record and re-check at Open().
class StoredTable {
 public:
  explicit StoredTable(rel::Table meta) : meta_(std::move(meta)) {}
  StoredTable(rel::Table meta, StorageBackend* backend)
      : meta_(std::move(meta)), backend_(backend) {}
  StoredTable(StoredTable&& other) noexcept
      : meta_(std::move(other.meta_)),
        backend_(other.backend_),
        rows_(std::move(other.rows_)),
        locators_(std::move(other.locators_)),
        pages_(std::move(other.pages_)),
        mutations_(other.mutations_.load(std::memory_order_relaxed)),
        indexes_(std::move(other.indexes_)),
        columns_(std::move(other.columns_)) {}

  const rel::Table& meta() const { return meta_; }
  bool paged() const { return backend_ != nullptr && backend_->paged(); }
  BufferPool* pool() const {
    return backend_ == nullptr ? nullptr : backend_->pool();
  }
  Pager* pager() const {
    return backend_ == nullptr ? nullptr : backend_->pager();
  }

  // Direct row access — memory backend only (aborts on a paged table; use
  // ReadRow / column shadows there).
  const std::vector<Row>& rows() const;
  size_t row_count() const {
    return paged() ? locators_.size() : rows_.size();
  }

  // Monotonic mutation counter: bumped by every Insert/RemoveLastRows.
  // Prepared plans snapshot it and refuse to run when it has moved.
  uint64_t mutation_count() const {
    return mutations_.load(std::memory_order_acquire);
  }

  // Appends a row; must have one value per column. Invalidates indexes and
  // column vectors. On the paged backend this serializes the row into the
  // tail slotted page (allocating a fresh page when it does not fit) and
  // can fail on real IO — memory inserts always succeed.
  Status Insert(Row row);
  // Removes the n most recently inserted rows (shredder rollback support).
  Status RemoveLastRows(size_t n);

  // Materializes row `i` as a Row (copy). Works on both backends; the paged
  // read pins the row's page (IO charged to the pool, not attributed — use
  // FetchRows for attribution).
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

  // Returns the index on `column`, building it on first use (thread-safe).
  // Internal error when the column does not exist in this table.
  StatusOr<const HashIndex*> GetOrBuildIndex(const std::string& column);

  // Returns the columnar shadow of `column`, building it on first use
  // (thread-safe). Internal error when the column does not exist.
  StatusOr<const ColumnVector*> GetOrBuildColumn(const std::string& column);

 private:
  struct RowLocator {
    uint32_t page = 0;
    uint16_t slot = 0;
  };

  // Paged-backend internals (all assume paged()).
  Status InsertPaged(const Row& row);
  StatusOr<Row> ReadRowPaged(size_t i) const;
  StatusOr<const ColumnVector*> GetOrBuildColumnLocked(
      const std::string& column);

  rel::Table meta_;
  StorageBackend* backend_ = nullptr;  // owned by the Database

  std::vector<Row> rows_;  // memory backend only

  // Paged backend: one locator per row, plus the owned pages in order (the
  // tail page is the insertion target).
  std::vector<RowLocator> locators_;
  std::vector<uint32_t> pages_;

  std::atomic<uint64_t> mutations_{0};

  mutable std::mutex index_mu_;
  std::map<std::string, std::unique_ptr<HashIndex>> indexes_;
  std::map<std::string, std::unique_ptr<ColumnVector>> columns_;
};

// A relational database instance for one storage configuration.
class Database {
 public:
  // Creates empty tables for every table in the catalog, on the storage
  // backend `options` describes (in-memory heap tables by default). A paged
  // backend that cannot create its backing file aborts — callers wanting to
  // handle that probe with PagedBackend::Open first.
  explicit Database(const rel::Catalog& catalog,
                    StorageOptions options = StorageOptions());

  // Movable (the atomic id counter would otherwise delete the default);
  // move only while single-threaded, i.e. before serving starts.
  Database(Database&& other) noexcept
      : options_(std::move(other.options_)),
        backend_(std::move(other.backend_)),
        tables_(std::move(other.tables_)),
        next_id_(other.next_id_.load(std::memory_order_relaxed)) {}

  const StorageOptions& storage_options() const { return options_; }
  bool paged() const { return backend_->paged(); }
  // Paged machinery, for metrics and spill paths (nullptr on memory).
  BufferPool* buffer_pool() const { return backend_->pool(); }
  Pager* pager() const { return backend_->pager(); }

  // Write-back + durability barrier (no-op for the memory backend). Called
  // by the shredder after loading.
  Status Flush() { return backend_->Flush(); }

  StoredTable* FindTable(const std::string& name);
  const StoredTable* FindTable(const std::string& name) const;
  StoredTable& GetTable(const std::string& name);
  const StoredTable& GetTable(const std::string& name) const;

  // Builds the primary-key and foreign-key indexes of every table up front,
  // so concurrent queries never pay (or contend on) a first-use build.
  // Call after loading, before serving.
  Status PrewarmIndexes();

  // Builds the columnar shadow of every column of every table up front —
  // the column-vector counterpart of PrewarmIndexes(). Without this, the
  // first post-startup queries build shadows lazily under the per-table
  // registry mutex, serializing concurrent sessions behind one another.
  Status PrewarmColumns();

  // Fresh unique id for a new row (shared across tables, like the paper's
  // element node ids). Atomic: a Database is documented as shared, and the
  // migrator's shadow loads may run concurrently with other writers of
  // *other* databases — a plain increment here was a latent lost-update
  // bug for any two threads shredding into one database.
  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  // Total number of rows across all tables.
  size_t TotalRows() const;

  std::vector<std::string> table_names() const;

 private:
  StorageOptions options_;
  // Declared before tables_: StoredTables point into the backend, so it
  // must be destroyed after them.
  std::unique_ptr<StorageBackend> backend_;
  std::map<std::string, StoredTable> tables_;
  std::atomic<int64_t> next_id_{1};
};

}  // namespace legodb::store

#endif  // LEGODB_STORAGE_DATABASE_H_

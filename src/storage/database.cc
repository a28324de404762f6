#include "storage/database.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace legodb::store {

namespace {

// --- Slotted pages -------------------------------------------------------
//
// Page layout (all offsets in bytes, u16 little-endian via memcpy):
//
//   [0..2)   u16 nslots     number of rows on the page
//   [2..4)   u16 free_off   start of free space (payload grows up from 4)
//   [4..free_off)           row payloads, in slot order
//   ...free space...
//   [page_size - 4*nslots .. page_size)   slot directory, growing DOWN:
//        slot i lives at page_size - 4*(i+1) as {u16 off, u16 len}
//
// A row fits iff free_off + len <= page_size - 4*(nslots+1).
//
// Row payload: per value, a 1-byte tag — 0 = NULL, 1 = int64 (8 bytes),
// 2 = string (u32 length + bytes).

constexpr size_t kPageHeaderBytes = 4;
constexpr size_t kSlotBytes = 4;

uint16_t LoadU16(const char* p) {
  uint16_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU16(char* p, uint16_t v) { std::memcpy(p, &v, sizeof(v)); }

uint32_t LoadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

void StoreU32(char* p, uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

size_t SerializedSize(const Row& row) {
  size_t n = 0;
  for (const Value& v : row) {
    n += 1;  // tag
    if (v.is_int()) {
      n += 8;
    } else if (v.is_string()) {
      n += 4 + v.as_string().size();
    }
  }
  return n;
}

void SerializeRow(const Row& row, char* out) {
  char* p = out;
  for (const Value& v : row) {
    if (v.is_null()) {
      *p++ = 0;
    } else if (v.is_int()) {
      *p++ = 1;
      int64_t x = v.as_int();
      std::memcpy(p, &x, sizeof(x));
      p += sizeof(x);
    } else {
      *p++ = 2;
      const std::string& s = v.as_string();
      StoreU32(p, static_cast<uint32_t>(s.size()));
      p += 4;
      std::memcpy(p, s.data(), s.size());
      p += s.size();
    }
  }
}

Status DeserializeRow(const char* data, size_t len, size_t ncols, Row* out) {
  out->clear();
  out->reserve(ncols);
  const char* p = data;
  const char* end = data + len;
  for (size_t c = 0; c < ncols; ++c) {
    if (p >= end) return Status::Internal("slotted row truncated (tag)");
    uint8_t tag = static_cast<uint8_t>(*p++);
    switch (tag) {
      case 0:
        out->push_back(Value::MakeNull());
        break;
      case 1: {
        if (end - p < 8) return Status::Internal("slotted row truncated (int)");
        int64_t x;
        std::memcpy(&x, p, sizeof(x));
        p += sizeof(x);
        out->push_back(Value::Int(x));
        break;
      }
      case 2: {
        if (end - p < 4) {
          return Status::Internal("slotted row truncated (string length)");
        }
        uint32_t n = LoadU32(p);
        p += 4;
        if (static_cast<size_t>(end - p) < n) {
          return Status::Internal("slotted row truncated (string payload)");
        }
        out->push_back(Value::Str(std::string(p, n)));
        p += n;
        break;
      }
      default:
        return Status::Internal("slotted row: bad value tag " +
                                std::to_string(tag));
    }
  }
  if (p != end) {
    return Status::Internal("slotted row has trailing bytes");
  }
  return Status::OK();
}

// Locates slot `slot` on a pinned page; validates directory bounds.
Status SlotExtent(const char* page, size_t page_size, uint16_t slot,
                  uint16_t* off, uint16_t* len) {
  uint16_t nslots = LoadU16(page);
  if (slot >= nslots) {
    return Status::Internal("slotted page: slot " + std::to_string(slot) +
                            " out of range (nslots=" + std::to_string(nslots) +
                            ")");
  }
  const char* entry = page + page_size - kSlotBytes * (slot + 1);
  *off = LoadU16(entry);
  *len = LoadU16(entry + 2);
  if (static_cast<size_t>(*off) + static_cast<size_t>(*len) > page_size) {
    return Status::Internal("slotted page: slot extent out of bounds");
  }
  return Status::OK();
}

// Pins pages in access order, charging each pool fault as one seek plus one
// page of bytes; resident pages and repeats of the page just touched are
// free. Only the current page stays pinned, so a 1-frame pool works.
class PageToucher {
 public:
  PageToucher(BufferPool* pool, size_t page_size)
      : pool_(pool), page_bytes_(static_cast<double>(page_size)) {}

  Status Touch(uint32_t page) {
    if (guard_.valid() && page == last_page_) return Status::OK();
    guard_.Release();
    LEGODB_ASSIGN_OR_RETURN(guard_, pool_->Pin(page));
    if (guard_.faulted()) {
      io_.seeks += 1;
      io_.bytes += page_bytes_;
    }
    last_page_ = page;
    return Status::OK();
  }

  const TableIo& io() const { return io_; }

 private:
  BufferPool* pool_;
  double page_bytes_;
  BufferPool::PageGuard guard_;
  uint32_t last_page_ = 0;
  TableIo io_;
};

}  // namespace

const std::vector<size_t> HashIndex::kEmpty;

HashIndex::HashIndex(const ColumnVector& column) {
  for (size_t i = 0; i < column.size(); ++i) {
    if (column.is_null(i)) continue;
    map_[column.value(i)].push_back(i);
  }
}

ColumnVector::ColumnVector(const std::vector<Row>& rows, int column_index) {
  vals_.reserve(rows.size());
  for (const Row& row : rows) {
    vals_.push_back(&row[static_cast<size_t>(column_index)]);
  }
  Build();
}

ColumnVector::ColumnVector(std::vector<Value> owned)
    : owned_(std::move(owned)) {
  vals_.reserve(owned_.size());
  for (const Value& v : owned_) vals_.push_back(&v);
  Build();
}

void ColumnVector::Build() {
  nulls_.resize(vals_.size());
  ints_.resize(vals_.size());
  for (size_t i = 0; i < vals_.size(); ++i) {
    const Value& v = *vals_[i];
    if (v.is_null()) {
      nulls_[i] = 1;
    } else if (v.is_int()) {
      ints_[i] = v.as_int();
    } else {
      typed_int_ = false;
    }
  }
  if (!typed_int_) {
    ints_.clear();
    ints_.shrink_to_fit();
  }
}

const std::vector<Row>& StoredTable::rows() const {
  LEGODB_CHECK(!paged(),
               "StoredTable::rows(): direct row access on a paged table "
               "(use ReadRow / column shadows)");
  return rows_;
}

Status StoredTable::Insert(Row row) {
  LEGODB_CHECK(row.size() == meta_.columns.size(),
               "StoredTable::Insert: row arity mismatch");
  if (paged()) {
    LEGODB_RETURN_IF_ERROR(InsertPaged(row));
  } else {
    rows_.push_back(std::move(row));
  }
  mutations_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(index_mu_);
  indexes_.clear();  // indexes/columns are rebuilt on first use after loading
  columns_.clear();
  return Status::OK();
}

Status StoredTable::InsertPaged(const Row& row) {
  BufferPool* bp = pool();
  Pager* pg = pager();
  const size_t page_size = pg->page_size();
  const size_t len = SerializedSize(row);
  // A fresh page must hold the header, one slot entry, and the payload.
  if (len > page_size - kPageHeaderBytes - kSlotBytes || len > 65535) {
    return Status::Internal("row of " + std::to_string(len) +
                            " bytes does not fit a " +
                            std::to_string(page_size) + "-byte page (table '" +
                            meta_.name + "')");
  }

  BufferPool::PageGuard guard;
  uint32_t page_id = 0;
  if (!pages_.empty()) {
    page_id = pages_.back();
    LEGODB_ASSIGN_OR_RETURN(guard, bp->Pin(page_id));
    uint16_t nslots = LoadU16(guard.data());
    uint16_t free_off = LoadU16(guard.data() + 2);
    if (static_cast<size_t>(free_off) + len >
        page_size - kSlotBytes * (static_cast<size_t>(nslots) + 1)) {
      guard.Release();  // tail page is full; fall through to a fresh page
    }
  }
  if (!guard.valid()) {
    LEGODB_ASSIGN_OR_RETURN(page_id, pg->Allocate());
    auto pinned = bp->PinNew(page_id);
    if (!pinned.ok()) {
      pg->Free(page_id);
      return pinned.status();
    }
    guard = std::move(*pinned);
    StoreU16(guard.data(), 0);
    StoreU16(guard.data() + 2, kPageHeaderBytes);
    pages_.push_back(page_id);
  }

  char* page = guard.data();
  uint16_t nslots = LoadU16(page);
  uint16_t free_off = LoadU16(page + 2);
  SerializeRow(row, page + free_off);
  char* entry = page + page_size - kSlotBytes * (nslots + 1);
  StoreU16(entry, free_off);
  StoreU16(entry + 2, static_cast<uint16_t>(len));
  StoreU16(page, static_cast<uint16_t>(nslots + 1));
  StoreU16(page + 2, static_cast<uint16_t>(free_off + len));
  guard.MarkDirty();

  locators_.push_back(RowLocator{page_id, nslots});
  return Status::OK();
}

Status StoredTable::RemoveLastRows(size_t n) {
  if (paged()) {
    LEGODB_CHECK(n <= locators_.size(),
                 "StoredTable::RemoveLastRows: more rows than stored");
    BufferPool* bp = pool();
    for (size_t k = 0; k < n; ++k) {
      RowLocator loc = locators_.back();
      LEGODB_ASSIGN_OR_RETURN(BufferPool::PageGuard guard, bp->Pin(loc.page));
      char* page = guard.data();
      uint16_t nslots = LoadU16(page);
      LEGODB_CHECK(nslots == loc.slot + 1,
                   "StoredTable::RemoveLastRows: non-LIFO slot state");
      const char* entry =
          page + pager()->page_size() - kSlotBytes * (loc.slot + 1);
      uint16_t off = LoadU16(entry);
      StoreU16(page, static_cast<uint16_t>(nslots - 1));
      StoreU16(page + 2, off);  // reclaim the payload space
      guard.MarkDirty();
      locators_.pop_back();
      if (nslots - 1 == 0 && !pages_.empty() && pages_.back() == loc.page) {
        guard.Release();
        bp->Discard(loc.page);
        pager()->Free(loc.page);
        pages_.pop_back();
      }
    }
  } else {
    LEGODB_CHECK(n <= rows_.size(),
                 "StoredTable::RemoveLastRows: more rows than stored");
    rows_.resize(rows_.size() - n);
  }
  mutations_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(index_mu_);
  indexes_.clear();
  columns_.clear();
  return Status::OK();
}

StatusOr<Row> StoredTable::ReadRow(size_t i) const {
  if (!paged()) {
    if (i >= rows_.size()) {
      return Status::Internal("ReadRow: row index out of range");
    }
    return rows_[i];
  }
  return ReadRowPaged(i);
}

StatusOr<Row> StoredTable::ReadRowPaged(size_t i) const {
  if (i >= locators_.size()) {
    return Status::Internal("ReadRow: row index out of range");
  }
  const RowLocator loc = locators_[i];
  LEGODB_ASSIGN_OR_RETURN(BufferPool::PageGuard guard, pool()->Pin(loc.page));
  uint16_t off = 0;
  uint16_t len = 0;
  LEGODB_RETURN_IF_ERROR(
      SlotExtent(guard.data(), pager()->page_size(), loc.slot, &off, &len));
  Row row;
  LEGODB_RETURN_IF_ERROR(
      DeserializeRow(guard.data() + off, len, meta_.columns.size(), &row));
  return row;
}

TableIo StoredTable::SeekIo(size_t n) const {
  TableIo io;
  if (!paged()) io.seeks = static_cast<double>(n);
  return io;
}

StatusOr<TableIo> StoredTable::FetchRowRange(size_t begin, size_t end) const {
  if (!paged()) {
    TableIo io;
    end = std::min(end, rows_.size());
    if (end > begin) {
      io.bytes = static_cast<double>(end - begin) * meta_.RowWidth();
    }
    return io;
  }
  PageToucher touch(pool(), pager()->page_size());
  for (size_t i = begin; i < end && i < locators_.size(); ++i) {
    LEGODB_RETURN_IF_ERROR(touch.Touch(locators_[i].page));
  }
  return touch.io();
}

StatusOr<TableIo> StoredTable::FetchRows(const int32_t* rows, size_t n) const {
  if (!paged()) {
    TableIo io;
    size_t bound = 0;
    for (size_t i = 0; i < n; ++i) bound += rows[i] >= 0 ? 1 : 0;
    io.seeks = static_cast<double>(bound);
    io.bytes = static_cast<double>(bound) * meta_.RowWidth();
    return io;
  }
  PageToucher touch(pool(), pager()->page_size());
  for (size_t i = 0; i < n; ++i) {
    if (rows[i] < 0) continue;  // unbound lane
    const size_t r = static_cast<size_t>(rows[i]);
    if (r >= locators_.size()) {
      return Status::Internal("FetchRows: row index out of range");
    }
    LEGODB_RETURN_IF_ERROR(touch.Touch(locators_[r].page));
  }
  return touch.io();
}

StatusOr<const HashIndex*> StoredTable::GetOrBuildIndex(
    const std::string& column) {
  std::lock_guard<std::mutex> lock(index_mu_);
  auto it = indexes_.find(column);
  if (it != indexes_.end()) return static_cast<const HashIndex*>(it->second.get());
  if (meta_.ColumnIndex(column) < 0) {
    return Status::Internal("no column '" + column + "' in table '" +
                            meta_.name + "' to index");
  }
  // Indexes build from the column shadow (on paged tables one sequential
  // page scan), which stays cached for every later reader.
  LEGODB_ASSIGN_OR_RETURN(const ColumnVector* col,
                          GetOrBuildColumnLocked(column));
  auto built = std::make_unique<HashIndex>(*col);
  const HashIndex* result = built.get();
  indexes_.emplace(column, std::move(built));
  return result;
}

StatusOr<const ColumnVector*> StoredTable::GetOrBuildColumn(
    const std::string& column) {
  std::lock_guard<std::mutex> lock(index_mu_);
  return GetOrBuildColumnLocked(column);
}

StatusOr<const ColumnVector*> StoredTable::GetOrBuildColumnLocked(
    const std::string& column) {
  auto it = columns_.find(column);
  if (it != columns_.end()) {
    return static_cast<const ColumnVector*>(it->second.get());
  }
  int idx = meta_.ColumnIndex(column);
  if (idx < 0) {
    return Status::Internal("no column '" + column + "' in table '" +
                            meta_.name + "' to vectorize");
  }
  std::unique_ptr<ColumnVector> built;
  if (paged()) {
    // Sequential page scan: deserialize each row once, keep only the
    // requested column. The shadow owns the values it exposes.
    std::vector<Value> owned;
    owned.reserve(locators_.size());
    Row scratch;
    for (size_t i = 0; i < locators_.size(); ++i) {
      const RowLocator loc = locators_[i];
      LEGODB_ASSIGN_OR_RETURN(BufferPool::PageGuard guard,
                              pool()->Pin(loc.page));
      uint16_t off = 0;
      uint16_t len = 0;
      LEGODB_RETURN_IF_ERROR(SlotExtent(guard.data(), pager()->page_size(),
                                        loc.slot, &off, &len));
      LEGODB_RETURN_IF_ERROR(DeserializeRow(guard.data() + off, len,
                                            meta_.columns.size(), &scratch));
      owned.push_back(std::move(scratch[static_cast<size_t>(idx)]));
    }
    built = std::make_unique<ColumnVector>(std::move(owned));
  } else {
    built = std::make_unique<ColumnVector>(rows_, idx);
  }
  const ColumnVector* result = built.get();
  columns_.emplace(column, std::move(built));
  return result;
}

Database::Database(const rel::Catalog& catalog, StorageOptions options)
    : options_(std::move(options)) {
  StatusOr<std::unique_ptr<StorageBackend>> backend = OpenBackend(options_);
  LEGODB_CHECK(backend.ok(), "Database: cannot open storage backend");
  backend_ = std::move(*backend);
  for (const auto& name : catalog.table_names()) {
    tables_.emplace(name, StoredTable(catalog.GetTable(name), backend_.get()));
  }
}

StoredTable* Database::FindTable(const std::string& name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

const StoredTable* Database::FindTable(const std::string& name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : &it->second;
}

StoredTable& Database::GetTable(const std::string& name) {
  StoredTable* t = FindTable(name);
  LEGODB_CHECK(t != nullptr, "Database::GetTable: unknown table");
  return *t;
}

const StoredTable& Database::GetTable(const std::string& name) const {
  const StoredTable* t = FindTable(name);
  LEGODB_CHECK(t != nullptr, "Database::GetTable: unknown table");
  return *t;
}

Status Database::PrewarmIndexes() {
  for (auto& [name, table] : tables_) {
    if (!table.meta().key_column.empty()) {
      LEGODB_RETURN_IF_ERROR(
          table.GetOrBuildIndex(table.meta().key_column).status());
    }
    for (const auto& fk : table.meta().foreign_keys) {
      LEGODB_RETURN_IF_ERROR(table.GetOrBuildIndex(fk.column).status());
    }
  }
  return Status::OK();
}

Status Database::PrewarmColumns() {
  for (auto& [name, table] : tables_) {
    for (const auto& col : table.meta().columns) {
      LEGODB_RETURN_IF_ERROR(table.GetOrBuildColumn(col.name).status());
    }
  }
  return Status::OK();
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table.row_count();
  return total;
}

std::vector<std::string> Database::table_names() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

}  // namespace legodb::store

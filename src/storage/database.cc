#include "storage/database.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <utility>

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

// A value that makes its column untyped (see ColumnVector::typed_int).
bool NonInt(const Value& v) { return !v.is_null() && !v.is_int(); }

}  // namespace

HashIndex::HashIndex(const ColumnVector& column) {
  Build(column, nullptr, column.size());
}

HashIndex::HashIndex(const ColumnVector& column,
                     std::span<const int32_t> rows) {
  Build(column, rows.data(), rows.size());
}

uint64_t HashIndex::HashValue(const Value& v) {
  if (v.is_int()) return HashInt(v.as_int());
  return std::hash<std::string>()(v.as_string());
}

std::span<const int32_t> HashIndex::Find(const Value& key) const {
  if (key.is_int()) return FindInt(key.as_int());
  if (key.is_null() || int_keyed_) return {};
  const size_t mask = slots_.size() - 1;
  const uint64_t h = HashValue(key);
  for (size_t s = h & mask;; s = (s + 1) & mask) {
    const int32_t g = slots_[s];
    if (g < 0) return {};
    if (hashes_[g] == h && keys_[g] == key) return Group(g);
  }
}

void HashIndex::Build(const ColumnVector& column, const int32_t* rows,
                      size_t n) {
  LEGODB_CHECK(n <= static_cast<size_t>(INT32_MAX),
               "HashIndex: more positions than int32 row ids address");
  int_keyed_ = column.typed_int();
  const int64_t* ints = column.ints();
  // Pass 1: the group of every indexed position (-1 = skipped), counting
  // each group's positions. At most n groups, so 2n slots keep the load
  // factor at or below one half.
  size_t cap = 2;
  while (cap < 2 * n) cap <<= 1;
  slots_.assign(cap, -1);
  const size_t mask = cap - 1;
  std::vector<int32_t> group_of(n, -1);
  std::vector<int32_t> counts;
  for (size_t i = 0; i < n; ++i) {
    const int32_t r = rows ? rows[i] : static_cast<int32_t>(i);
    if (r < 0 || column.is_null(static_cast<size_t>(r))) continue;
    int32_t g = -1;
    if (int_keyed_) {
      const int64_t key = ints[r];
      size_t s = HashInt(key) & mask;
      while ((g = slots_[s]) >= 0 && int_keys_[g] != key) s = (s + 1) & mask;
      if (g < 0) {
        g = slots_[s] = static_cast<int32_t>(int_keys_.size());
        int_keys_.push_back(key);
        counts.push_back(0);
      }
    } else {
      const Value& key = column.value(static_cast<size_t>(r));
      const uint64_t h = HashValue(key);
      size_t s = h & mask;
      while ((g = slots_[s]) >= 0 && (hashes_[g] != h || keys_[g] != key)) {
        s = (s + 1) & mask;
      }
      if (g < 0) {
        g = slots_[s] = static_cast<int32_t>(keys_.size());
        keys_.push_back(key);
        hashes_.push_back(h);
        counts.push_back(0);
      }
    }
    group_of[i] = g;
    ++counts[g];
  }
  // Pass 2: prefix sums, then every position into its group's run in
  // input order, so each run is ascending.
  starts_.assign(counts.size() + 1, 0);
  for (size_t g = 0; g < counts.size(); ++g) {
    starts_[g + 1] = starts_[g] + counts[g];
  }
  rows_.resize(static_cast<size_t>(starts_.back()));
  std::vector<int32_t>& next = counts;  // reused: next free slot per group
  std::copy(starts_.begin(), starts_.end() - 1, next.begin());
  for (size_t i = 0; i < n; ++i) {
    if (group_of[i] >= 0) rows_[next[group_of[i]]++] = static_cast<int32_t>(i);
  }
}

void ColumnVector::Reserve(size_t n) {
  values_.reserve(n);
  nulls_.reserve(n);
  ints_.reserve(n);
}

void ColumnVector::Append(Value v) {
  nulls_.push_back(v.is_null() ? 1 : 0);
  if (NonInt(v)) {
    if (non_ints_++ == 0) {
      ints_.clear();
      ints_.shrink_to_fit();
    }
  } else if (typed_int()) {
    ints_.push_back(v.is_int() ? v.as_int() : 0);
  }
  values_.push_back(std::move(v));
}

void ColumnVector::Truncate(size_t n) {
  if (n >= values_.size()) return;
  for (size_t i = n; i < values_.size(); ++i) non_ints_ -= NonInt(values_[i]);
  values_.resize(n);
  nulls_.resize(n);
  if (!typed_int()) return;
  if (ints_.size() < n) {  // the removed tail held every non-integer
    for (const Value& v : values_) ints_.push_back(v.is_int() ? v.as_int() : 0);
  }
  ints_.resize(n);
}

void ColumnVector::ShrinkToFit() {
  values_.shrink_to_fit();
  nulls_.shrink_to_fit();
  ints_.shrink_to_fit();
}

StoredTable::StoredTable(rel::Table meta, PagedBackend* paged)
    : meta_(std::move(meta)), paged_(paged), indexes_(meta_.columns.size()) {
  if (!paged_) columns_.resize(meta_.columns.size());
}

Status StoredTable::Insert(Row row) {
  LEGODB_CHECK(row.size() == meta_.columns.size(),
               "StoredTable::Insert: row arity mismatch");
  if (paged()) {
    LEGODB_RETURN_IF_ERROR(InsertPaged(row));
  } else {
    for (size_t c = 0; c < row.size(); ++c) {
      columns_[c].Append(std::move(row[c]));
    }
  }
  Mutated();
  return Status::OK();
}

Status StoredTable::InsertPaged(const Row& row) {
  BufferPool* bp = paged_->pool();
  Pager* pg = paged_->pager();
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
    const size_t rows = row_count();
    LEGODB_CHECK(n <= rows,
                 "StoredTable::RemoveLastRows: more rows than stored");
    for (ColumnVector& column : columns_) column.Truncate(rows - n);
  }
  Mutated();
  return Status::OK();
}

void StoredTable::Mutated() {
  mutations_.fetch_add(1, std::memory_order_acq_rel);
  std::lock_guard<std::mutex> lock(index_mu_);
  // Indexes and decoded columns are rebuilt on first use after loading.
  for (std::unique_ptr<HashIndex>& index : indexes_) index.reset();
  if (paged()) columns_.clear();
}

void StoredTable::ShrinkToFit() {
  for (ColumnVector& column : columns_) column.ShrinkToFit();
}

StatusOr<Row> StoredTable::ReadRow(size_t i) const {
  if (paged()) return ReadRowPaged(i);
  if (i >= row_count()) {
    return Status::Internal("ReadRow: row index out of range");
  }
  Row row;
  row.reserve(columns_.size());
  for (const ColumnVector& column : columns_) row.push_back(column.value(i));
  return row;
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
    end = std::min(end, row_count());
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

StatusOr<const HashIndex*> StoredTable::GetOrBuildIndex(int column) {
  LEGODB_ASSIGN_OR_RETURN(const ColumnVector* values,
                          GetOrBuildColumn(column));
  std::lock_guard<std::mutex> lock(index_mu_);
  std::unique_ptr<HashIndex>& index = indexes_[static_cast<size_t>(column)];
  if (!index) index = std::make_unique<HashIndex>(*values);
  return static_cast<const HashIndex*>(index.get());
}

StatusOr<const ColumnVector*> StoredTable::GetOrBuildColumn(int column) {
  LEGODB_RETURN_IF_ERROR(meta_.CheckColumn(column));
  LEGODB_RETURN_IF_ERROR(Decode());
  return &columns_[static_cast<size_t>(column)];
}

Status StoredTable::Decode() {
  if (!paged()) return Status::OK();
  std::lock_guard<std::mutex> lock(index_mu_);
  if (!columns_.empty()) return Status::OK();
  // One sequential page scan, each page pinned once and each row
  // deserialized once into every column. Built aside, so a failed scan
  // leaves the table undecoded.
  std::vector<ColumnVector> decoded(meta_.columns.size());
  for (ColumnVector& column : decoded) column.Reserve(locators_.size());
  BufferPool::PageGuard guard;
  Row row;
  for (const RowLocator& loc : locators_) {
    if (!guard.valid() || guard.page_id() != loc.page) {
      guard.Release();
      LEGODB_ASSIGN_OR_RETURN(guard, pool()->Pin(loc.page));
    }
    uint16_t off = 0;
    uint16_t len = 0;
    LEGODB_RETURN_IF_ERROR(SlotExtent(guard.data(), pager()->page_size(),
                                      loc.slot, &off, &len));
    LEGODB_RETURN_IF_ERROR(
        DeserializeRow(guard.data() + off, len, decoded.size(), &row));
    for (size_t c = 0; c < decoded.size(); ++c) {
      decoded[c].Append(std::move(row[c]));
    }
  }
  columns_ = std::move(decoded);
  return Status::OK();
}

Database::Database(const rel::Catalog& catalog, StorageOptions options)
    : options_(std::move(options)) {
  if (options_.backend == StorageOptions::Backend::kPaged) {
    StatusOr<std::unique_ptr<PagedBackend>> paged =
        PagedBackend::Open(options_);
    LEGODB_CHECK(paged.ok(), "Database: cannot open storage backend");
    paged_ = std::move(*paged);
  }
  tables_.reserve(catalog.size());
  for (const rel::Table& table : catalog.tables()) {
    tables_.emplace_back(table, paged_.get());
    by_name_.push_back(static_cast<int>(by_name_.size()));
  }
  std::sort(by_name_.begin(), by_name_.end(), [&](int a, int b) {
    return catalog.table(a).name < catalog.table(b).name;
  });
}

const StoredTable& Database::table(int index) const {
  LEGODB_CHECK(index >= 0 && static_cast<size_t>(index) < tables_.size(),
               "Database::table: index outside the catalog");
  return tables_[index];
}

StoredTable& Database::table(int index) {
  return const_cast<StoredTable&>(std::as_const(*this).table(index));
}

Status Database::Flush() {
  if (paged_) return paged_->Flush();
  for (StoredTable& table : tables_) table.ShrinkToFit();
  return Status::OK();
}

Status Database::PrewarmIndexes() {
  for (int i : by_name_) {
    StoredTable& table = tables_[i];
    if (!table.meta().columns.empty()) {
      LEGODB_RETURN_IF_ERROR(
          table.GetOrBuildIndex(rel::Table::kKeyColumn).status());
    }
    for (const auto& fk : table.meta().foreign_keys) {
      LEGODB_RETURN_IF_ERROR(table.GetOrBuildIndex(fk.column).status());
    }
  }
  return Status::OK();
}

Status Database::PrewarmColumns() {
  for (int i : by_name_) LEGODB_RETURN_IF_ERROR(tables_[i].Decode());
  return Status::OK();
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const StoredTable& table : tables_) total += table.row_count();
  return total;
}

}  // namespace legodb::store

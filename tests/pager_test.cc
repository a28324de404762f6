// Tests for the paged storage stack: Pager page IO and its failpoint
// sites, BufferPool pin/eviction invariants, the slotted-page StoredTable
// and its decode-once columns (fault counts, invalidation, concurrent first
// requests), reconstruction reading each page at most once, and failure
// recovery (shredder rollback, flush errors, write-back retries).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <latch>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "mapping/mapping.h"
#include "pschema/pschema.h"
#include "storage/backend.h"
#include "storage/buffer_pool.h"
#include "storage/database.h"
#include "storage/pager.h"
#include "storage/reconstruct.h"
#include "storage/shredder.h"
#include "xml/parser.h"
#include "xml/writer.h"
#include "xschema/schema_parser.h"

namespace legodb::store {
namespace {

std::unique_ptr<Pager> OpenPager(size_t page_size = 512) {
  Pager::Options o;
  o.page_size = page_size;
  auto p = Pager::Open(o);
  EXPECT_TRUE(p.ok()) << p.status().ToString();
  return std::move(p).value();
}

map::Mapping MapText(const char* schema_text) {
  auto schema = xs::ParseSchema(schema_text);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  auto mapping = map::MapSchema(ps::Normalize(schema.value()));
  EXPECT_TRUE(mapping.ok()) << mapping.status().ToString();
  return std::move(mapping).value();
}

rel::Table SimpleMeta() {
  rel::Table meta;
  meta.name = "T";
  rel::Column id, x;
  id.name = "T_id";
  x.name = "x";
  meta.columns = {id, x};
  return meta;
}

// Four columns: the key, a string, an int with NULLs (position kN) and a
// mixed-kind one.
constexpr int kN = 2;
rel::Table WideMeta(const std::string& name) {
  rel::Table meta = SimpleMeta();
  meta.name = name;
  meta.columns.resize(4);
  meta.columns[0].name = name + "_id";
  meta.columns[1].name = "s";
  meta.columns[2].name = "n";
  meta.columns[3].name = "m";
  return meta;
}

Row WideRow(int i) {
  return {Value::Int(i), Value::Str("row_" + std::to_string(i) + "_padding"),
          i % 5 == 0 ? Value::MakeNull() : Value::Int(i % 7),
          i % 3 == 0 ? Value::Str("m" + std::to_string(i)) : Value::Int(i)};
}

void ExpectSameValues(const ColumnVector& want, const ColumnVector& got,
                      const std::string& column) {
  ASSERT_EQ(want.size(), got.size()) << column;
  EXPECT_EQ(want.typed_int(), got.typed_int()) << column;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want.value(i), got.value(i)) << column << " row " << i;
  }
}

// ---- Pager ----

TEST(Pager, RejectsOutOfRangePageSize) {
  Pager::Options o;
  o.page_size = 100;
  EXPECT_FALSE(Pager::Open(o).ok());
  o.page_size = 1 << 20;
  EXPECT_FALSE(Pager::Open(o).ok());
}

TEST(Pager, WriteReadRoundtripAndFreshPagesAreZero) {
  auto pager = OpenPager();
  auto p0 = pager->Allocate();
  auto p1 = pager->Allocate();
  ASSERT_TRUE(p0.ok() && p1.ok());
  EXPECT_NE(p0.value(), p1.value());

  std::vector<char> page(pager->page_size(), '\0');
  ASSERT_TRUE(pager->Read(p1.value(), page.data()).ok());
  for (char c : page) ASSERT_EQ(c, 0);  // never-written page reads zeros

  std::memset(page.data(), 0x5a, page.size());
  ASSERT_TRUE(pager->Write(p0.value(), page.data()).ok());
  std::vector<char> back(pager->page_size(), '\0');
  ASSERT_TRUE(pager->Read(p0.value(), back.data()).ok());
  EXPECT_EQ(std::memcmp(page.data(), back.data(), page.size()), 0);

  Pager::Stats stats = pager->stats();
  EXPECT_EQ(stats.pages_written, 1u);
  EXPECT_EQ(stats.pages_read, 2u);
}

TEST(Pager, FreedPagesAreRecycledBeforeGrowth) {
  auto pager = OpenPager();
  uint32_t a = pager->Allocate().value();
  uint32_t b = pager->Allocate().value();
  (void)a;
  pager->Free(b);
  EXPECT_EQ(pager->Allocate().value(), b);
  EXPECT_EQ(pager->page_count(), 2u);  // the file never grew past 2 pages
}

TEST(Pager, FailpointSitesFireAndRecover) {
  auto pager = OpenPager();
  uint32_t p = pager->Allocate().value();
  std::vector<char> buf(pager->page_size(), 'x');
  {
    fp::ScopedFailpoints fps("storage.write");
    ASSERT_TRUE(fps.status().ok());
    EXPECT_EQ(pager->Write(p, buf.data()).code(), Status::Code::kInternal);
  }
  ASSERT_TRUE(pager->Write(p, buf.data()).ok());  // disarmed: recovers
  {
    fp::ScopedFailpoints fps("storage.read");
    EXPECT_EQ(pager->Read(p, buf.data()).code(), Status::Code::kInternal);
  }
  ASSERT_TRUE(pager->Read(p, buf.data()).ok());
  EXPECT_EQ(buf[0], 'x');
  {
    fp::ScopedFailpoints fps("storage.flush");
    EXPECT_EQ(pager->Sync().code(), Status::Code::kInternal);
  }
  EXPECT_TRUE(pager->Sync().ok());
}

// ---- BufferPool ----

TEST(BufferPool, FaultThenHitAccounting) {
  auto pager = OpenPager();
  uint32_t p = pager->Allocate().value();
  BufferPool pool(pager.get(), 4);
  {
    auto g1 = pool.Pin(p);
    ASSERT_TRUE(g1.ok());
    EXPECT_TRUE(g1->faulted());  // first pin reads from disk
    auto g2 = pool.Pin(p);
    ASSERT_TRUE(g2.ok());
    EXPECT_FALSE(g2->faulted());  // second pin shares the frame
  }
  BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.faults, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.bytes_read, pager->page_size());
  EXPECT_EQ(stats.resident, 1u);
  EXPECT_EQ(stats.pinned, 0u);  // both guards released
}

TEST(BufferPool, EvictsLruWithDirtyWriteBack) {
  auto pager = OpenPager();
  uint32_t a = pager->Allocate().value();
  uint32_t b = pager->Allocate().value();
  uint32_t c = pager->Allocate().value();
  BufferPool pool(pager.get(), 2);
  {
    auto g = pool.PinNew(a);
    ASSERT_TRUE(g.ok());
    g->data()[0] = 'A';
    g->MarkDirty();
  }
  ASSERT_TRUE(pool.Pin(b).ok());  // pool now holds {a, b}
  ASSERT_TRUE(pool.Pin(c).ok());  // evicts a (LRU), writing it back
  BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.bytes_written, pager->page_size());
  // The write-back preserved the dirty byte: re-faulting a reads it.
  auto g = pool.Pin(a);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->faulted());
  EXPECT_EQ(g->data()[0], 'A');
}

TEST(BufferPool, PinnedFramesAreNeverEvicted) {
  auto pager = OpenPager();
  uint32_t a = pager->Allocate().value();
  uint32_t b = pager->Allocate().value();
  uint32_t c = pager->Allocate().value();
  BufferPool pool(pager.get(), 2);
  auto ga = pool.Pin(a);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(pool.Pin(b).ok());  // unpinned immediately
  // Pinning c must evict b, not the pinned a.
  ASSERT_TRUE(pool.Pin(c).ok());
  EXPECT_FALSE(pool.Pin(a)->faulted());  // a stayed resident
  ga->Release();
}

TEST(BufferPool, AllFramesPinnedIsUnavailable) {
  auto pager = OpenPager();
  uint32_t a = pager->Allocate().value();
  uint32_t b = pager->Allocate().value();
  BufferPool pool(pager.get(), 1);
  auto ga = pool.Pin(a);
  ASSERT_TRUE(ga.ok());
  auto gb = pool.Pin(b);
  EXPECT_EQ(gb.status().code(), Status::Code::kUnavailable);
  ga->Release();
  EXPECT_TRUE(pool.Pin(b).ok());  // capacity freed: works again
}

TEST(BufferPool, FailedWriteBackKeepsDirtyFrameResident) {
  auto pager = OpenPager();
  uint32_t a = pager->Allocate().value();
  uint32_t b = pager->Allocate().value();
  BufferPool pool(pager.get(), 1);
  {
    auto g = pool.PinNew(a);
    ASSERT_TRUE(g.ok());
    g->data()[0] = 'A';
    g->MarkDirty();
  }
  {
    fp::ScopedFailpoints fps("storage.write");
    // Evicting a requires writing it back, which fails — a must survive.
    EXPECT_FALSE(pool.Pin(b).ok());
  }
  auto g = pool.Pin(a);
  ASSERT_TRUE(g.ok());
  EXPECT_FALSE(g->faulted());  // still resident, data intact
  EXPECT_EQ(g->data()[0], 'A');
  g->Release();
  EXPECT_TRUE(pool.Pin(b).ok());  // disarmed: eviction succeeds now
}

TEST(BufferPool, FailedFaultLeavesPoolClean) {
  auto pager = OpenPager();
  uint32_t a = pager->Allocate().value();
  BufferPool pool(pager.get(), 2);
  {
    fp::ScopedFailpoints fps("storage.read");
    EXPECT_FALSE(pool.Pin(a).ok());
  }
  EXPECT_EQ(pool.stats().resident, 0u);
  auto g = pool.Pin(a);
  ASSERT_TRUE(g.ok());
  EXPECT_TRUE(g->faulted());
}

// ---- Paged StoredTable ----

TEST(PagedTable, InsertReadRemoveAcrossPages) {
  auto backend = PagedBackend::Open(
      StorageOptions::Paged(/*page_size=*/512, /*pool_pages=*/2));
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  StoredTable t(SimpleMeta(), backend->get());
  ASSERT_TRUE(t.paged());

  // ~60 bytes per row: several pages' worth.
  constexpr int kRows = 100;
  for (int i = 0; i < kRows; ++i) {
    Row row = {Value::Int(i), Value::Str("payload_" + std::to_string(i) +
                                         std::string(32, 'x'))};
    ASSERT_TRUE(t.Insert(std::move(row)).ok()) << i;
  }
  EXPECT_EQ(t.row_count(), static_cast<size_t>(kRows));
  EXPECT_EQ(t.mutation_count(), static_cast<uint64_t>(kRows));
  EXPECT_GT(t.pager()->page_count(), 4u);  // really spans pages

  for (int i : {0, 1, kRows / 2, kRows - 1}) {
    auto row = t.ReadRow(static_cast<size_t>(i));
    ASSERT_TRUE(row.ok()) << row.status().ToString();
    EXPECT_EQ((*row)[0], Value::Int(i));
    EXPECT_EQ((*row)[1].as_string().substr(0, 8), "payload_");
  }

  // NULL values round-trip through the slotted encoding.
  ASSERT_TRUE(t.Insert({Value::Int(kRows), Value::MakeNull()}).ok());
  auto row = t.ReadRow(kRows);
  ASSERT_TRUE(row.ok());
  EXPECT_TRUE((*row)[1].is_null());

  // LIFO removal unwinds whole pages and keeps the survivors readable.
  ASSERT_TRUE(t.RemoveLastRows(kRows / 2 + 1).ok());
  EXPECT_EQ(t.row_count(), static_cast<size_t>(kRows / 2));
  auto last = t.ReadRow(t.row_count() - 1);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ((*last)[0], Value::Int(kRows / 2 - 1));
}

TEST(PagedTable, IndexesAndColumnsWorkOverPages) {
  auto backend = PagedBackend::Open(StorageOptions::Paged(512, 2));
  ASSERT_TRUE(backend.ok());
  StoredTable t(SimpleMeta(), backend->get());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(t.Insert({Value::Int(i), Value::Str(i % 2 ? "odd" : "even")})
                    .ok());
  }
  auto index = t.GetOrBuildIndex(1);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->Find(Value::Str("odd")).size(), 10u);
  auto col = t.GetOrBuildColumn(rel::Table::kKeyColumn);
  ASSERT_TRUE(col.ok());
  ASSERT_EQ((*col)->size(), 20u);
  EXPECT_EQ((*col)->value(7), Value::Int(7));
}

TEST(PagedTable, MutationsDropDecodedColumns) {
  auto backend = PagedBackend::Open(StorageOptions::Paged(512, 2));
  ASSERT_TRUE(backend.ok());
  StoredTable t(WideMeta("T"), backend->get());
  for (int i = 0; i < 20; ++i) ASSERT_TRUE(t.Insert(WideRow(i)).ok());
  auto before = t.GetOrBuildColumn(kN);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ((*before)->size(), 20u);

  ASSERT_TRUE(t.Insert(WideRow(20)).ok());
  auto after = t.GetOrBuildColumn(kN);
  ASSERT_TRUE(after.ok());
  ASSERT_EQ((*after)->size(), 21u);
  EXPECT_EQ((*after)->value(20), WideRow(20)[2]);
  auto index = t.GetOrBuildIndex(rel::Table::kKeyColumn);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->FindInt(20).size(), 1u);

  ASSERT_TRUE(t.RemoveLastRows(2).ok());
  auto rolled_back = t.GetOrBuildColumn(kN);
  ASSERT_TRUE(rolled_back.ok());
  EXPECT_EQ((*rolled_back)->size(), 19u);
  index = t.GetOrBuildIndex(rel::Table::kKeyColumn);
  ASSERT_TRUE(index.ok());
  EXPECT_TRUE((*index)->FindInt(19).empty());
  EXPECT_EQ((*index)->FindInt(18).size(), 1u);
}

// Eight threads make the first requests of a freshly loaded table at once,
// each starting at a different column and alternating columns and indexes:
// one decode serves them all, so every thread sees the same pointers, and
// the values equal a memory table loaded with the same rows.
TEST(PagedTable, ConcurrentFirstRequestsShareOneDecode) {
  auto backend = PagedBackend::Open(StorageOptions::Paged(512, 2));
  ASSERT_TRUE(backend.ok());
  StoredTable paged(WideMeta("T"), backend->get());
  StoredTable memory(WideMeta("T"));
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(paged.Insert(WideRow(i)).ok());
    ASSERT_TRUE(memory.Insert(WideRow(i)).ok());
  }
  const std::vector<rel::Column>& columns = paged.meta().columns;
  constexpr size_t kThreads = 8;
  std::vector<std::vector<const ColumnVector*>> seen_columns(
      kThreads, std::vector<const ColumnVector*>(columns.size()));
  std::vector<std::vector<const HashIndex*>> seen_indexes(
      kThreads, std::vector<const HashIndex*>(columns.size()));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      start.arrive_and_wait();
      for (size_t j = 0; j < 2 * columns.size(); ++j) {
        const size_t c = (k + j / 2) % columns.size();
        if ((k + j) % 2 == 0) {
          auto column = paged.GetOrBuildColumn(static_cast<int>(c));
          EXPECT_TRUE(column.ok());
          if (column.ok()) seen_columns[k][c] = *column;
        } else {
          auto index = paged.GetOrBuildIndex(static_cast<int>(c));
          EXPECT_TRUE(index.ok());
          if (index.ok()) seen_indexes[k][c] = *index;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (size_t k = 1; k < kThreads; ++k) {
    EXPECT_EQ(seen_columns[k], seen_columns[0]) << "thread " << k;
    EXPECT_EQ(seen_indexes[k], seen_indexes[0]) << "thread " << k;
  }
  for (size_t c = 0; c < columns.size(); ++c) {
    auto want = memory.GetOrBuildColumn(static_cast<int>(c));
    auto want_index = memory.GetOrBuildIndex(static_cast<int>(c));
    ASSERT_TRUE(want.ok() && want_index.ok());
    ASSERT_NE(seen_columns[0][c], nullptr);
    ASSERT_NE(seen_indexes[0][c], nullptr);
    ExpectSameValues(**want, *seen_columns[0][c], columns[c].name);
    for (size_t i = 0; i < (*want)->size(); ++i) {
      const Value& key = (*want)->value(i);
      EXPECT_TRUE(std::ranges::equal((*want_index)->Find(key),
                                     seen_indexes[0][c]->Find(key)))
          << columns[c].name << " row " << i;
    }
  }
}

TEST(PagedTable, FetchRowRangeChargesOnlyFaults) {
  auto backend =
      PagedBackend::Open(StorageOptions::Paged(512, /*pool_pages=*/1));
  ASSERT_TRUE(backend.ok());
  StoredTable t(SimpleMeta(), backend->get());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(
        t.Insert({Value::Int(i), Value::Str(std::string(40, 'p'))}).ok());
  }
  auto io = t.FetchRowRange(0, t.row_count());
  ASSERT_TRUE(io.ok()) << io.status().ToString();
  // A 1-frame pool re-faults every page of a full scan: one seek per page,
  // page_size bytes each.
  EXPECT_GT(io->seeks, 1.0);
  EXPECT_EQ(io->bytes, io->seeks * 512);
  // With everything evicted but the tail, a second scan re-faults again.
  auto io2 = t.FetchRowRange(0, t.row_count());
  ASSERT_TRUE(io2.ok());
  EXPECT_GT(io2->seeks, 0.0);
}

TEST(PagedTable, RowTooLargeForPageIsRejected) {
  auto backend = PagedBackend::Open(StorageOptions::Paged(512, 2));
  ASSERT_TRUE(backend.ok());
  StoredTable t(SimpleMeta(), backend->get());
  Status st = t.Insert({Value::Int(1), Value::Str(std::string(600, 'x'))});
  EXPECT_EQ(st.code(), Status::Code::kInternal);
  EXPECT_EQ(t.row_count(), 0u);  // failed insert leaves no trace
  EXPECT_TRUE(t.Insert({Value::Int(1), Value::Str("fits")}).ok());
}

// ---- Paged Database end-to-end ----

constexpr const char* kSchema =
    "type A = a[ B* ] type B = b[ x[ String ], y[ Integer ] ]";
constexpr const char* kDoc =
    "<a><b><x>alpha</x><y>1</y></b><b><x>beta</x><y>2</y></b>"
    "<b><x>gamma</x><y>3</y></b></a>";

TEST(PagedDatabase, ShredReconstructMatchesMemory) {
  map::Mapping m = MapText(kSchema);
  auto doc = xml::ParseDocument(kDoc);
  ASSERT_TRUE(doc.ok());

  Database mem_db(m.catalog());
  ASSERT_TRUE(ShredDocument(doc.value(), m, &mem_db).ok());
  Database disk_db(m.catalog(), StorageOptions::Paged(512, 2));
  ASSERT_TRUE(disk_db.paged());
  ASSERT_TRUE(ShredDocument(doc.value(), m, &disk_db).ok());

  EXPECT_EQ(mem_db.TotalRows(), disk_db.TotalRows());
  auto from_mem = ReconstructDocument(&mem_db, m);
  auto from_disk = ReconstructDocument(&disk_db, m);
  ASSERT_TRUE(from_mem.ok()) << from_mem.status().ToString();
  ASSERT_TRUE(from_disk.ok()) << from_disk.status().ToString();
  EXPECT_EQ(xml::Serialize(from_mem.value()),
            xml::Serialize(from_disk.value()));
  // The load actually went through the pager.
  EXPECT_GT(disk_db.pager()->stats().pages_written, 0u);
}

TEST(PagedDatabase, WriteFailureDuringShredRollsBack) {
  map::Mapping m = MapText(kSchema);
  auto doc = xml::ParseDocument(kDoc);
  ASSERT_TRUE(doc.ok());
  // A 1-frame pool forces a dirty eviction (a pager write) as soon as the
  // load touches a second page; fire the first such write only, so the
  // rollback path itself runs clean.
  Database db(m.catalog(), StorageOptions::Paged(512, 1));
  {
    fp::ScopedFailpoints fps("storage.write=1");
    ASSERT_TRUE(fps.status().ok());
    Status st = ShredDocument(doc.value(), m, &db);
    EXPECT_FALSE(st.ok());
  }
  EXPECT_EQ(db.TotalRows(), 0u);  // rollback removed every applied row
  // The database stays usable: the same document loads fine afterwards.
  ASSERT_TRUE(ShredDocument(doc.value(), m, &db).ok());
  EXPECT_GT(db.TotalRows(), 0u);
}

TEST(PagedDatabase, FlushFailureSurfacesFromLoad) {
  map::Mapping m = MapText(kSchema);
  auto doc = xml::ParseDocument(kDoc);
  ASSERT_TRUE(doc.ok());
  Database db(m.catalog(), StorageOptions::Paged(512, 4));
  fp::ScopedFailpoints fps("storage.flush");
  Status st = ShredDocument(doc.value(), m, &db);
  EXPECT_EQ(st.code(), Status::Code::kInternal);
}

// With a pool smaller than the table, the first column request reads each
// of the table's pages exactly once; every other column, index and prewarm
// of that table is then served from the decoded columns without a fault.
TEST(PagedDatabase, FirstColumnRequestDecodesEachPageOnce) {
  rel::Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(WideMeta("A")).ok());
  ASSERT_TRUE(catalog.AddTable(WideMeta("B")).ok());
  Database db(catalog, StorageOptions::Paged(512, /*pool_pages=*/2));
  StoredTable& a = db.table(0);
  StoredTable& b = db.table(1);
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(a.Insert(WideRow(i)).ok());
  const uint64_t a_pages = db.pager()->page_count();
  ASSERT_GT(a_pages, 4u);  // the table is larger than the pool
  // Loading B afterwards evicts every page of A.
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(b.Insert(WideRow(i)).ok());
  BufferPool* pool = db.buffer_pool();

  uint64_t faults = pool->stats().faults;
  ASSERT_TRUE(a.GetOrBuildColumn(1).ok());
  EXPECT_EQ(pool->stats().faults - faults, a_pages);
  ASSERT_TRUE(b.GetOrBuildIndex(rel::Table::kKeyColumn).ok());

  faults = pool->stats().faults;
  StoredTable memory(WideMeta("A"));
  for (int i = 0; i < 100; ++i) ASSERT_TRUE(memory.Insert(WideRow(i)).ok());
  for (int c = 0; c < static_cast<int>(a.meta().columns.size()); ++c) {
    const std::string& name = a.meta().columns[c].name;
    auto got = a.GetOrBuildColumn(c);
    ASSERT_TRUE(got.ok()) << name;
    ExpectSameValues(**memory.GetOrBuildColumn(c), **got, name);
    ASSERT_TRUE(a.GetOrBuildIndex(c).ok()) << name;
  }
  EXPECT_TRUE(db.PrewarmColumns().ok());
  EXPECT_TRUE(db.PrewarmIndexes().ok());
  EXPECT_EQ(pool->stats().faults, faults);
}

// Reconstruction reads instances from the decoded columns: after
// PrewarmColumns it touches no page, and on a cold database (a pool smaller
// than the data) it reads each page at most once, in the decode.
TEST(PagedDatabase, ReconstructReadsEachPageAtMostOnce) {
  map::Mapping m = MapText(kSchema);
  std::string text = "<a>";
  for (int i = 0; i < 100; ++i) {
    text += "<b><x>row" + std::to_string(i) + "</x><y>" + std::to_string(i) +
            "</y></b>";
  }
  text += "</a>";
  auto doc = xml::ParseDocument(text);
  ASSERT_TRUE(doc.ok());
  const std::string want = xml::Serialize(doc.value());

  for (bool prewarm : {false, true}) {
    Database db(m.catalog(), StorageOptions::Paged(512, /*pool_pages=*/2));
    ASSERT_TRUE(ShredDocument(doc.value(), m, &db).ok());
    const uint64_t pages = db.pager()->page_count();
    ASSERT_GT(pages, 4u);  // the data is larger than the pool
    if (prewarm) {
      ASSERT_TRUE(db.PrewarmColumns().ok());
    }
    BufferPool* pool = db.buffer_pool();
    const uint64_t faults = pool->stats().faults;
    auto rebuilt = ReconstructDocument(&db, m);
    ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
    EXPECT_EQ(xml::Serialize(rebuilt.value()), want);
    if (prewarm) {
      EXPECT_EQ(pool->stats().faults, faults);
    } else {
      EXPECT_LE(pool->stats().faults - faults, pages);
    }
  }
}

TEST(PagedDatabase, PrewarmBuildsIndexesAndColumns) {
  map::Mapping m = MapText(kSchema);
  auto doc = xml::ParseDocument(kDoc);
  ASSERT_TRUE(doc.ok());
  Database db(m.catalog(), StorageOptions::Paged(512, 4));
  ASSERT_TRUE(ShredDocument(doc.value(), m, &db).ok());
  EXPECT_TRUE(db.PrewarmIndexes().ok());
  EXPECT_TRUE(db.PrewarmColumns().ok());
  // The prewarmed index is served from the registry: no page is touched.
  uint64_t faults = db.buffer_pool()->stats().faults;
  EXPECT_TRUE(
      db.table(m.catalog().IndexOf("B"))
          .GetOrBuildIndex(rel::Table::kKeyColumn)
          .ok());
  EXPECT_EQ(db.buffer_pool()->stats().faults, faults);
}

}  // namespace
}  // namespace legodb::store

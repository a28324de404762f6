#ifndef LEGODB_STORAGE_BACKEND_H_
#define LEGODB_STORAGE_BACKEND_H_

// Storage selection for store::Database.
//
// The paper prices configurations in seeks and bytes; this repo long
// validated those estimates against proxy counters over RAM-resident
// tables. A database stores its tables in one of two forms:
//
//  - memory (the default, and the bit-identity reference): each table is
//    one ColumnVector per catalog column; zero IO, modeled stats.
//  - paged: fixed-size slotted pages in a backing file behind a pin-count
//    BufferPool with LRU eviction and write-back (PagedBackend below). Row
//    reads pin real pages; pool faults are real pread traffic, which feeds
//    ExecStats seeks/bytes and the calibration gauges.
//
// Both forms store the same logical rows in the same order, so every
// executor result is bit-identical across them — the equivalence suites
// run against both.

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "storage/buffer_pool.h"
#include "storage/pager.h"

namespace legodb::store {

struct StorageOptions {
  enum class Backend { kMemory, kPaged };
  Backend backend = Backend::kMemory;
  // Paged backend knobs.
  size_t page_size = 8192;  // bytes per slotted page (512 .. 65536)
  size_t pool_pages = 256;  // buffer pool capacity, in pages
  std::string path;         // backing file; empty = anonymous temp file

  static StorageOptions Memory() { return StorageOptions{}; }
  static StorageOptions Paged(size_t page_size = 8192,
                              size_t pool_pages = 256) {
    StorageOptions o;
    o.backend = Backend::kPaged;
    o.page_size = page_size;
    o.pool_pages = pool_pages;
    return o;
  }
};

// The machinery of one paged database: its backing file and buffer pool.
// StoredTables hold non-owning pointers into it, so it must outlive them
// (Database declares it first). Memory databases have none.
class PagedBackend {
 public:
  // Creating the backing file can fail.
  static StatusOr<std::unique_ptr<PagedBackend>> Open(
      const StorageOptions& options);

  // Write-back + durability barrier.
  Status Flush() {
    LEGODB_RETURN_IF_ERROR(pool_->FlushAll());
    return pager_->Sync();
  }
  BufferPool* pool() { return pool_.get(); }
  Pager* pager() { return pager_.get(); }

 private:
  PagedBackend(std::unique_ptr<Pager> pager, size_t pool_pages)
      : pager_(std::move(pager)),
        pool_(std::make_unique<BufferPool>(pager_.get(), pool_pages)) {}

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
};

}  // namespace legodb::store

#endif  // LEGODB_STORAGE_BACKEND_H_

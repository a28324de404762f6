#include "storage/backend.h"

namespace legodb::store {

StatusOr<std::unique_ptr<PagedBackend>> PagedBackend::Open(
    const StorageOptions& options) {
  Pager::Options popts;
  popts.path = options.path;
  popts.page_size = options.page_size;
  LEGODB_ASSIGN_OR_RETURN(std::unique_ptr<Pager> pager, Pager::Open(popts));
  size_t pool_pages = options.pool_pages == 0 ? 1 : options.pool_pages;
  return std::unique_ptr<PagedBackend>(
      new PagedBackend(std::move(pager), pool_pages));
}

}  // namespace legodb::store

#include "storage/buffer_pool.h"

#include <cstring>
#include <limits>

#include "common/check.h"

namespace legodb::store {

BufferPool::BufferPool(Pager* pager, size_t capacity_pages)
    : pager_(pager), capacity_(capacity_pages == 0 ? 1 : capacity_pages) {}

BufferPool::~BufferPool() {
  // Every guard must be released before the pool dies; a pinned frame here
  // is a use-after-free in waiting.
  for (const auto& [page, frame] : frames_) {
    LEGODB_CHECK(frame->pins == 0, "BufferPool destroyed with pinned pages");
  }
}

BufferPool::PageGuard& BufferPool::PageGuard::operator=(
    PageGuard&& other) noexcept {
  if (this != &other) {
    Release();
    pool_ = other.pool_;
    frame_ = other.frame_;
    page_ = other.page_;
    faulted_ = other.faulted_;
    other.pool_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

char* BufferPool::PageGuard::data() {
  return static_cast<Frame*>(frame_)->data.get();
}

const char* BufferPool::PageGuard::data() const {
  return static_cast<Frame*>(frame_)->data.get();
}

void BufferPool::PageGuard::MarkDirty() {
  std::lock_guard<std::mutex> lock(pool_->mu_);
  static_cast<Frame*>(frame_)->dirty = true;
}

void BufferPool::PageGuard::Release() {
  if (frame_ != nullptr) {
    pool_->Unpin(frame_);
    pool_ = nullptr;
    frame_ = nullptr;
  }
}

void BufferPool::Unpin(void* frame) {
  std::lock_guard<std::mutex> lock(mu_);
  Frame* f = static_cast<Frame*>(frame);
  LEGODB_CHECK(f->pins > 0, "BufferPool: unpin of an unpinned frame");
  --f->pins;
  if (f->pins == 0) --stats_.pinned;
}

Status BufferPool::EvictOneLocked() {
  // Scan for the least-recently-used unpinned frame. Pools are small (the
  // capacity knob is the whole point), so O(resident) is fine.
  Frame* victim = nullptr;
  uint64_t oldest = std::numeric_limits<uint64_t>::max();
  for (const auto& [page, frame] : frames_) {
    if (frame->pins > 0) continue;
    if (frame->last_use < oldest) {
      oldest = frame->last_use;
      victim = frame.get();
    }
  }
  if (victim == nullptr) {
    return Status::Unavailable(
        "buffer pool exhausted: all " + std::to_string(capacity_) +
        " frames pinned");
  }
  if (victim->dirty) {
    LEGODB_RETURN_IF_ERROR(pager_->Write(victim->page, victim->data.get()));
    stats_.bytes_written += pager_->page_size();
  }
  ++stats_.evictions;
  --stats_.resident;
  frames_.erase(victim->page);
  return Status::OK();
}

StatusOr<BufferPool::PageGuard> BufferPool::Pin(uint32_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(page);
  if (it != frames_.end()) {
    Frame* f = it->second.get();
    f->last_use = ++tick_;
    if (f->pins == 0) ++stats_.pinned;
    ++f->pins;
    ++stats_.hits;
    return PageGuard(this, f, page, /*faulted=*/false);
  }
  while (frames_.size() >= capacity_) {
    LEGODB_RETURN_IF_ERROR(EvictOneLocked());
  }
  auto frame = std::make_unique<Frame>();
  frame->page = page;
  frame->data = std::make_unique<char[]>(pager_->page_size());
  Status read = pager_->Read(page, frame->data.get());
  if (!read.ok()) return read;  // frame dropped: pool state unchanged
  frame->last_use = ++tick_;
  frame->pins = 1;
  Frame* f = frame.get();
  frames_.emplace(page, std::move(frame));
  ++stats_.faults;
  stats_.bytes_read += pager_->page_size();
  ++stats_.resident;
  ++stats_.pinned;
  return PageGuard(this, f, page, /*faulted=*/true);
}

StatusOr<BufferPool::PageGuard> BufferPool::PinNew(uint32_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  LEGODB_CHECK(frames_.find(page) == frames_.end(),
               "BufferPool::PinNew: page already resident");
  while (frames_.size() >= capacity_) {
    LEGODB_RETURN_IF_ERROR(EvictOneLocked());
  }
  auto frame = std::make_unique<Frame>();
  frame->page = page;
  frame->data = std::make_unique<char[]>(pager_->page_size());
  std::memset(frame->data.get(), 0, pager_->page_size());
  frame->last_use = ++tick_;
  frame->pins = 1;
  frame->dirty = true;
  Frame* f = frame.get();
  frames_.emplace(page, std::move(frame));
  ++stats_.resident;
  ++stats_.pinned;
  return PageGuard(this, f, page, /*faulted=*/false);
}

Status BufferPool::FlushAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [page, frame] : frames_) {
    if (!frame->dirty) continue;
    LEGODB_RETURN_IF_ERROR(pager_->Write(page, frame->data.get()));
    stats_.bytes_written += pager_->page_size();
    frame->dirty = false;
  }
  return Status::OK();
}

void BufferPool::Discard(uint32_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = frames_.find(page);
  if (it == frames_.end()) return;
  LEGODB_CHECK(it->second->pins == 0,
               "BufferPool::Discard: page still pinned");
  --stats_.resident;
  frames_.erase(it);
}

BufferPool::Stats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace legodb::store

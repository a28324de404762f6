#include "xml/dom.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace legodb::xml {
namespace {

// Blocks grow geometrically up to this size, so a document of n bytes takes
// O(log n) blocks until it is large, then one block per 16 MiB.
constexpr size_t kMaxBlockSize = size_t{16} << 20;

}  // namespace

NameId Arena::Intern(std::string_view name) {
  auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<NameId>(names_.size());
  const std::string_view stored = Copy(name);
  names_.push_back(stored);
  ids_.emplace(stored, id);
  return id;
}

NameId Arena::Find(std::string_view name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoName : it->second;
}

Node* Arena::NewElement(NameId name) {
  return new (Allocate(sizeof(Node), alignof(Node)))
      Node(this, Node::Kind::kElement, name);
}

Node* Arena::NewText(std::string_view text) {
  LEGODB_CHECK(text.size() <= UINT32_MAX, "text node over 4 GiB");
  Node* node = new (Allocate(sizeof(Node), alignof(Node)))
      Node(this, Node::Kind::kText, kNoName);
  node->text_ = Copy(text).data();
  node->size_ = static_cast<uint32_t>(text.size());
  return node;
}

std::string_view Arena::Copy(std::string_view s) {
  if (s.empty()) return {};
  char* out = AllocateArray<char>(s.size());
  std::memcpy(out, s.data(), s.size());
  return {out, s.size()};
}

void* Arena::Allocate(size_t bytes, size_t align) {
  const auto next = reinterpret_cast<uintptr_t>(next_);
  const uintptr_t aligned = (next + align - 1) & ~(uintptr_t{align} - 1);
  if (next_ != nullptr &&
      aligned + bytes <= reinterpret_cast<uintptr_t>(end_)) {
    next_ = reinterpret_cast<char*>(aligned + bytes);
    return reinterpret_cast<void*>(aligned);
  }
  return AllocateInNewBlock(bytes, align);
}

void* Arena::AllocateInNewBlock(size_t bytes, size_t align) {
  const size_t size = std::max(next_block_size_, bytes + align);
  next_block_size_ = std::min(2 * next_block_size_, kMaxBlockSize);
  blocks_.push_back(std::make_unique_for_overwrite<char[]>(size));
  next_ = blocks_.back().get();
  end_ = next_ + size;
  return Allocate(bytes, align);
}

const std::string_view* Node::FindAttribute(std::string_view name) const {
  for (const Attribute& a : attributes()) {
    if (a.name == name) return &a.value;
  }
  return nullptr;
}

void Node::AppendChild(Node* child) {
  LEGODB_DCHECK(is_element());
  if (size_ == capacity_) {
    LEGODB_CHECK(capacity_ <= UINT32_MAX / 2, "too many children");
    const uint32_t capacity = capacity_ == 0 ? 1 : 2 * capacity_;
    Node** grown = arena_->AllocateArray<Node*>(capacity);
    std::copy_n(children_, size_, grown);
    children_ = grown;
    capacity_ = capacity;
  }
  children_[size_++] = child;
}

Node* Node::AddElement(std::string_view name, std::string_view text) {
  Node* child = AddElement(arena_->Intern(name));
  if (!text.empty()) child->AddText(text);
  return child;
}

Node* Node::AddElement(NameId name) {
  Node* child = arena_->NewElement(name);
  AppendChild(child);
  return child;
}

void Node::AddText(std::string_view text) {
  AppendChild(arena_->NewText(text));
}

void Node::SetAttribute(std::string_view name, std::string_view value) {
  SetAttribute(arena_->Intern(name), value);
}

void Node::SetAttribute(NameId name, std::string_view value) {
  const std::string_view name_text = arena_->name(name);
  Attribute* end = attrs_ + num_attrs_;
  Attribute* at = std::lower_bound(
      attrs_, end, name_text,
      [](const Attribute& a, std::string_view n) { return a.name < n; });
  if (at != end && at->id == name) {
    at->value = arena_->Copy(value);
    return;
  }
  const auto index = static_cast<size_t>(at - attrs_);
  if (num_attrs_ == attrs_capacity_) {
    LEGODB_CHECK(attrs_capacity_ <= UINT32_MAX / 2, "too many attributes");
    const uint32_t capacity = attrs_capacity_ == 0 ? 2 : 2 * attrs_capacity_;
    Attribute* grown = arena_->AllocateArray<Attribute>(capacity);
    std::copy_n(attrs_, num_attrs_, grown);
    attrs_ = grown;
    attrs_capacity_ = capacity;
  }
  std::copy_backward(attrs_ + index, attrs_ + num_attrs_,
                     attrs_ + num_attrs_ + 1);
  attrs_[index] = Attribute{name, name_text, arena_->Copy(value)};
  ++num_attrs_;
}

void Node::SetChildren(std::span<Node* const> children) {
  LEGODB_DCHECK(is_element());
  LEGODB_CHECK(children.size() <= UINT32_MAX, "too many children");
  children_ = arena_->AllocateArray<Node*>(children.size());
  std::copy(children.begin(), children.end(), children_);
  size_ = capacity_ = static_cast<uint32_t>(children.size());
}

void Node::AppendText(std::string* out) const {
  if (is_text()) {
    out->append(text_, size_);
    return;
  }
  for (const Node* child : children()) child->AppendText(out);
}

std::string Node::TextContent() const {
  std::string out;
  AppendText(&out);
  return out;
}

std::vector<const Node*> Node::ChildrenNamed(std::string_view name) const {
  std::vector<const Node*> result;
  const NameId id = arena_->Find(name);
  if (id == kNoName) return result;
  for (const Node* child : children()) {
    if (child->name_ == id) result.push_back(child);
  }
  return result;
}

const Node* Node::FirstChildNamed(std::string_view name) const {
  const NameId id = arena_->Find(name);
  if (id == kNoName) return nullptr;
  for (const Node* child : children()) {
    if (child->name_ == id) return child;
  }
  return nullptr;
}

size_t Node::SubtreeSize() const {
  size_t n = 1;
  for (const Node* child : children()) n += child->SubtreeSize();
  return n;
}

Document::Root::Root(Root&& other) noexcept
    : arena_(std::move(other.arena_)), node_(other.node_) {
  other.node_ = nullptr;
}

Document::Root& Document::Root::operator=(Root&& other) noexcept {
  if (this != &other) {
    arena_ = std::move(other.arena_);
    node_ = other.node_;
    other.node_ = nullptr;
  }
  return *this;
}

void Document::Root::reset() {
  node_ = nullptr;
  arena_.reset();
}

Arena& Document::NewArena() {
  root.node_ = nullptr;
  root.arena_ = std::make_unique<Arena>();
  return *root.arena_;
}

void Document::SetRoot(Node* element) {
  LEGODB_CHECK(element != nullptr && element->is_element() &&
                   &element->arena() == root.arena_.get(),
               "a document's root must be an element of its own arena");
  root.node_ = element;
}

Node* Document::CreateRoot(std::string_view name) {
  Arena& arena = NewArena();
  Node* element = arena.NewElement(arena.Intern(name));
  SetRoot(element);
  return element;
}

NameId Document::FindName(std::string_view name) const {
  return root.arena_ ? root.arena_->Find(name) : kNoName;
}

}  // namespace legodb::xml

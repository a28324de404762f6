#ifndef LEGODB_XML_DOM_H_
#define LEGODB_XML_DOM_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace legodb::xml {

class Node;

// A tag's index in its document's name table. Ids are per document: the
// same tag may have different ids in two documents.
using NameId = uint32_t;
inline constexpr NameId kNoName = UINT32_MAX;

// An attribute of an element; `name` and `value` view the document's arena.
struct Attribute {
  NameId id;
  std::string_view name;
  std::string_view value;
};

// The storage of one document: a bump allocator for its nodes, child and
// attribute arrays and strings, and its name table. Nothing it hands out is
// freed on its own; all of it goes when the arena does.
class Arena {
 public:
  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  // The id of `name`, added to the name table if it is new.
  NameId Intern(std::string_view name);
  // The id of `name`, or kNoName if it was never interned (then no node of
  // the document has it).
  NameId Find(std::string_view name) const;
  std::string_view name(NameId id) const { return names_[id]; }
  size_t name_count() const { return names_.size(); }

  // A new element without children or attributes, not yet linked anywhere.
  Node* NewElement(NameId name);
  // A new text node holding a copy of `text`.
  Node* NewText(std::string_view text);
  // A copy of `s` in the arena.
  std::string_view Copy(std::string_view s);
  // Room for `n` objects of trivial type T, uninitialized.
  template <typename T>
  T* AllocateArray(size_t n) {
    return static_cast<T*>(Allocate(n * sizeof(T), alignof(T)));
  }

 private:
  void* Allocate(size_t bytes, size_t align);
  void* AllocateInNewBlock(size_t bytes, size_t align);

  std::vector<std::unique_ptr<char[]>> blocks_;
  size_t next_block_size_ = 4096;
  char* next_ = nullptr;  // free space in the last block: [next_, end_)
  char* end_ = nullptr;
  std::vector<std::string_view> names_;  // by id, viewing the arena
  std::unordered_map<std::string_view, NameId> ids_;
};

// A node of an XML document tree: an element or a text node. Text content is
// represented as child nodes of kind kText (mixed content is supported);
// attributes are kept on the element in name order, one per name.
//
// Nodes live in their document's arena and are built through it: every
// string a node returns is a view into the arena, valid until the document's
// `root.reset()` or its destruction.
class Node {
 public:
  enum class Kind : uint8_t { kElement, kText };

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Kind kind() const { return kind_; }
  bool is_element() const { return kind_ == Kind::kElement; }
  bool is_text() const { return kind_ == Kind::kText; }

  // The element's name id in its document's name table; kNoName for text.
  NameId name_id() const { return name_; }
  // Element name (tag); empty for text nodes.
  std::string_view name() const {
    return is_element() ? arena_->name(name_) : std::string_view();
  }
  // Text payload; empty for element nodes.
  std::string_view text() const {
    return is_text() ? std::string_view(text_, size_) : std::string_view();
  }

  std::span<const Attribute> attributes() const {
    return {attrs_, num_attrs_};
  }
  // Returns nullptr if the attribute is absent.
  const std::string_view* FindAttribute(std::string_view name) const;

  std::span<Node* const> children() const {
    return is_element() ? std::span<Node* const>(children_, size_)
                        : std::span<Node* const>();
  }

  // The arena the node lives in; new nodes under it come from there.
  Arena& arena() const { return *arena_; }

  // Appends <name>text</name> (no text node when `text` is empty) and
  // returns the new element.
  Node* AddElement(std::string_view name, std::string_view text = {});
  // Appends an empty element named by an id of this node's arena.
  Node* AddElement(NameId name);
  void AddText(std::string_view text);
  // Sets attribute `name` in name order; setting a name again overwrites.
  void SetAttribute(std::string_view name, std::string_view value);
  void SetAttribute(NameId name, std::string_view value);
  // Replaces the children with a copy of `children` (nodes of this arena).
  void SetChildren(std::span<Node* const> children);

  // Concatenation of all descendant text (the element's "string value").
  std::string TextContent() const;

  // Child elements named `name`, in document order.
  std::vector<const Node*> ChildrenNamed(std::string_view name) const;
  // First child element named `name`, or nullptr.
  const Node* FirstChildNamed(std::string_view name) const;

  // Number of nodes in this subtree (elements + text nodes).
  size_t SubtreeSize() const;

 private:
  friend class Arena;
  Node(Arena* arena, Kind kind, NameId name)
      : arena_(arena), name_(name), kind_(kind) {}

  void AppendChild(Node* child);
  void AppendText(std::string* out) const;

  Arena* arena_;
  union {
    Node** children_ = nullptr;  // elements: `size_` of `capacity_` used
    const char* text_;           // text nodes: `size_` bytes
  };
  Attribute* attrs_ = nullptr;  // `num_attrs_` of `attrs_capacity_` used
  uint32_t size_ = 0;
  uint32_t capacity_ = 0;
  uint32_t num_attrs_ = 0;
  uint32_t attrs_capacity_ = 0;
  NameId name_;
  Kind kind_;
};

// An XML document: a single root element and the arena that holds the tree.
// Moving a document moves the arena, so nodes and views stay valid.
struct Document {
  // The root element, and the owner of the document's arena.
  class Root {
   public:
    Root() = default;
    Root(Root&& other) noexcept;
    Root& operator=(Root&& other) noexcept;

    Node* get() const { return node_; }
    Node& operator*() const { return *node_; }
    Node* operator->() const { return node_; }
    explicit operator bool() const { return node_ != nullptr; }

    // Frees the whole document at once: its nodes, strings and names.
    void reset();

   private:
    friend struct Document;
    std::unique_ptr<Arena> arena_;
    Node* node_ = nullptr;
  };

  // Frees any tree the document holds and returns the empty arena a new one
  // is built in; SetRoot then names its root element.
  Arena& NewArena();
  // Makes `element`, a node of this document's arena, the root.
  void SetRoot(Node* element);
  // Starts a new tree (as NewArena does) with root element `name`.
  Node* CreateRoot(std::string_view name);
  // The id of `name` in this document, or kNoName if it was never interned
  // there (then no node has it).
  NameId FindName(std::string_view name) const;

  Root root;
};

}  // namespace legodb::xml

#endif  // LEGODB_XML_DOM_H_

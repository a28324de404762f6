#include "mapping/program.h"

#include <iterator>

namespace legodb::map {
namespace {

using xs::Type;

class Compiler {
 public:
  Compiler(const Mapping& mapping, TypeProgram* program)
      : m_(mapping), p_(program) {}

  // Appends the ops of `t`, whose scalars `owner` owns (the innermost
  // element or attribute around them, null at the body root; see
  // map::Slot::node), and returns the index of its root op.
  uint32_t Compile(const Type& t, const Type* owner) {
    const auto self = static_cast<uint32_t>(p_->ops.size());
    p_->ops.push_back(BodyOp{&t});
    const TypeMapping& tm = *p_->tm;
    int column = -1;
    int ref = -1;
    std::vector<uint32_t> kids;
    switch (t.kind) {
      case Type::Kind::kEmpty:
        break;
      case Type::Kind::kScalar:
        column = tm.SlotColumn(owner, /*tilde=*/false);
        break;
      case Type::Kind::kElement:
        if (t.name.is_wildcard()) column = tm.SlotColumn(&t, /*tilde=*/true);
        kids.push_back(Compile(*t.child, &t));
        break;
      case Type::Kind::kAttribute:
        column = tm.SlotColumn(&t, /*tilde=*/false);
        kids.push_back(Compile(*t.child, &t));
        break;
      case Type::Kind::kRepetition:
        kids.push_back(Compile(*t.child, owner));
        break;
      case Type::Kind::kSequence:
      case Type::Kind::kUnion:
        for (const auto& c : t.children) kids.push_back(Compile(*c, owner));
        break;
      case Type::Kind::kTypeRef:
        ref = TypeIndex(m_, t.ref_name);
        break;
    }
    BodyOp& op = p_->ops[self];
    op.column = column;
    op.ref = ref;
    op.kids_begin = static_cast<uint32_t>(p_->kids.size());
    p_->kids.insert(p_->kids.end(), kids.begin(), kids.end());
    op.kids_end = static_cast<uint32_t>(p_->kids.size());
    return self;
  }

 private:
  const Mapping& m_;
  TypeProgram* p_;
};

}  // namespace

std::vector<TypeProgram> CompileTypes(const Mapping& mapping) {
  std::vector<TypeProgram> programs;
  programs.reserve(mapping.types().size());
  for (const auto& [name, tm] : mapping.types()) {
    TypeProgram& p = programs.emplace_back();
    p.tm = &tm;
    if (tm.virtual_union) {
      for (const auto& alt : tm.union_alternatives) {
        const int index = TypeIndex(mapping, alt);
        if (index >= 0) p.alternatives.push_back(index);
      }
      continue;
    }
    Compiler(mapping, &p).Compile(*mapping.schema().Get(name),
                                  /*owner=*/nullptr);
  }
  return programs;
}

int TypeIndex(const Mapping& mapping, const std::string& name) {
  auto it = mapping.types().find(name);
  if (it == mapping.types().end()) return -1;
  return static_cast<int>(std::distance(mapping.types().begin(), it));
}

}  // namespace legodb::map

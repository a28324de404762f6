#include "mapping/program.h"

#include "common/check.h"

namespace legodb::map {
namespace {

using xs::Type;

class Compiler {
 public:
  explicit Compiler(TypeProgram* program) : p_(program) {}

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
        // The body walk meets the references in body order, as the mapper
        // listed them in `children`.
        LEGODB_CHECK(next_ref_ < tm.children.size(),
                     "CompileTypes: type reference the mapper did not list");
        ref = tm.children[next_ref_++].type;
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
  TypeProgram* p_;
  size_t next_ref_ = 0;
};

}  // namespace

std::vector<TypeProgram> CompileTypes(const Mapping& mapping) {
  std::vector<TypeProgram> programs(mapping.types().size());
  for (size_t i = 0; i < programs.size(); ++i) {
    const TypeMapping& tm = mapping.types()[i];
    programs[i].tm = &tm;
    if (!tm.virtual_union) {
      Compiler(&programs[i]).Compile(*tm.body, /*owner=*/nullptr);
    }
  }
  return programs;
}

}  // namespace legodb::map

#include "engine/expr_vm.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "xquery/evaluator.h"

namespace legodb::engine {

namespace {

// Lane -> row map for a column's relation; nullptr = unbound everywhere.
const int32_t* RelRows(const LaneView& view, int rel) {
  if (rel < 0 || static_cast<size_t>(rel) >= view.num_rels) return nullptr;
  return view.rows_by_rel[rel];
}

// Typed int64 comparison loop: NULL lanes (unbound row or NULL value)
// satisfy nothing.
template <typename Cmp>
void CmpIntConst(const int32_t* rows, const store::ColumnVector& col,
                 int64_t want, size_t n, uint8_t* out, Cmp cmp) {
  const int64_t* ints = col.ints();
  const uint8_t* nulls = col.null_mask();
  for (size_t i = 0; i < n; ++i) {
    int32_t r = rows[i];
    out[i] = r >= 0 && !nulls[r] && cmp(ints[r], want);
  }
}

template <typename Cmp>
void CmpIntCols(const int32_t* lrows, const store::ColumnVector& lcol,
                const int32_t* rrows, const store::ColumnVector& rcol,
                size_t n, uint8_t* out, Cmp cmp) {
  const int64_t* li = lcol.ints();
  const int64_t* ri = rcol.ints();
  const uint8_t* ln = lcol.null_mask();
  const uint8_t* rn = rcol.null_mask();
  for (size_t i = 0; i < n; ++i) {
    int32_t l = lrows[i];
    int32_t r = rrows[i];
    out[i] = l >= 0 && r >= 0 && !ln[l] && !rn[r] && cmp(li[l], ri[r]);
  }
}

// Dispatches `op` once, running the typed loop `run` with the matching
// comparator — the per-lane loops stay branch-free on the operator.
template <typename Run>
void WithIntCmp(xq::CompareOp op, Run run) {
  switch (op) {
    case xq::CompareOp::kEq:
      run([](int64_t a, int64_t b) { return a == b; });
      return;
    case xq::CompareOp::kNe:
      run([](int64_t a, int64_t b) { return a != b; });
      return;
    case xq::CompareOp::kLt:
      run([](int64_t a, int64_t b) { return a < b; });
      return;
    case xq::CompareOp::kLe:
      run([](int64_t a, int64_t b) { return a <= b; });
      return;
    case xq::CompareOp::kGt:
      run([](int64_t a, int64_t b) { return a > b; });
      return;
    case xq::CompareOp::kGe:
      run([](int64_t a, int64_t b) { return a >= b; });
      return;
  }
}

}  // namespace


StatusOr<Value> ResolveConstant(const std::map<std::string, Value>& params,
                                const xq::Constant& c) {
  switch (c.kind) {
    case xq::Constant::Kind::kInt:
      return Value::Int(c.int_value);
    case xq::Constant::Kind::kString:
      return xq::CanonicalValue(c.string_value);
    case xq::Constant::Kind::kSymbol: {
      auto it = params.find(c.symbol);
      if (it == params.end()) {
        return Status::InvalidArgument("unbound query parameter '" + c.symbol +
                                       "'");
      }
      return it->second;
    }
  }
  return Status::Internal("bad constant");
}

StatusOr<const store::ColumnVector*> ResolveColumnVector(const ExprEnv& env,
                                                         int rel, int column,
                                                         const char* what) {
  if (rel < 0 || rel >= static_cast<int>(env.tables.size())) {
    return Status::Internal(std::string(what) + " references relation #" +
                            std::to_string(rel) + " outside the block");
  }
  return env.tables[rel]->GetOrBuildColumn(column);
}

// --- ExprProgramBuilder ---------------------------------------------------

StatusOr<int> ExprProgramBuilder::AddColumn(const ExprEnv& env, int rel,
                                            int column, const char* what) {
  LEGODB_ASSIGN_OR_RETURN(const store::ColumnVector* vector,
                          ResolveColumnVector(env, rel, column, what));
  program_.columns_.push_back(
      ExprProgram::ColumnSlot{rel, vector, env.tables[rel], column});
  return static_cast<int>(program_.columns_.size()) - 1;
}

int ExprProgramBuilder::AddConst(Value v) {
  program_.constants_.push_back(std::move(v));
  return static_cast<int>(program_.constants_.size()) - 1;
}

int ExprProgramBuilder::AddParam(std::string name) {
  int slot = AddConst(Value::MakeNull());
  program_.param_slots_.emplace_back(slot, std::move(name));
  return slot;
}

StatusOr<ExprProgram> ExprProgramBuilder::Build() && {
  // Type-check the stream once: operands ('o') and masks ('m') must balance
  // so Eval can dispatch without per-instruction validation.
  std::vector<char> kinds;
  auto pop = [&](char want) {
    if (kinds.empty() || kinds.back() != want) return false;
    kinds.pop_back();
    return true;
  };
  for (const ExprProgram::Instr& ins : program_.instrs_) {
    switch (ins.op) {
      case ExprProgram::OpCode::kLoadCol:
        if (ins.a < 0 ||
            ins.a >= static_cast<int32_t>(program_.columns_.size())) {
          return Status::Internal("expr bytecode: bad column slot");
        }
        kinds.push_back('o');
        break;
      case ExprProgram::OpCode::kLoadConst:
        if (ins.a < 0 ||
            ins.a >= static_cast<int32_t>(program_.constants_.size())) {
          return Status::Internal("expr bytecode: bad constant slot");
        }
        kinds.push_back('o');
        break;
      case ExprProgram::OpCode::kCmp:
        if (!pop('o') || !pop('o')) {
          return Status::Internal("expr bytecode: cmp needs two operands");
        }
        kinds.push_back('m');
        break;
      case ExprProgram::OpCode::kTestNotNull:
        if (!pop('o')) {
          return Status::Internal("expr bytecode: not-null needs an operand");
        }
        kinds.push_back('m');
        break;
      case ExprProgram::OpCode::kAnd:
      case ExprProgram::OpCode::kOr:
        if (!pop('m') || !pop('m')) {
          return Status::Internal("expr bytecode: and/or need two masks");
        }
        kinds.push_back('m');
        break;
    }
  }
  if (program_.instrs_.empty()) {
    if (!kinds.empty()) return Status::Internal("expr bytecode: unbalanced");
  } else if (kinds.size() != 1 || kinds[0] != 'm') {
    return Status::Internal(
        "expr bytecode: program must leave exactly one mask");
  }
  for (const ExprProgram::ColumnSlot& c : program_.columns_) {
    program_.max_rel_ = std::max(program_.max_rel_, c.rel);
  }
  return std::move(program_);
}

Status ExprProgram::BindParams(const std::map<std::string, Value>& params) {
  for (const auto& [slot, name] : param_slots_) {
    auto it = params.find(name);
    if (it == params.end()) {
      return Status::InvalidArgument("unbound query parameter '" + name + "'");
    }
    constants_[slot] = it->second;
  }
  return Status::OK();
}

// --- ExprProgram evaluation -----------------------------------------------

void ExprProgram::EvalCmp(const LaneView& view, xq::CompareOp op,
                          const Slot& lhs, const Slot& rhs, uint8_t* out) {
  size_t n = view.num_lanes;
  if (lhs.kind == Slot::Kind::kCol && rhs.kind == Slot::Kind::kConst) {
    const ColumnSlot& cs = columns_[lhs.index];
    const Value& want = constants_[rhs.index];
    const int32_t* rows = RelRows(view, cs.rel);
    if (!rows || want.is_null()) {
      std::memset(out, 0, n);
      return;
    }
    if (cs.column->typed_int() && want.is_int()) {
      WithIntCmp(op, [&](auto cmp) {
        CmpIntConst(rows, *cs.column, want.as_int(), n, out, cmp);
      });
      return;
    }
    const store::ColumnVector& col = *cs.column;
    for (size_t i = 0; i < n; ++i) {
      int32_t r = rows[i];
      out[i] = r >= 0 && !col.is_null(r) &&
               xq::ApplyCompare(op, col.value(r), want);
    }
    return;
  }
  if (lhs.kind == Slot::Kind::kCol && rhs.kind == Slot::Kind::kCol) {
    const ColumnSlot& ls = columns_[lhs.index];
    const ColumnSlot& rs = columns_[rhs.index];
    const int32_t* lrows = RelRows(view, ls.rel);
    const int32_t* rrows = RelRows(view, rs.rel);
    if (!lrows || !rrows) {
      std::memset(out, 0, n);
      return;
    }
    if (ls.column->typed_int() && rs.column->typed_int()) {
      WithIntCmp(op, [&](auto cmp) {
        CmpIntCols(lrows, *ls.column, rrows, *rs.column, n, out, cmp);
      });
      return;
    }
    const store::ColumnVector& lc = *ls.column;
    const store::ColumnVector& rc = *rs.column;
    for (size_t i = 0; i < n; ++i) {
      int32_t l = lrows[i];
      int32_t r = rrows[i];
      out[i] = l >= 0 && r >= 0 && !lc.is_null(l) && !rc.is_null(r) &&
               xq::ApplyCompare(op, lc.value(l), rc.value(r));
    }
    return;
  }
  if (lhs.kind == Slot::Kind::kConst && rhs.kind == Slot::Kind::kCol) {
    // const <op> col: same loops with the comparison's operand order kept.
    const ColumnSlot& cs = columns_[rhs.index];
    const Value& want = constants_[lhs.index];
    const int32_t* rows = RelRows(view, cs.rel);
    if (!rows || want.is_null()) {
      std::memset(out, 0, n);
      return;
    }
    const store::ColumnVector& col = *cs.column;
    for (size_t i = 0; i < n; ++i) {
      int32_t r = rows[i];
      out[i] = r >= 0 && !col.is_null(r) &&
               xq::ApplyCompare(op, want, col.value(r));
    }
    return;
  }
  // const <op> const: broadcast the scalar result.
  const Value& l = constants_[lhs.index];
  const Value& r = constants_[rhs.index];
  uint8_t v = !l.is_null() && !r.is_null() && xq::ApplyCompare(op, l, r);
  std::memset(out, v, n);
}

void ExprProgram::Eval(const LaneView& view, uint8_t* mask) {
  size_t n = view.num_lanes;
  if (instrs_.empty()) {
    std::memset(mask, 1, n);
    return;
  }
  stack_.clear();
  size_t next_scratch = 0;
  auto alloc_mask = [&]() {
    if (next_scratch == scratch_.size()) scratch_.emplace_back();
    scratch_[next_scratch].resize(n);
    return static_cast<int32_t>(next_scratch++);
  };
  for (const Instr& ins : instrs_) {
    switch (ins.op) {
      case OpCode::kLoadCol:
        stack_.push_back(Slot{Slot::Kind::kCol, ins.a});
        break;
      case OpCode::kLoadConst:
        stack_.push_back(Slot{Slot::Kind::kConst, ins.a});
        break;
      case OpCode::kCmp: {
        Slot rhs = stack_.back();
        stack_.pop_back();
        Slot lhs = stack_.back();
        stack_.pop_back();
        int32_t m = alloc_mask();
        EvalCmp(view, ins.cmp, lhs, rhs, scratch_[m].data());
        stack_.push_back(Slot{Slot::Kind::kMask, m});
        break;
      }
      case OpCode::kTestNotNull: {
        Slot a = stack_.back();
        stack_.pop_back();
        int32_t m = alloc_mask();
        uint8_t* out = scratch_[m].data();
        if (a.kind == Slot::Kind::kConst) {
          std::memset(out, !constants_[a.index].is_null(), n);
        } else {
          const ColumnSlot& cs = columns_[a.index];
          const int32_t* rows = RelRows(view, cs.rel);
          if (!rows) {
            std::memset(out, 0, n);
          } else {
            const uint8_t* nulls = cs.column->null_mask();
            for (size_t i = 0; i < n; ++i) {
              int32_t r = rows[i];
              out[i] = r >= 0 && !nulls[r];
            }
          }
        }
        stack_.push_back(Slot{Slot::Kind::kMask, m});
        break;
      }
      case OpCode::kAnd:
      case OpCode::kOr: {
        Slot b = stack_.back();
        stack_.pop_back();
        Slot a = stack_.back();
        stack_.pop_back();
        uint8_t* av = scratch_[a.index].data();
        const uint8_t* bv = scratch_[b.index].data();
        if (ins.op == OpCode::kAnd) {
          for (size_t i = 0; i < n; ++i) av[i] = av[i] & bv[i];
        } else {
          for (size_t i = 0; i < n; ++i) av[i] = av[i] | bv[i];
        }
        stack_.push_back(a);
        break;
      }
    }
  }
  std::memcpy(mask, scratch_[stack_.back().index].data(), n);
}

void ExprProgram::EvalRows(int rel, const int32_t* rows, size_t n,
                           uint8_t* mask) {
  relptrs_.assign(static_cast<size_t>(std::max(rel, max_rel_)) + 1, nullptr);
  relptrs_[rel] = rows;
  Eval(LaneView{relptrs_.data(), relptrs_.size(), n}, mask);
}

std::string ExprProgram::Disassemble() const {
  if (instrs_.empty()) return "(empty)";
  std::string out;
  for (const Instr& ins : instrs_) {
    if (!out.empty()) out += "\n";
    switch (ins.op) {
      case OpCode::kLoadCol: {
        const rel::Table& meta = columns_[ins.a].table->meta();
        out += "load_col " + meta.name + "." +
               meta.columns[columns_[ins.a].position].name;
        break;
      }
      case OpCode::kLoadConst:
        out += "load_const " + constants_[ins.a].ToString();
        break;
      case OpCode::kCmp:
        out += std::string("cmp ") + xq::CompareOpName(ins.cmp);
        break;
      case OpCode::kTestNotNull:
        out += "test_not_null";
        break;
      case OpCode::kAnd:
        out += "and";
        break;
      case OpCode::kOr:
        out += "or";
        break;
    }
  }
  return out;
}

// --- Predicate compilation ------------------------------------------------

StatusOr<ExprProgram> CompileFilters(
    const ExprEnv& env, int rel, const std::vector<opt::FilterPred>& filters,
    const std::vector<opt::JoinEdge>& edges) {
  ExprProgramBuilder b;
  int terms = 0;
  for (const opt::FilterPred& f : filters) {
    if (f.rel != rel) continue;
    LEGODB_ASSIGN_OR_RETURN(int cslot,
                            b.AddColumn(env, rel, f.column, "filter"));
    if (f.not_null) {
      b.LoadCol(cslot).TestNotNull();
    } else if (f.value.kind == xq::Constant::Kind::kSymbol) {
      b.LoadCol(cslot).LoadConst(b.AddParam(f.value.symbol)).Cmp(f.op);
    } else {
      LEGODB_ASSIGN_OR_RETURN(Value want, ResolveConstant({}, f.value));
      b.LoadCol(cslot).LoadConst(b.AddConst(std::move(want))).Cmp(f.op);
    }
    if (++terms > 1) b.And();
  }
  for (const opt::JoinEdge& e : edges) {
    LEGODB_ASSIGN_OR_RETURN(
        int lslot,
        b.AddColumn(env, e.left_rel, e.left_column, "residual join"));
    LEGODB_ASSIGN_OR_RETURN(
        int rslot,
        b.AddColumn(env, e.right_rel, e.right_column, "residual join"));
    b.LoadCol(lslot).LoadCol(rslot).Cmp(xq::CompareOp::kEq);
    if (++terms > 1) b.And();
  }
  return std::move(b).Build();
}

StatusOr<ExprProgram> CompileResiduals(const ExprEnv& env,
                                       const std::vector<opt::JoinEdge>& edges) {
  return CompileFilters(env, -1, {}, edges);
}

}  // namespace legodb::engine

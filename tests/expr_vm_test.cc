// Unit tests for the compiled-predicate bytecode (engine/expr_vm.h):
// comparison semantics against columnar storage, NULL and unbound-lane
// handling, compile-time diagnostics (columns outside their table,
// out-of-range relations), unbound parameters at bind time, builder-level
// And/Or programs, stack validation, and bytecode determinism.
#include "engine/expr_vm.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "optimizer/plan.h"
#include "storage/database.h"
#include "xquery/ast.h"

namespace legodb::engine {
namespace {

using store::StoredTable;

// One table "T"(T_id int, x int, s string) with a NULL in each column.
StoredTable MakeT() {
  rel::Table meta;
  meta.name = "T";
  rel::Column id, x, s;
  id.name = "T_id";
  x.name = "x";
  s.name = "s";
  meta.columns = {id, x, s};
  StoredTable t(meta);
  t.Insert({Value::Int(1), Value::Int(10), Value::Str("alpha")});
  t.Insert({Value::Int(2), Value::Int(20), Value::Str("beta")});
  t.Insert({Value::Int(3), Value::MakeNull(), Value::MakeNull()});
  t.Insert({Value::Int(4), Value::Int(30), Value::Str("alpha")});
  return t;
}

// Second table "U"(U_id int, y int) for residual-join programs.
StoredTable MakeU() {
  rel::Table meta;
  meta.name = "U";
  rel::Column id, y;
  id.name = "U_id";
  y.name = "y";
  meta.columns = {id, y};
  StoredTable t(meta);
  t.Insert({Value::Int(1), Value::Int(10)});
  t.Insert({Value::Int(2), Value::MakeNull()});
  t.Insert({Value::Int(3), Value::Int(30)});
  return t;
}

// Column positions: T.x, T.s and U.y.
constexpr int kX = 1;
constexpr int kS = 2;
constexpr int kY = 1;

opt::FilterPred IntFilter(int column, xq::CompareOp op, int64_t v) {
  opt::FilterPred f;
  f.rel = 0;
  f.column = column;
  f.op = op;
  f.value = xq::Constant::Int(v);
  return f;
}

class ExprVmTest : public ::testing::Test {
 protected:
  ExprVmTest() : t_(MakeT()), u_(MakeU()) {
    env_.tables = {&t_, &u_};
  }

  // Compiles `filters` against relation 0, binds `params`, and evaluates
  // over all rows of T.
  std::vector<uint8_t> EvalT(const std::vector<opt::FilterPred>& filters,
                             const std::map<std::string, Value>& params = {}) {
    auto program = CompileFilters(env_, 0, filters);
    EXPECT_TRUE(program.ok()) << program.status().ToString();
    Status bound = program.value().BindParams(params);
    EXPECT_TRUE(bound.ok()) << bound.ToString();
    std::vector<int32_t> rows(t_.row_count());
    for (size_t i = 0; i < rows.size(); ++i) rows[i] = static_cast<int32_t>(i);
    std::vector<uint8_t> mask(rows.size(), 0xee);
    program.value().EvalRows(0, rows.data(), rows.size(), mask.data());
    return mask;
  }

  StoredTable t_;
  StoredTable u_;
  ExprEnv env_;
};

TEST_F(ExprVmTest, AllComparisonOpsOverIntColumn) {
  // x = {10, 20, NULL, 30} compared against 20. NULL satisfies no
  // comparison, including "not equal".
  using Op = xq::CompareOp;
  struct Case {
    Op op;
    std::vector<uint8_t> expect;
  };
  const Case cases[] = {
      {Op::kEq, {0, 1, 0, 0}}, {Op::kNe, {1, 0, 0, 1}},
      {Op::kLt, {1, 0, 0, 0}}, {Op::kLe, {1, 1, 0, 0}},
      {Op::kGt, {0, 0, 0, 1}}, {Op::kGe, {0, 1, 0, 1}},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(EvalT({IntFilter(kX, c.op, 20)}), c.expect)
        << "op " << xq::CompareOpName(c.op);
  }
}

TEST_F(ExprVmTest, StringEqualityFallsBackToGenericLoop) {
  opt::FilterPred f;
  f.rel = 0;
  f.column = kS;
  f.op = xq::CompareOp::kEq;
  f.value = xq::Constant::Str("alpha");
  EXPECT_EQ(EvalT({f}), (std::vector<uint8_t>{1, 0, 0, 1}));
}

TEST_F(ExprVmTest, NotNullFilter) {
  opt::FilterPred f;
  f.rel = 0;
  f.column = kX;
  f.not_null = true;
  EXPECT_EQ(EvalT({f}), (std::vector<uint8_t>{1, 1, 0, 1}));
}

TEST_F(ExprVmTest, ConjunctionOfFilters) {
  // x >= 20 AND x <= 20 selects only the x=20 row.
  EXPECT_EQ(EvalT({IntFilter(kX, xq::CompareOp::kGe, 20),
                   IntFilter(kX, xq::CompareOp::kLe, 20)}),
            (std::vector<uint8_t>{0, 1, 0, 0}));
}

TEST_F(ExprVmTest, FiltersForOtherRelationsAreSkipped) {
  // A filter on relation 1 compiles to an empty program for relation 0,
  // which selects every lane.
  opt::FilterPred other = IntFilter(kY, xq::CompareOp::kEq, 10);
  other.rel = 1;
  auto program = CompileFilters(env_, 0, {other});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_TRUE(program.value().empty());
  EXPECT_EQ(program.value().Disassemble(), "(empty)");
  EXPECT_EQ(EvalT({other}), (std::vector<uint8_t>{1, 1, 1, 1}));
}

TEST_F(ExprVmTest, UnboundLaneEvaluatesToNull) {
  // Row index -1 (outer-join miss) fails comparisons and NOT NULL alike.
  auto eq = CompileFilters(env_, 0, {IntFilter(kX, xq::CompareOp::kEq, 10)});
  ASSERT_TRUE(eq.ok());
  opt::FilterPred nn;
  nn.rel = 0;
  nn.column = kX;
  nn.not_null = true;
  auto notnull = CompileFilters(env_, 0, {nn});
  ASSERT_TRUE(notnull.ok());
  const int32_t rows[] = {0, -1};
  uint8_t mask[2] = {0xee, 0xee};
  eq.value().EvalRows(0, rows, 2, mask);
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[1], 0);
  notnull.value().EvalRows(0, rows, 2, mask);
  EXPECT_EQ(mask[0], 1);
  EXPECT_EQ(mask[1], 0);
}

TEST_F(ExprVmTest, UnknownColumnFailsAtCompileTime) {
  for (int column : {3, -1}) {
    auto program =
        CompileFilters(env_, 0, {IntFilter(column, xq::CompareOp::kEq, 1)});
    ASSERT_FALSE(program.ok());
    EXPECT_EQ(program.status().code(), Status::Code::kNotFound);
    EXPECT_NE(program.status().message().find(
                  "no column #" + std::to_string(column) + " in table 'T'"),
              std::string::npos)
        << program.status().ToString();
  }
}

TEST_F(ExprVmTest, OutOfRangeRelationFailsAtCompileTime) {
  opt::JoinEdge edge;
  edge.left_rel = 0;
  edge.left_column = kX;
  edge.right_rel = 5;
  edge.right_column = kY;
  auto program = CompileResiduals(env_, {edge});
  ASSERT_FALSE(program.ok());
  EXPECT_NE(
      program.status().message().find("references relation #5 outside the block"),
      std::string::npos)
      << program.status().ToString();
}

TEST_F(ExprVmTest, UnboundParameterFailsAtBind) {
  // A symbolic constant compiles to a parameter slot; binding without it
  // fails before any row is evaluated.
  opt::FilterPred f;
  f.rel = 0;
  f.column = kX;
  f.op = xq::CompareOp::kEq;
  f.value = xq::Constant::Symbol("c9");
  auto program = CompileFilters(env_, 0, {f});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  Status bound = program.value().BindParams({});
  ASSERT_FALSE(bound.ok());
  EXPECT_NE(bound.message().find("unbound query parameter 'c9'"),
            std::string::npos)
      << bound.ToString();
  EXPECT_EQ(EvalT({f}, {{"c9", Value::Int(20)}}),
            (std::vector<uint8_t>{0, 1, 0, 0}));
}

TEST_F(ExprVmTest, ResidualJoinRequiresBothSidesNonNullAndEqual) {
  opt::JoinEdge edge;
  edge.left_rel = 0;
  edge.left_column = kX;
  edge.right_rel = 1;
  edge.right_column = kY;
  auto program = CompileResiduals(env_, {edge});
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  // Lanes pair T rows {0,1,2,3,0} with U rows {0,2,1,2,-1}:
  //   (10,10)=1  (20,30)=0  (NULL,NULL)=0  (30,30)=1  (10,unbound)=0
  const int32_t trows[] = {0, 1, 2, 3, 0};
  const int32_t urows[] = {0, 2, 1, 2, -1};
  const int32_t* by_rel[] = {trows, urows};
  uint8_t mask[5] = {0xee, 0xee, 0xee, 0xee, 0xee};
  program.value().Eval(LaneView{by_rel, 2, 5}, mask);
  EXPECT_EQ(std::vector<uint8_t>(mask, mask + 5),
            (std::vector<uint8_t>{1, 0, 0, 1, 0}));
}

TEST_F(ExprVmTest, BuilderOrProgram) {
  // x = 10 OR x = 30 — Or is builder-only today (the translator never
  // emits disjunctions), but the bytecode must support it.
  ExprProgramBuilder b;
  auto column = b.AddColumn(env_, 0, kX, "test");
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  const int slot = *column;
  int ten = b.AddConst(Value::Int(10));
  int thirty = b.AddConst(Value::Int(30));
  b.LoadCol(slot).LoadConst(ten).Cmp(xq::CompareOp::kEq);
  b.LoadCol(slot).LoadConst(thirty).Cmp(xq::CompareOp::kEq);
  b.Or();
  auto program = std::move(b).Build();
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  const int32_t rows[] = {0, 1, 2, 3};
  uint8_t mask[4];
  program.value().EvalRows(0, rows, 4, mask);
  EXPECT_EQ(std::vector<uint8_t>(mask, mask + 4),
            (std::vector<uint8_t>{1, 0, 0, 1}));
}

TEST_F(ExprVmTest, MalformedProgramsFailAtBuildTime) {
  {
    ExprProgramBuilder b;
    b.Cmp(xq::CompareOp::kEq);  // nothing on the stack
    auto program = std::move(b).Build();
    ASSERT_FALSE(program.ok());
    EXPECT_NE(program.status().message().find("cmp needs two operands"),
              std::string::npos);
  }
  {
    // A bare column load is not a mask.
    ExprProgramBuilder b;
    auto column = b.AddColumn(env_, 0, kX, "test");
    ASSERT_TRUE(column.ok()) << column.status().ToString();
    b.LoadCol(*column);
    auto program = std::move(b).Build();
    ASSERT_FALSE(program.ok());
    EXPECT_NE(
        program.status().message().find("must leave exactly one mask"),
        std::string::npos);
  }
}

TEST_F(ExprVmTest, BytecodeIsDeterministic) {
  std::vector<opt::FilterPred> filters = {
      IntFilter(kX, xq::CompareOp::kGe, 10),
      IntFilter(kX, xq::CompareOp::kLe, 30)};
  opt::FilterPred nn;
  nn.rel = 0;
  nn.column = kS;
  nn.not_null = true;
  filters.push_back(nn);
  auto a = CompileFilters(env_, 0, filters);
  auto b = CompileFilters(env_, 0, filters);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().Disassemble(), b.value().Disassemble());
  // (load,const,cmp) + (load,const,cmp,and) + (load,test_not_null,and).
  EXPECT_EQ(a.value().num_instructions(), 10u);
  // The rendering names every piece of the predicate.
  std::string dis = a.value().Disassemble();
  EXPECT_NE(dis.find("load_col T.x"), std::string::npos) << dis;
  EXPECT_NE(dis.find("cmp >="), std::string::npos) << dis;
  EXPECT_NE(dis.find("test_not_null"), std::string::npos) << dis;
  EXPECT_NE(dis.find("and"), std::string::npos) << dis;
}

}  // namespace
}  // namespace legodb::engine

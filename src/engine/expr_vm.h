#ifndef LEGODB_ENGINE_EXPR_VM_H_
#define LEGODB_ENGINE_EXPR_VM_H_

// Compiled-predicate bytecode for the vectorized executor.
//
// Filters and residual join predicates are compiled once per plan (see
// engine/prepared.h) into a flat stack-machine bytecode — load-column,
// load-constant, compare, not-null test, and/or — and evaluated
// vector-at-a-time by a dispatch loop: every instruction processes a whole
// batch of lanes before the next instruction runs, writing 0/1 selection
// masks instead of branching per row. The hash-join and index-nested-loop
// operators share the residual program instead of each walking a
// predicate tree per row.
//
// Bytecode grammar (stack effects in brackets):
//
//   program   := instr* ;            final stack = one mask
//   instr     := LoadCol c          [ -> col(c) ]
//              | LoadConst k        [ -> const(k) ]
//              | Cmp op             [ a b -> mask(a op b) ]
//              | TestNotNull        [ a -> mask(a != NULL) ]
//              | And | Or           [ m1 m2 -> m ]
//
// Comparison semantics are exactly the row engine's: a NULL operand (or an
// unbound relation lane) satisfies no comparison, equality is exact typed
// equality, and ordered comparisons additionally require both operands to
// be of the same kind (see xq::ApplyCompare). Columns over all-integer data
// evaluate through a typed int64 fast path; mixed or string columns fall
// back to the generic Value loop.
//
// Compilation resolves column positions against the storage catalog up
// front: columns outside their table fail compilation, and unbound
// parameters fail BindParams before any row is evaluated, with the same
// diagnostics the row engine raised — they never silently drop rows. The
// produced bytecode is deterministic: compiling the same predicate against
// the same tables twice yields identical instruction streams (see
// Disassemble).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "optimizer/plan.h"
#include "storage/database.h"
#include "xquery/ast.h"

namespace legodb::engine {

// The per-lane view a program evaluates over: for each base relation of the
// block, a row-index column (lane -> row position in that relation's
// table), or nullptr when the relation is unbound in every lane. A negative
// row index marks an unbound lane (outer-join miss); column loads treat it
// as NULL.
struct LaneView {
  const int32_t* const* rows_by_rel = nullptr;
  size_t num_rels = 0;
  size_t num_lanes = 0;
};

// One compiled predicate. Immutable after Build(); Eval uses internal
// scratch, so one program instance serves one executor thread at a time
// (operators copy their prepared template per Open, matching that model).
class ExprProgram {
 public:
  enum class OpCode : uint8_t {
    kLoadCol,      // push column slot `a`
    kLoadConst,    // push constant slot `a`
    kCmp,          // pop rhs, pop lhs; push comparison mask (`cmp`)
    kTestNotNull,  // pop operand; push not-null mask
    kAnd,          // pop two masks; push conjunction
    kOr,           // pop two masks; push disjunction
  };

  struct Instr {
    OpCode op = OpCode::kLoadCol;
    xq::CompareOp cmp = xq::CompareOp::kEq;
    int32_t a = -1;  // column / constant slot index
  };

  // A column operand: the relation slot it binds lanes through, the stored
  // column, and its table and position (which Disassemble renders).
  struct ColumnSlot {
    int rel = -1;
    const store::ColumnVector* column = nullptr;
    const store::StoredTable* table = nullptr;
    int position = -1;
  };

  bool empty() const { return instrs_.empty(); }
  size_t num_instructions() const { return instrs_.size(); }

  // Evaluates the program over `view`, writing one 0/1 byte per lane into
  // `mask` (which must hold view.num_lanes bytes). An empty program leaves
  // every lane selected.
  void Eval(const LaneView& view, uint8_t* mask);

  // Convenience for single-relation callers (scans): lanes are row indices
  // of relation `rel`.
  void EvalRows(int rel, const int32_t* rows, size_t n, uint8_t* mask);

  // Deterministic textual rendering of the bytecode, one instruction per
  // line (e.g. "load_col c.name | load_const 'alpha' | cmp =").
  std::string Disassemble() const;

  // --- Parameter slots (prepared templates) -------------------------------
  //
  // A compiled filter is a *template* (see CompileFilters): symbolic query
  // constants stay named parameter slots instead of baking their values
  // in. Copy the template, then BindParams on the copy with that
  // execution's bindings — the copy is then evaluable with no
  // recompilation. A template with unbound slots must not be Eval'd.

  // Substitutes `params` into every parameter slot. InvalidArgument on a
  // missing binding, with the row engine's "unbound query parameter"
  // diagnostic. Binding does not consume the slots: a copied template can
  // be re-bound, and the original template stays untouched.
  Status BindParams(const std::map<std::string, Value>& params);

 private:
  friend class ExprProgramBuilder;

  // Evaluation stack slot: a loaded operand or a computed mask. Masks index
  // into the scratch pool so buffers are reused across Eval calls.
  struct Slot {
    enum class Kind { kCol, kConst, kMask } kind = Kind::kMask;
    int32_t index = -1;  // column slot / constant slot / scratch mask index
  };

  void EvalCmp(const LaneView& view, xq::CompareOp op, const Slot& lhs,
               const Slot& rhs, uint8_t* out);

  std::vector<Instr> instrs_;
  std::vector<ColumnSlot> columns_;
  std::vector<Value> constants_;
  // (constant slot, parameter name) for slots awaiting BindParams.
  std::vector<std::pair<int32_t, std::string>> param_slots_;
  int max_rel_ = -1;

  // Scratch reused across Eval calls (grown, never shrunk).
  std::vector<std::vector<uint8_t>> scratch_;
  std::vector<Slot> stack_;
  std::vector<const int32_t*> relptrs_;  // EvalRows' single-relation view
};

struct ExprEnv;

// Assembles ExprPrograms; the typed compile entry points below use it, and
// tests build arbitrary programs (including Or, which the current
// translator never emits) directly.
class ExprProgramBuilder {
 public:
  // Registers column `column` of relation `rel` of `env` as an operand,
  // resolved as ResolveColumnVector does; returns its slot for LoadCol.
  StatusOr<int> AddColumn(const ExprEnv& env, int rel, int column,
                          const char* what);
  // Registers a constant; returns its slot for LoadConst.
  int AddConst(Value v);
  // Registers a named parameter slot (a constant whose value arrives via
  // BindParams); returns its slot for LoadConst.
  int AddParam(std::string name);

  ExprProgramBuilder& LoadCol(int slot);
  ExprProgramBuilder& LoadConst(int slot);
  ExprProgramBuilder& Cmp(xq::CompareOp op);
  ExprProgramBuilder& TestNotNull();
  ExprProgramBuilder& And();
  ExprProgramBuilder& Or();

  // Validates stack balance (exactly one mask left, no underflow) and
  // returns the program. Internal error on malformed streams.
  StatusOr<ExprProgram> Build() &&;

 private:
  ExprProgram program_;
};

// The tables of the executed block, in relation order, used to fetch
// columns at compile time.
struct ExprEnv {
  std::vector<store::StoredTable*> tables;
};

// Resolves a plan constant to a runtime Value: literal ints/strings
// directly, symbolic parameters through `params` (unbound ones are an
// InvalidArgument, same as the row engine).
StatusOr<Value> ResolveConstant(const std::map<std::string, Value>& params,
                                const xq::Constant& c);

// Resolves column `column` of relation `rel` to its stored column: Internal
// on a relation outside the block (`what` names the predicate kind, e.g.
// "filter" or "hash join"), NotFound on a column outside its table.
StatusOr<const store::ColumnVector*> ResolveColumnVector(const ExprEnv& env,
                                                         int rel, int column,
                                                         const char* what);

// Compiles the subset of `filters` that applies to relation `rel` into one
// conjunctive template program (empty program when none apply). Each
// equality/order filter becomes LoadCol LoadConst Cmp; NOT NULL becomes
// LoadCol TestNotNull; terms are And-chained in filter order. Literals bake
// in; symbolic constants become named parameter slots, so one compilation
// serves any number of executions — copy the template and BindParams the
// copy with that execution's bindings.
StatusOr<ExprProgram> CompileFilters(
    const ExprEnv& env, int rel, const std::vector<opt::FilterPred>& filters);

// Compiles residual join edges into one conjunctive program of column =
// column equalities (LoadCol LoadCol Cmp=). Unbound lanes on either side
// fail the predicate, matching the row engine's ResidualsPass.
StatusOr<ExprProgram> CompileResiduals(const ExprEnv& env,
                                       const std::vector<opt::JoinEdge>& edges);

}  // namespace legodb::engine

#endif  // LEGODB_ENGINE_EXPR_VM_H_

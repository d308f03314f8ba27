//===- tests/ir_test.cpp - IR construction, printing, compare -------------===//

#include <cmath>
#include <gtest/gtest.h>
#include <tuple>

#include "ir/compare.h"
#include "ir/func.h"
#include "ir/printer.h"

using namespace ft;

namespace {

Stmt makeSimpleLoop() {
  // for i in 0:n: a[i] = b[i] + 1
  Expr N = makeLoad("n", {}, DataType::Int64);
  Stmt Body = makeStore(
      "a", {makeVar("i")},
      makeAdd(makeLoad("b", {makeVar("i")}, DataType::Float32),
              makeIntConst(1)));
  return makeFor("i", makeIntConst(0), N, ForProperty{}, Body);
}

TEST(IrTest, KindsAndCasting) {
  Expr E = makeAdd(makeIntConst(1), makeVar("i"));
  ASSERT_TRUE(isa<BinaryNode>(E));
  ASSERT_FALSE(isa<LoadNode>(E));
  auto B = cast<BinaryNode>(E);
  EXPECT_EQ(B->Op, BinOpKind::Add);
  EXPECT_TRUE(isa<IntConstNode>(B->LHS));
  EXPECT_EQ(dyn_cast<VarNode>(B->RHS)->Name, "i");
  EXPECT_EQ(dyn_cast<LoadNode>(E), nullptr);
}

TEST(IrTest, ExprIsNotStmt) {
  Expr E = makeIntConst(3);
  EXPECT_TRUE(E->isExpr());
  Stmt S = makeSimpleLoop();
  EXPECT_TRUE(S->isStmt());
  EXPECT_FALSE(S->isExpr());
}

TEST(IrTest, StmtIdsAreUniqueAndStable) {
  Stmt A = makeSimpleLoop();
  Stmt B = makeSimpleLoop();
  EXPECT_NE(A->Id, B->Id);
  // Explicit ID preservation.
  Stmt C = makeFor("i", makeIntConst(0), makeIntConst(4), ForProperty{},
                   makeStore("a", {makeVar("i")}, makeIntConst(0)), A->Id);
  EXPECT_EQ(C->Id, A->Id);
}

TEST(IrTest, PrinterExpr) {
  Expr E = makeMul(makeAdd(makeVar("i"), makeIntConst(2)),
                   makeLoad("b", {makeVar("j")}, DataType::Float32));
  EXPECT_EQ(toString(E), "((i + 2) * b[j])");
  EXPECT_EQ(toString(makeMin(makeVar("x"), makeIntConst(0))), "min(x, 0)");
  EXPECT_EQ(toString(makeUnary(UnOpKind::Exp, makeVar("x"))), "exp(x)");
}

TEST(IrTest, PrinterStmt) {
  Stmt S = makeSimpleLoop();
  EXPECT_EQ(toString(S), "for i in 0:n\n  a[i] = (b[i] + 1)\n");
}

TEST(IrTest, PrinterVarDefAndReduce) {
  Stmt Red = makeReduceTo("y", {}, ReduceOpKind::Add, makeVar("i"));
  Stmt Def = makeVarDef("y", TensorInfo{{}, DataType::Float32},
                        AccessType::Cache, MemType::CPULocal, Red);
  std::string P = toString(Def);
  EXPECT_NE(P.find("var y: f32[] @cpulocal cache:"), std::string::npos);
  EXPECT_NE(P.find("y += i"), std::string::npos);
}

TEST(IrTest, DeepEqualExpr) {
  Expr A = makeAdd(makeVar("i"), makeIntConst(1));
  Expr B = makeAdd(makeVar("i"), makeIntConst(1));
  Expr C = makeAdd(makeVar("j"), makeIntConst(1));
  EXPECT_TRUE(deepEqual(A, B));
  EXPECT_FALSE(deepEqual(A, C));
  EXPECT_EQ(structuralHash(A), structuralHash(B));
}

TEST(IrTest, DeepEqualStmtIgnoresIds) {
  Stmt A = makeSimpleLoop();
  Stmt B = makeSimpleLoop();
  EXPECT_NE(A->Id, B->Id);
  EXPECT_TRUE(deepEqual(A, B));
}

TEST(IrTest, FindStmtAndVarDef) {
  Stmt Loop = makeSimpleLoop();
  Stmt Def = makeVarDef("a", TensorInfo{{makeIntConst(10)}},
                        AccessType::Output, MemType::CPU, Loop);
  EXPECT_EQ(findStmt(Def, Loop->Id), Loop);
  EXPECT_EQ(findStmt(Def, 999999999), nullptr);
  auto D = findVarDef(Def, "a");
  ASSERT_NE(D, nullptr);
  EXPECT_EQ(D->Name, "a");
  EXPECT_EQ(findVarDef(Def, "zz"), nullptr);
}

TEST(IrTest, FindStmtByLabel) {
  Stmt Loop = makeSimpleLoop();
  Loop->Label = "outer";
  Stmt Def = makeVarDef("a", TensorInfo{{makeIntConst(10)}},
                        AccessType::Output, MemType::CPU, Loop);
  EXPECT_EQ(findStmtByLabel(Def, "outer"), Loop);
  EXPECT_EQ(findStmtByLabel(Def, "nope"), nullptr);
}

TEST(IrTest, DataTypePromotion) {
  EXPECT_EQ(upCast(DataType::Int32, DataType::Int64), DataType::Int64);
  EXPECT_EQ(upCast(DataType::Int64, DataType::Float32), DataType::Float32);
  EXPECT_EQ(upCast(DataType::Bool, DataType::Bool), DataType::Bool);
  EXPECT_EQ(upCast(DataType::Bool, DataType::Int64), DataType::Int64);
  EXPECT_EQ(sizeOf(DataType::Float64), 8u);
  EXPECT_EQ(nameOf(DataType::Float32), "f32");
}

TEST(IrTest, DataTypeOf) {
  Expr L = makeLoad("b", {makeVar("i")}, DataType::Float32);
  EXPECT_EQ(dataTypeOf(L), DataType::Float32);
  EXPECT_EQ(dataTypeOf(makeAdd(L, makeIntConst(1))), DataType::Float32);
  EXPECT_EQ(dataTypeOf(makeLT(makeVar("i"), makeIntConst(3))),
            DataType::Bool);
  EXPECT_EQ(dataTypeOf(makeVar("i")), DataType::Int64);
  EXPECT_EQ(dataTypeOf(makeRealDiv(makeIntConst(1), makeIntConst(2))),
            DataType::Float32);
}

TEST(IrTest, FloatLiteralsAreWeakBesideFloat32) {
  const Expr F32 = makeLoad("x", {makeVar("i")}, DataType::Float32);
  const Expr F64 = makeLoad("w", {makeVar("i")}, DataType::Float64);
  const Expr I64 = makeVar("i");
  const Expr Lit = makeFloatConst(0.999);
  const Expr Big = makeFloatConst(1e300);
  using MakeFn = Expr (*)(Expr, Expr);
  const std::vector<std::pair<const char *, MakeFn>> Arith = {
      {"+", makeAdd}, {"-", makeSub}, {"*", makeMul},
      {"/", makeRealDiv}, {"min", makeMin}, {"max", makeMax},
      // Both branches of a select, the condition fixed.
      {"?:", [](Expr A, Expr B) {
         return makeIfExpr(makeLT(makeVar("i"), makeIntConst(3)), A, B);
       }}};
  // Each row: two operands and the type of (A op B) and of (B op A).
  const std::vector<std::tuple<const char *, Expr, Expr, DataType>> Rows = {
      {"f32 (op) literal", F32, Lit, DataType::Float32},
      {"f64 (op) literal", F64, Lit, DataType::Float64},
      {"i64 (op) literal", I64, Lit, DataType::Float64},
      {"literal (op) literal", makeFloatConst(2.0), Lit, DataType::Float64},
      {"f32 (op) 1e300", F32, Big, DataType::Float64},
  };
  for (const auto &[Op, Make] : Arith)
    for (const auto &[Row, A, B, Want] : Rows) {
      EXPECT_EQ(dataTypeOf(Make(A, B)), Want) << Row << ", op " << Op;
      EXPECT_EQ(dataTypeOf(Make(B, A)), Want)
          << Row << " (swapped), op " << Op;
    }
  // The weak type flows upward: (x * 0.5 + 1.0) stays f32.
  EXPECT_EQ(dataTypeOf(makeAdd(makeMul(F32, makeFloatConst(0.5)),
                               makeFloatConst(1.0))),
            DataType::Float32);
  // Comparisons stay Bool.
  for (MakeFn Cmp : {makeLT, makeLE, makeGT, makeGE, makeEQ, makeNE}) {
    EXPECT_EQ(dataTypeOf(Cmp(F32, Lit)), DataType::Bool);
    EXPECT_EQ(dataTypeOf(Cmp(Lit, F32)), DataType::Bool);
  }
  // Every other rule is unchanged: a literal beside an f32 floor division
  // or modulus still promotes to f64, and so does a non-finite literal.
  EXPECT_EQ(dataTypeOf(makeMod(F32, Lit)), DataType::Float64);
  EXPECT_EQ(dataTypeOf(makeMul(F32, makeFloatConst(INFINITY))),
            DataType::Float64);
}

TEST(IrTest, NeutralValues) {
  Expr Z = neutralValue(ReduceOpKind::Add, DataType::Float32);
  EXPECT_EQ(cast<FloatConstNode>(Z)->Val, 0.0);
  Expr MaxN = neutralValue(ReduceOpKind::Max, DataType::Float32);
  EXPECT_TRUE(cast<FloatConstNode>(MaxN)->Val < -1e300);
  Expr MinI = neutralValue(ReduceOpKind::Min, DataType::Int64);
  EXPECT_EQ(cast<IntConstNode>(MinI)->Val, INT64_MAX);
}

} // namespace

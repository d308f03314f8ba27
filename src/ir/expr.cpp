//===- ir/expr.cpp --------------------------------------------------------===//

#include "ir/expr.h"

#include <cmath>
#include <limits>

using namespace ft;

bool ft::isCompareOp(BinOpKind Op) {
  switch (Op) {
  case BinOpKind::LT:
  case BinOpKind::LE:
  case BinOpKind::GT:
  case BinOpKind::GE:
  case BinOpKind::EQ:
  case BinOpKind::NE:
    return true;
  default:
    return false;
  }
}

bool ft::isLogicOp(BinOpKind Op) {
  return Op == BinOpKind::LAnd || Op == BinOpKind::LOr;
}

Expr ft::makeIntConst(int64_t Val) {
  return std::make_shared<IntConstNode>(Val);
}

Expr ft::makeFloatConst(double Val) {
  return std::make_shared<FloatConstNode>(Val);
}

Expr ft::makeBoolConst(bool Val) {
  return std::make_shared<BoolConstNode>(Val);
}

Expr ft::makeVar(const std::string &Name) {
  return std::make_shared<VarNode>(Name);
}

Expr ft::makeLoad(const std::string &Var, std::vector<Expr> Indices,
                  DataType Dtype) {
  for (const Expr &I : Indices)
    ftAssert(I != nullptr, "null index in Load of " + Var);
  return std::make_shared<LoadNode>(Var, std::move(Indices), Dtype);
}

Expr ft::makeBinary(BinOpKind Op, Expr LHS, Expr RHS) {
  ftAssert(LHS && RHS, "null operand in Binary");
  return std::make_shared<BinaryNode>(Op, std::move(LHS), std::move(RHS));
}

Expr ft::makeUnary(UnOpKind Op, Expr Operand) {
  ftAssert(Operand != nullptr, "null operand in Unary");
  return std::make_shared<UnaryNode>(Op, std::move(Operand));
}

Expr ft::makeIfExpr(Expr Cond, Expr Then, Expr Else) {
  ftAssert(Cond && Then && Else, "null operand in IfExpr");
  return std::make_shared<IfExprNode>(std::move(Cond), std::move(Then),
                                      std::move(Else));
}

Expr ft::makeCast(DataType Dtype, Expr Operand) {
  ftAssert(Operand != nullptr, "null operand in Cast");
  return std::make_shared<CastNode>(Dtype, std::move(Operand));
}

#define FT_DEFINE_BINOP(NAME, KIND)                                           \
  Expr ft::make##NAME(Expr L, Expr R) {                                       \
    return makeBinary(BinOpKind::KIND, std::move(L), std::move(R));           \
  }

FT_DEFINE_BINOP(Add, Add)
FT_DEFINE_BINOP(Sub, Sub)
FT_DEFINE_BINOP(Mul, Mul)
FT_DEFINE_BINOP(RealDiv, RealDiv)
FT_DEFINE_BINOP(FloorDiv, FloorDiv)
FT_DEFINE_BINOP(Mod, Mod)
FT_DEFINE_BINOP(Min, Min)
FT_DEFINE_BINOP(Max, Max)
FT_DEFINE_BINOP(LT, LT)
FT_DEFINE_BINOP(LE, LE)
FT_DEFINE_BINOP(GT, GT)
FT_DEFINE_BINOP(GE, GE)
FT_DEFINE_BINOP(EQ, EQ)
FT_DEFINE_BINOP(NE, NE)
FT_DEFINE_BINOP(LAnd, LAnd)
FT_DEFINE_BINOP(LOr, LOr)

#undef FT_DEFINE_BINOP

Expr ft::makeLNot(Expr X) { return makeUnary(UnOpKind::LNot, std::move(X)); }

namespace {

/// True for a float literal a Float32 partner absorbs: finite and within
/// float range.
bool isWeakFloatLiteral(const Expr &E) {
  auto C = dyn_cast<FloatConstNode>(E);
  return C && std::isfinite(C->Val) &&
         std::fabs(C->Val) <= std::numeric_limits<float>::max();
}

/// The common type of two arithmetic operands or IfExpr branches, of types
/// \p TA and \p TB: a weak float literal takes a Float32 partner's type.
DataType joinTypes(const Expr &A, DataType TA, const Expr &B, DataType TB) {
  if ((TA == DataType::Float32 && isWeakFloatLiteral(B)) ||
      (TB == DataType::Float32 && isWeakFloatLiteral(A)))
    return DataType::Float32;
  return upCast(TA, TB);
}

} // namespace

DataType ft::dataTypeOf(const Expr &E) {
  switch (E->kind()) {
  case NodeKind::IntConst:
    return DataType::Int64;
  case NodeKind::FloatConst:
    return DataType::Float64;
  case NodeKind::BoolConst:
    return DataType::Bool;
  case NodeKind::Var:
    return DataType::Int64;
  case NodeKind::Load:
    return cast<LoadNode>(E)->Dtype;
  case NodeKind::Cast:
    return cast<CastNode>(E)->Dtype;
  case NodeKind::IfExpr: {
    auto IE = cast<IfExprNode>(E);
    return joinTypes(IE->Then, dataTypeOf(IE->Then), IE->Else,
                     dataTypeOf(IE->Else));
  }
  case NodeKind::Unary: {
    auto U = cast<UnaryNode>(E);
    switch (U->Op) {
    case UnOpKind::LNot:
      return DataType::Bool;
    case UnOpKind::Neg:
    case UnOpKind::Abs:
      return dataTypeOf(U->Operand);
    default: {
      // Transcendental intrinsics stay in the operand's float width, or
      // promote integers to Float32.
      DataType T = dataTypeOf(U->Operand);
      return isFloat(T) ? T : DataType::Float32;
    }
    }
  }
  case NodeKind::Binary: {
    auto B = cast<BinaryNode>(E);
    if (isCompareOp(B->Op) || isLogicOp(B->Op))
      return DataType::Bool;
    DataType TL = dataTypeOf(B->LHS), TR = dataTypeOf(B->RHS);
    switch (B->Op) {
    case BinOpKind::RealDiv: {
      DataType T = joinTypes(B->LHS, TL, B->RHS, TR);
      return isFloat(T) ? T : DataType::Float32;
    }
    case BinOpKind::Add:
    case BinOpKind::Sub:
    case BinOpKind::Mul:
    case BinOpKind::Min:
    case BinOpKind::Max:
      return joinTypes(B->LHS, TL, B->RHS, TR);
    default:
      return upCast(TL, TR);
    }
  }
  default:
    ftUnreachable("dataTypeOf applied to a statement");
  }
}

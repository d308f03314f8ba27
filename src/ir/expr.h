//===- ir/expr.h - Expression nodes ------------------------------*- C++ -*-===//
///
/// \file
/// Expression nodes of the FreeTensor IR. Expressions are pure: loop
/// iterators (Var), loads from tensors (Load), constants, and arithmetic /
/// comparison / logical operators, a select (IfExpr), casts, and scalar math
/// intrinsics (as Unary kinds). Fine-grained tensor indexing (paper §3.1)
/// bottoms out in Load nodes whose index expressions may be arbitrary,
/// including indirect accesses such as `e[adj[i, j], k]`.
///
//===----------------------------------------------------------------------===//

#ifndef FT_IR_EXPR_H
#define FT_IR_EXPR_H

#include <string>
#include <vector>

#include "ir/ast.h"
#include "ir/data_type.h"

namespace ft {

/// Base of all expression nodes.
class ExprNode : public ASTNode {
public:
  using ASTNode::ASTNode;

  static bool classof(NodeKind K) { return K < NodeKind::StmtSeq; }
};

using Expr = Ref<ExprNode>;

/// A signed 64-bit integer constant.
class IntConstNode : public ExprNode {
public:
  explicit IntConstNode(int64_t Val)
      : ExprNode(NodeKind::IntConst), Val(Val) {}

  static bool classof(NodeKind K) { return K == NodeKind::IntConst; }

  int64_t Val;
};

/// A floating-point constant (stored as double; Cast narrows).
class FloatConstNode : public ExprNode {
public:
  explicit FloatConstNode(double Val)
      : ExprNode(NodeKind::FloatConst), Val(Val) {}

  static bool classof(NodeKind K) { return K == NodeKind::FloatConst; }

  double Val;
};

/// A boolean constant.
class BoolConstNode : public ExprNode {
public:
  explicit BoolConstNode(bool Val)
      : ExprNode(NodeKind::BoolConst), Val(Val) {}

  static bool classof(NodeKind K) { return K == NodeKind::BoolConst; }

  bool Val;
};

/// A reference to a loop iterator (integer-valued).
class VarNode : public ExprNode {
public:
  explicit VarNode(std::string Name)
      : ExprNode(NodeKind::Var), Name(std::move(Name)) {}

  static bool classof(NodeKind K) { return K == NodeKind::Var; }

  std::string Name;
};

/// A read of one element of the tensor named \c Var. A 0-D tensor (scalar)
/// is loaded with an empty index list.
class LoadNode : public ExprNode {
public:
  LoadNode(std::string Var, std::vector<Expr> Indices, DataType Dtype)
      : ExprNode(NodeKind::Load), Var(std::move(Var)),
        Indices(std::move(Indices)), Dtype(Dtype) {}

  static bool classof(NodeKind K) { return K == NodeKind::Load; }

  std::string Var;
  std::vector<Expr> Indices;
  DataType Dtype;
};

/// Binary operator kinds. Arithmetic operators promote via upCast;
/// comparisons and logical operators yield Bool.
enum class BinOpKind : uint8_t {
  Add,
  Sub,
  Mul,
  RealDiv,  ///< Floating-point division.
  FloorDiv, ///< Integer division, rounding toward negative infinity.
  Mod,      ///< Modulo with the sign of the divisor (Python semantics).
  Min,
  Max,
  LT,
  LE,
  GT,
  GE,
  EQ,
  NE,
  LAnd,
  LOr,
};

/// Returns true for LT..NE.
bool isCompareOp(BinOpKind Op);

/// Returns true for LAnd/LOr.
bool isLogicOp(BinOpKind Op);

/// A binary operation.
class BinaryNode : public ExprNode {
public:
  BinaryNode(BinOpKind Op, Expr LHS, Expr RHS)
      : ExprNode(NodeKind::Binary), Op(Op), LHS(std::move(LHS)),
        RHS(std::move(RHS)) {}

  static bool classof(NodeKind K) { return K == NodeKind::Binary; }

  BinOpKind Op;
  Expr LHS, RHS;
};

/// Unary operator kinds, including the scalar math intrinsics the DSL's
/// libop lowers to.
enum class UnOpKind : uint8_t {
  Neg,
  LNot,
  Abs,
  Sqrt,
  Exp,
  Ln,
  Sigmoid,
  Tanh,
};

/// A unary operation.
class UnaryNode : public ExprNode {
public:
  UnaryNode(UnOpKind Op, Expr Operand)
      : ExprNode(NodeKind::Unary), Op(Op), Operand(std::move(Operand)) {}

  static bool classof(NodeKind K) { return K == NodeKind::Unary; }

  UnOpKind Op;
  Expr Operand;
};

/// A select expression: Cond ? Then : Else.
class IfExprNode : public ExprNode {
public:
  IfExprNode(Expr Cond, Expr Then, Expr Else)
      : ExprNode(NodeKind::IfExpr), Cond(std::move(Cond)),
        Then(std::move(Then)), Else(std::move(Else)) {}

  static bool classof(NodeKind K) { return K == NodeKind::IfExpr; }

  Expr Cond, Then, Else;
};

/// An explicit conversion to \c Dtype.
class CastNode : public ExprNode {
public:
  CastNode(DataType Dtype, Expr Operand)
      : ExprNode(NodeKind::Cast), Dtype(Dtype), Operand(std::move(Operand)) {}

  static bool classof(NodeKind K) { return K == NodeKind::Cast; }

  DataType Dtype;
  Expr Operand;
};

//===----------------------------------------------------------------------===//
// Factory helpers. These are the only way passes should create expressions;
// they keep construction sites terse and give one place to add invariants.
//===----------------------------------------------------------------------===//

Expr makeIntConst(int64_t Val);
Expr makeFloatConst(double Val);
Expr makeBoolConst(bool Val);
Expr makeVar(const std::string &Name);
Expr makeLoad(const std::string &Var, std::vector<Expr> Indices,
              DataType Dtype);
Expr makeBinary(BinOpKind Op, Expr LHS, Expr RHS);
Expr makeUnary(UnOpKind Op, Expr Operand);
Expr makeIfExpr(Expr Cond, Expr Then, Expr Else);
Expr makeCast(DataType Dtype, Expr Operand);

Expr makeAdd(Expr L, Expr R);
Expr makeSub(Expr L, Expr R);
Expr makeMul(Expr L, Expr R);
Expr makeRealDiv(Expr L, Expr R);
Expr makeFloorDiv(Expr L, Expr R);
Expr makeMod(Expr L, Expr R);
Expr makeMin(Expr L, Expr R);
Expr makeMax(Expr L, Expr R);
Expr makeLT(Expr L, Expr R);
Expr makeLE(Expr L, Expr R);
Expr makeGT(Expr L, Expr R);
Expr makeGE(Expr L, Expr R);
Expr makeEQ(Expr L, Expr R);
Expr makeNE(Expr L, Expr R);
Expr makeLAnd(Expr L, Expr R);
Expr makeLOr(Expr L, Expr R);
Expr makeLNot(Expr X);

/// Infers the result type of \p E. Load carries its own type; Var iterators
/// are Int64; comparisons and logic are Bool; arithmetic promotes. A float
/// literal is Float64 on its own but weak next to a Float32 partner: as an
/// operand of + - * / min max, or as an IfExpr branch, a finite literal
/// within float range takes the partner's Float32 type, the way a Python
/// scalar does beside a float32 array in NumPy or PyTorch.
DataType dataTypeOf(const Expr &E);

} // namespace ft

#endif // FT_IR_EXPR_H

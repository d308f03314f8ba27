//===- codegen/codegen.cpp ------------------------------------------------===//

#include "codegen/codegen.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>

#include "analysis/ragged.h"
#include "analysis/vector_legality.h"
#include "support/error.h"
#include "support/string_utils.h"
#include "support/trace.h"

using namespace ft;

namespace {

/// True when the subtree contains a For or GemmCall. Explicit-width SIMD
/// lowering is restricted to loops without either: only innermost bodies
/// become `omp simd` regions, which also keeps profile counters (declared
/// per child loop) out of simd scopes where they would race.
bool hasLoopOrGemm(const Stmt &S) {
  switch (S->kind()) {
  case NodeKind::StmtSeq:
    for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
      if (hasLoopOrGemm(Sub))
        return true;
    return false;
  case NodeKind::VarDef:
    return hasLoopOrGemm(cast<VarDefNode>(S)->Body);
  case NodeKind::If: {
    auto I = cast<IfNode>(S);
    return hasLoopOrGemm(I->Then) ||
           (I->Else != nullptr && hasLoopOrGemm(I->Else));
  }
  case NodeKind::For:
  case NodeKind::GemmCall:
    return true;
  default:
    return false;
  }
}

/// True when any loop carries a proven explicit SIMD width.
bool hasVectorLoop(const Stmt &S) {
  switch (S->kind()) {
  case NodeKind::StmtSeq:
    for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
      if (hasVectorLoop(Sub))
        return true;
    return false;
  case NodeKind::VarDef:
    return hasVectorLoop(cast<VarDefNode>(S)->Body);
  case NodeKind::If: {
    auto I = cast<IfNode>(S);
    return hasVectorLoop(I->Then) ||
           (I->Else != nullptr && hasVectorLoop(I->Else));
  }
  case NodeKind::For: {
    auto L = cast<ForNode>(S);
    return L->Property.VectorWidth > 0 || hasVectorLoop(L->Body);
  }
  default:
    return false;
  }
}

/// Appends the profiler slots of \p S's For and GemmCall statements in
/// pre-order.
void collectProfileSlots(const Stmt &S, std::vector<int64_t> &Ids) {
  switch (S->kind()) {
  case NodeKind::StmtSeq:
    for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
      collectProfileSlots(Sub, Ids);
    return;
  case NodeKind::VarDef:
    return collectProfileSlots(cast<VarDefNode>(S)->Body, Ids);
  case NodeKind::If: {
    auto I = cast<IfNode>(S);
    collectProfileSlots(I->Then, Ids);
    if (I->Else)
      collectProfileSlots(I->Else, Ids);
    return;
  }
  case NodeKind::For:
    Ids.push_back(S->Id);
    return collectProfileSlots(cast<ForNode>(S)->Body, Ids);
  case NodeKind::GemmCall:
    Ids.push_back(S->Id);
    return;
  default:
    return;
  }
}

/// OpenMP reduction identifier for a ReduceTo operator.
const char *ompReduceId(ReduceOpKind Op) {
  switch (Op) {
  case ReduceOpKind::Add:
    return "+";
  case ReduceOpKind::Mul:
    return "*";
  case ReduceOpKind::Min:
    return "min";
  case ReduceOpKind::Max:
    return "max";
  }
  ftUnreachable("unknown reduce op");
}

/// A C++ float literal for \p V rounded to float: the shortest decimal that
/// reads back as the same float, with an `f` suffix.
std::string fmtFloatLiteral(double V) {
  const float F = static_cast<float>(V);
  char Buf[32];
  for (int Prec = 6; Prec <= 9; ++Prec) {
    std::snprintf(Buf, sizeof(Buf), "%.*g", Prec, double(F));
    if (std::strtof(Buf, nullptr) == F)
      break;
  }
  std::string S = Buf;
  if (S.find_first_of(".e") == std::string::npos)
    S += ".0";
  return S + "f";
}

const char *cppType(DataType DT) {
  switch (DT) {
  case DataType::Float32:
    return "float";
  case DataType::Float64:
    return "double";
  case DataType::Int32:
    return "int32_t";
  case DataType::Int64:
    return "int64_t";
  case DataType::Bool:
    return "bool";
  }
  ftUnreachable("unknown dtype");
}

class CppEmitter {
public:
  std::string run(const Func &F, const CodegenOptions &Opts) {
    this->F = &F;
    Profile = Opts.Profile;
    // Parameter pointers become __restrict__ only when some loop was proven
    // for explicit SIMD: the proof's no-aliasing contract is then enforced
    // at call time (Kernel::run rejects duplicate pointers), and programs
    // without the new primitive keep byte-identical emission.
    HasVectorLoops = hasVectorLoop(F.Body);
    Out.clear();
    if (Profile) {
      std::vector<int64_t> SlotIds = profileSlotIds(F);
      for (uint32_t S = 0; S < SlotIds.size(); ++S)
        SlotOf[SlotIds[S]] = S;
    }
    Out += "// Generated by the FreeTensor reproduction CPU backend.\n";
    Out += "#include \"ft_prelude.h\"\n\n";
    std::string Sym = identOf("fn." + F.Name);
    Out += "extern \"C\" void " + Sym +
           "(void **params, ft_rt_ctx *_ft_ctx) {\n";
    Indent = 1;
    if (Profile) {
      // __restrict: counter stores on the cold (sampled) path must not
      // force tensor values out of registers in the hot loops.
      line("ft::rt::ProfileEntry *__restrict _ft_prof = "
           "ft::rt::profSlots(_ft_ctx, 0);");
      line("ft::rt::ProfileEntry &_ft_p0 = _ft_prof[0];");
      line("_ft_p0.Calls += 1; _ft_p0.Iters += 1;");
      // The timing decision is made once per invocation: 1 in 64 runs is
      // fully timed, the rest pay only counter accumulation. Per-call
      // sampling math inside the loops costs >20% on fine-grained kernels;
      // a single invocation-scoped flag lets -O3 unswitch the brackets out
      // of the hot loop versions entirely.
      line("const bool _ft_on = (_ft_ctx->seq & 63) == 1;");
      line("const uint64_t _ft_t0 = _ft_on ? ft::rt::profClock() : 0;");
    }
    emitStmt(F.Body);
    if (Profile) {
      // Root bracket gated like the loops, so every level extrapolates
      // from the same sampled invocations and stays mutually consistent.
      line("if (_ft_on) {");
      line("  _ft_p0.TimedCalls += 1; _ft_p0.TimedIters += 1;");
      line("  _ft_p0.Ns += ft::rt::profClock() - _ft_t0;");
      line("}");
    }
    Out += "}\n";
    return Out;
  }

  /// Sanitized, unique C identifier for an IR name.
  std::string identOf(const std::string &Name) {
    auto It = Idents.find(Name);
    if (It != Idents.end())
      return It->second;
    std::string Id = "v_";
    for (char C : Name)
      Id += (std::isalnum(static_cast<unsigned char>(C)) != 0) ? C : '_';
    std::string Base = Id;
    int Suffix = 0;
    while (UsedIdents.count(Id))
      Id = Base + "_" + std::to_string(++Suffix);
    UsedIdents.insert(Id);
    Idents[Name] = Id;
    return Id;
  }

private:
  struct TensorDesc {
    std::string Ident;
    DataType DT = DataType::Float32;
    int NDim = 0;
    bool PlainScalar = false; ///< 0-D Cache lowered to a local variable.
    AccessType ATy = AccessType::Cache;
    std::vector<std::string> DimVars;
  };

  void line(const std::string &Text) {
    Out.append(2 * Indent, ' ');
    Out += Text;
    Out += "\n";
  }

  //===-- Expressions -----------------------------------------------------===//

  std::string emitExpr(const Expr &E) {
    switch (E->kind()) {
    case NodeKind::IntConst:
      return "int64_t(" + std::to_string(cast<IntConstNode>(E)->Val) + "ll)";
    case NodeKind::FloatConst:
      return fmtDouble(cast<FloatConstNode>(E)->Val);
    case NodeKind::BoolConst:
      return cast<BoolConstNode>(E)->Val ? "true" : "false";
    case NodeKind::Var:
      return identOf(cast<VarNode>(E)->Name);
    case NodeKind::Load: {
      auto L = cast<LoadNode>(E);
      return ref(L->Var, L->Indices);
    }
    case NodeKind::Cast: {
      auto C = cast<CastNode>(E);
      return "(" + std::string(cppType(C->Dtype)) + ")(" +
             emitExpr(C->Operand) + ")";
    }
    case NodeKind::IfExpr: {
      auto IE = cast<IfExprNode>(E);
      DataType T = dataTypeOf(E);
      return "(" + emitExpr(IE->Cond) + " ? " + emitOperand(IE->Then, T) +
             " : " + emitOperand(IE->Else, T) + ")";
    }
    case NodeKind::Unary: {
      auto U = cast<UnaryNode>(E);
      std::string X = emitExpr(U->Operand);
      switch (U->Op) {
      case UnOpKind::Neg:
        return "(-" + X + ")";
      case UnOpKind::LNot:
        return "(!" + X + ")";
      case UnOpKind::Abs:
        return "ft::rt::abs(" + X + ")";
      case UnOpKind::Sqrt:
        return "ft::rt::sqrt(" + X + ")";
      case UnOpKind::Exp:
        return "ft::rt::exp(" + X + ")";
      case UnOpKind::Ln:
        return "ft::rt::log(" + X + ")";
      case UnOpKind::Sigmoid:
        return "ft::rt::sigmoid(" + X + ")";
      case UnOpKind::Tanh:
        return "ft::rt::tanh(" + X + ")";
      }
      ftUnreachable("unknown unary");
    }
    case NodeKind::Binary: {
      auto B = cast<BinaryNode>(E);
      DataType CT = dataTypeOf(E);
      std::string L = emitOperand(B->LHS, CT), R = emitOperand(B->RHS, CT);
      switch (B->Op) {
      case BinOpKind::Add:
        return "(" + L + " + " + R + ")";
      case BinOpKind::Sub:
        return "(" + L + " - " + R + ")";
      case BinOpKind::Mul:
        return "(" + L + " * " + R + ")";
      case BinOpKind::RealDiv: {
        const char *FT = isFloat(CT) ? cppType(CT) : "float";
        return "((" + std::string(FT) + ")(" + L + ") / (" + FT + ")(" + R +
               "))";
      }
      case BinOpKind::FloorDiv:
        return "ft::rt::floorDiv(" + L + ", " + R + ")";
      case BinOpKind::Mod:
        return "ft::rt::floorMod(" + L + ", " + R + ")";
      case BinOpKind::Min:
        return "ft::rt::min<" + std::string(cppType(CT)) + ">(" + L + ", " + R +
               ")";
      case BinOpKind::Max:
        return "ft::rt::max<" + std::string(cppType(CT)) + ">(" + L + ", " + R +
               ")";
      case BinOpKind::LT:
        return "(" + L + " < " + R + ")";
      case BinOpKind::LE:
        return "(" + L + " <= " + R + ")";
      case BinOpKind::GT:
        return "(" + L + " > " + R + ")";
      case BinOpKind::GE:
        return "(" + L + " >= " + R + ")";
      case BinOpKind::EQ:
        return "(" + L + " == " + R + ")";
      case BinOpKind::NE:
        return "(" + L + " != " + R + ")";
      case BinOpKind::LAnd:
        return "(" + L + " && " + R + ")";
      case BinOpKind::LOr:
        return "(" + L + " || " + R + ")";
      }
      ftUnreachable("unknown binary");
    }
    default:
      ftUnreachable("statement kind in emitExpr");
    }
  }

  /// An operand of an expression of type \p T: a float literal there is
  /// Float32 exactly when its partner absorbed it (see dataTypeOf).
  std::string emitOperand(const Expr &X, DataType T) {
    if (T == DataType::Float32 && isa<FloatConstNode>(X))
      return fmtFloatLiteral(cast<FloatConstNode>(X)->Val);
    return emitExpr(X);
  }

  /// An lvalue string for one element of a tensor.
  std::string ref(const std::string &Var, const std::vector<Expr> &Indices) {
    auto It = Tensors.find(Var);
    ftAssert(It != Tensors.end(), "codegen: unknown tensor " + Var);
    const TensorDesc &T = It->second;
    if (T.PlainScalar)
      return T.Ident;
    if (T.NDim == 0)
      return T.Ident + "[0]";
    ftAssert(static_cast<int>(Indices.size()) == T.NDim,
             "codegen: index rank mismatch on " + Var);
    std::string Flat = "(" + emitExpr(Indices[0]) + ")";
    for (int D = 1; D < T.NDim; ++D)
      Flat = "(" + Flat + " * " + T.DimVars[D] + " + (" +
             emitExpr(Indices[D]) + "))";
    return T.Ident + "[" + Flat + "]";
  }

  //===-- Statements -------------------------------------------------------===//

  void emitVarDef(const Ref<VarDefNode> &D) {
    TensorDesc T;
    T.Ident = identOf(D->Name);
    T.DT = D->Info.Dtype;
    T.NDim = static_cast<int>(D->Info.Shape.size());
    T.ATy = D->ATy;

    // Per-dimension extent locals (used for indexing).
    bool AllConst = true;
    int64_t ConstProd = 1;
    for (int Dm = 0; Dm < T.NDim; ++Dm) {
      std::string DimVar = T.Ident + "_d" + std::to_string(Dm);
      line("const int64_t " + DimVar + " = " +
           emitExpr(D->Info.Shape[Dm]) + ";");
      T.DimVars.push_back(DimVar);
      if (auto IC = dyn_cast<IntConstNode>(D->Info.Shape[Dm]))
        ConstProd *= IC->Val;
      else
        AllConst = false;
    }

    const char *ET = cppType(T.DT);
    if (D->ATy != AccessType::Cache) {
      // Parameter: bind from the ABI array.
      size_t Pos = 0;
      for (; Pos < F->Params.size(); ++Pos)
        if (F->Params[Pos] == D->Name)
          break;
      ftAssert(Pos < F->Params.size(),
               "non-cache VarDef is not a parameter: " + D->Name);
      line(std::string(ET) + " *" + (HasVectorLoops ? "__restrict__ " : "") +
           T.Ident + " = (" + ET + " *)params[" + std::to_string(Pos) +
           "];");
    } else if (T.NDim == 0) {
      T.PlainScalar = true;
      line(std::string(ET) + " " + T.Ident + ";");
    } else if (D->MTy == MemType::CPULocal && AllConst &&
               ConstProd <= (1 << 14)) {
      line(std::string(ET) + " " + T.Ident + "[" +
           std::to_string(ConstProd) + "];");
    } else {
      std::string Size = T.DimVars[0];
      for (int Dm = 1; Dm < T.NDim; ++Dm)
        Size += " * " + T.DimVars[Dm];
      // Heap-backed tensors come from the host allocator, which also does
      // the memory accounting of profiled calls; stack arrays and register
      // scalars are the on-chip tier.
      line("ft::rt::Heap<" + std::string(ET) + "> " + T.Ident +
           "_storage(_ft_ctx, " + Size + ");");
      line(std::string(ET) + " *" + T.Ident + " = " + T.Ident +
           "_storage.P;");
    }

    auto Saved = Tensors.find(D->Name);
    std::optional<TensorDesc> Shadowed;
    if (Saved != Tensors.end())
      Shadowed = Saved->second;
    Tensors[D->Name] = T;
    emitStmt(D->Body);
    if (Shadowed)
      Tensors[D->Name] = *Shadowed;
    else
      Tensors.erase(D->Name);
  }

  void emitStmt(const Stmt &S) {
    switch (S->kind()) {
    case NodeKind::StmtSeq:
      for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
        emitStmt(Sub);
      return;
    case NodeKind::VarDef: {
      auto D = cast<VarDefNode>(S);
      line("{");
      ++Indent;
      emitVarDef(D);
      --Indent;
      line("}");
      return;
    }
    case NodeKind::Store: {
      auto St = cast<StoreNode>(S);
      line(ref(St->Var, St->Indices) + " = " + emitExpr(St->Value) + ";");
      return;
    }
    case NodeKind::ReduceTo: {
      auto R = cast<ReduceToNode>(S);
      DataType DT = Tensors.at(R->Var).DT;
      emitReduceOp(ref(R->Var, R->Indices), DT, R->Op, R->Atomic,
                   "(" + std::string(cppType(DT)) + ")(" +
                       emitExpr(R->Value) + ")");
      return;
    }
    case NodeKind::For: {
      auto L = cast<ForNode>(S);
      std::string It = identOf(L->Iter);
      std::string B = emitExpr(L->Begin), E = emitExpr(L->End);
      if (Profile) {
        emitProfiledFor(L, It, B, E);
        return;
      }
      if (L->Property.Parallel) {
        line("ft::rt::parallelFor(_ft_ctx, " + B + ", " + E +
             ", [&](int64_t " + It + ") {");
        ++Indent;
        emitStmt(L->Body);
        --Indent;
        line("});");
        return;
      }
      // Ragged segment loops (DESIGN.md §17): hoist the data-dependent
      // bounds into per-row locals so the for-header does not re-load
      // `indptr[i+1]` every iteration. Static programs never match
      // raggedBoundOf, keeping their emission byte-identical.
      if (raggedBoundOf(L->Begin) || raggedBoundOf(L->End)) {
        std::string Slot = std::to_string(RaggedSlot++);
        line("const int64_t _ft_sb" + Slot + " = " + B + ";");
        line("const int64_t _ft_se" + Slot + " = " + E + ";");
        B = "_ft_sb" + Slot;
        E = "_ft_se" + Slot;
      }
      emitSerialFor(L, It, B, E);
      return;
    }
    case NodeKind::If: {
      auto I = cast<IfNode>(S);
      line("if (" + emitExpr(I->Cond) + ") {");
      ++Indent;
      emitStmt(I->Then);
      --Indent;
      if (I->Else) {
        line("} else {");
        ++Indent;
        emitStmt(I->Else);
        --Indent;
      }
      line("}");
      return;
    }
    case NodeKind::GemmCall: {
      auto G = cast<GemmCallNode>(S);
      std::string Call = "ft::rt::gemm<" + std::string(cppType(G->Dtype)) +
                         ">(_ft_ctx, " + (G->TransA ? "true" : "false") + ", " +
                         (G->TransB ? "true" : "false") + ", " +
                         emitExpr(G->M) + ", " + emitExpr(G->N) + ", " +
                         emitExpr(G->K) + ", " + Tensors.at(G->A).Ident +
                         ", " + Tensors.at(G->B).Ident + ", " +
                         Tensors.at(G->C).Ident + ");";
      if (!Profile) {
        line(Call);
        return;
      }
      std::string Sl = std::to_string(SlotOf.at(G->Id));
      line("{");
      ++Indent;
      line("ft::rt::ProfileEntry &_ft_p" + Sl + " = _ft_prof[" + Sl + "];");
      line("const uint64_t _ft_t" + Sl +
           " = _ft_on ? ft::rt::profClock() : 0;");
      line(Call);
      line("_ft_p" + Sl + ".Calls += 1; _ft_p" + Sl + ".Iters += 1;");
      line("if (_ft_on) {");
      ++Indent;
      line("_ft_p" + Sl + ".Ns += ft::rt::profClock() - _ft_t" + Sl + ";");
      line("_ft_p" + Sl + ".TimedCalls += 1; _ft_p" + Sl +
           ".TimedIters += 1;");
      --Indent;
      line("}");
      --Indent;
      line("}");
      return;
    }
    default:
      ftUnreachable("expression kind in emitStmt");
    }
  }

  /// Emits "Lv op= V;" in the operator's canonical form (or the runtime
  /// atomic helper when \p Atomic). Shared by the plain ReduceTo statement
  /// and the SIMD reduction lowering's accumulator update and final fold.
  void emitReduceOp(const std::string &Lv, DataType DT, ReduceOpKind Op,
                    bool Atomic, const std::string &V) {
    if (Atomic) {
      const char *Fn = nullptr;
      switch (Op) {
      case ReduceOpKind::Add:
        Fn = "atomicAdd";
        break;
      case ReduceOpKind::Mul:
        Fn = "atomicMul";
        break;
      case ReduceOpKind::Min:
        Fn = "atomicMin";
        break;
      case ReduceOpKind::Max:
        Fn = "atomicMax";
        break;
      }
      line("ft::rt::" + std::string(Fn) + "(&" + Lv + ", " + V + ");");
      return;
    }
    switch (Op) {
    case ReduceOpKind::Add:
      line(Lv + " += " + V + ";");
      return;
    case ReduceOpKind::Mul:
      line(Lv + " *= " + V + ";");
      return;
    case ReduceOpKind::Min:
      line(Lv + " = ft::rt::min<" + std::string(cppType(DT)) + ">(" + Lv +
           ", " + V + ");");
      return;
    case ReduceOpKind::Max:
      line(Lv + " = ft::rt::max<" + std::string(cppType(DT)) + ">(" + Lv +
           ", " + V + ");");
      return;
    }
    ftUnreachable("unknown reduce op");
  }

  /// Serial For emission shared by the plain and profiled paths, so the
  /// vector/unroll lowering cannot drift between them. Loops proven at an
  /// explicit width lower to `omp simd` bodies; everything else keeps the
  /// historical hint pragmas byte for byte.
  void emitSerialFor(const Ref<ForNode> &L, const std::string &It,
                     const std::string &B, const std::string &E) {
    if (L->Property.VectorWidth > 1 && !hasLoopOrGemm(L->Body)) {
      emitSimdFor(L, It, B, E);
      return;
    }
    if (L->Property.Vectorize)
      line("#pragma GCC ivdep");
    if (L->Property.UnrollFactor > 0)
      line("#pragma GCC unroll " + std::to_string(L->Property.UnrollFactor));
    else if (L->Property.Unroll)
      line("#pragma GCC unroll 8");
    line("for (int64_t " + It + " = " + B + "; " + It + " < " + E + "; ++" +
         It + ") {");
    ++Indent;
    emitStmt(L->Body);
    --Indent;
    line("}");
  }

  /// Explicit-width SIMD lowering for a loop proven by
  /// `vectorize(LoopId, Width)`. Mirrors analyzeVectorLegality exactly: the
  /// single-accumulator reduction pattern privatizes the accumulator under
  /// a `reduction(op:...)` clause and folds once after the loop; any other
  /// proven loop runs its main body bounded to a multiple of Width under
  /// `omp simd simdlen(Width)` with a scalar remainder loop. Parameter
  /// tensors with a stride-1 access get an `aligned(p:64)` clause (Buffer
  /// storage is 64-byte aligned); Cache tensors (vector/stack storage) make
  /// no alignment promise.
  void emitSimdFor(const Ref<ForNode> &L, const std::string &It,
                   const std::string &B, const std::string &E) {
    const std::string W = std::to_string(L->Property.VectorWidth);
    auto IsParam = [this](const std::string &N) {
      auto TIt = Tensors.find(N);
      return TIt != Tensors.end() &&
             TIt->second.ATy == AccessType::Input && TIt->second.NDim == 0 &&
             isInt(TIt->second.DT);
    };
    std::set<std::string> AlignedIdents;
    for (const VecAccess &A : classifyVectorAccesses(L, IsParam))
      if (A.Class == VecAccessClass::Stride1) {
        auto TIt = Tensors.find(A.Var);
        if (TIt != Tensors.end() && TIt->second.ATy != AccessType::Cache)
          AlignedIdents.insert(TIt->second.Ident);
      }
    std::string Aligned;
    for (const std::string &Id : AlignedIdents)
      Aligned += (Aligned.empty() ? " aligned(" : ",") + Id;
    if (!Aligned.empty())
      Aligned += ":64)";

    if (auto M = matchVectorReduction(L)) {
      const auto &R = M->Red;
      DataType DT = Tensors.at(R->Var).DT;
      std::string T = cppType(DT);
      line("{");
      ++Indent;
      line("const int64_t _ft_vb = " + B + ", _ft_ve = " + E + ";");
      line(T + " _ft_acc = (" + T + ")(" + emitExpr(neutralValue(R->Op, DT)) +
           ");");
      line("#pragma omp simd simdlen(" + W + ") reduction(" +
           ompReduceId(R->Op) + ":_ft_acc)" + Aligned);
      line("for (int64_t " + It + " = _ft_vb; " + It + " < _ft_ve; ++" + It +
           ") {");
      ++Indent;
      emitReduceOp("_ft_acc", DT, R->Op, false,
                   "(" + T + ")(" + emitExpr(R->Value) + ")");
      --Indent;
      line("}");
      emitReduceOp(ref(R->Var, R->Indices), DT, R->Op, R->Atomic, "_ft_acc");
      --Indent;
      line("}");
      return;
    }

    line("{");
    ++Indent;
    line("const int64_t _ft_vb = " + B + ", _ft_ve = " + E + ";");
    line("const int64_t _ft_vm = _ft_vb + ((_ft_ve - _ft_vb) / " + W +
         ") * " + W + ";");
    line("#pragma omp simd simdlen(" + W + ")" + Aligned);
    line("for (int64_t " + It + " = _ft_vb; " + It + " < _ft_vm; ++" + It +
         ") {");
    ++Indent;
    emitStmt(L->Body);
    --Indent;
    line("}");
    line("// scalar remainder for the non-multiple extent");
    line("for (int64_t " + It + " = _ft_vm; " + It + " < _ft_ve; ++" + It +
         ") {");
    ++Indent;
    emitStmt(L->Body);
    --Indent;
    line("}");
    --Indent;
    line("}");
  }

  /// Slots of the loops directly nested in \p S — reachable without
  /// crossing another For. Their call-site counters fire once per
  /// iteration of the enclosing loop, so the enclosing loop keeps them in
  /// local accumulators and flushes to the table once after its own loop.
  void directChildLoopSlots(const Stmt &S, std::vector<uint32_t> &Out) const {
    switch (S->kind()) {
    case NodeKind::StmtSeq:
      for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
        directChildLoopSlots(Sub, Out);
      return;
    case NodeKind::VarDef:
      directChildLoopSlots(cast<VarDefNode>(S)->Body, Out);
      return;
    case NodeKind::If: {
      auto I = cast<IfNode>(S);
      directChildLoopSlots(I->Then, Out);
      if (I->Else)
        directChildLoopSlots(I->Else, Out);
      return;
    }
    case NodeKind::For:
      Out.push_back(SlotOf.at(S->Id));
      return;
    default: // GemmCall keeps direct (always-timed) updates; rest inert.
      return;
    }
  }

  /// Profile-mode For emission: bounds hoisted once, exact call/iteration
  /// counters, and a wall-clock bracket gated on the invocation-scoped
  /// `_ft_on` flag (1 in 64 kernel invocations is fully timed; see the
  /// kernel prologue). Per-call sampling math inside the loops costs >20%
  /// on fine-grained workloads like GAT, while an invocation-invariant
  /// flag lets -O3 unswitch every bracket out of the hot loop versions.
  /// A serial loop additionally hoists its direct children's Calls/Iters
  /// into local accumulators (register-resident) and flushes them to the
  /// table once after the loop, so a hot call-site pays two register adds
  /// instead of two memory read-modify-writes. parallelFor bodies receive
  /// the executing thread's identity and fetch its private slot array for
  /// this call, so worker-side counters stay atomics-free.
  void emitProfiledFor(const Ref<ForNode> &L, const std::string &It,
                       const std::string &B, const std::string &E) {
    uint32_t Slot = SlotOf.at(L->Id);
    std::string Sl = std::to_string(Slot);
    std::string P = "_ft_p" + Sl;
    std::string BV = "_ft_b" + Sl, EV = "_ft_e" + Sl;
    std::string NV = "_ft_n" + Sl, TV = "_ft_t" + Sl;
    bool Accum = AccumSlots.count(Slot) > 0;
    line("{");
    ++Indent;
    line("const int64_t " + BV + " = " + B + ", " + EV + " = " + E + ";");
    line("const uint64_t " + NV + " = " + EV + " > " + BV + " ? uint64_t(" +
         EV + " - " + BV + ") : 0u;");
    if (Accum) {
      line("_ft_c" + Sl + " += 1; _ft_i" + Sl + " += " + NV + ";");
    } else {
      line("ft::rt::ProfileEntry &" + P + " = _ft_prof[" + Sl + "];");
      line(P + ".Calls += 1; " + P + ".Iters += " + NV + ";");
    }
    line("const uint64_t " + TV + " = _ft_on ? ft::rt::profClock() : 0;");
    // Children inside a parallel body write the worker's private slots, so
    // their counters cannot accumulate into the serial scope's locals.
    std::vector<uint32_t> Kids;
    if (!L->Property.Parallel)
      directChildLoopSlots(L->Body, Kids);
    for (uint32_t C : Kids) {
      std::string Cs = std::to_string(C);
      line("uint64_t _ft_c" + Cs + " = 0, _ft_i" + Cs + " = 0;");
      AccumSlots.insert(C);
    }
    if (L->Property.Parallel) {
      line("ft::rt::parallelFor(_ft_ctx, " + BV + ", " + EV +
           ", [&](int64_t " + It + ", int _ft_w) {");
      ++Indent;
      line("ft::rt::ProfileEntry *const __restrict _ft_prof = "
           "ft::rt::profSlots(_ft_ctx, _ft_w);");
      line("(void)_ft_prof;");
      emitStmt(L->Body);
      --Indent;
      line("});");
    } else {
      emitSerialFor(L, It, BV, EV);
    }
    for (uint32_t C : Kids) {
      std::string Cs = std::to_string(C);
      line("_ft_prof[" + Cs + "].Calls += _ft_c" + Cs + "; _ft_prof[" + Cs +
           "].Iters += _ft_i" + Cs + ";");
      AccumSlots.erase(C);
    }
    line("if (_ft_on) {");
    ++Indent;
    line("ft::rt::ProfileEntry &_ft_tp" + Sl + " = _ft_prof[" + Sl + "];");
    line("_ft_tp" + Sl + ".Ns += ft::rt::profClock() - " + TV + ";");
    line("_ft_tp" + Sl + ".TimedCalls += 1; _ft_tp" + Sl + ".TimedIters += " +
         NV + ";");
    --Indent;
    line("}");
    --Indent;
    line("}");
  }

  const Func *F = nullptr;
  std::string Out;
  int Indent = 0;
  bool Profile = false;
  int RaggedSlot = 0; ///< Uniquifies hoisted ragged-bound locals.
  bool HasVectorLoops = false;
  std::map<int64_t, uint32_t> SlotOf; ///< StmtId -> profiler slot.
  std::set<uint32_t> AccumSlots; ///< Slots whose Calls/Iters accumulate in
                                 ///< the enclosing loop's locals.
  std::map<std::string, TensorDesc> Tensors;
  std::map<std::string, std::string> Idents;
  std::set<std::string> UsedIdents;
};

} // namespace

std::string ft::generateCpp(const Func &F, const CodegenOptions &Opts) {
  trace::Span Sp("codegen/emit");
  std::string Src = CppEmitter().run(F, Opts);
  if (Sp.active()) {
    Sp.annotate("func", F.Name);
    Sp.annotate("source_bytes", static_cast<uint64_t>(Src.size()));
    Sp.annotate("profile", std::string(Opts.Profile ? "true" : "false"));
  }
  return Src;
}

std::string ft::generateCpp(const Func &F) {
  return generateCpp(F, CodegenOptions{});
}

std::vector<int64_t> ft::profileSlotIds(const Func &F) {
  std::vector<int64_t> Ids{-1};
  collectProfileSlots(F.Body, Ids);
  return Ids;
}

std::string ft::kernelSymbol(const Func &F) {
  // Must match the first identOf() call in CppEmitter::run.
  std::string Id = "v_";
  for (char C : "fn." + F.Name)
    Id += (std::isalnum(static_cast<unsigned char>(C)) != 0) ? C : '_';
  return Id;
}

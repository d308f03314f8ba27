//===- interp/interp.cpp --------------------------------------------------===//

#include "interp/interp.h"

#include <cmath>
#include <list>
#include <memory>
#include <set>
#include <unordered_map>

#include "math/linear.h"

using namespace ft;

namespace {

/// A scalar value during evaluation.
struct Val {
  enum class Tag { Int, Float, Bool } T = Tag::Int;
  int64_t I = 0;
  double F = 0;
  bool B = false;

  static Val ofI(int64_t V) { return {Tag::Int, V, 0, false}; }
  static Val ofF(double V) { return {Tag::Float, 0, V, false}; }
  static Val ofB(bool V) { return {Tag::Bool, 0, 0, V}; }

  double asF() const {
    switch (T) {
    case Tag::Int:
      return static_cast<double>(I);
    case Tag::Float:
      return F;
    case Tag::Bool:
      return B;
    }
    ftUnreachable("bad Val tag");
  }
  int64_t asI() const {
    switch (T) {
    case Tag::Int:
      return I;
    case Tag::Float:
      return static_cast<int64_t>(F);
    case Tag::Bool:
      return B;
    }
    ftUnreachable("bad Val tag");
  }
  bool asB() const {
    switch (T) {
    case Tag::Bool:
      return B;
    case Tag::Int:
      return I != 0;
    case Tag::Float:
      return F != 0;
    }
    ftUnreachable("bad Val tag");
  }
  bool isFloat() const { return T == Tag::Float; }
};

/// A fully-associative LRU cache model over (buffer, line) keys, used to
/// estimate DRAM traffic the way the paper's nvprof DRAM counters do.
class CacheSim {
public:
  CacheSim(size_t CapacityBytes, size_t LineBytes)
      : Lines(CapacityBytes / LineBytes), LineBytesN(LineBytes) {}

  /// Returns the DRAM bytes this access costs (0 on hit, one line on miss).
  int64_t access(const void *Base, int64_t ByteOffset) {
    uint64_t Key = reinterpret_cast<uint64_t>(Base) +
                   (static_cast<uint64_t>(ByteOffset) / LineBytesN) *
                       0x100000001b3ull;
    auto It = Map.find(Key);
    if (It != Map.end()) {
      Lru.splice(Lru.begin(), Lru, It->second);
      return 0;
    }
    Lru.push_front(Key);
    Map[Key] = Lru.begin();
    if (Map.size() > Lines) {
      Map.erase(Lru.back());
      Lru.pop_back();
    }
    return static_cast<int64_t>(LineBytesN);
  }

private:
  size_t Lines;
  size_t LineBytesN;
  std::list<uint64_t> Lru;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> Map;
};

class Interp {
public:
  Interp(const Func &F, const std::map<std::string, Buffer *> &Args,
         const InterpOptions &Opts)
      : F(F), CountStmts(Opts.CountStmts) {
    for (const auto &[Name, Buf] : Args)
      Buffers[Name] = Buf;
    if (Opts.SimulateCache)
      Sim = std::make_unique<CacheSim>(Opts.CacheBytes, Opts.LineBytes);
  }

  InterpStats run() {
    execStmt(F.Body);
    return Stats;
  }

private:
  Buffer &buf(const std::string &Name) {
    auto It = Buffers.find(Name);
    ftAssert(It != Buffers.end(), "unbound tensor: " + Name);
    return *It->second;
  }

  bool isLocal(const std::string &Name) const {
    return LocalTensors.count(Name) > 0;
  }

  std::vector<int64_t> evalIndices(const std::vector<Expr> &Indices) {
    std::vector<int64_t> Out;
    Out.reserve(Indices.size());
    for (const Expr &I : Indices)
      Out.push_back(evalExpr(I).asI());
    return Out;
  }

  Val loadFrom(Buffer &B, const std::vector<int64_t> &Idx,
               bool Local = false) {
    int64_t Flat = B.flatten(Idx);
    ++Stats.Loads;
    if (Local) {
      Stats.LocalBytes += static_cast<int64_t>(sizeOf(B.dtype()));
    } else {
      Stats.BytesLoaded += static_cast<int64_t>(sizeOf(B.dtype()));
      if (Sim)
        Stats.SimDramBytes +=
            Sim->access(B.raw(), Flat * static_cast<int64_t>(
                                            sizeOf(B.dtype())));
    }
    if (isFloat(B.dtype()))
      return Val::ofF(B.getF(Flat));
    if (B.dtype() == DataType::Bool)
      return Val::ofB(B.getI(Flat) != 0);
    return Val::ofI(B.getI(Flat));
  }

  void storeTo(Buffer &B, const std::vector<int64_t> &Idx, const Val &V,
               bool Local = false) {
    int64_t Flat = B.flatten(Idx);
    ++Stats.Stores;
    if (Local) {
      Stats.LocalBytes += static_cast<int64_t>(sizeOf(B.dtype()));
    } else {
      Stats.BytesStored += static_cast<int64_t>(sizeOf(B.dtype()));
      if (Sim)
        Stats.SimDramBytes +=
            Sim->access(B.raw(), Flat * static_cast<int64_t>(
                                            sizeOf(B.dtype())));
    }
    if (isFloat(B.dtype()))
      B.setF(Flat, V.asF());
    else
      B.setI(Flat, V.asI());
  }

  Val evalBinary(BinOpKind Op, const Val &L, const Val &R) {
    bool Fl = L.isFloat() || R.isFloat();
    if (Fl && !isCompareOp(Op) && !isLogicOp(Op))
      ++Stats.Flops;
    switch (Op) {
    case BinOpKind::Add:
      return Fl ? Val::ofF(L.asF() + R.asF()) : Val::ofI(L.asI() + R.asI());
    case BinOpKind::Sub:
      return Fl ? Val::ofF(L.asF() - R.asF()) : Val::ofI(L.asI() - R.asI());
    case BinOpKind::Mul:
      return Fl ? Val::ofF(L.asF() * R.asF()) : Val::ofI(L.asI() * R.asI());
    case BinOpKind::RealDiv:
      ++Stats.Flops;
      return Val::ofF(L.asF() / R.asF());
    case BinOpKind::FloorDiv:
      ftAssert(!Fl, "FloorDiv on floats");
      return Val::ofI(floorDiv64(L.asI(), R.asI()));
    case BinOpKind::Mod:
      ftAssert(!Fl, "Mod on floats");
      return Val::ofI(mod64(L.asI(), R.asI()));
    case BinOpKind::Min:
      return Fl ? Val::ofF(std::min(L.asF(), R.asF()))
                : Val::ofI(std::min(L.asI(), R.asI()));
    case BinOpKind::Max:
      return Fl ? Val::ofF(std::max(L.asF(), R.asF()))
                : Val::ofI(std::max(L.asI(), R.asI()));
    case BinOpKind::LT:
      return Val::ofB(Fl ? L.asF() < R.asF() : L.asI() < R.asI());
    case BinOpKind::LE:
      return Val::ofB(Fl ? L.asF() <= R.asF() : L.asI() <= R.asI());
    case BinOpKind::GT:
      return Val::ofB(Fl ? L.asF() > R.asF() : L.asI() > R.asI());
    case BinOpKind::GE:
      return Val::ofB(Fl ? L.asF() >= R.asF() : L.asI() >= R.asI());
    case BinOpKind::EQ:
      return Val::ofB(Fl ? L.asF() == R.asF() : L.asI() == R.asI());
    case BinOpKind::NE:
      return Val::ofB(Fl ? L.asF() != R.asF() : L.asI() != R.asI());
    case BinOpKind::LAnd:
      return Val::ofB(L.asB() && R.asB());
    case BinOpKind::LOr:
      return Val::ofB(L.asB() || R.asB());
    }
    ftUnreachable("unknown BinOpKind");
  }

  Val evalUnary(UnOpKind Op, const Val &X) {
    switch (Op) {
    case UnOpKind::Neg:
      if (X.isFloat()) {
        ++Stats.Flops;
        return Val::ofF(-X.asF());
      }
      return Val::ofI(-X.asI());
    case UnOpKind::LNot:
      return Val::ofB(!X.asB());
    case UnOpKind::Abs:
      if (X.isFloat()) {
        ++Stats.Flops;
        return Val::ofF(std::fabs(X.asF()));
      }
      return Val::ofI(X.asI() < 0 ? -X.asI() : X.asI());
    case UnOpKind::Sqrt:
      ++Stats.Flops;
      return Val::ofF(std::sqrt(X.asF()));
    case UnOpKind::Exp:
      ++Stats.Flops;
      return Val::ofF(std::exp(X.asF()));
    case UnOpKind::Ln:
      ++Stats.Flops;
      return Val::ofF(std::log(X.asF()));
    case UnOpKind::Sigmoid:
      ++Stats.Flops;
      return Val::ofF(1.0 / (1.0 + std::exp(-X.asF())));
    case UnOpKind::Tanh:
      ++Stats.Flops;
      return Val::ofF(std::tanh(X.asF()));
    }
    ftUnreachable("unknown UnOpKind");
  }

  Val evalExpr(const Expr &E) {
    switch (E->kind()) {
    case NodeKind::IntConst:
      return Val::ofI(cast<IntConstNode>(E)->Val);
    case NodeKind::FloatConst:
      return Val::ofF(cast<FloatConstNode>(E)->Val);
    case NodeKind::BoolConst:
      return Val::ofB(cast<BoolConstNode>(E)->Val);
    case NodeKind::Var: {
      auto V = cast<VarNode>(E);
      auto It = Iters.find(V->Name);
      ftAssert(It != Iters.end(), "unbound iterator: " + V->Name);
      return Val::ofI(It->second);
    }
    case NodeKind::Load: {
      auto L = cast<LoadNode>(E);
      return loadFrom(buf(L->Var), evalIndices(L->Indices),
                      isLocal(L->Var));
    }
    case NodeKind::Binary: {
      auto B = cast<BinaryNode>(E);
      Val L = evalExpr(B->LHS);
      // && and || short-circuit, as in the emitted C++: the RHS may load
      // an element that is in bounds only when the LHS does not decide.
      if (B->Op == BinOpKind::LAnd && !L.asB())
        return Val::ofB(false);
      if (B->Op == BinOpKind::LOr && L.asB())
        return Val::ofB(true);
      return evalBinary(B->Op, L, evalExpr(B->RHS));
    }
    case NodeKind::Unary: {
      auto U = cast<UnaryNode>(E);
      return evalUnary(U->Op, evalExpr(U->Operand));
    }
    case NodeKind::IfExpr: {
      auto IE = cast<IfExprNode>(E);
      return evalExpr(IE->Cond).asB() ? evalExpr(IE->Then)
                                      : evalExpr(IE->Else);
    }
    case NodeKind::Cast: {
      auto C = cast<CastNode>(E);
      Val X = evalExpr(C->Operand);
      if (isFloat(C->Dtype)) {
        double V = X.asF();
        if (C->Dtype == DataType::Float32)
          V = static_cast<float>(V);
        return Val::ofF(V);
      }
      if (C->Dtype == DataType::Bool)
        return Val::ofB(X.asB());
      int64_t V = X.asI();
      if (C->Dtype == DataType::Int32)
        V = static_cast<int32_t>(V);
      return Val::ofI(V);
    }
    default:
      ftUnreachable("statement kind in evalExpr");
    }
  }

  void execStmt(const Stmt &S) {
    switch (S->kind()) {
    case NodeKind::StmtSeq:
      for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
        execStmt(Sub);
      return;
    case NodeKind::VarDef: {
      auto D = cast<VarDefNode>(S);
      if (D->ATy != AccessType::Cache) {
        // Parameter: must already be bound; sanity-check the dtype.
        Buffer &B = buf(D->Name);
        ftAssert(B.dtype() == D->Info.Dtype,
                 "parameter dtype mismatch for " + D->Name);
        execStmt(D->Body);
        return;
      }
      std::vector<int64_t> Shape;
      for (const Expr &Dim : D->Info.Shape)
        Shape.push_back(evalExpr(Dim).asI());
      Buffer LocalBuf(D->Info.Dtype, std::move(Shape));
      Buffer *Shadowed = nullptr;
      auto It = Buffers.find(D->Name);
      if (It != Buffers.end())
        Shadowed = It->second;
      Buffers[D->Name] = &LocalBuf;
      // Register/scratch-pad tier: CPULocal tensors and scalar caches.
      bool WasLocal = LocalTensors.count(D->Name) > 0;
      bool NowLocal =
          D->MTy == MemType::CPULocal || D->Info.Shape.empty();
      if (NowLocal)
        LocalTensors.insert(D->Name);
      else
        LocalTensors.erase(D->Name);
      execStmt(D->Body);
      if (Shadowed)
        Buffers[D->Name] = Shadowed;
      else
        Buffers.erase(D->Name);
      if (WasLocal)
        LocalTensors.insert(D->Name);
      else
        LocalTensors.erase(D->Name);
      return;
    }
    case NodeKind::Store: {
      auto St = cast<StoreNode>(S);
      std::vector<int64_t> Idx = evalIndices(St->Indices);
      storeTo(buf(St->Var), Idx, evalExpr(St->Value), isLocal(St->Var));
      return;
    }
    case NodeKind::ReduceTo: {
      auto R = cast<ReduceToNode>(S);
      std::vector<int64_t> Idx = evalIndices(R->Indices);
      Buffer &B = buf(R->Var);
      bool Local = isLocal(R->Var);
      Val Old = loadFrom(B, Idx, Local);
      Val New = evalExpr(R->Value);
      BinOpKind Op;
      switch (R->Op) {
      case ReduceOpKind::Add:
        Op = BinOpKind::Add;
        break;
      case ReduceOpKind::Mul:
        Op = BinOpKind::Mul;
        break;
      case ReduceOpKind::Min:
        Op = BinOpKind::Min;
        break;
      case ReduceOpKind::Max:
        Op = BinOpKind::Max;
        break;
      }
      storeTo(B, Idx, evalBinary(Op, Old, New), Local);
      return;
    }
    case NodeKind::For: {
      auto F = cast<ForNode>(S);
      int64_t Begin = evalExpr(F->Begin).asI();
      int64_t End = evalExpr(F->End).asI();
      if (CountStmts) {
        auto &C = Stats.PerStmt[F->Id];
        C.Calls += 1;
        C.Iters += End > Begin ? static_cast<uint64_t>(End - Begin) : 0;
      }
      for (int64_t I = Begin; I < End; ++I) {
        Iters[F->Iter] = I;
        execStmt(F->Body);
      }
      Iters.erase(F->Iter);
      return;
    }
    case NodeKind::If: {
      auto I = cast<IfNode>(S);
      if (evalExpr(I->Cond).asB())
        execStmt(I->Then);
      else if (I->Else)
        execStmt(I->Else);
      return;
    }
    case NodeKind::GemmCall: {
      auto G = cast<GemmCallNode>(S);
      if (CountStmts) {
        auto &Cnt = Stats.PerStmt[G->Id];
        Cnt.Calls += 1;
        Cnt.Iters += 1;
      }
      Buffer &A = buf(G->A), &B = buf(G->B), &C = buf(G->C);
      int64_t M = evalExpr(G->M).asI();
      int64_t N = evalExpr(G->N).asI();
      int64_t K = evalExpr(G->K).asI();
      auto At = [&](Buffer &Buf, int64_t R, int64_t Cc, int64_t Cols) {
        return Buf.getF(R * Cols + Cc);
      };
      for (int64_t I = 0; I < M; ++I)
        for (int64_t J = 0; J < N; ++J) {
          double Acc = 0;
          for (int64_t Kk = 0; Kk < K; ++Kk) {
            double AV = G->TransA ? At(A, Kk, I, M) : At(A, I, Kk, K);
            double BV = G->TransB ? At(B, J, Kk, K) : At(B, Kk, J, N);
            Acc += AV * BV;
          }
          C.setF(I * N + J, C.getF(I * N + J) + Acc);
        }
      Stats.Flops += 2 * M * N * K;
      Stats.Loads += 2 * M * N * K;
      Stats.BytesLoaded +=
          2 * M * N * K * static_cast<int64_t>(sizeOf(G->Dtype));
      Stats.Stores += M * N;
      Stats.BytesStored += M * N * static_cast<int64_t>(sizeOf(G->Dtype));
      return;
    }
    default:
      ftUnreachable("expression kind in execStmt");
    }
  }

  const Func &F;
  bool CountStmts = false;
  std::map<std::string, Buffer *> Buffers;
  std::unique_ptr<CacheSim> Sim;
  std::set<std::string> LocalTensors;
  std::map<std::string, int64_t> Iters;
  InterpStats Stats;
};

} // namespace

InterpStats ft::interpret(const Func &F,
                          const std::map<std::string, Buffer *> &Args,
                          const InterpOptions &Opts) {
  return Interp(F, Args, Opts).run();
}

Status ft::validateArgs(const Func &F,
                        const std::map<std::string, Buffer *> &Args) {
  return argContractOf(F).check(Args);
}

Status ft::interpretChecked(const Func &F,
                            const std::map<std::string, Buffer *> &Args,
                            InterpStats *Stats, const InterpOptions &Opts) {
  if (Status S = validateArgs(F, Args); !S.ok())
    return S;
  InterpStats Out = interpret(F, Args, Opts);
  if (Stats)
    *Stats = Out;
  return Status::success();
}

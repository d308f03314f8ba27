//===- codegen/profile.cpp ------------------------------------------------===//

#include "codegen/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>

#include "ir/printer.h"
#include "support/json.h"

namespace ft::profile {

namespace {

//===----------------------------------------------------------------------===//
// Source-map construction
//===----------------------------------------------------------------------===//

/// Best-effort constant evaluation of extents (gemm operand sizes are
/// constant in practice after const folding; anything else estimates 0).
std::optional<int64_t> evalConstInt(const Expr &E) {
  if (!E)
    return std::nullopt;
  switch (E->kind()) {
  case NodeKind::IntConst:
    return cast<IntConstNode>(E)->Val;
  case NodeKind::Binary: {
    auto B = cast<BinaryNode>(E);
    auto L = evalConstInt(B->LHS), R = evalConstInt(B->RHS);
    if (!L || !R)
      return std::nullopt;
    switch (B->Op) {
    case BinOpKind::Add:
      return *L + *R;
    case BinOpKind::Sub:
      return *L - *R;
    case BinOpKind::Mul:
      return *L * *R;
    default:
      return std::nullopt;
    }
  }
  default:
    return std::nullopt;
  }
}

/// Bytes touched by the Load nodes in \p E (indices included — an indirect
/// access like e[adj[i], k] really does read adj).
uint64_t exprBytes(const Expr &E) {
  if (!E)
    return 0;
  switch (E->kind()) {
  case NodeKind::Load: {
    auto L = cast<LoadNode>(E);
    uint64_t B = sizeOf(L->Dtype);
    for (const Expr &I : L->Indices)
      B += exprBytes(I);
    return B;
  }
  case NodeKind::Binary: {
    auto B = cast<BinaryNode>(E);
    return exprBytes(B->LHS) + exprBytes(B->RHS);
  }
  case NodeKind::Unary:
    return exprBytes(cast<UnaryNode>(E)->Operand);
  case NodeKind::Cast:
    return exprBytes(cast<CastNode>(E)->Operand);
  case NodeKind::IfExpr: {
    auto IE = cast<IfExprNode>(E);
    return exprBytes(IE->Cond) + exprBytes(IE->Then) + exprBytes(IE->Else);
  }
  default:
    return 0;
  }
}

struct MapBuilder {
  SourceMap Map;
  std::map<std::string, DataType> VarTypes;
  std::vector<std::string> Path;

  void addEntry(StmtSourceInfo Info) {
    Map.ById[Info.Id] = Map.Stmts.size();
    Map.Stmts.push_back(std::move(Info));
  }

  /// Walks \p S accumulating direct-access bytes into \p DirectBytes (the
  /// per-iteration cost of the nearest enclosing instrumented statement);
  /// nested For/GemmCall statements get entries of their own and
  /// contribute nothing to the parent.
  void walk(const Stmt &S, int64_t ParentId, int Depth,
            uint64_t &DirectBytes) {
    switch (S->kind()) {
    case NodeKind::StmtSeq:
      for (const Stmt &Sub : cast<StmtSeqNode>(S)->Stmts)
        walk(Sub, ParentId, Depth, DirectBytes);
      return;
    case NodeKind::VarDef: {
      auto D = cast<VarDefNode>(S);
      VarTypes[D->Name] = D->Info.Dtype;
      walk(D->Body, ParentId, Depth, DirectBytes);
      return;
    }
    case NodeKind::Store: {
      auto St = cast<StoreNode>(S);
      DirectBytes += exprBytes(St->Value) + varBytes(St->Var);
      for (const Expr &I : St->Indices)
        DirectBytes += exprBytes(I);
      return;
    }
    case NodeKind::ReduceTo: {
      auto R = cast<ReduceToNode>(S);
      // Read-modify-write: the element is both loaded and stored.
      DirectBytes += exprBytes(R->Value) + 2 * varBytes(R->Var);
      for (const Expr &I : R->Indices)
        DirectBytes += exprBytes(I);
      return;
    }
    case NodeKind::If: {
      // Both branches are charged: a static estimate cannot know the
      // taken ratio, and loop-invariant guards usually pick one branch
      // for the whole loop anyway.
      auto I = cast<IfNode>(S);
      DirectBytes += exprBytes(I->Cond);
      walk(I->Then, ParentId, Depth, DirectBytes);
      if (I->Else)
        walk(I->Else, ParentId, Depth, DirectBytes);
      return;
    }
    case NodeKind::For: {
      auto L = cast<ForNode>(S);
      StmtSourceInfo Info;
      Info.Id = L->Id;
      Info.Kind = "for";
      Info.Label = L->Label;
      Info.Iter = L->Iter;
      Info.Name =
          (L->Label.empty() ? L->Iter : L->Label) + "#" + std::to_string(L->Id);
      Info.Extent = toString(L->Begin) + ":" + toString(L->End);
      Info.Parallel = L->Property.Parallel;
      Info.ParentId = ParentId;
      Info.Depth = Depth;
      Path.push_back(Info.Name);
      Info.Path = Path;
      Info.QualName = Map.FuncName + "/" + Info.Name;
      size_t Idx = Map.Stmts.size();
      addEntry(std::move(Info));
      uint64_t Bytes = 0;
      walk(L->Body, L->Id, Depth + 1, Bytes);
      Map.Stmts[Idx].DirectAccessBytesPerIter = Bytes;
      Path.pop_back();
      return;
    }
    case NodeKind::GemmCall: {
      auto G = cast<GemmCallNode>(S);
      StmtSourceInfo Info;
      Info.Id = G->Id;
      Info.Kind = "gemm";
      Info.Label = G->Label;
      Info.Name = (G->Label.empty() ? std::string("gemm") : G->Label) + "#" +
                  std::to_string(G->Id);
      Info.Extent = toString(G->M) + "x" + toString(G->N) + "x" +
                    toString(G->K);
      Info.ParentId = ParentId;
      Info.Depth = Depth;
      Path.push_back(Info.Name);
      Info.Path = Path;
      Info.QualName = Map.FuncName + "/" + Info.Name;
      // One gemm "iteration" touches A, B, and C (read + write).
      auto M = evalConstInt(G->M), N = evalConstInt(G->N),
           K = evalConstInt(G->K);
      if (M && N && K)
        Info.DirectAccessBytesPerIter = uint64_t(*M * *K + *K * *N +
                                                 2 * *M * *N) *
                                        sizeOf(G->Dtype);
      addEntry(std::move(Info));
      Path.pop_back();
      return;
    }
    default:
      return;
    }
  }

  uint64_t varBytes(const std::string &Var) const {
    auto It = VarTypes.find(Var);
    return It == VarTypes.end() ? 0 : sizeOf(It->second);
  }
};



std::string joinPath(const std::vector<std::string> &Path) {
  std::string Out;
  for (size_t I = 0; I < Path.size(); ++I)
    Out += (I ? ";" : "") + Path[I];
  return Out;
}

std::string fmtBytes(uint64_t B) {
  char Buf[64];
  if (B >= (uint64_t(1) << 20))
    std::snprintf(Buf, sizeof(Buf), "%.1f MiB", double(B) / (1 << 20));
  else if (B >= 1024)
    std::snprintf(Buf, sizeof(Buf), "%.1f KiB", double(B) / 1024);
  else
    std::snprintf(Buf, sizeof(Buf), "%llu B",
                  static_cast<unsigned long long>(B));
  return Buf;
}

//===----------------------------------------------------------------------===//
// Registry + FT_PROFILE sink
//===----------------------------------------------------------------------===//

enum class SinkMode { Off, StderrTable, FileTable, Folded, Json };

/// Request ids kept per symbol in the attribution ring.
constexpr size_t kMaxRecentRequestIds = 16;

struct Registry {
  std::mutex M;
  std::vector<KernelProfile> Profiles;
  /// Serving-request join: per-symbol attribution, fed by noteRequest()
  /// on every request-carrying run and folded into the profile when it is
  /// pulled (jit.cpp's pullProfile).
  std::map<std::string, RequestAttribution> Attr;
  SinkMode Mode = SinkMode::Off;
  std::string Path;
};

/// Leaked so the atexit sink never races static destruction (same pattern
/// as trace.cpp's State).
Registry &reg() {
  static Registry *R = new Registry;
  return *R;
}

bool endsWith(const std::string &S, const std::string &Suffix) {
  return S.size() >= Suffix.size() &&
         S.compare(S.size() - Suffix.size(), Suffix.size(), Suffix) == 0;
}

void atExitSink() {
  Registry &R = reg();
  std::vector<KernelProfile> Profiles;
  SinkMode Mode;
  std::string Path;
  {
    std::lock_guard<std::mutex> Lock(R.M);
    Profiles = R.Profiles;
    Mode = R.Mode;
    Path = R.Path;
  }
  if (Mode == SinkMode::Off)
    return;
  if (Mode == SinkMode::StderrTable) {
    for (const KernelProfile &P : Profiles)
      std::fprintf(stderr, "%s", formatTable(P).c_str());
    return;
  }
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "FT_PROFILE: could not open %s\n", Path.c_str());
    return;
  }
  std::string Out;
  switch (Mode) {
  case SinkMode::Folded:
    for (const KernelProfile &P : Profiles)
      Out += toFolded(P);
    break;
  case SinkMode::Json:
    Out = snapshotJson();
    break;
  default:
    for (const KernelProfile &P : Profiles)
      Out += formatTable(P);
    break;
  }
  std::fwrite(Out.data(), 1, Out.size(), F);
  std::fclose(F);
  std::fprintf(stderr, "FT_PROFILE: wrote %s (%zu kernel%s)\n", Path.c_str(),
               Profiles.size(), Profiles.size() == 1 ? "" : "s");
}

/// Arms the sink from FT_PROFILE at static-initialization time (mirrors
/// trace.cpp's EnvInit).
struct EnvInit {
  EnvInit() {
    const char *V = std::getenv("FT_PROFILE");
    if (V == nullptr || V[0] == '\0' || std::string(V) == "0")
      return;
    Registry &R = reg();
    std::string S(V);
    if (S == "1" || S == "stderr") {
      R.Mode = SinkMode::StderrTable;
    } else {
      R.Path = S;
      R.Mode = endsWith(S, ".folded") ? SinkMode::Folded
               : endsWith(S, ".json") ? SinkMode::Json
                                      : SinkMode::FileTable;
    }
    std::atexit(atExitSink);
  }
} TheEnvInit;

} // namespace

//===----------------------------------------------------------------------===//
// SourceMap / KernelProfile
//===----------------------------------------------------------------------===//

SourceMap buildSourceMap(const Func &F,
                         const std::vector<trace::ScheduleDecision> &Audit) {
  MapBuilder B;
  B.Map.FuncName = F.Name;
  B.Path.push_back(F.Name);

  StmtSourceInfo Root;
  Root.Id = -1;
  Root.Kind = "kernel";
  Root.Name = F.Name;
  Root.ParentId = -2;
  Root.Depth = 0;
  Root.Path = B.Path;
  Root.QualName = F.Name;
  B.addEntry(std::move(Root));

  uint64_t RootBytes = 0;
  B.walk(F.Body, -1, 1, RootBytes);
  B.Map.Stmts[0].DirectAccessBytesPerIter = RootBytes;

  // Join the audit log through ScheduleDecision::StmtIds. Only applied
  // decisions shape the loop nest; each decision is attached at most once
  // per statement even when it lists an id twice (split reuses the target
  // id for one of its outputs).
  for (const trace::ScheduleDecision &D : Audit) {
    if (!D.Applied || D.StmtIds.empty())
      continue;
    std::vector<int64_t> Ids = D.StmtIds;
    std::sort(Ids.begin(), Ids.end());
    Ids.erase(std::unique(Ids.begin(), Ids.end()), Ids.end());
    std::string Entry = D.Primitive;
    if (!D.Target.empty())
      Entry += "(" + D.Target + ")";
    for (int64_t Id : Ids) {
      auto It = B.Map.ById.find(Id);
      if (It != B.Map.ById.end())
        B.Map.Stmts[It->second].Provenance.push_back(Entry);
    }
  }
  return B.Map;
}

const LoopSample *KernelProfile::sample(int64_t StmtId) const {
  for (const LoopSample &S : Samples)
    if (S.StmtId == StmtId)
      return &S;
  return nullptr;
}

double KernelProfile::selfNs(int64_t StmtId) const {
  const LoopSample *S = sample(StmtId);
  if (!S)
    return 0;
  double Self = S->estNs();
  for (const StmtSourceInfo &Info : Map.Stmts)
    if (Info.ParentId == StmtId)
      if (const LoopSample *C = sample(Info.Id))
        Self -= C->estNs();
  return Self < 0 ? 0 : Self;
}

//===----------------------------------------------------------------------===//
// Renderers
//===----------------------------------------------------------------------===//

std::string formatTable(const KernelProfile &P) {
  std::string Out;
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf), "=== kernel profile: %s ===\n",
                P.Symbol.c_str());
  Out += Buf;
  std::snprintf(
      Buf, sizeof(Buf),
      "invocations %llu | peak live %s | allocated %s in %llu blocks\n",
      static_cast<unsigned long long>(P.Invocations),
      fmtBytes(P.PeakBytes).c_str(), fmtBytes(P.TotalAllocBytes).c_str(),
      static_cast<unsigned long long>(P.AllocCount));
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), "%-46s %9s %12s %11s %11s %9s %9s\n",
                "loop", "calls", "iters", "total ms", "self ms", "ns/iter",
                "est MiB");
  Out += Buf;

  // Rows in source-map order (pre-order over the loop nest); statements
  // the runtime never entered still show, with zero counters.
  for (const StmtSourceInfo &Info : P.Map.Stmts) {
    const LoopSample *S = P.sample(Info.Id);
    LoopSample Zero;
    if (!S)
      S = &Zero;
    std::string Name(2 * size_t(Info.Depth), ' ');
    Name += Info.Name;
    if (!Info.Extent.empty())
      Name += " [" + Info.Extent + "]";
    if (Info.Parallel)
      Name += " par";
    double TotalNs = S->estNs();
    double SelfNs = P.selfNs(Info.Id);
    double NsPerIter = S->Iters ? TotalNs / double(S->Iters) : 0;
    double EstMiB =
        double(Info.DirectAccessBytesPerIter) * double(S->Iters) / (1 << 20);
    std::snprintf(Buf, sizeof(Buf),
                  "%-46s %9llu %12llu %11.3f %11.3f %9.1f %9.2f\n",
                  Name.c_str(), static_cast<unsigned long long>(S->Calls),
                  static_cast<unsigned long long>(S->Iters), TotalNs / 1e6,
                  SelfNs / 1e6, NsPerIter, EstMiB);
    Out += Buf;
    if (!Info.Provenance.empty()) {
      std::string Prov(2 * size_t(Info.Depth) + 2, ' ');
      Prov += "^ after ";
      for (size_t I = 0; I < Info.Provenance.size(); ++I)
        Prov += (I ? ", " : "") + Info.Provenance[I];
      Out += Prov + "\n";
    }
  }
  // Samples the source map cannot name would mean map and kernel are out
  // of sync; surface them rather than dropping silently.
  for (const LoopSample &S : P.Samples)
    if (!P.Map.find(S.StmtId)) {
      std::snprintf(Buf, sizeof(Buf),
                    "stmt#%lld (unresolved) %9llu calls %12llu iters\n",
                    static_cast<long long>(S.StmtId),
                    static_cast<unsigned long long>(S.Calls),
                    static_cast<unsigned long long>(S.Iters));
      Out += Buf;
    }
  return Out;
}

std::string toFolded(const KernelProfile &P) {
  std::string Out;
  for (const StmtSourceInfo &Info : P.Map.Stmts) {
    const LoopSample *S = P.sample(Info.Id);
    if (!S || S->Calls == 0)
      continue;
    long long Self = llround(P.selfNs(Info.Id));
    if (Self <= 0 && Info.Id != -1)
      continue;
    Out += joinPath(Info.Path) + " " + std::to_string(Self < 0 ? 0 : Self) +
           "\n";
  }
  return Out;
}

void writeJson(json::Writer &W, const KernelProfile &P) {
  W.beginObject().key("symbol").value(P.Symbol);
  W.key("func").value(P.Map.FuncName);
  W.key("invocations").value(P.Invocations);
  W.key("current_bytes").value(P.CurrentBytes);
  W.key("peak_bytes").value(P.PeakBytes);
  W.key("total_alloc_bytes").value(P.TotalAllocBytes);
  W.key("alloc_count").value(P.AllocCount);
  W.key("attributed_runs").value(P.AttributedRuns);
  W.key("recent_request_ids").beginArray();
  for (uint64_t Id : P.RecentRequestIds)
    W.value(Id);
  W.endArray();
  W.key("loops").beginArray();
  for (const LoopSample &S : P.Samples) {
    const StmtSourceInfo *Info = P.Map.find(S.StmtId);
    W.beginObject().key("id").value(S.StmtId);
    W.key("resolved").value(Info != nullptr);
    if (Info) {
      W.key("kind").value(Info->Kind).key("name").value(Info->Name);
      W.key("qual_name").value(Info->QualName).key("label").value(Info->Label);
      W.key("iter").value(Info->Iter).key("extent").value(Info->Extent);
      W.key("parallel").value(Info->Parallel);
      W.key("parent").value(Info->ParentId).key("depth").value(Info->Depth);
      W.key("path").value(joinPath(Info->Path));
      W.key("provenance").beginArray();
      for (const std::string &Step : Info->Provenance)
        W.value(Step);
      W.endArray();
      W.key("bytes_per_iter").value(Info->DirectAccessBytesPerIter);
      W.key("est_bytes_moved").value(Info->DirectAccessBytesPerIter * S.Iters);
    }
    W.key("calls").value(S.Calls).key("iters").value(S.Iters);
    W.key("ns").value(S.Ns);
    W.key("timed_calls").value(S.TimedCalls);
    W.key("timed_iters").value(S.TimedIters);
    // Estimates are whole nanoseconds.
    W.key("est_total_ns").value(std::round(S.estNs()));
    W.key("est_self_ns").value(std::round(P.selfNs(S.StmtId)));
    W.endObject();
  }
  W.endArray().endObject();
}

std::string toJson(const KernelProfile &P) {
  std::string Out;
  json::Writer W(Out);
  writeJson(W, P);
  return Out;
}

//===----------------------------------------------------------------------===//
// Registry API
//===----------------------------------------------------------------------===//

void record(KernelProfile P) {
  emitTraceSpans(P);
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.M);
  R.Profiles.push_back(std::move(P));
}

std::vector<KernelProfile> snapshotProfiles() {
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.M);
  return R.Profiles;
}

void clearProfiles() {
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.M);
  R.Profiles.clear();
  R.Attr.clear();
}

void noteRequest(const std::string &Symbol, uint64_t RequestId) {
  if (RequestId == 0)
    return;
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.M);
  RequestAttribution &A = R.Attr[Symbol];
  ++A.AttributedRuns;
  A.RecentRequestIds.push_back(RequestId);
  if (A.RecentRequestIds.size() > kMaxRecentRequestIds)
    A.RecentRequestIds.erase(A.RecentRequestIds.begin());
}

RequestAttribution requestAttribution(const std::string &Symbol) {
  Registry &R = reg();
  std::lock_guard<std::mutex> Lock(R.M);
  auto It = R.Attr.find(Symbol);
  return It == R.Attr.end() ? RequestAttribution{} : It->second;
}

std::string snapshotJson() {
  std::string Out;
  json::Writer W(Out);
  W.beginObject().key("profiles").beginArray();
  for (const KernelProfile &P : snapshotProfiles())
    writeJson(W, P);
  W.endArray().endObject();
  return Out + "\n";
}

bool envEnabled() { return reg().Mode != SinkMode::Off; }

void emitTraceSpans(const KernelProfile &P) {
  if (!trace::enabled())
    return;
  // The runtime reports totals, not timestamps, so the spans are laid out
  // synthetically: the kernel root starts "now", children run sequentially
  // inside their parent with their estimated durations.
  double Anchor = trace::nowMicros();
  // Cursor per parent id: where the next child of that parent starts.
  std::map<int64_t, double> Cursor;
  std::map<int64_t, double> Start;
  for (const StmtSourceInfo &Info : P.Map.Stmts) {
    const LoopSample *S = P.sample(Info.Id);
    if (!S || S->Calls == 0)
      continue;
    double StartUs =
        Info.Id == -1 ? Anchor
                      : (Cursor.count(Info.ParentId)
                             ? Cursor[Info.ParentId]
                             : Start[Info.ParentId]);
    double DurUs = S->estNs() / 1e3;
    Start[Info.Id] = StartUs;
    Cursor[Info.Id] = StartUs;
    Cursor[Info.ParentId] = StartUs + DurUs;

    trace::SpanEvent E;
    E.Name = "profile/" + Info.QualName;
    E.StartUs = StartUs;
    E.DurUs = DurUs;
    E.Depth = Info.Depth;
    E.Args.emplace_back("calls", std::to_string(S->Calls));
    E.Args.emplace_back("iters", std::to_string(S->Iters));
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.0f", P.selfNs(Info.Id));
    E.Args.emplace_back("est_self_ns", Buf);
    if (!Info.Provenance.empty()) {
      std::string Prov;
      for (size_t I = 0; I < Info.Provenance.size(); ++I)
        Prov += (I ? ", " : "") + Info.Provenance[I];
      E.Args.emplace_back("provenance", Prov);
    }
    trace::emitSpan(std::move(E));
  }
}

} // namespace ft::profile

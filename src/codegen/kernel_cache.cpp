//===- codegen/kernel_cache.cpp -------------------------------------------===//

#include "codegen/kernel_cache.h"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <list>
#include <mutex>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>
#include <unordered_map>
#include <vector>

#include "codegen/codegen.h"
#include "ir/compare.h"

using namespace ft;
using namespace ft::kernel_cache;

namespace {

size_t combine(size_t Seed, size_t V) {
  return Seed ^ (V + 0x9e3779b97f4a7c15ull + (Seed << 6) + (Seed >> 2));
}

size_t hashStr(const std::string &S) { return std::hash<std::string>()(S); }

bool fileExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISREG(St.st_mode);
}

/// mkdir -p. Returns true when the directory exists afterwards.
bool makeDirs(const std::string &Path) {
  if (Path.empty())
    return false;
  std::string Cur;
  for (size_t I = 0; I < Path.size(); ++I) {
    Cur += Path[I];
    if (Path[I] == '/' || I + 1 == Path.size()) {
      if (Cur == "/" || Cur.empty())
        continue;
      std::string D = Cur;
      while (!D.empty() && D.back() == '/')
        D.pop_back();
      if (D.empty())
        continue;
      if (::mkdir(D.c_str(), 0755) != 0 && errno != EEXIST)
        return false;
    }
  }
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0 && S_ISDIR(St.st_mode);
}

std::string readWholeFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return "";
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// Writes \p Bytes to \p Dest via a unique temp file in the same directory
/// plus rename(2), so concurrent publishers of the same key are safe and a
/// reader never observes a half-written entry.
bool writeAtomic(const std::string &Dest, const std::string &Bytes) {
  static std::atomic<int> Counter{0};
  std::string Tmp = Dest + ".tmp." + std::to_string(::getpid()) + "." +
                    std::to_string(Counter.fetch_add(1));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return false;
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!Out.good()) {
      Out.close();
      ::unlink(Tmp.c_str());
      return false;
    }
  }
  if (::rename(Tmp.c_str(), Dest.c_str()) != 0) {
    ::unlink(Tmp.c_str());
    return false;
  }
  return true;
}

/// Preorder statement-ID sequence; the extra key material for profiled
/// kernels (profile slots are addressed by statement ID in the emitted
/// code, so an ID renumbering must be a different entry).
size_t hashStmtIds(const Stmt &S) {
  size_t H = 0x1d5;
  std::function<void(const Stmt &)> Walk = [&](const Stmt &St) {
    H = combine(H, static_cast<size_t>(St->Id));
    switch (St->kind()) {
    case NodeKind::StmtSeq:
      for (const Stmt &Sub : cast<StmtSeqNode>(St)->Stmts)
        Walk(Sub);
      return;
    case NodeKind::VarDef:
      return Walk(cast<VarDefNode>(St)->Body);
    case NodeKind::For:
      return Walk(cast<ForNode>(St)->Body);
    case NodeKind::If: {
      auto I = cast<IfNode>(St);
      Walk(I->Then);
      if (I->Else)
        Walk(I->Else);
      return;
    }
    default:
      return;
    }
  };
  Walk(S);
  return H;
}

/// The memory-tier LRU. Intentionally leaked: entries hold dlopen'd
/// libraries, and dlclosing from a static destructor would race other
/// atexit sinks (same policy as the trace/metrics singletons).
struct MemTier {
  std::mutex Mu;
  std::list<std::pair<uint64_t, Kernel>> Order; ///< Front = MRU.
  std::unordered_map<uint64_t, std::list<std::pair<uint64_t, Kernel>>::iterator>
      Index;
};

MemTier &memTier() {
  static MemTier *T = new MemTier;
  return *T;
}

std::string entryBase(const Config &Cfg, const Key &K) {
  if (Cfg.Dir.empty())
    return "";
  return Cfg.Dir + "/" + K.hex();
}

} // namespace

Config ft::kernel_cache::config() {
  Config C;
  if (const char *E = std::getenv("FT_CACHE")) {
    std::string V = E;
    if (V == "0" || V == "false" || V == "off" || V == "OFF")
      C.Enabled = false;
  }
  if (const char *D = std::getenv("FT_CACHE_DIR")) {
    C.Dir = D;
  } else if (const char *X = std::getenv("XDG_CACHE_HOME")) {
    C.Dir = std::string(X) + "/freetensor";
  } else if (const char *H = std::getenv("HOME")) {
    C.Dir = std::string(H) + "/.cache/freetensor";
  } else {
    C.Dir = "/tmp/freetensor-cache." + std::to_string(::getuid());
  }
  if (const char *M = std::getenv("FT_CACHE_MEM_ENTRIES")) {
    char *End = nullptr;
    long N = std::strtol(M, &End, 10);
    if (End != M && N >= 0)
      C.MemEntries = static_cast<size_t>(N);
  }
  return C;
}

uint64_t ft::kernel_cache::compilerId() {
  static uint64_t Id = [] {
    size_t H = 0xcc1d;
    // `cc --version` first line changes on any toolchain upgrade.
    if (std::FILE *P = ::popen("g++ --version 2>/dev/null", "r")) {
      char Buf[4096];
      std::string Out;
      size_t N;
      while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
        Out.append(Buf, N);
      ::pclose(P);
      H = combine(H, hashStr(Out));
    }
    // Kernels compile with -march=native, so the effective target flags are
    // part of the binary's identity: two nodes sharing a cache directory
    // must not exchange `.so`s built for different micro-architectures.
    if (std::FILE *P =
            ::popen("g++ -march=native -Q --help=target 2>/dev/null", "r")) {
      char Buf[4096];
      std::string Out;
      size_t N;
      while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
        Out.append(Buf, N);
      ::pclose(P);
      H = combine(H, hashStr(Out));
    }
    // The prelude is compiled into every kernel; changing it changes the
    // binary's behavior even for identical IR.
    H = combine(H, hashStr(readWholeFile(std::string(FT_RUNTIME_INCLUDE_DIR) +
                                         "/ft_prelude.h")));
    return static_cast<uint64_t>(H);
  }();
  return Id;
}

std::string Key::hex() const {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(Full));
  return Buf;
}

Key ft::kernel_cache::cacheKey(const Func &F, const CodegenOptions &Opts,
                               const std::string &OptFlags) {
  Key K;
  K.Fingerprint = fingerprint(F);
  size_t H = static_cast<size_t>(K.Fingerprint);
  // The symbol (derived from the Func name) is baked into the .so, and the
  // parameter-name list is the host-side run() binding — both must match
  // for a stored entry to be usable as-is.
  H = combine(H, hashStr(kernelSymbol(F)));
  for (const std::string &P : F.Params)
    H = combine(H, hashStr(P));
  H = combine(H, Opts.Profile ? 0x9f0f11e : 0x91a1);
  if (Opts.Profile)
    H = combine(H, hashStmtIds(F.Body));
  H = combine(H, hashStr(OptFlags));
  H = combine(H, static_cast<size_t>(compilerId()));
  H = combine(H, static_cast<size_t>(kSchemaVersion));
  K.Full = static_cast<uint64_t>(H);
  return K;
}

std::optional<Kernel> ft::kernel_cache::memLookup(uint64_t FullKey) {
  MemTier &T = memTier();
  std::lock_guard<std::mutex> Lock(T.Mu);
  auto It = T.Index.find(FullKey);
  if (It == T.Index.end())
    return std::nullopt;
  T.Order.splice(T.Order.begin(), T.Order, It->second);
  return T.Order.front().second;
}

void ft::kernel_cache::memInsert(uint64_t FullKey, const Kernel &K,
                                 size_t Cap) {
  MemTier &T = memTier();
  std::lock_guard<std::mutex> Lock(T.Mu);
  if (Cap == 0)
    return;
  auto It = T.Index.find(FullKey);
  if (It != T.Index.end()) {
    // First writer wins: keep the resident handle (it may already be
    // shared out by memLookup) and just refresh its LRU position.
    T.Order.splice(T.Order.begin(), T.Order, It->second);
  } else {
    T.Order.emplace_front(FullKey, K);
    T.Index[FullKey] = T.Order.begin();
  }
  while (T.Order.size() > Cap) {
    T.Index.erase(T.Order.back().first);
    T.Order.pop_back();
  }
}

size_t ft::kernel_cache::memSize() {
  MemTier &T = memTier();
  std::lock_guard<std::mutex> Lock(T.Mu);
  return T.Order.size();
}

void ft::kernel_cache::memReset() {
  MemTier &T = memTier();
  std::lock_guard<std::mutex> Lock(T.Mu);
  T.Index.clear();
  T.Order.clear();
}

std::string ft::kernel_cache::diskLookup(const Config &Cfg, const Key &K) {
  std::string Base = entryBase(Cfg, K);
  if (Base.empty())
    return "";
  std::string So = Base + ".so";
  return fileExists(So) ? So : "";
}

std::string ft::kernel_cache::storedSource(const Config &Cfg, const Key &K) {
  std::string Base = entryBase(Cfg, K);
  if (Base.empty())
    return "";
  return readWholeFile(Base + ".cpp");
}

void ft::kernel_cache::publish(const Config &Cfg, const Key &K,
                               const std::string &SoPath,
                               const std::string &Source) {
  std::string Base = entryBase(Cfg, K);
  if (Base.empty() || !makeDirs(Cfg.Dir))
    return;
  std::string SoBytes = readWholeFile(SoPath);
  if (SoBytes.empty())
    return;
  // Source first: a reader that sees the .so may read the .cpp next.
  writeAtomic(Base + ".cpp", Source);
  if (writeAtomic(Base + ".so", SoBytes))
    ::chmod((Base + ".so").c_str(), 0755);
}

void ft::kernel_cache::evictDisk(const Config &Cfg, const Key &K) {
  std::string Base = entryBase(Cfg, K);
  if (Base.empty())
    return;
  ::unlink((Base + ".so").c_str());
  ::unlink((Base + ".cpp").c_str());
}

//===- serve/dispatch.cpp -------------------------------------------------===//

#include "serve/dispatch.h"

#include "serve/shape_key.h"

using namespace ft;
using namespace ft::serve;

const char *ft::serve::nameOf(KernelState S) {
  switch (S) {
  case KernelState::Cold:
    return "cold";
  case KernelState::Compiling:
    return "compiling";
  case KernelState::Ready:
    return "ready";
  case KernelState::Failed:
    return "failed";
  }
  return "?";
}

KernelEntry::KernelEntry(uint64_t Key, Func Fn, bool IsSpec)
    : Key(Key), F(std::move(Fn)), Contract(argContractOf(F)),
      StaticShapeKey(staticShapeKeyOf(Contract)), IsSpec(IsSpec) {}

bool KernelEntry::beginCompile() {
  std::lock_guard<std::mutex> Lock(Mu);
  if (State != KernelState::Cold)
    return false;
  State = KernelState::Compiling;
  return true;
}

void KernelEntry::finishCompile(Kernel Kern) {
  std::lock_guard<std::mutex> Lock(Mu);
  K = std::move(Kern);
  State = KernelState::Ready;
}

void KernelEntry::failCompile(std::string Msg) {
  std::lock_guard<std::mutex> Lock(Mu);
  FailMsg = std::move(Msg);
  State = KernelState::Failed;
}

KernelState KernelEntry::state() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return State;
}

std::optional<Kernel> KernelEntry::kernel() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return State == KernelState::Ready ? K : std::nullopt;
}

std::string KernelEntry::failure() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return FailMsg;
}

std::shared_ptr<KernelEntry> KernelDirectory::intern(uint64_t Key,
                                                     const Func &F) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Map.find(Key);
  if (It != Map.end())
    return It->second;
  auto E = std::make_shared<KernelEntry>(Key, F);
  Map.emplace(Key, E);
  return E;
}

size_t KernelDirectory::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.size();
}

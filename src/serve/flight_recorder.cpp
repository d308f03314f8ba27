//===- serve/flight_recorder.cpp ------------------------------------------===//

#include "serve/flight_recorder.h"

#include <algorithm>
#include <cstdlib>
#include <iterator>
#include <mutex>

namespace ft::serve {

namespace {
constexpr size_t kMaxErrorBytes = 160;

size_t capFromEnv() {
  if (const char *E = std::getenv("FT_FLIGHT_CAP")) {
    char *End = nullptr;
    long V = std::strtol(E, &End, 10);
    if (End != E && V > 0)
      return size_t(V);
  }
  return 512;
}
} // namespace

const char *nameOf(Outcome O) {
  switch (O) {
  case Outcome::Ok:
    return "ok";
  case Outcome::InvalidArgs:
    return "invalid_args";
  case Outcome::RunError:
    return "run_error";
  case Outcome::RejectedFull:
    return "rejected_full";
  case Outcome::RejectedShutdown:
    return "rejected_shutdown";
  }
  return "unknown";
}

struct FlightRecorder::Impl {
  mutable std::mutex Mu;
  /// The buffered events in slots reused in place: the ring grows to Cap,
  /// then each record move-assigns over the oldest slot, so a full ring
  /// allocates and frees nothing per event.
  std::vector<FlightEvent> Ring;
  size_t Head = 0; ///< Slot of the oldest event; 0 until the ring is full.
  size_t Cap;
  uint64_t NextSeq = 0;
  FlightSummary Sum;

  /// The \p J-th oldest buffered event.
  const FlightEvent &at(size_t J) const {
    return Ring[(Head + J) % Ring.size()];
  }
  /// Rotates the ring so that slot 0 holds the oldest event.
  void unwrap() {
    std::rotate(Ring.begin(), Ring.begin() + Head, Ring.end());
    Head = 0;
  }
};

FlightRecorder::FlightRecorder(size_t Cap) : I(std::make_unique<Impl>()) {
  I->Cap = Cap == 0 ? 1 : Cap;
}

FlightRecorder::~FlightRecorder() = default;

void FlightRecorder::record(FlightEvent E) {
  if (E.Error.size() > kMaxErrorBytes) {
    E.Error.resize(kMaxErrorBytes - 3);
    E.Error += "...";
  }
  std::lock_guard<std::mutex> L(I->Mu);
  E.Seq = I->NextSeq++;
  ++I->Sum.Recorded;
  switch (E.Out) {
  case Outcome::Ok:
    ++I->Sum.Ok;
    break;
  case Outcome::InvalidArgs:
    ++I->Sum.InvalidArgs;
    break;
  case Outcome::RunError:
    ++I->Sum.RunErrors;
    break;
  case Outcome::RejectedFull:
    ++I->Sum.RejectedFull;
    break;
  case Outcome::RejectedShutdown:
    ++I->Sum.RejectedShutdown;
    break;
  }
  if (I->Ring.size() < I->Cap) {
    I->Ring.push_back(std::move(E));
  } else {
    I->Ring[I->Head] = std::move(E);
    I->Head = (I->Head + 1) % I->Ring.size();
  }
}

std::vector<FlightEvent> FlightRecorder::drain() {
  std::lock_guard<std::mutex> L(I->Mu);
  I->unwrap();
  std::vector<FlightEvent> Out(std::make_move_iterator(I->Ring.begin()),
                               std::make_move_iterator(I->Ring.end()));
  I->Ring.clear();
  return Out;
}

std::vector<FlightEvent> FlightRecorder::peek(size_t Max) const {
  std::lock_guard<std::mutex> L(I->Mu);
  size_t N = I->Ring.size();
  size_t Take = (Max == 0 || Max > N) ? N : Max;
  std::vector<FlightEvent> Out;
  Out.reserve(Take);
  // Newest Take events, still emitted oldest-first.
  for (size_t J = N - Take; J < N; ++J)
    Out.push_back(I->at(J));
  return Out;
}

FlightSummary FlightRecorder::summary() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->Sum;
}

size_t FlightRecorder::capacity() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->Cap;
}

size_t FlightRecorder::size() const {
  std::lock_guard<std::mutex> L(I->Mu);
  return I->Ring.size();
}

void FlightRecorder::setCapacity(size_t Cap) {
  std::lock_guard<std::mutex> L(I->Mu);
  I->Cap = Cap == 0 ? 1 : Cap;
  I->unwrap();
  if (I->Ring.size() > I->Cap)
    I->Ring.erase(I->Ring.begin(), I->Ring.end() - I->Cap);
}

void FlightRecorder::reset() {
  std::lock_guard<std::mutex> L(I->Mu);
  I->Ring.clear();
  I->Head = 0;
  I->Sum = FlightSummary{};
  I->NextSeq = 0;
}

FlightRecorder &flightRecorder() {
  static FlightRecorder *R = new FlightRecorder(capFromEnv());
  return *R;
}

} // namespace ft::serve

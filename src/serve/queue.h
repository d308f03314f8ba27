//===- serve/queue.h - Bounded MPMC request queue ----------------*- C++ -*-===//
///
/// \file
/// The bounded multi-producer/multi-consumer queue at the front of the
/// kernel-serving runtime (serve/serve.h). Capacity is the backpressure
/// mechanism: producers either observe Full (reject policy) or block until
/// space frees (block policy); consumers block until work or close().
///
/// Beyond plain push/pop it supports the dispatcher's micro-batching scan:
/// extractIf pulls the queued elements matching a predicate (same kernel
/// fingerprint) so one worker can execute them back-to-back. It never
/// waits for more to arrive.
///
/// A push wakes the consumer that went idle last. Under light load one
/// worker then serves request after request on a warm core, where waking
/// the longest-idle one would alternate the workers and move the kernel's
/// buffers and the telemetry state to another core on every request.
///
//===----------------------------------------------------------------------===//

#ifndef FT_SERVE_QUEUE_H
#define FT_SERVE_QUEUE_H

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <vector>

namespace ft::serve {

/// Outcome of a push attempt.
enum class PushResult {
  Ok,     ///< Enqueued.
  Full,   ///< Bounded capacity reached (tryPush only).
  Closed, ///< close() was called; the queue accepts nothing further.
};

/// See the file comment. All operations are linearizable under one internal
/// mutex; elements must be movable.
template <typename T> class BoundedQueue {
public:
  explicit BoundedQueue(size_t Cap) : Cap(Cap < 1 ? 1 : Cap) {}

  /// Non-blocking enqueue: Full when at capacity (the reject policy).
  PushResult tryPush(T V) {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (IsClosed)
        return PushResult::Closed;
      if (Q.size() >= Cap)
        return PushResult::Full;
      Q.push_back(std::move(V));
      wakeLastIdleLocked();
    }
    return PushResult::Ok;
  }

  /// Blocking enqueue: waits while full (the block policy). Closed when the
  /// queue is closed before space frees.
  PushResult pushWait(T V) {
    {
      std::unique_lock<std::mutex> Lock(Mu);
      NotFull.wait(Lock, [&] { return IsClosed || Q.size() < Cap; });
      if (IsClosed)
        return PushResult::Closed;
      Q.push_back(std::move(V));
      wakeLastIdleLocked();
    }
    return PushResult::Ok;
  }

  /// Blocking dequeue of the oldest element; nullopt once closed and
  /// drained (the consumer's exit signal).
  std::optional<T> popWait() {
    std::optional<T> Out;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      while (Q.empty() && !IsClosed) {
        std::condition_variable Cv;
        Idle.push_back(&Cv);
        Cv.wait(Lock);
        // A waker pops its target off Idle; a spurious wakeup must.
        auto It = std::find(Idle.begin(), Idle.end(), &Cv);
        if (It != Idle.end())
          Idle.erase(It);
      }
      if (Q.empty())
        return std::nullopt;
      Out = std::move(Q.front());
      Q.pop_front();
    }
    NotFull.notify_one();
    return Out;
  }

  /// Removes up to \p Max queued elements satisfying \p P (front to back,
  /// preserving order) into \p Out. Non-blocking; returns the count moved.
  template <typename Pred>
  size_t extractIf(const Pred &P, size_t Max, std::vector<T> &Out) {
    size_t Moved = 0;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      for (auto It = Q.begin(); It != Q.end() && Moved < Max;) {
        if (P(*It)) {
          Out.push_back(std::move(*It));
          It = Q.erase(It);
          ++Moved;
        } else {
          ++It;
        }
      }
    }
    if (Moved > 0)
      NotFull.notify_all();
    return Moved;
  }

  /// Rejects all further pushes and wakes every waiter. Elements already
  /// queued stay poppable (drain-on-shutdown pops them before exiting).
  void close() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      IsClosed = true;
      for (std::condition_variable *Cv : Idle)
        Cv->notify_one();
      Idle.clear();
    }
    NotFull.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return IsClosed;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Q.size();
  }

  size_t capacity() const { return Cap; }

private:
  /// Wakes the consumer that went idle last. Called with Mu held: the
  /// condition variable lives on the waiting consumer's stack, which it
  /// cannot leave before reacquiring Mu.
  void wakeLastIdleLocked() {
    if (Idle.empty())
      return;
    Idle.back()->notify_one();
    Idle.pop_back();
  }

  mutable std::mutex Mu;
  /// Consumers blocked in popWait, in the order they went idle.
  std::vector<std::condition_variable *> Idle;
  std::condition_variable NotFull;
  std::deque<T> Q;
  size_t Cap;
  bool IsClosed = false;
};

} // namespace ft::serve

#endif // FT_SERVE_QUEUE_H

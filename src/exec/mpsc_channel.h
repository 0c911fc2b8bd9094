// Bounded MPSC channel of tuple micro-batches — the unit of cross-thread
// handoff in the native runtime (the same micro-batches PR 5 introduced on
// the simulated data path travel here between OS threads).
//
// Semantics:
//  * Multiple producers, one consumer. Each producer registers up front
//    (producer count is fixed at wiring time) and calls CloseProducer()
//    exactly once when it finishes; when the last producer closes and the
//    ring drains, Pop() returns nullptr and the consumer shuts down — the
//    dataflow quiesces topologically, no poison pills.
//  * Push blocks while the ring is full (bounded queue => back-pressure
//    propagates upstream to the sources, mirroring the simulator's
//    reservation-based admission).
//  * Mutex + two condvars rather than a lock-free ring: under load, batches
//    fill to EngineConfig::native.data_path.batch_tuples and amortize the
//    lock over that many tuples; at light load batches are small but the
//    lock is then uncontended. Contention shows up in the blocked/wait
//    counters long before the mutex itself is the bottleneck.
//    The counters (push_blocks / pop_waits) are reported by
//    bench_native_speed as the channel-contention signal.
//  * drained() is a lock-free hint for producers that batch: it reads true
//    while the consumer has nothing queued (the ring is empty) or the
//    channel was aborted. A producer holding a partial batch pushes it as
//    soon as its consumer drains instead of waiting for the batch to fill
//    ("drain-clocked" batching: full batches under load, near-single
//    tuples when the consumer keeps up). The flag is written under the
//    mutex (by a push, by the pop that empties the ring and by Abort) and
//    read relaxed: a stale read only moves a push earlier or later, never
//    reorders or drops anything.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>

#include "common/status.h"

namespace elasticutor {
namespace exec {

struct TupleBatchStorage;  // exec/batch_pool.h

class MpscChannel {
 public:
  /// `capacity` bounds the number of in-flight batches; `producers` is the
  /// number of CloseProducer() calls after which the channel is closed.
  MpscChannel(size_t capacity, int producers)
      : capacity_(capacity), producers_open_(producers) {
    ELASTICUTOR_CHECK(capacity > 0);
    ELASTICUTOR_CHECK(producers > 0);
  }

  MpscChannel(const MpscChannel&) = delete;
  MpscChannel& operator=(const MpscChannel&) = delete;

  /// Blocks while full; returns false iff the channel was force-closed
  /// (Abort) and the batch was not enqueued.
  bool Push(TupleBatchStorage* batch) {
    std::unique_lock<std::mutex> lock(mu_);
    if (ring_.size() >= capacity_) {
      ++push_blocks_;
      not_full_.wait(lock,
                     [this] { return ring_.size() < capacity_ || aborted_; });
    }
    if (aborted_) return false;
    ring_.push_back(batch);
    ++batches_pushed_;
    drained_.store(false, std::memory_order_relaxed);
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking pop; nullptr when currently empty (channel may still be
  /// open). The consumer uses this to flush partial output batches before
  /// committing to a blocking Pop().
  TupleBatchStorage* TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    return PopLocked();
  }

  /// Blocks until a batch arrives, the channel is closed (all producers
  /// done) and drained, or a Kick() lands. nullptr no longer means "done"
  /// by itself — a kicked consumer gets a spurious nullptr so it can
  /// revisit out-of-band state (the elastic control board); check
  /// exhausted() to distinguish shutdown from a wake-up.
  TupleBatchStorage* Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    if (ring_.empty() && producers_open_ > 0 && !aborted_ && !kicked_) {
      ++pop_waits_;
      not_empty_.wait(lock, [this] {
        return !ring_.empty() || producers_open_ == 0 || aborted_ || kicked_;
      });
    }
    kicked_ = false;  // Any return lets the consumer poll its control state.
    return PopLocked();
  }

  /// Wakes a consumer blocked in Pop() without closing anything: its Pop
  /// returns (possibly nullptr on an empty ring). Used by the elastic
  /// control plane so an idle worker notices new label/migration duties.
  void Kick() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      kicked_ = true;
    }
    not_empty_.notify_all();
  }

  /// Lock-free drain hint (see the file comment): true while the ring is
  /// empty or the channel was aborted. A Kick leaves it unchanged.
  bool drained() const { return drained_.load(std::memory_order_relaxed); }

  /// True once the channel can never yield another batch: drained and
  /// either closed by all producers or aborted. The consumer's shutdown
  /// test (a plain nullptr from Pop may just be a Kick).
  bool exhausted() const {
    std::lock_guard<std::mutex> lock(mu_);
    return ring_.empty() && (producers_open_ == 0 || aborted_);
  }

  /// A new producer joins a live channel (WorkerPool::GrowWorkers wires a
  /// grown worker into every downstream channel). Only legal while at least
  /// one producer is still open: once the last producer closed, the
  /// consumer may already have observed exhaustion and exited.
  void AddProducer() {
    std::lock_guard<std::mutex> lock(mu_);
    ELASTICUTOR_CHECK_MSG(producers_open_ > 0,
                          "AddProducer on a closed channel");
    ++producers_open_;
  }

  /// A producer finished for good (source budget exhausted / stop request /
  /// upstream channel closed).
  void CloseProducer() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ELASTICUTOR_CHECK_MSG(producers_open_ > 0,
                            "CloseProducer called more times than producers");
      --producers_open_;
      if (producers_open_ > 0) return;
    }
    not_empty_.notify_all();  // Consumer may be waiting on an empty ring.
  }

  /// Emergency teardown: unblocks producers and the consumer regardless of
  /// ring state (batches still in the ring are returned by Pop until
  /// drained).
  void Abort() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      aborted_ = true;
      drained_.store(true, std::memory_order_relaxed);  // Pushes fail fast.
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  // ---- Contention counters (monotone; read after threads joined) ----
  int64_t push_blocks() const {
    std::lock_guard<std::mutex> lock(mu_);
    return push_blocks_;
  }
  int64_t pop_waits() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pop_waits_;
  }
  int64_t batches_pushed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return batches_pushed_;
  }

 private:
  TupleBatchStorage* PopLocked() {
    if (ring_.empty()) return nullptr;
    TupleBatchStorage* batch = ring_.front();
    ring_.pop_front();
    if (ring_.empty()) drained_.store(true, std::memory_order_relaxed);
    not_full_.notify_one();
    return batch;
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<TupleBatchStorage*> ring_;
  int producers_open_;
  bool aborted_ = false;
  bool kicked_ = false;
  /// Written under mu_, read lock-free by drained().
  std::atomic<bool> drained_{true};
  int64_t push_blocks_ = 0;
  int64_t pop_waits_ = 0;
  int64_t batches_pushed_ = 0;
};

}  // namespace exec
}  // namespace elasticutor

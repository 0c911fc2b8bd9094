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
//    lock is then uncontended.
//  * Spin-then-park consumer wait. A Pop(/*spin=*/true) that finds nothing
//    to do polls one lock-free word (`signals_`) for up to kPopSpinNs
//    before it takes the mutex and parks on the condvar. The word is
//    rewritten under the mutex by everything that ends a wait: a push, a
//    Kick, the last CloseProducer and Abort; so a kicked or closed spinner
//    returns at once, never after the spin bound. A consumer that has a
//    CPU to itself thereby takes a push without a futex wake-up of a
//    sleeping thread (on a virtualised host: of a halted vCPU), which is
//    most of an open-loop tuple's latency. Spinning on a shared CPU would
//    steal the producer's time, so the caller decides: NativeRuntime
//    spins only while its threads (live sources + live workers + the
//    driver) fit the CPUs the process may use (ThreadsFitCpus in
//    exec/native_runtime.h) and parks at once otherwise.
//  * Low-water producer wake-up. A producer blocked on a full ring is
//    woken when the ring falls to capacity/2 (for capacity 1: empty), not
//    on every pop, so one wake-up refills many slots instead of one.
//    Producers still wait for "not full", so FIFO and the label-marker
//    ordering are untouched.
//  * The counters (push_blocks / pop_waits) are reported by
//    bench_native_speed as the channel-contention signal. pop_waits counts
//    the times the consumer parked: a spin that ended with a batch is not
//    a wait.
//  * drained() is a lock-free hint for producers that batch: it reads true
//    while the consumer has nothing queued (the ring is empty) or the
//    channel was aborted. A producer holding a partial batch pushes it as
//    soon as its consumer drains instead of waiting for the batch to fill
//    ("drain-clocked" batching: full batches under load, near-single
//    tuples when the consumer keeps up). It is read relaxed from the same
//    word the spinning consumer polls: a stale read only moves a push
//    earlier or later, never reorders or drops anything.
#pragma once

#include <atomic>
#include <chrono>
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
  /// How long Pop(/*spin=*/true) polls before it parks. Long enough to
  /// cover the gap between open-loop batches at a few hundred thousand
  /// tuples/s; short enough that an idle consumer gives its CPU back soon.
  static constexpr int64_t kPopSpinNs = 20'000;

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
      ++push_waiters_;
      not_full_.wait(lock,
                     [this] { return ring_.size() < capacity_ || aborted_; });
      --push_waiters_;
    }
    if (aborted_) return false;
    ring_.push_back(batch);
    ++batches_pushed_;
    PublishLocked();
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
  /// exhausted() to distinguish shutdown from a wake-up. With `spin` the
  /// consumer first polls for up to kPopSpinNs before it parks (see the
  /// file comment); pass it only when the consumer has a CPU to itself.
  TupleBatchStorage* Pop(bool spin = false) {
    if (spin) SpinWhileIdle();
    std::unique_lock<std::mutex> lock(mu_);
    if (ring_.empty() && producers_open_ > 0 && !aborted_ && !kicked_) {
      ++pop_waits_;
      not_empty_.wait(lock, [this] {
        return !ring_.empty() || producers_open_ == 0 || aborted_ || kicked_;
      });
    }
    kicked_ = false;  // Any return lets the consumer poll its control state.
    TupleBatchStorage* batch = PopLocked();
    PublishLocked();
    return batch;
  }

  /// Wakes a consumer blocked in Pop() without closing anything: its Pop
  /// returns (possibly nullptr on an empty ring). Used by the elastic
  /// control plane so an idle worker notices new label/migration duties.
  void Kick() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      kicked_ = true;
      PublishLocked();  // Ends a spinning Pop at once.
    }
    not_empty_.notify_all();
  }

  /// Lock-free drain hint (see the file comment): true while the ring is
  /// empty or the channel was aborted. A Kick leaves it unchanged.
  bool drained() const {
    const uint32_t s = signals_.load(std::memory_order_relaxed);
    return (s & kQueued) == 0 || (s & kAborted) != 0;
  }

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
      PublishLocked();
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
      PublishLocked();  // Pushes fail fast; a spinning Pop returns.
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
  /// Bits of `signals_`: each is a condition that ends a consumer's wait.
  static constexpr uint32_t kQueued = 1;   // The ring holds a batch.
  static constexpr uint32_t kKicked = 2;   // A Kick awaits the consumer.
  static constexpr uint32_t kClosed = 4;   // Every producer closed.
  static constexpr uint32_t kAborted = 8;  // Abort was called.

  TupleBatchStorage* PopLocked() {
    if (ring_.empty()) return nullptr;
    TupleBatchStorage* batch = ring_.front();
    ring_.pop_front();
    if (ring_.empty()) PublishLocked();
    // Low-water wake-up (see the file comment).
    if (push_waiters_ > 0 && ring_.size() <= capacity_ / 2) {
      not_full_.notify_all();
    }
    return batch;
  }

  /// Mirrors the wait-ending state into `signals_`. Caller holds mu_; the
  /// store is skipped when nothing changed, so a pop that leaves batches
  /// queued does not dirty the line producers read drained() from.
  void PublishLocked() {
    uint32_t s = 0;
    if (!ring_.empty()) s |= kQueued;
    if (kicked_) s |= kKicked;
    if (producers_open_ == 0) s |= kClosed;
    if (aborted_) s |= kAborted;
    if (signals_.load(std::memory_order_relaxed) != s) {
      signals_.store(s, std::memory_order_relaxed);
    }
  }

  /// The spin half of Pop: polls `signals_` until something would end the
  /// wait or kPopSpinNs passed. Relaxed loads suffice: the caller takes mu_
  /// next and re-reads the real state under it.
  void SpinWhileIdle() const {
    if (signals_.load(std::memory_order_relaxed) != 0) return;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::nanoseconds(kPopSpinNs);
    for (uint32_t i = 1; signals_.load(std::memory_order_relaxed) == 0; ++i) {
      CpuRelax();
      // Read the clock every 16 polls: it costs more than the poll itself.
      if (i % 16 == 0 && std::chrono::steady_clock::now() >= deadline) {
        return;
      }
    }
  }

  static void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<TupleBatchStorage*> ring_;
  int producers_open_;
  bool aborted_ = false;
  bool kicked_ = false;
  /// Producers parked in Push on a full ring.
  int push_waiters_ = 0;
  /// kQueued | kKicked | kClosed | kAborted; written under mu_ by
  /// PublishLocked, read lock-free by drained() and the spinning consumer.
  std::atomic<uint32_t> signals_{0};
  int64_t push_blocks_ = 0;
  int64_t pop_waits_ = 0;
  int64_t batches_pushed_ = 0;
};

}  // namespace exec
}  // namespace elasticutor

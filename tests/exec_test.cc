// Unit tests for the execution-backend seam (src/exec/): the native
// backend's timer semantics (which must mirror the simulator's), the bounded
// MPSC channel, the batch pool, and the thread-safety of the EventFn
// heap-allocation counter. The sim-vs-native dataflow equivalence lives in
// native_equivalence_test.cc.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/engine_config.h"
#include "exec/batch_pool.h"
#include "exec/cpu_affinity.h"
#include "exec/label_barrier.h"
#include "exec/mpsc_channel.h"
#include "exec/native_backend.h"
#include "exec/native_runtime.h"
#include "exec/sim_backend.h"
#include "exec/telemetry.h"
#include "sim/event_fn.h"
#include "workload/micro.h"

namespace elasticutor {
namespace {

using exec::BatchPool;
using exec::MpscChannel;
using exec::NativeBackend;
using exec::TupleBatchStorage;

// ---------------------------------------------------------------------------
// NativeBackend: wall-clock timers with simulator-compatible semantics.
// ---------------------------------------------------------------------------

TEST(NativeBackendTest, KindAndNameRoundTrip) {
  NativeBackend backend;
  EXPECT_EQ(backend.kind(), exec::BackendKind::kNative);
  EXPECT_STREQ(exec::BackendKindName(backend.kind()), "native");
  exec::SimBackend sim;
  EXPECT_STREQ(exec::BackendKindName(sim.kind()), "sim");
}

TEST(NativeBackendTest, NowIsMonotonic) {
  NativeBackend backend;
  SimTime a = backend.now();
  SimTime b = backend.now();
  EXPECT_GE(a, 0);
  EXPECT_GE(b, a);
}

TEST(NativeBackendTest, AfterFiresWithinRunUntil) {
  NativeBackend backend;
  bool fired = false;
  backend.After(Millis(1), [&]() { fired = true; });
  uint64_t executed = backend.RunUntil(backend.now() + Millis(200));
  EXPECT_TRUE(fired);
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(backend.events_executed(), 1u);
}

TEST(NativeBackendTest, NegativeDelayClampsToNow) {
  NativeBackend backend;
  bool fired = false;
  backend.After(-Millis(5), [&]() { fired = true; });  // Clamps like sim.
  backend.RunUntil(backend.now() + Millis(50));
  EXPECT_TRUE(fired);
}

TEST(NativeBackendTest, SameDeadlineFiresInScheduleOrder) {
  NativeBackend backend;
  std::vector<int> order;
  const SimTime at = backend.now() + Millis(2);
  for (int i = 0; i < 8; ++i) {
    backend.At(at, [&order, i]() { order.push_back(i); });
  }
  backend.RunUntil(at + Millis(200));
  ASSERT_EQ(order.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[i], i);
}

TEST(NativeBackendTest, CancelPreventsFiring) {
  NativeBackend backend;
  bool fired = false;
  EventId id = backend.After(Millis(5), [&]() { fired = true; });
  EXPECT_TRUE(backend.Cancel(id));
  EXPECT_FALSE(backend.Cancel(id));  // Already cancelled.
  backend.RunUntil(backend.now() + Millis(50));
  EXPECT_FALSE(fired);
  EXPECT_EQ(backend.events_executed(), 0u);
}

TEST(NativeBackendTest, CancelAfterFiringReturnsFalse) {
  NativeBackend backend;
  EventId id = backend.After(0, []() {});
  backend.RunUntil(backend.now() + Millis(50));
  EXPECT_FALSE(backend.Cancel(id));
}

TEST(NativeBackendTest, ScheduleFromAnotherThreadFires) {
  NativeBackend backend;
  std::atomic<bool> fired{false};
  // The driver parks far in the future; a worker schedules an earlier timer,
  // which must wake the driver rather than wait out the original deadline.
  std::thread scheduler([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    backend.After(0, [&]() { fired.store(true); });
  });
  backend.RunUntil(backend.now() + Millis(500));
  scheduler.join();
  EXPECT_TRUE(fired.load());
}

TEST(NativeBackendTest, StopWakesUnboundedRunUntil) {
  NativeBackend backend;
  std::thread stopper([&]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    backend.Stop();
  });
  backend.RunUntil(kSimTimeMax);  // Returns promptly on Stop, no deadline.
  stopper.join();
}

TEST(NativeBackendTest, PeriodicFiresUntilCallbackDeclines) {
  NativeBackend backend;
  int fires = 0;
  backend.Periodic(backend.now() + Millis(1), Millis(1),
                   [&](SimTime) { return ++fires < 3; });
  backend.RunUntil(backend.now() + Millis(500));
  EXPECT_EQ(fires, 3);
}

// ---------------------------------------------------------------------------
// MpscChannel.
// ---------------------------------------------------------------------------

TEST(MpscChannelTest, FifoRoundTripAndCloseDrain) {
  MpscChannel ch(/*capacity=*/4, /*producers=*/1);
  std::array<TupleBatchStorage, 3> batches;
  for (auto& b : batches) EXPECT_TRUE(ch.Push(&b));
  ch.CloseProducer();
  // Closed but not drained: batches come out in FIFO order, then nullptr.
  EXPECT_EQ(ch.Pop(), &batches[0]);
  EXPECT_EQ(ch.TryPop(), &batches[1]);
  EXPECT_EQ(ch.Pop(), &batches[2]);
  EXPECT_EQ(ch.Pop(), nullptr);
  EXPECT_EQ(ch.TryPop(), nullptr);
  EXPECT_EQ(ch.batches_pushed(), 3);
}

TEST(MpscChannelTest, TryPopOnEmptyOpenChannelReturnsNull) {
  MpscChannel ch(2, 1);
  EXPECT_EQ(ch.TryPop(), nullptr);
  ch.CloseProducer();
}

TEST(MpscChannelTest, PopBlocksUntilPush) {
  MpscChannel ch(2, 1);
  TupleBatchStorage batch;
  TupleBatchStorage* popped = nullptr;
  std::thread consumer([&]() { popped = ch.Pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(ch.Push(&batch));
  consumer.join();
  EXPECT_EQ(popped, &batch);
  EXPECT_GE(ch.pop_waits(), 1);
  ch.CloseProducer();
}

TEST(MpscChannelTest, FullChannelBlocksProducerUntilPop) {
  MpscChannel ch(/*capacity=*/1, /*producers=*/1);
  TupleBatchStorage first, second;
  EXPECT_TRUE(ch.Push(&first));
  std::atomic<bool> second_pushed{false};
  std::thread producer([&]() {
    EXPECT_TRUE(ch.Push(&second));  // Blocks: channel is full.
    second_pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(ch.Pop(), &first);  // Frees a slot; producer unblocks.
  producer.join();
  EXPECT_TRUE(second_pushed.load());
  EXPECT_EQ(ch.Pop(), &second);
  EXPECT_GE(ch.push_blocks(), 1);
  ch.CloseProducer();
}

TEST(MpscChannelTest, LastProducerCloseWakesBlockedConsumer) {
  MpscChannel ch(4, /*producers=*/3);
  TupleBatchStorage sentinel;
  TupleBatchStorage* popped = &sentinel;
  std::thread consumer([&]() { popped = ch.Pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ch.CloseProducer();
  ch.CloseProducer();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  ch.CloseProducer();  // Last close: consumer must see nullptr.
  consumer.join();
  EXPECT_EQ(popped, nullptr);
}

TEST(MpscChannelTest, MultiProducerStressDeliversEverything) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 200;
  MpscChannel ch(/*capacity=*/8, kProducers);
  std::vector<std::unique_ptr<TupleBatchStorage>> storage;
  storage.reserve(kProducers * kPerProducer);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    storage.push_back(std::make_unique<TupleBatchStorage>());
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p]() {
      for (int i = 0; i < kPerProducer; ++i) {
        EXPECT_TRUE(ch.Push(storage[p * kPerProducer + i].get()));
      }
      ch.CloseProducer();
    });
  }
  int consumed = 0;
  while (ch.Pop() != nullptr) ++consumed;
  for (auto& t : producers) t.join();
  EXPECT_EQ(consumed, kProducers * kPerProducer);
  EXPECT_EQ(ch.batches_pushed(), kProducers * kPerProducer);
}

TEST(MpscChannelTest, AbortUnblocksFullChannelProducer) {
  MpscChannel ch(/*capacity=*/1, /*producers=*/1);
  TupleBatchStorage first, second;
  EXPECT_TRUE(ch.Push(&first));
  std::atomic<bool> push_result{true};
  std::thread producer([&]() { push_result.store(ch.Push(&second)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ch.Abort();
  producer.join();
  EXPECT_FALSE(push_result.load());  // Aborted push reports failure.
}

TEST(MpscChannelTest, DrainedHintTracksTheRing) {
  MpscChannel ch(/*capacity=*/4, /*producers=*/1);
  TupleBatchStorage a, b;
  EXPECT_TRUE(ch.drained());  // Nothing ever pushed.
  ASSERT_TRUE(ch.Push(&a));
  EXPECT_FALSE(ch.drained());
  ASSERT_TRUE(ch.Push(&b));
  EXPECT_EQ(ch.TryPop(), &a);
  EXPECT_FALSE(ch.drained());  // One batch still queued.
  EXPECT_EQ(ch.TryPop(), &b);
  EXPECT_TRUE(ch.drained());
  EXPECT_EQ(ch.TryPop(), nullptr);
  EXPECT_TRUE(ch.drained());

  // A consumer parked in a blocking Pop: drained until the push lands, and
  // drained again once the push was taken.
  TupleBatchStorage* popped = nullptr;
  std::thread consumer([&] { popped = ch.Pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_TRUE(ch.drained());
  ASSERT_TRUE(ch.Push(&a));
  consumer.join();
  EXPECT_EQ(popped, &a);
  EXPECT_TRUE(ch.drained());

  // A Kick wakes the consumer without changing the hint either way.
  ch.Kick();
  EXPECT_TRUE(ch.drained());
  EXPECT_EQ(ch.Pop(), nullptr);  // The kick's spurious wake-up.
  ASSERT_TRUE(ch.Push(&a));
  ch.Kick();
  EXPECT_FALSE(ch.drained());
  EXPECT_EQ(ch.Pop(), &a);
  EXPECT_TRUE(ch.drained());

  // Abort raises the hint even over a non-empty ring, so a batching
  // producer pushes at once and learns of the teardown; it stays raised.
  ASSERT_TRUE(ch.Push(&b));
  EXPECT_FALSE(ch.drained());
  ch.Abort();
  EXPECT_TRUE(ch.drained());
  EXPECT_FALSE(ch.Push(&a));
  EXPECT_EQ(ch.Pop(), &b);  // Queued batches still drain after an abort.
  EXPECT_TRUE(ch.drained());
}

// ---------------------------------------------------------------------------
// BatchPool.
// ---------------------------------------------------------------------------

TEST(BatchPoolTest, ReleaseThenAcquireReusesWithoutAllocating) {
  BatchPool pool;
  TupleBatchStorage* a = pool.Acquire();
  EXPECT_EQ(pool.allocated(), 1);
  a->tuples.resize(16);
  const size_t capacity = a->tuples.capacity();
  pool.Release(a);
  TupleBatchStorage* b = pool.Acquire();
  EXPECT_EQ(b, a);                 // Reused, not reallocated.
  EXPECT_EQ(pool.allocated(), 1);  // Flat: the steady-state invariant.
  EXPECT_TRUE(b->tuples.empty());  // Cleared on release...
  EXPECT_GE(b->tuples.capacity(), capacity);  // ...but capacity retained.
  pool.Release(b);
}

TEST(BatchPoolTest, ConcurrentAcquireReleaseIsSafe) {
  BatchPool pool;
  constexpr int kThreads = 4;
  constexpr int kRounds = 500;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&]() {
      for (int i = 0; i < kRounds; ++i) {
        TupleBatchStorage* batch = pool.Acquire();
        batch->tuples.emplace_back();
        pool.Release(batch);
      }
    });
  }
  for (auto& t : threads) t.join();
  // At most one live batch per thread at any instant.
  EXPECT_GE(pool.allocated(), 1);
  EXPECT_LE(pool.allocated(), kThreads);
}

// ---------------------------------------------------------------------------
// EventFn::heap_allocations() under concurrent construction.
// ---------------------------------------------------------------------------

TEST(EventFnCounterTest, ConcurrentHeapFallbacksAreCountedExactly) {
  const int64_t before = EventFn::heap_allocations();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 100;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([]() {
      for (int i = 0; i < kPerThread; ++i) {
        // Oversized capture: guaranteed inline-storage miss.
        std::array<char, EventFn::kInlineBytes + 1> big{};
        EventFn fn([big]() { (void)big; });
        fn();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Relaxed atomics still count exactly; only ordering is unconstrained.
  EXPECT_EQ(EventFn::heap_allocations() - before, kThreads * kPerThread);
}

TEST(EventFnCounterTest, InlineCallablesDoNotTouchTheCounter) {
  const int64_t before = EventFn::heap_allocations();
  int x = 0;
  EventFn fn([&x]() { ++x; });
  EXPECT_FALSE(fn.on_heap());
  fn();
  EXPECT_EQ(x, 1);
  EXPECT_EQ(EventFn::heap_allocations(), before);
}

// ---------------------------------------------------------------------------
// In-channel labeling barrier: the primitive behind live shard reassignment
// (exec/label_barrier.h + the label-marker batches + MpscChannel::Kick).
// ---------------------------------------------------------------------------

TEST(LabelBarrierTest, CompletesOnLastExpectedMarker) {
  exec::LabelBarrier barrier;
  ASSERT_TRUE(barrier.Arm(/*label_id=*/7, /*expected=*/3));
  EXPECT_TRUE(barrier.armed(7));
  EXPECT_EQ(barrier.outstanding(7), 3);
  EXPECT_FALSE(barrier.OnLabel(7));
  EXPECT_FALSE(barrier.OnLabel(7));
  EXPECT_EQ(barrier.outstanding(7), 1);
  EXPECT_TRUE(barrier.OnLabel(7));  // Last marker: barrier completes.
  EXPECT_FALSE(barrier.armed(7));
  EXPECT_FALSE(barrier.OnLabel(7));  // Late marker of a done barrier: stale.
}

TEST(LabelBarrierTest, ZeroProducersMeansNothingToWaitFor) {
  exec::LabelBarrier barrier;
  EXPECT_FALSE(barrier.Arm(/*label_id=*/1, /*expected=*/0));
  EXPECT_FALSE(barrier.armed(1));
  EXPECT_EQ(barrier.outstanding(1), 0);
}

TEST(LabelBarrierTest, CancelMakesInFlightMarkersStaleAndAllowsRelabel) {
  exec::LabelBarrier barrier;
  ASSERT_TRUE(barrier.Arm(/*label_id=*/9, /*expected=*/2));
  EXPECT_TRUE(barrier.Cancel(9));  // Aborted migration.
  EXPECT_FALSE(barrier.Cancel(9));  // Already gone.
  EXPECT_FALSE(barrier.OnLabel(9));  // Its markers no-op from now on.
  // Re-labeling the same shard under a fresh id must not double count the
  // stale markers still in flight.
  ASSERT_TRUE(barrier.Arm(/*label_id=*/10, /*expected=*/1));
  EXPECT_FALSE(barrier.OnLabel(9));  // Another stale marker drains.
  EXPECT_TRUE(barrier.OnLabel(10));
}

TEST(LabelBarrierTest, IndependentLabelsDoNotInterfere) {
  exec::LabelBarrier barrier;
  ASSERT_TRUE(barrier.Arm(1, 1));
  ASSERT_TRUE(barrier.Arm(2, 2));
  EXPECT_TRUE(barrier.OnLabel(1));
  EXPECT_FALSE(barrier.OnLabel(2));
  EXPECT_TRUE(barrier.armed(2));
  EXPECT_TRUE(barrier.OnLabel(2));
}

TEST(MpscChannelTest, LabelMarkerArrivesBehindEarlierBatches) {
  // The whole point of the in-channel barrier: a marker pushed after N data
  // batches is popped after all N (per-producer FIFO), and Release resets
  // the label stamp so recycled batches are plain data again.
  MpscChannel channel(/*capacity=*/8, /*producers=*/1);
  BatchPool pool;
  constexpr int kData = 3;
  for (int i = 0; i < kData; ++i) {
    TupleBatchStorage* batch = pool.Acquire();
    EXPECT_EQ(batch->label_id, -1);
    batch->tuples.push_back(Tuple{});
    ASSERT_TRUE(channel.Push(batch));
  }
  TupleBatchStorage* marker = pool.Acquire();
  marker->label_id = 42;
  ASSERT_TRUE(channel.Push(marker));
  for (int i = 0; i < kData; ++i) {
    TupleBatchStorage* batch = channel.Pop();
    ASSERT_NE(batch, nullptr);
    EXPECT_EQ(batch->label_id, -1) << "marker overtook batch " << i;
    pool.Release(batch);
  }
  TupleBatchStorage* popped = channel.Pop();
  ASSERT_NE(popped, nullptr);
  EXPECT_EQ(popped->label_id, 42);
  pool.Release(popped);
  EXPECT_EQ(popped->label_id, -1);  // Recycled batches are data again.
}

TEST(MpscChannelTest, KickWakesBlockedPopWithoutClosing) {
  MpscChannel channel(/*capacity=*/2, /*producers=*/1);
  BatchPool pool;
  std::atomic<int> null_pops{0};
  TupleBatchStorage* got = nullptr;
  std::thread consumer([&] {
    for (;;) {
      TupleBatchStorage* batch = channel.Pop();
      if (batch != nullptr) {
        got = batch;
        return;
      }
      ASSERT_FALSE(channel.exhausted());  // A kick, not a shutdown.
      null_pops.fetch_add(1);
    }
  });
  // The consumer may be mid-Pop or not yet there; Kick must wake it either
  // way (the flag persists until the next Pop returns).
  channel.Kick();
  while (null_pops.load() == 0) std::this_thread::yield();
  TupleBatchStorage* batch = pool.Acquire();
  ASSERT_TRUE(channel.Push(batch));
  consumer.join();
  EXPECT_EQ(got, batch);
  EXPECT_FALSE(channel.exhausted());
  channel.CloseProducer();
  EXPECT_TRUE(channel.exhausted());
  pool.Release(batch);
}

TEST(MpscChannelTest, BarrierDrainsAcrossProducerClose) {
  // Two producers feed one consumer. Producer A pushes data then its
  // marker; producer B closes without ever pushing (its marker duty was
  // swept before the close — modeled here by the barrier expecting only
  // A's marker). The consumer's barrier completes exactly when A's marker
  // arrives, and the channel is exhausted only after both closed.
  MpscChannel channel(/*capacity=*/8, /*producers=*/2);
  BatchPool pool;
  exec::LabelBarrier barrier;
  ASSERT_TRUE(barrier.Arm(/*label_id=*/5, /*expected=*/1));

  TupleBatchStorage* data = pool.Acquire();
  data->tuples.push_back(Tuple{});
  ASSERT_TRUE(channel.Push(data));
  TupleBatchStorage* marker = pool.Acquire();
  marker->label_id = 5;
  ASSERT_TRUE(channel.Push(marker));
  channel.CloseProducer();  // A done.
  channel.CloseProducer();  // B closes without a marker.

  bool complete = false;
  int batches = 0;
  for (;;) {
    TupleBatchStorage* batch = channel.Pop();
    if (batch == nullptr) {
      ASSERT_TRUE(channel.exhausted());
      break;
    }
    if (batch->label_id >= 0) {
      complete = barrier.OnLabel(batch->label_id);
    } else {
      ++batches;
    }
    pool.Release(batch);
  }
  EXPECT_TRUE(complete);
  EXPECT_EQ(batches, 1);
  EXPECT_FALSE(barrier.armed(5));
}

// ---------------------------------------------------------------------------
// Resource-control plane units: config shape, telemetry clock, affinity shim.
// ---------------------------------------------------------------------------

TEST(MpscChannelTest, AddProducerKeepsChannelOpenAcrossOriginalClose) {
  // GrowWorkers registers a grown worker on live downstream channels; the
  // channel must not read as exhausted until EVERY producer — original and
  // added — has closed.
  MpscChannel channel(/*capacity=*/2, /*producers=*/1);
  channel.AddProducer();
  channel.CloseProducer();
  EXPECT_FALSE(channel.exhausted());
  channel.CloseProducer();
  EXPECT_TRUE(channel.exhausted());
}

TEST(NativeOptionsTest, DeprecatedFlatAliasesReadAndWriteNestedFields) {
  NativeOptions options;
  options.batch_tuples = 7;                  // Old name...
  EXPECT_EQ(options.data_path.batch_tuples, 7);  // ...new storage.
  options.data_path.channel_capacity_batches = 9;
  EXPECT_EQ(options.channel_capacity_batches, 9);
  options.balance_period_ns = Millis(3);
  EXPECT_EQ(options.balance.period_ns, Millis(3));
  options.balance.theta = 1.5;
  EXPECT_DOUBLE_EQ(options.balance_theta, 1.5);
  options.balance_max_moves = 5;
  EXPECT_EQ(options.balance.max_moves, 5);
  // The deprecated type name still compiles.
  NativeRuntimeOptions legacy;
  EXPECT_EQ(legacy.data_path.batch_tuples, 64);
}

TEST(NativeOptionsTest, CopiesAreIndependentDespiteReferenceAliases) {
  NativeOptions a;
  a.batch_tuples = 11;
  a.balance.theta = 2.0;
  NativeOptions b = a;  // Copy ctor must NOT alias a's nested fields.
  b.batch_tuples = 13;
  b.balance_theta = 3.0;
  EXPECT_EQ(a.data_path.batch_tuples, 11);
  EXPECT_EQ(b.data_path.batch_tuples, 13);
  EXPECT_DOUBLE_EQ(a.balance.theta, 2.0);
  EXPECT_DOUBLE_EQ(b.balance.theta, 3.0);
  NativeOptions c;
  c = a;  // Assignment likewise copies values, not bindings.
  c.channel_capacity_batches = 5;
  EXPECT_EQ(a.data_path.channel_capacity_batches, 64);
  EXPECT_EQ(c.data_path.channel_capacity_batches, 5);
  // EngineConfig (which embeds NativeOptions) stays copyable — benches copy
  // a base config per row.
  EngineConfig base;
  base.native.batch_tuples = 21;
  EngineConfig row = base;
  row.native.batch_tuples = 22;
  EXPECT_EQ(base.native.data_path.batch_tuples, 21);
  EXPECT_EQ(row.native.data_path.batch_tuples, 22);
}

TEST(CycleClockTest, TicksAdvanceAndConvertToPlausibleNs) {
  const uint64_t t0 = exec::CycleClock::Now();
  // Busy-wait a hair so even a coarse fallback clock moves.
  volatile uint64_t sink = 0;
  for (int i = 0; i < 100000; ++i) sink += i;
  const uint64_t t1 = exec::CycleClock::Now();
  EXPECT_GT(t1, t0);
  EXPECT_GT(exec::CycleClock::NsPerTick(), 0.0);
  const int64_t ns = exec::CycleClock::ToNs(static_cast<int64_t>(t1 - t0));
  EXPECT_GT(ns, 0);
  EXPECT_LT(ns, Seconds(10));  // A spin of 1e5 adds is nowhere near 10 s.
}

TEST(CpuAffinityTest, DetectsAtLeastOneCpuAndGroupsPackages) {
  const exec::CpuTopology topo = exec::CpuTopology::Detect(false);
  ASSERT_FALSE(topo.cpus.empty());
  for (const auto& c : topo.cpus) EXPECT_GE(c.cpu, 0);
  // numa_aware ordering: package ids must be non-interleaved (each package's
  // CPUs contiguous in the list).
  const exec::CpuTopology numa = exec::CpuTopology::Detect(true);
  ASSERT_EQ(numa.cpus.size(), topo.cpus.size());
  for (size_t i = 2; i < numa.cpus.size(); ++i) {
    if (numa.cpus[i].package == numa.cpus[i - 2].package) {
      EXPECT_EQ(numa.cpus[i - 1].package, numa.cpus[i].package)
          << "package ids interleave at index " << i;
    }
  }
}

TEST(CpuAffinityTest, PinThreadToCpuMatchesSupportClaim) {
  std::atomic<bool> stop{false};
  std::thread t([&stop] {
    while (!stop.load()) std::this_thread::yield();
  });
  const exec::CpuTopology topo = exec::CpuTopology::Detect(false);
  const bool pinned = exec::PinThreadToCpu(&t, topo.cpus.front().cpu);
  if (exec::PinningSupported()) {
    EXPECT_TRUE(pinned);  // First online CPU is always a legal target.
  } else {
    EXPECT_FALSE(pinned);  // The shim declines rather than pretending.
  }
  // Pinning to a CPU that cannot exist fails cleanly everywhere.
  EXPECT_FALSE(exec::PinThreadToCpu(&t, 1 << 20));
  stop.store(true);
  t.join();
}

// ---------------------------------------------------------------------------
// NativeRuntime data path: drain-clocked batching and trace-mode pacing.
// ---------------------------------------------------------------------------

constexpr double kTraceRate = 20000.0;  // Tuples/s of a trace-mode source.

// Micro topology (one generator, two calculator workers) on the native
// backend with full-size 64-tuple batches.
MicroWorkload NativeMicro(SourceSpec::Mode mode) {
  MicroOptions options;
  options.num_keys = 64;
  options.generator_executors = 1;
  options.calculator_executors = 2;
  options.shards_per_executor = 4;
  options.mode = mode;
  options.trace_rate_per_sec = kTraceRate;
  return BuildMicroWorkload(options, /*seed=*/5).value();
}

EngineConfig NativeMicroConfig() {
  EngineConfig config;  // Default paradigm: elastic.
  config.backend = exec::BackendKind::kNative;
  config.num_nodes = 1;
  config.native.workers_per_operator = 2;
  config.native.data_path.batch_tuples = 64;
  return config;
}

TEST(NativeDataPathTest, LockstepSourceIsNotHeldBackByBatching) {
  // The source makes tuple i+1 only after the sink processed tuple i, so at
  // most one tuple is ever in flight. A producer that pushes only full
  // batches would keep tuple i in its partial batch forever (the source
  // never idles from the runtime's view); a drain-clocked producer pushes
  // it because the destination's channel is drained. The wait is bounded
  // so a regression fails instead of hanging.
  constexpr int64_t kTuples = 300;
  struct Lockstep {
    std::atomic<int64_t> processed{0};
    std::atomic<bool> timed_out{false};
    int64_t made = 0;  // Source thread only.
  };
  auto lockstep = std::make_shared<Lockstep>();
  MicroWorkload wl = NativeMicro(SourceSpec::Mode::kSaturation);
  OperatorSpec& gen = wl.topology.mutable_spec(wl.generator);
  gen.source.max_tuples = kTuples;
  gen.source.factory = [lockstep](Rng*, SimTime) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (lockstep->processed.load() < lockstep->made &&
           !lockstep->timed_out.load()) {
      if (std::chrono::steady_clock::now() > deadline) {
        lockstep->timed_out.store(true);  // Later tuples stop waiting.
      }
      std::this_thread::yield();
    }
    Tuple t;
    t.key = static_cast<uint64_t>(lockstep->made++);
    return t;
  };
  OperatorSpec& calc = wl.topology.mutable_spec(wl.calculator);
  calc.logic = [lockstep](const Tuple&, StateAccessor&, EmitContext*) {
    lockstep->processed.fetch_add(1);
  };
  Engine engine(std::move(wl.topology), NativeMicroConfig());
  ASSERT_TRUE(engine.Setup().ok());
  engine.Start();
  engine.RunToCompletion();
  EXPECT_FALSE(lockstep->timed_out.load())
      << "a tuple waited in a partial batch for its successors";
  EXPECT_EQ(lockstep->processed.load(), kTuples);
}

TEST(NativeDataPathTest, TraceSourceKeepsItsAskedRate) {
  // The pacer runs on a cumulative schedule, so timer and condvar
  // overshoot on each wake-up does not add up into a lower rate.
  MicroWorkload wl = NativeMicro(SourceSpec::Mode::kTrace);
  Engine engine(std::move(wl.topology), NativeMicroConfig());
  ASSERT_TRUE(engine.Setup().ok());
  const SimTime start = engine.exec()->now();
  engine.Start();
  engine.RunFor(Millis(500));
  const int64_t emitted = engine.native()->SampleTelemetry().source_emitted;
  const double seconds = ToSeconds(engine.exec()->now() - start);
  engine.StopSources();
  engine.RunToCompletion();
  const double achieved = static_cast<double>(emitted) / seconds;
  EXPECT_GE(achieved, 0.8 * kTraceRate);
  EXPECT_LE(achieved, 1.2 * kTraceRate);
  const exec::TelemetrySnapshot drained = engine.native()->SampleTelemetry();
  EXPECT_EQ(drained.sink_count, drained.source_emitted);
}

TEST(ExecutionBackendTest, UnboundResourcePlaneYieldsEmptySnapshot) {
  NativeBackend backend;
  EXPECT_EQ(backend.worker_pool(), nullptr);
  const exec::TelemetrySnapshot snap = backend.SampleTelemetry();
  EXPECT_TRUE(snap.workers.empty());
  EXPECT_TRUE(snap.shards.empty());
  EXPECT_TRUE(snap.sources.empty());
  EXPECT_EQ(snap.total_processed, 0);
}

}  // namespace
}  // namespace elasticutor

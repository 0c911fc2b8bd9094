// NativeRuntime — real multithreaded execution of a dataflow topology,
// paired with NativeBackend. Where the simulator models executors as
// event-driven callbacks on one thread, here every executor slot is an OS
// thread:
//
//   source threads ──batches──▶ worker threads ──batches──▶ ... ──▶ sinks
//
// * One thread per source executor and per worker slot of each non-source
//   operator (NativeOptions::workers_per_operator).
// * Tuples travel in pooled micro-batches (exec/batch_pool.h) over bounded
//   MPSC channels (exec/mpsc_channel.h) — the native incarnation of the
//   simulated data path's channel micro-batching; bounded channels give the
//   same back-pressure-to-the-sources behavior as the simulator's admission
//   reservations. Batching is drain-clocked: a producer pushes its partial
//   batch when it reaches batch_tuples or when the destination's channel
//   is drained, so batches are full under load and near-single tuples when
//   the consumer keeps up.
// * Keys route through the same OperatorPartition hash as the simulator, and
//   per-tuple semantics go through the same ApplyOperatorLogic, so per-key
//   results are identical to a sim run over the same tuple multiset (the
//   native_equivalence tests pin this down).
// * Shutdown is topological: a finishing producer closes its slot on every
//   downstream channel; a worker exits when all its producers closed and its
//   channel drained, then closes downstream in turn. No poison pills, no
//   sentinel tuples.
// * Sources run in saturation mode (emit as fast as back-pressure allows)
//   or trace mode (Poisson arrivals paced on the backend's timer wheel,
//   mirroring the simulator spout's draw order so streams stay
//   bit-identical).
//
// Elastic paradigm (paper §3.3 on real threads). Each non-source operator
// carries a per-shard routing table of atomics (`ElasticOp::owner`);
// producers route every tuple by shard owner. ReassignShard(op, shard, to)
// drives the consistent-reassignment protocol across the worker threads:
//
//   1. kRequested   — the move is posted on the control board; the source
//                     worker is kicked awake.
//   2. kPrecopying  — the source worker starts MigrationEngine::Begin on
//                     its own store: under kChunkedLive the pre-copy chunks
//                     are paced by the backend's timer wheel
//                     (native.migration_copy_bytes_per_sec) while the
//                     worker keeps processing the shard; a DirtyTracker
//                     records what changes meanwhile.
//   3. kLabeling    — pre-copy done: `owner[shard]` flips to the
//                     destination (release store) and `held[shard]`
//                     names it; a labeling command is published and every
//                     producer that feeds this operator pushes one label
//                     marker into the *old* owner's channel, behind
//                     everything it already routed there (the in-channel
//                     barrier; see exec/label_barrier.h). New tuples route
//                     to the destination, which buffers ("holds") them
//                     because the shard's state is still in flight.
//   4. kDrained     — the old owner popped the last expected label: every
//                     pre-flip tuple of the shard has been processed.
//   5. kFinalizing  — MigrationEngine::Finalize ships the dirty delta into
//                     a staging store (paced on the timer wheel when a copy
//                     rate is set).
//   6. kReady       — the destination worker is kicked, installs the shard
//                     into its own store, replays the held tuples in
//                     arrival order, and clears `held`. No tuple is lost,
//                     duplicated, or reordered within its (producer, key)
//                     stream — native_elastic_stress_test pins this down
//                     under TSan.
//
// Memory-ordering contract of the routing flip: the publisher stores the
// destination's index into `held` (relaxed) before flipping `owner`
// (release); producers load `owner` (acquire) and every worker loads
// `held` (acquire). A producer that observes the new owner therefore
// routes to a worker that is guaranteed to observe `held == my_index` for
// any tuple it receives from that producer (the channel's internal mutex
// provides the edge between producer and consumer), so the destination
// can never process a post-flip tuple before the state arrives. The old
// owner keeps processing the shard's pre-flip tuples: the hold test is the
// single load `held == my_index`, destination-only on purpose (a second
// load of `owner` could pair a new `held` with an old `owner`).
//
// Resource-control plane (exec/telemetry.h + exec/worker_pool.h; the
// runtime implements both and Engine binds them to the backend):
//
// * Measurement. Every worker accumulates *measured wall-busy* cycle-clock
//   deltas around each tuple, thread-locally, and publishes them (plus
//   processed/sink counts) to per-worker atomics at batch boundaries and to
//   a per-shard atomic per tuple. SampleTelemetry() is therefore a
//   lock-free-read snapshot that is live-safe and exact after
//   WaitDrained(). The balance tick feeds the per-shard busy deltas and
//   per-worker measured speeds (EWMA of processed/busy, normalized to the
//   fastest worker) into the capacity-aware balance::PlanMoves — a worker
//   pinned to a busy core sheds shards even when raw tuple counts look
//   even (set native.balance.use_wall_busy=false for the old
//   processed-count diff).
//
// * Actuation. GrowWorkers(op, n) adds threads at runtime: each new worker
//   takes a pre-reserved slot (native.max_workers_per_operator), registers
//   as a producer on every downstream channel (MpscChannel::AddProducer)
//   and becomes a routing destination the moment the slot count's release
//   store lands; producers discover the new channels lazily (EmitTo
//   re-syncs its ports when it sees an out-of-range worker index, and
//   every locked control sweep re-syncs). ShrinkWorkers(op, n) is the
//   native RemoveCore: victims are flagged `retiring` (never again a
//   migration destination), a retirement pump evacuates their shards
//   through the ordinary labeling-barrier protocol above, and the thread
//   exits only when it owns no shard and no in-flight migration references
//   it — evacuation-before-exit, so zero tuples are lost or reordered.
//
// * Placement. With native.pinning.enabled each thread is pinned
//   round-robin over the online CPU list (package-major when numa_aware,
//   so an operator's workers — and the shards they own — fill one socket
//   before spilling); the retirement pump prefers same-package
//   destinations. Pinning is a hint: a failed pin runs unpinned.
//
// Threading contract: worker state (stores, rngs, counters) is strictly
// thread-local while running; cross-thread communication happens only
// through the channels and the control board (ctrl_mu_ + atomics above).
// Introspection surfaces:
//  * SampleTelemetry() — live (fresh to one micro-batch) and exact after
//    WaitDrained(); the canonical surface.
//  * The legacy aggregate accessors (total_processed() etc.) are thin
//    deprecated forwarders kept for one release: valid only after
//    WaitDrained() returned (they read joined threads' plain counters).
//  * reassignments_done(), shard_owner(), migrations_in_flight(),
//    num_workers() are live-safe.
//  * Sink latency histograms merge into EngineMetrics at WaitDrained()
//    (Engine::LatencyHistogram() is post-drain on this backend).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/status.h"
#include "engine/engine_config.h"
#include "engine/metrics.h"
#include "engine/partition.h"
#include "engine/topology.h"
#include "exec/batch_pool.h"
#include "exec/label_barrier.h"
#include "exec/mpsc_channel.h"
#include "exec/native_backend.h"
#include "exec/telemetry.h"
#include "exec/worker_pool.h"
#include "state/migration_engine.h"
#include "state/state_store.h"

namespace elasticutor {
namespace exec {

/// The rule for spinning channel waits (exec/mpsc_channel.h): a worker may
/// poll its channel before it parks only while every thread of the runtime
/// (live sources, live workers and the driver) can have a CPU to itself.
/// Oversubscribed, a spinning worker would steal the CPU from the very
/// producer it waits for.
inline bool ThreadsFitCpus(int sources, int workers, int cpus) {
  return sources + workers + /*driver=*/1 <= cpus;
}

class NativeRuntime : public TelemetrySource, public WorkerPool {
 public:
  /// `migration` may be null for the static paradigm; the elastic paradigm
  /// requires it (checked in Setup).
  NativeRuntime(const Topology* topology, const EngineConfig* config,
                NativeBackend* backend, MigrationEngine* migration,
                EngineMetrics* metrics);
  ~NativeRuntime() override;

  NativeRuntime(const NativeRuntime&) = delete;
  NativeRuntime& operator=(const NativeRuntime&) = delete;

  /// Builds partitions, channels, stores and per-slot rngs (mirroring the
  /// simulator's deterministic fork order). Supports the static and elastic
  /// paradigms; rejects resource-centric (simulator-only).
  Status Setup();

  /// Launches all threads (and the periodic balance tick when
  /// native.balance.period_ns is set), pinning them when
  /// native.pinning.enabled. Sources run until their SourceSpec::max_tuples
  /// budget is exhausted (0 = until StopSources).
  void Start();

  /// Asks sources to stop after their current tuple; the dataflow then
  /// drains and shuts down topologically.
  void StopSources();

  /// Blocks until every thread has exited, then merges per-worker counters
  /// and sink-latency histograms into EngineMetrics. While elastic
  /// migrations or trace sources need the timer wheel, pumps the backend so
  /// timers keep firing. Idempotent.
  void WaitDrained();

  // ---- Resource-control plane ----
  /// Live point-in-time sample (see the liveness contract above and in
  /// exec/telemetry.h). Lock-free counter reads plus one ctrl_mu_ hold for
  /// the lifecycle flags and measured speeds.
  TelemetrySnapshot SampleTelemetry() const override;

  /// Adds `n` worker threads to `op` at runtime (elastic paradigm, after
  /// Start, while some producer is still open, within the operator's slot
  /// reservation). The new workers start shard-less; the balancer or the
  /// caller moves load onto them.
  Status GrowWorkers(OperatorId op, int n) override;

  /// Retires the `n` highest-index active workers of `op` by evacuating
  /// every shard they own over the labeling-barrier protocol; each victim
  /// thread exits only after its last shard's drain finalized (the native
  /// RemoveCore). Asynchronous: returns once the evacuation is underway.
  Status ShrinkWorkers(OperatorId op, int n) override;

  // ---- Elasticity (driver thread; elastic paradigm only) ----
  /// Initiates the consistent live reassignment of `shard` of operator
  /// `op` to worker thread `to_worker`. Asynchronous: returns once the move
  /// is posted (kRequested). No-op OK when the shard already lives there;
  /// fails while another move of the same shard is in flight, and when the
  /// destination is retiring. Callable any time between Start() and
  /// WaitDrained() — a shard whose worker threads already exited moves
  /// synchronously.
  Status ReassignShard(OperatorId op, ShardId shard, int to_worker);

  /// Current owner worker of a shard (acquire load; callable while live).
  int shard_owner(OperatorId op, ShardId shard) const;
  /// Completed reassignments (callable while live).
  int64_t reassignments_done() const;
  /// Moves currently in flight (callable while live).
  int64_t migrations_in_flight() const;
  /// Routing-pause durations (flip -> shard installed) of every completed
  /// migration, in ns.
  std::vector<SimDuration> migration_pauses() const;
  /// Label markers pushed by producers over the runtime's lifetime.
  int64_t labels_routed() const;

  // ---- Aggregates: deprecated forwarders (valid after WaitDrained) ----
  // Prefer SampleTelemetry(): same numbers, one surface, live-safe. These
  // read the joined threads' plain counters and are kept for one release.
  int64_t total_processed() const;
  int64_t sink_count() const;
  int64_t source_emitted() const;
  int64_t processed(OperatorId op) const;
  /// Out-of-order (origin, key) deliveries observed by the concurrent
  /// order validator (validate_key_order; always 0 unless the routing
  /// protocol is broken).
  int64_t order_violations() const;
  /// True while idle workers spin before they park (ThreadsFitCpus held
  /// at the last Start/GrowWorkers/ShrinkWorkers).
  bool spin_waits() const {
    return spin_waits_.load(std::memory_order_relaxed);
  }
  /// Channel-contention counters summed over all worker inputs.
  int64_t push_blocks() const;
  int64_t pop_waits() const;
  int64_t batches_pushed() const;
  /// Batches ever heap-allocated by the pool (flat in steady state).
  int64_t batches_allocated() const { return pool_.allocated(); }

  /// Live worker-slot count (grown slots included). WorkerPool override.
  int num_workers(OperatorId op) const override;
  int num_shards(OperatorId op) const;
  /// Shard a key hashes to (the same two-tier mapping producers use;
  /// benches derive skew sets from it).
  ShardId shard_of_key(OperatorId op, uint64_t key) const;
  /// Worker currently routing the shard, on either paradigm: the live
  /// owner atomic under elastic, the fixed partition map under static.
  int worker_of_shard(OperatorId op, ShardId shard) const;
  /// Per-worker state store (equivalence tests read per-key aggregates).
  ProcessStateStore* worker_store(OperatorId op, int worker);

 private:
  friend class NativeEmitContext;

  /// One output route of a producer thread: the partial batches it is
  /// accumulating toward each worker of one downstream operator. Owned and
  /// touched only by the producer's own thread; grown destination workers
  /// are appended by SyncProducerPorts under ctrl_mu_ (called only from
  /// the producer's own thread).
  struct ProducerPort {
    OperatorId to_op = -1;
    OperatorPartition* part = nullptr;
    std::vector<MpscChannel*> channels;          // One per dest worker.
    std::vector<TupleBatchStorage*> pending;     // Partial batch per worker.
  };

  /// State common to both producer kinds (sources and workers): output
  /// ports, the cursor into the control board's label-command log, and the
  /// order-validation emission counters. All thread-local to the producer.
  struct Producer {
    std::vector<ProducerPort> ports;  // One per downstream operator.
    uint32_t origin = 0;              // Validation stamp (unique per slot).
    size_t cmd_cursor = 0;            // label_cmds_ consumed so far.
    uint64_t seen_version = 0;        // ctrl_version_ at the last poll.
    /// Per-(dest op, key) emission sequence (validate_key_order only).
    std::map<std::pair<OperatorId, uint64_t>, uint64_t> emit_seq;
  };

  /// Consumer-side order-validation state: last sequence per (origin, key),
  /// kept per shard so it can travel with the shard on migration.
  using ShardOrderState = std::map<std::pair<uint32_t, uint64_t>, uint64_t>;

  struct Worker : Producer {
    OperatorId op = -1;
    int index = 0;
    std::unique_ptr<MpscChannel> input;
    ProcessStateStore store;
    Rng rng{0, 0};
    bool is_sink = false;
    int64_t processed = 0;
    int64_t sink_tuples = 0;
    int64_t order_violations = 0;
    /// Measured wall-busy cycle ticks inside operator logic (thread-local;
    /// see exec/telemetry.h CycleClock).
    int64_t busy_ticks = 0;
    /// Sink-side tuple latency (created_at -> sink), merged into
    /// EngineMetrics after the thread joined.
    Histogram latency;
    /// Live telemetry: published by the worker's own thread at batch
    /// boundaries (relaxed stores of the plain counters above), read
    /// lock-free by SampleTelemetry and the balance tick.
    std::atomic<int64_t> pub_processed{0};
    std::atomic<int64_t> pub_sink{0};
    std::atomic<int64_t> pub_busy_ns{0};
    /// ShrinkWorkers marked this worker for retirement (set under ctrl_mu_,
    /// read lock-free as the worker's fast exit gate). Sticky: a retired
    /// worker is never again a valid migration destination.
    std::atomic<bool> retiring{false};
    /// CPU this thread was pinned to (-1 = unpinned).
    int pinned_cpu = -1;
    /// Post-flip tuples of shards whose state has not arrived yet, in
    /// arrival order (replayed at install).
    std::unordered_map<ShardId, std::vector<Tuple>> hold;
    std::unordered_map<ShardId, ShardOrderState> order_state;
    /// Shutdown handshake, guarded by ctrl_mu_. `departing` is set
    /// atomically with the epilogue's final no-pending-migrations check
    /// (ReassignShard rejects a departing endpoint — the worker will never
    /// poll again); `exited` is set once the ports are closed, after which
    /// the driver may touch the worker's store/ports directly.
    bool departing = false;
    bool exited = false;
    std::thread thread;
  };

  struct Source : Producer {
    OperatorId op = -1;
    int index = 0;
    Rng rng{0, 0};
    int64_t generated = 0;
    std::atomic<int64_t> pub_generated{0};  // Live telemetry.
    int pinned_cpu = -1;
    // Trace-mode pacing: the backend timer sets `fired`, the source thread
    // waits on the condvar (with a poll fallback so StopSources is prompt).
    std::mutex pace_mu;
    std::condition_variable pace_cv;
    bool pace_fired = false;
    std::thread thread;
  };

  /// Per-operator elastic routing state. The atomics are the hot-path
  /// routing table; everything else about a move lives in `migrations_`
  /// under ctrl_mu_.
  struct ElasticOp {
    std::vector<std::atomic<int32_t>> owner;    // Shard -> worker index.
    /// Shard -> destination holding its post-flip tuples while the
    /// shard's state is in flight (-1 = none).
    std::vector<std::atomic<int32_t>> held;
    std::vector<std::atomic<int64_t>> processed;   // Per-shard tuple counts.
    std::vector<std::atomic<int64_t>> busy_ticks;  // Per-shard wall-busy.
    // Driver-local balance snapshots (sized to the slot reservation).
    std::vector<int64_t> balance_prev;       // Last processed sample.
    std::vector<int64_t> balance_prev_busy;  // Last busy-ns sample.
    /// Measured relative per-worker speed EWMA in [0, 1] (1 = fastest;
    /// 0 = never observed, treated as nominal). Guarded by ctrl_mu_.
    std::vector<double> speed_ewma;
    std::vector<int64_t> prev_worker_busy;   // Speed-EWMA deltas.
    std::vector<int64_t> prev_worker_proc;
    int open_producers = 0;                  // Guarded by ctrl_mu_.
  };

  enum class MigPhase {
    kRequested,   // Posted; waiting for the source worker to notice.
    kPrecopying,  // MigrationEngine::Begin running, chunks in flight.
    kLabeling,    // Routing flipped; waiting for label markers to drain.
    kDrained,     // Barrier complete; source worker must finalize.
    kFinalizing,  // Delta shipping into the staging store.
    kReady        // Staged; waiting for the destination to install.
  };

  /// One in-flight reassignment, keyed by label id in `migrations_`.
  /// Guarded by ctrl_mu_ except where a phase hands exclusive access to one
  /// thread (e.g. only the source worker touches `handle` after kRequested).
  struct Migration {
    int64_t label_id = -1;
    OperatorId op = -1;
    ShardId shard = -1;
    int from = -1;
    int to = -1;
    MigPhase phase = MigPhase::kRequested;
    /// Whether the flip armed a labeling barrier (some producer was still
    /// open). When false the old owner's channel backlog IS the drain:
    /// finalization must wait until that channel is exhausted (the worker's
    /// epilogue), not run the moment the phase reads kDrained.
    bool barrier_armed = false;
    MigrationEngine::Handle handle;
    /// Staging store the delta ships into (stable address; the destination
    /// extracts from here at install).
    ProcessStateStore staging;
    ShardOrderState order_state;  // Travels with the shard (validation).
    SimTime requested_at = 0;
    SimTime flip_at = 0;  // Routing flipped (pause starts).
  };

  /// A labeling command on the control board: every producer with a port
  /// toward `op` owes one label marker into `from_worker`'s channel.
  struct LabelCmd {
    OperatorId op = -1;
    int from_worker = -1;
    int64_t label_id = -1;
  };

  void WorkerLoop(Worker* w);
  void SourceLoop(Source* s);
  void ProcessTuple(Worker* w, const OperatorSpec& spec, const Tuple& t);
  void CheckArrivalOrder(Worker* w, ShardId shard, const Tuple& t);
  /// Relaxed stores of the worker's plain counters into its pub_* atomics
  /// (called at batch boundaries and after held-tuple replays).
  void PublishWorkerCounters(Worker* w);

  // ---- Elastic control plane ----
  /// Producer-side control poll: push label markers for commands published
  /// since the last poll (both sources and workers).
  void PollProducer(Producer* p);
  /// Worker-side control poll: label duties plus this worker's migration
  /// duties (start pre-copy / finalize / install).
  void PollWorkerControl(Worker* w);
  /// Flushes the partial batch toward `from`, then pushes a label marker
  /// behind it.
  void PushLabel(ProducerPort* port, int from, int64_t label_id);
  /// Source worker: MigrationEngine::Begin on its own store.
  void StartPrecopy(Worker* w, int64_t label_id);
  /// Pre-copy complete (worker thread or driver timer): flip routing, arm
  /// the barrier, publish the labeling command, kick everyone.
  void BeginLabeling(int64_t label_id);
  /// A label marker popped from `w`'s channel.
  void OnLabel(Worker* w, int64_t label_id);
  /// Barrier complete on the source worker: flush downstream (pre-flip
  /// emissions must precede post-flip ones), ship the delta.
  void DrainComplete(Worker* w, int64_t label_id);
  /// Finalize landed (worker thread or driver timer): stage ready, wake the
  /// destination.
  void MigrationReady(int64_t label_id);
  /// Destination worker: install the shard, replay held tuples.
  void InstallMigratedShard(Worker* w, int64_t label_id);
  /// Worker shutdown: wait until no in-flight migration references this
  /// worker (its duties may still be pending while its channel is drained).
  void WorkerEpilogue(Worker* w);
  /// Driver balance tick: per-shard measured wall-busy deltas (or
  /// processed-count deltas when use_wall_busy is off) + per-worker
  /// measured capacities -> capacity-aware PlanMoves -> ReassignShard.
  void BalanceTick();
  /// Updates the per-worker speed EWMAs of one operator from the published
  /// busy/processed counters. Caller holds ctrl_mu_.
  void UpdateWorkerSpeeds(OperatorId op, ElasticOp* eo);
  /// Retirement pump (backend timer, 1 ms): replans the evacuation of every
  /// retiring worker's remaining shards (stragglers appear when an
  /// in-flight move lands on a victim after the shrink). Returns true while
  /// any retiring worker has not exited.
  bool PumpRetirement();
  /// The retiring worker's exit test: owns no shard, holds no tuples, and
  /// no in-flight migration references it (the channel then provably
  /// contains nothing the protocol still needs — see ShrinkWorkers).
  bool RetireReady(Worker* w);
  /// True while WaitDrained must keep pumping the timer wheel for
  /// driver-driven migrations (moves requested after every worker exited).
  bool MigrationsPending() const;

  /// Routes one tuple into the port's partial batch for its destination
  /// worker, pushing the batch when it is full or the destination channel
  /// is drained (MpscChannel::drained). Returns false iff the channel was
  /// aborted (emergency teardown). Re-syncs the producer's ports when the
  /// routing table names a grown worker this producer has not seen yet.
  bool EmitTo(Producer* p, ProducerPort* port, const Tuple& t);
  /// Pushes every non-empty partial batch (producer idle or finishing).
  void FlushPorts(std::vector<ProducerPort>* ports);
  /// Producer exit: outstanding label duties, final flush, CloseProducer on
  /// every downstream channel. Decrements open_producers under the same
  /// lock that sweeps the duties, so label barriers armed later never count
  /// this producer.
  void CloseProducerPorts(Producer* p);
  /// Wires the producer's ports toward every downstream operator of `op`.
  void BuildPorts(OperatorId op, std::vector<ProducerPort>* ports);
  /// Appends channels of workers grown since the ports were built. Caller
  /// holds ctrl_mu_ (or is single-threaded Setup); must run in every locked
  /// control sweep so a producer's port vector always covers every worker
  /// a label command can name.
  void SyncProducerPorts(Producer* p);
  /// Collects the label duties published since the producer's last sweep.
  /// Caller holds ctrl_mu_; the pushes happen outside it (a Push may block
  /// on a full channel whose consumer is itself acquiring ctrl_mu_).
  struct LabelDuty {
    ProducerPort* port;
    int from;
    int64_t label_id;
  };
  void CollectLabelDuties(Producer* p, std::vector<LabelDuty>* duties);
  /// Trace pacing: sleeps until backend time `target` via a backend timer
  /// (falls back to 1 ms polling), flushing the source's partial batches
  /// first. Returns at once when `target` has passed. False when stopped
  /// meanwhile.
  bool SourceWaitUntil(Source* s, SimTime target);

  int WorkerCount(OperatorId op) const;
  /// Worker-slot reservation of `op` (>= the initial worker count).
  int MaxSlots(OperatorId op) const;
  /// Re-evaluates ThreadsFitCpus for the current thread set (live sources,
  /// workers neither retiring nor exited) against the CPUs this thread may
  /// use. Caller holds ctrl_mu_ or is in single-threaded Start.
  void UpdateSpinWaits();
  /// Live worker of `op` at `index` (< num_workers(op)).
  Worker* worker_at(OperatorId op, int index) const {
    return workers_[op][index].get();
  }
  /// Applies `f` to every live worker (acquire-loads the slot counts, so
  /// grown workers are covered from the moment they are visible).
  template <typename F>
  void ForEachWorker(F&& f) const {
    for (OperatorId op = 0; op < static_cast<OperatorId>(workers_.size());
         ++op) {
      const int count = worker_count_[op].load(std::memory_order_acquire);
      for (int i = 0; i < count; ++i) f(workers_[op][i].get());
    }
  }
  /// Next CPU of the pinning plan (-1 when pinning is off). Caller holds
  /// ctrl_mu_ or is in single-threaded Start.
  int NextPinCpu();
  /// Package of a pinned CPU (-1 unknown / unpinned).
  int PackageOf(int cpu) const;

  const Topology* topology_;
  const EngineConfig* config_;
  NativeBackend* backend_;
  MigrationEngine* migration_;
  EngineMetrics* metrics_;

  BatchPool pool_;
  size_t batch_tuples_ = 64;
  bool elastic_ = false;
  bool validate_ = false;
  /// Timer wheel participates in the dataflow (elastic migrations or trace
  /// sources): WaitDrained must pump the backend instead of joining cold.
  bool has_timed_work_ = false;

  std::vector<std::unique_ptr<OperatorPartition>> partitions_;  // Per op.
  /// Worker slots, per op. Sized to MaxSlots(op) at Setup and never
  /// reallocated: slot i is written once (Setup or GrowWorkers, before the
  /// count's release store) and read only at indices below the acquired
  /// count — the fixed array is what makes runtime growth race-free
  /// against the lock-free readers (EmitTo's routing, the kick-all loop).
  std::vector<std::vector<std::unique_ptr<Worker>>> workers_;
  /// Live worker count per op (release store after the slot is filled).
  std::vector<std::atomic<int>> worker_count_;
  std::vector<std::unique_ptr<Source>> sources_;
  std::vector<std::unique_ptr<ElasticOp>> elastic_ops_;         // Per op.

  // ---- Control board (elastic): guarded by ctrl_mu_ ----
  mutable std::mutex ctrl_mu_;
  std::condition_variable ctrl_cv_;
  /// Bumped (under ctrl_mu_) on every board mutation producers or workers
  /// must notice; the producers' fast-path gate is one acquire load.
  std::atomic<uint64_t> ctrl_version_{0};
  std::vector<LabelCmd> label_cmds_;  // Append-only command log.
  std::map<int64_t, std::unique_ptr<Migration>> migrations_;
  std::set<std::pair<OperatorId, ShardId>> in_transition_;
  LabelBarrier barrier_;
  int64_t next_label_id_ = 0;
  int64_t reassignments_done_ = 0;
  int64_t labels_routed_ = 0;
  std::vector<SimDuration> pause_ns_;
  bool teardown_ = false;
  /// Origin stamps continue Setup's numbering for grown workers.
  uint32_t next_origin_ = 1;
  /// Retirement pump armed (one periodic timer serves all operators).
  bool retire_pump_armed_ = false;
  /// Pinning plan: online CPUs in assignment order (package-major when
  /// numa_aware) and the round-robin cursor.
  std::vector<int> pin_cpus_;
  std::vector<int> pin_packages_;  // Parallel to pin_cpus_.
  size_t next_pin_ = 0;

  std::atomic<int> live_threads_{0};
  /// Source threads still running (each decrements once on exit).
  std::atomic<int> live_sources_{0};
  /// UpdateSpinWaits' verdict, read relaxed by idle workers.
  std::atomic<bool> spin_waits_{false};
  std::atomic<bool> stop_sources_{false};
  bool setup_done_ = false;
  bool started_ = false;
  bool drained_ = false;
};

}  // namespace exec
}  // namespace elasticutor

#include "exec/native_runtime.h"

#include <algorithm>
#include <chrono>

#include "elastic/load_balancer.h"
#include "engine/single_task_executor.h"  // ApplyOperatorLogic.
#include "exec/cpu_affinity.h"

namespace elasticutor {
namespace exec {

namespace {
/// Speed-EWMA tuning (mirrors ElasticExecutor::RefreshTaskSpeeds): ignore
/// windows with less than this much measured busy time (too noisy), blend
/// observations at kSpeedAlpha, and drift an unobserved worker's speed back
/// toward nominal (idleness is not slowness).
constexpr int64_t kSpeedMinBusyNs = 200'000;
constexpr double kSpeedAlpha = 0.4;
constexpr double kSpeedRecovery = 0.2;

/// True on a worker thread of any NativeRuntime. Once a worker exited, only
/// the driver touches its store and maps, so a worker thread that must
/// install a shard into an exited worker hands the install to the driver.
thread_local bool tls_worker_thread = false;
}  // namespace

/// EmitContext of a native producer: routes each emission into the partial
/// batches of the thread's ports. Lives on the producer's stack for one
/// tuple; no allocation, no locking beyond the channel push. (Friend of
/// NativeRuntime — not in an anonymous namespace on purpose.)
class NativeEmitContext final : public EmitContext {
 public:
  NativeEmitContext(NativeRuntime* rt, NativeRuntime::Producer* producer,
                    SimTime created_at)
      : rt_(rt), producer_(producer), created_at_(created_at) {}

  void Emit(uint64_t key, int32_t size_bytes,
            const TuplePayload& payload) override {
    Tuple out;
    out.key = key;
    out.size_bytes = size_bytes;
    out.created_at = created_at_;
    out.payload = payload;
    for (auto& port : producer_->ports) rt_->EmitTo(producer_, &port, out);
  }

 private:
  NativeRuntime* rt_;
  NativeRuntime::Producer* producer_;
  SimTime created_at_;
};

NativeRuntime::NativeRuntime(const Topology* topology,
                             const EngineConfig* config,
                             NativeBackend* backend,
                             MigrationEngine* migration,
                             EngineMetrics* metrics)
    : topology_(topology),
      config_(config),
      backend_(backend),
      migration_(migration),
      metrics_(metrics) {}

NativeRuntime::~NativeRuntime() {
  if (started_ && !drained_) {
    // Emergency teardown: unblock every thread and join. Migrations still
    // in flight are abandoned (teardown_ releases epilogue waiters).
    stop_sources_.store(true, std::memory_order_relaxed);
    if (elastic_) {
      std::lock_guard<std::mutex> lock(ctrl_mu_);
      teardown_ = true;
    }
    ctrl_cv_.notify_all();
    ForEachWorker([](Worker* w) { w->input->Abort(); });
    WaitDrained();
  }
}

int NativeRuntime::WorkerCount(OperatorId op) const {
  if (config_->native.workers_per_operator > 0) {
    return config_->native.workers_per_operator;
  }
  const OperatorSpec& spec = topology_->spec(op);
  return std::max(1, spec.static_executors);
}

int NativeRuntime::MaxSlots(OperatorId op) const {
  const int count = WorkerCount(op);
  if (!elastic_) return count;  // Growth needs the elastic routing table.
  if (config_->native.max_workers_per_operator > 0) {
    return std::max(config_->native.max_workers_per_operator, count);
  }
  return std::max(2 * count, 16);
}

Status NativeRuntime::Setup() {
  if (setup_done_) return Status::FailedPrecondition("Setup called twice");
  if (config_->paradigm == Paradigm::kResourceCentric) {
    return Status::InvalidArgument(
        "the native backend runs the static and elastic paradigms; "
        "resource-centric key repartitioning is simulator-only — see "
        "docs/architecture.md");
  }
  elastic_ = config_->paradigm == Paradigm::kElastic;
  validate_ = config_->validate_key_order;
  if (elastic_ && migration_ == nullptr) {
    return Status::InvalidArgument(
        "elastic paradigm requires a MigrationEngine (Engine wires one)");
  }
  batch_tuples_ = static_cast<size_t>(
      std::max(1, config_->native.data_path.batch_tuples));
  const size_t channel_cap = static_cast<size_t>(
      std::max(1, config_->native.data_path.channel_capacity_batches));

  const int n = topology_->num_operators();
  partitions_.resize(n);
  workers_.resize(n);
  worker_count_ = std::vector<std::atomic<int>>(n);
  for (int i = 0; i < n; ++i) {
    worker_count_[i].store(0, std::memory_order_relaxed);
  }
  elastic_ops_.resize(n);

  // Pass 1: partitions, workers and their input channels (no ports yet —
  // ports need every destination channel to exist). Worker slots are
  // reserved up to MaxSlots so GrowWorkers can fill them later without
  // ever reallocating the array the lock-free readers walk.
  bool has_trace = false;
  for (OperatorId op : topology_->topo_order()) {
    const OperatorSpec& spec = topology_->spec(op);
    if (spec.is_source) {
      if (spec.source.mode == SourceSpec::Mode::kTrace) {
        if (!spec.source.rate_fn) {
          return Status::InvalidArgument("trace-mode source '" + spec.name +
                                         "' needs a rate_fn");
        }
        has_trace = true;
      }
      if (topology_->downstream(op).size() != 1) {
        return Status::InvalidArgument("source '" + spec.name +
                                       "' must have exactly one downstream "
                                       "operator");
      }
      continue;
    }
    const int count = WorkerCount(op);
    const int max_slots = MaxSlots(op);
    auto partition = std::make_unique<OperatorPartition>(
        spec.total_shards(), count, /*salt=*/op);
    // Producers on this operator's channels: every upstream slot.
    int producers = 0;
    for (OperatorId up : topology_->upstream(op)) {
      const OperatorSpec& up_spec = topology_->spec(up);
      producers +=
          up_spec.is_source ? up_spec.num_executors : WorkerCount(up);
    }
    workers_[op].resize(max_slots);
    for (int i = 0; i < count; ++i) {
      auto w = std::make_unique<Worker>();
      w->op = op;
      w->index = i;
      w->is_sink = topology_->is_sink(op);
      w->input = std::make_unique<MpscChannel>(channel_cap, producers);
      workers_[op][i] = std::move(w);
    }
    worker_count_[op].store(count, std::memory_order_relaxed);
    OperatorPartition* part = partition.get();
    for (int s = 0; s < part->num_shards(); ++s) {
      Worker* owner = workers_[op][part->ExecutorOfShard(s)].get();
      ELASTICUTOR_RETURN_NOT_OK(
          owner->store.CreateShard(s, spec.shard_state_bytes));
    }
    if (elastic_) {
      auto eo = std::make_unique<ElasticOp>();
      const int num_shards = part->num_shards();
      eo->owner = std::vector<std::atomic<int32_t>>(num_shards);
      eo->held = std::vector<std::atomic<int32_t>>(num_shards);
      eo->processed = std::vector<std::atomic<int64_t>>(num_shards);
      eo->busy_ticks = std::vector<std::atomic<int64_t>>(num_shards);
      eo->balance_prev.assign(num_shards, 0);
      eo->balance_prev_busy.assign(num_shards, 0);
      for (int s = 0; s < num_shards; ++s) {
        eo->owner[s].store(part->ExecutorOfShard(s),
                           std::memory_order_relaxed);
        eo->held[s].store(-1, std::memory_order_relaxed);
        eo->processed[s].store(0, std::memory_order_relaxed);
        eo->busy_ticks[s].store(0, std::memory_order_relaxed);
      }
      eo->speed_ewma.assign(max_slots, 0.0);
      eo->prev_worker_busy.assign(max_slots, 0);
      eo->prev_worker_proc.assign(max_slots, 0);
      eo->open_producers = producers;
      elastic_ops_[op] = std::move(eo);
    }
    partitions_[op] = std::move(partition);
  }
  has_timed_work_ = elastic_ || has_trace;

  // Pass 2: rngs (mirroring the simulator's fork order exactly: topo order,
  // executors in index order — so source streams are bit-identical to a sim
  // run at the same seed), producer ports and origin stamps (unique per
  // producer slot; the concurrent order validator keys sequences on them).
  Rng root(config_->seed, 0x5eed5eed);
  for (OperatorId op : topology_->topo_order()) {
    const OperatorSpec& spec = topology_->spec(op);
    if (spec.is_source) {
      for (int e = 0; e < spec.num_executors; ++e) {
        auto s = std::make_unique<Source>();
        s->op = op;
        s->index = e;
        s->origin = next_origin_++;
        s->rng = root.Fork(0x500 + MakeExecutorId(op, e));
        BuildPorts(op, &s->ports);
        sources_.push_back(std::move(s));
      }
      continue;
    }
    const int count = worker_count_[op].load(std::memory_order_relaxed);
    for (int i = 0; i < count; ++i) {
      Worker* w = workers_[op][i].get();
      w->origin = next_origin_++;
      w->rng = root.Fork(MakeExecutorId(op, w->index));
      BuildPorts(op, &w->ports);
    }
  }
  setup_done_ = true;
  return Status::OK();
}

void NativeRuntime::BuildPorts(OperatorId op,
                               std::vector<ProducerPort>* ports) {
  for (OperatorId to : topology_->downstream(op)) {
    ProducerPort port;
    port.to_op = to;
    port.part = partitions_[to].get();
    const int count = worker_count_[to].load(std::memory_order_acquire);
    for (int i = 0; i < count; ++i) {
      port.channels.push_back(workers_[to][i]->input.get());
    }
    port.pending.assign(port.channels.size(), nullptr);
    ports->push_back(std::move(port));
  }
}

void NativeRuntime::SyncProducerPorts(Producer* p) {
  for (auto& port : p->ports) {
    const int count =
        worker_count_[port.to_op].load(std::memory_order_relaxed);
    for (int i = static_cast<int>(port.channels.size()); i < count; ++i) {
      port.channels.push_back(workers_[port.to_op][i]->input.get());
      port.pending.push_back(nullptr);
    }
  }
}

int NativeRuntime::NextPinCpu() {
  if (pin_cpus_.empty()) return -1;
  const int cpu = pin_cpus_[next_pin_ % pin_cpus_.size()];
  ++next_pin_;
  return cpu;
}

void NativeRuntime::UpdateSpinWaits() {
  int workers = 0;
  ForEachWorker([&workers](Worker* w) {
    if (!w->retiring.load(std::memory_order_relaxed) && !w->exited) {
      ++workers;
    }
  });
  spin_waits_.store(
      ThreadsFitCpus(live_sources_.load(std::memory_order_relaxed), workers,
                     AllowedCpuCount()),
      std::memory_order_relaxed);
}

int NativeRuntime::PackageOf(int cpu) const {
  for (size_t i = 0; i < pin_cpus_.size(); ++i) {
    if (pin_cpus_[i] == cpu) return pin_packages_[i];
  }
  return -1;
}

void NativeRuntime::Start() {
  ELASTICUTOR_CHECK_MSG(setup_done_, "Start before Setup");
  ELASTICUTOR_CHECK_MSG(!started_, "Start called twice");
  started_ = true;
  if (config_->native.pinning.enabled) {
    const CpuTopology topo =
        CpuTopology::Detect(config_->native.pinning.numa_aware);
    for (const auto& c : topo.cpus) {
      pin_cpus_.push_back(c.cpu);
      pin_packages_.push_back(c.package);
    }
  }
  int threads = static_cast<int>(sources_.size());
  ForEachWorker([&threads](Worker*) { ++threads; });
  live_threads_.store(threads, std::memory_order_release);
  live_sources_.store(static_cast<int>(sources_.size()),
                      std::memory_order_relaxed);
  UpdateSpinWaits();
  // Workers first so channels have their consumers before sources flood.
  // Pin in creation order: with a package-major CPU list one operator's
  // workers land on one socket before spilling to the next.
  ForEachWorker([this](Worker* w) {
    w->thread = std::thread([this, w] { WorkerLoop(w); });
    w->pinned_cpu = NextPinCpu();
    if (w->pinned_cpu >= 0 && !PinThreadToCpu(&w->thread, w->pinned_cpu)) {
      w->pinned_cpu = -1;  // Hint failed (cgroup mask etc.): run unpinned.
    }
  });
  for (auto& s : sources_) {
    s->thread = std::thread([this, src = s.get()] { SourceLoop(src); });
    s->pinned_cpu = NextPinCpu();
    if (s->pinned_cpu >= 0 && !PinThreadToCpu(&s->thread, s->pinned_cpu)) {
      s->pinned_cpu = -1;
    }
  }
  if (elastic_ && config_->native.balance.period_ns > 0) {
    const SimDuration period = config_->native.balance.period_ns;
    backend_->Periodic(backend_->now() + period, period, [this](SimTime) {
      if (drained_ || live_threads_.load(std::memory_order_acquire) == 0) {
        return false;
      }
      BalanceTick();
      return true;
    });
  }
}

void NativeRuntime::StopSources() {
  stop_sources_.store(true, std::memory_order_relaxed);
}

void NativeRuntime::WaitDrained() {
  if (!started_ || drained_) return;
  if (has_timed_work_) {
    // Elastic migrations, trace sources and the retirement pump are driven
    // by the backend's timer wheel, and timers only fire inside RunUntil —
    // pump it until every thread is gone AND no migration is still in
    // flight. The second condition matters for moves requested after the
    // dataflow drained: with every worker exited those are driver-driven,
    // and their paced pre-copy chunks and labeling callback only fire
    // here. (Each RunUntil call sleeps through one 1 ms window, so this is
    // a condvar-paced wait, not a spin.)
    while (live_threads_.load(std::memory_order_acquire) > 0 ||
           MigrationsPending()) {
      backend_->RunUntil(backend_->now() + Millis(1));
    }
  }
  for (auto& s : sources_) {
    if (s->thread.joinable()) s->thread.join();
  }
  ForEachWorker([](Worker* w) {
    if (w->thread.joinable()) w->thread.join();
  });
  drained_ = true;
  // Single-threaded from here: merge per-worker counters and sink-latency
  // histograms into the engine metrics (EngineMetrics itself is not
  // touched by running threads).
  metrics_->MergeSinkCount(sink_count());
  ForEachWorker([this](Worker* w) {
    if (w->is_sink) metrics_->MergeLatency(w->latency);
  });
}

bool NativeRuntime::EmitTo(Producer* p, ProducerPort* port, const Tuple& t) {
  size_t wi;
  if (elastic_) {
    // Two-tier routing (paper §3.2): key -> shard by hash, shard -> worker
    // through the live routing table. The acquire pairs with the release
    // store in BeginLabeling: a producer that sees the new owner routes to
    // a worker guaranteed to see `held` naming it.
    const ShardId shard = port->part->ShardOf(t.key);
    wi = static_cast<size_t>(elastic_ops_[port->to_op]->owner[shard].load(
        std::memory_order_acquire));
  } else {
    wi = static_cast<size_t>(port->part->ExecutorOfKey(t.key));
  }
  if (wi >= port->pending.size()) {
    // The routing table names a grown worker this producer has not seen
    // yet: sync the port vectors to the live slot count (rare — once per
    // producer per growth event).
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    SyncProducerPorts(p);
  }
  TupleBatchStorage*& batch = port->pending[wi];
  if (batch == nullptr) batch = pool_.Acquire();
  batch->tuples.push_back(t);
  if (validate_) {
    Tuple& stamped = batch->tuples.back();
    stamped.origin = p->origin;
    stamped.arrival_seq = ++p->emit_seq[{port->to_op, t.key}];
  }
  // Drain-clocked flush: push when the batch is full or the destination
  // has nothing queued (it would otherwise idle while we keep filling).
  MpscChannel* channel = port->channels[wi];
  if (batch->tuples.size() < batch_tuples_ && !channel->drained()) {
    return true;
  }
  TupleBatchStorage* ready = batch;
  batch = nullptr;
  if (!channel->Push(ready)) {
    pool_.Release(ready);
    return false;  // Aborted (emergency teardown).
  }
  return true;
}

void NativeRuntime::FlushPorts(std::vector<ProducerPort>* ports) {
  for (auto& port : *ports) {
    for (size_t wi = 0; wi < port.pending.size(); ++wi) {
      TupleBatchStorage* batch = port.pending[wi];
      if (batch == nullptr || batch->tuples.empty()) continue;
      port.pending[wi] = nullptr;
      if (!port.channels[wi]->Push(batch)) pool_.Release(batch);
    }
  }
}

void NativeRuntime::CloseProducerPorts(Producer* p) {
  // Data leaves first: a barrier armed after the retirement below does not
  // count this producer, so no batch of ours may enter a channel after
  // that point — a straggler flushed later could ride in behind another
  // producer's marker and reach the old owner post-extraction.
  FlushPorts(&p->ports);
  if (elastic_) {
    // Final duty sweep + producer retirement, atomically: the decrement
    // happens under the same lock hold as the sweep, so any labeling
    // command published later arms its barrier without this producer —
    // and the retirement precedes CloseProducer below, so a barrier that
    // did count us gets its marker before the channel closes. The port
    // sync under the same hold pairs with GrowWorkers: a channel created
    // before our retirement counted us, so we must close it; one created
    // after did not, and won't appear in our ports.
    std::vector<LabelDuty> duties;
    {
      std::lock_guard<std::mutex> lock(ctrl_mu_);
      SyncProducerPorts(p);
      CollectLabelDuties(p, &duties);
      for (auto& port : p->ports) {
        --elastic_ops_[port.to_op]->open_producers;
      }
      p->seen_version = ctrl_version_.load(std::memory_order_relaxed);
    }
    for (auto& d : duties) PushLabel(d.port, d.from, d.label_id);
  }
  for (auto& port : p->ports) {
    for (MpscChannel* ch : port.channels) ch->CloseProducer();
  }
}

bool NativeRuntime::SourceWaitUntil(Source* s, SimTime target) {
  if (backend_->now() >= target) {
    return !stop_sources_.load(std::memory_order_relaxed);
  }
  // About to idle: nothing may age in a partial batch while we sleep.
  FlushPorts(&s->ports);
  {
    std::lock_guard<std::mutex> lock(s->pace_mu);
    s->pace_fired = false;
  }
  const EventId timer = backend_->At(target, [s] {
    {
      std::lock_guard<std::mutex> lock(s->pace_mu);
      s->pace_fired = true;
    }
    s->pace_cv.notify_all();
  });
  bool fired = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(s->pace_mu);
      s->pace_cv.wait_for(lock, std::chrono::milliseconds(1),
                          [s] { return s->pace_fired; });
      fired = s->pace_fired;
    }
    if (fired || stop_sources_.load(std::memory_order_relaxed) ||
        backend_->now() >= target) {
      break;
    }
    // Poll tick: stay responsive to label duties while paced (a trace
    // source between arrivals must not stall a migration's barrier).
    if (elastic_) PollProducer(s);
  }
  if (!fired) backend_->Cancel(timer);  // Best-effort; stale fires are no-ops.
  return !stop_sources_.load(std::memory_order_relaxed);
}

void NativeRuntime::SourceLoop(Source* s) {
  const OperatorSpec& spec = topology_->spec(s->op);
  const SourceSpec& src = spec.source;
  const int64_t budget = src.max_tuples;  // 0 = until StopSources.
  const bool trace = src.mode == SourceSpec::Mode::kTrace;
  const double executors = static_cast<double>(spec.num_executors);
  // Trace mode: the arrival schedule. Gaps accumulate on it rather than on
  // the wake-up time, so a late wake-up (timer or condvar overshoot) is
  // absorbed by the arrivals behind it instead of lowering the rate.
  SimTime due = backend_->now();
  while (budget == 0 || s->generated < budget) {
    if (stop_sources_.load(std::memory_order_relaxed)) break;
    if (elastic_) PollProducer(s);
    if (trace) {
      // Mirror the simulator spout's draw order exactly — gap draw, then
      // factory draw, from the same rng — so the tuple stream is
      // bit-identical to a sim run at the same seed. Like the spout, the
      // rate is read at the previous arrival and the tuple is stamped with
      // its own arrival time (latency includes any backlog).
      const double rate = src.rate_fn(due) / executors;
      const SimDuration gap =
          rate <= 1e-9 ? Millis(100)
                       : static_cast<SimDuration>(
                             s->rng.NextExponential(1e9 / rate));
      due += gap;
      if (!SourceWaitUntil(s, due)) break;
    }
    const SimTime at = trace ? due : backend_->now();
    Tuple t = src.factory(&s->rng, at);
    t.created_at = at;
    ++s->generated;
    s->pub_generated.store(s->generated, std::memory_order_relaxed);
    bool ok = true;
    for (auto& port : s->ports) ok = EmitTo(s, &port, t) && ok;
    if (!ok) break;  // Channels aborted.
  }
  CloseProducerPorts(s);
  live_sources_.fetch_sub(1, std::memory_order_relaxed);
  live_threads_.fetch_sub(1, std::memory_order_release);
}

void NativeRuntime::CheckArrivalOrder(Worker* w, ShardId shard,
                                      const Tuple& t) {
  // Per-(origin, key) sequences must be consecutive: a gap is a lost or
  // reordered tuple, a repeat is a duplicate. The per-shard map travels
  // with the shard on migration, so sequences stay continuous across a
  // move (the property the labeling protocol exists to provide).
  uint64_t& last = w->order_state[shard][{t.origin, t.key}];
  if (t.arrival_seq != last + 1) ++w->order_violations;
  last = t.arrival_seq;
}

void NativeRuntime::ProcessTuple(Worker* w, const OperatorSpec& spec,
                                 const Tuple& t) {
  const ShardId shard = partitions_[w->op]->ShardOf(t.key);
  ElasticOp* eo = nullptr;
  if (elastic_) {
    eo = elastic_ops_[w->op].get();
    // Hold only as the *destination* of an in-flight move. The old owner
    // keeps processing the shard's pre-flip backlog while the shard is
    // held — that drain is what the labeling barrier waits for. One load
    // decides: with separate loads of `held` and `owner`, an old owner
    // could pair the new `held` with the old `owner` mid-flip and hold a
    // tuple no install would ever replay.
    if (eo->held[shard].load(std::memory_order_acquire) ==
        static_cast<int32_t>(w->index)) {
      w->hold[shard].push_back(t);
      return;
    }
    eo->processed[shard].fetch_add(1, std::memory_order_relaxed);
  }
  // Wall-busy window around the operator logic only: channel waits and
  // control-plane work are idle time, not load (the balancer's signal
  // must reflect what the shard costs, not what the thread endured).
  const uint64_t busy_start = CycleClock::Now();
  if (validate_) CheckArrivalOrder(w, shard, t);
  NativeEmitContext emit(this, w, t.created_at);
  ApplyOperatorLogic(*topology_, spec, w->op, t, &w->store, shard, &emit,
                     &w->rng);
  const int64_t ticks =
      static_cast<int64_t>(CycleClock::Now() - busy_start);
  w->busy_ticks += ticks;
  if (eo != nullptr) {
    eo->busy_ticks[shard].fetch_add(ticks, std::memory_order_relaxed);
  }
  ++w->processed;
  if (w->is_sink) {
    ++w->sink_tuples;
    w->latency.Record(backend_->now() - t.created_at);
  }
}

void NativeRuntime::PublishWorkerCounters(Worker* w) {
  w->pub_processed.store(w->processed, std::memory_order_relaxed);
  w->pub_sink.store(w->sink_tuples, std::memory_order_relaxed);
  w->pub_busy_ns.store(CycleClock::ToNs(w->busy_ticks),
                       std::memory_order_relaxed);
}

void NativeRuntime::WorkerLoop(Worker* w) {
  tls_worker_thread = true;
  const OperatorSpec& spec = topology_->spec(w->op);
  for (;;) {
    if (elastic_) {
      PollWorkerControl(w);
      if (w->retiring.load(std::memory_order_relaxed) && RetireReady(w)) {
        // Evacuated and unreferenced: the channel provably holds nothing
        // the protocol still needs (every marker targets a migration that
        // would reference us; every tuple targets a shard we would own).
        break;
      }
    }
    TupleBatchStorage* batch = w->input->TryPop();
    if (batch == nullptr) {
      // Input momentarily idle: don't sit on partial output batches while
      // blocking — downstream would starve behind our buffering.
      FlushPorts(&w->ports);
      PublishWorkerCounters(w);
      batch = w->input->Pop(spin_waits_.load(std::memory_order_relaxed));
      if (batch == nullptr) {
        if (w->input->exhausted()) break;  // Producers closed, ring drained.
        continue;  // Kicked awake: revisit the control board.
      }
    }
    if (batch->label_id >= 0) {
      const int64_t label_id = batch->label_id;
      pool_.Release(batch);
      OnLabel(w, label_id);
      continue;
    }
    for (const Tuple& t : batch->tuples) ProcessTuple(w, spec, t);
    pool_.Release(batch);
    PublishWorkerCounters(w);
  }
  if (elastic_) WorkerEpilogue(w);
  CloseProducerPorts(w);
  PublishWorkerCounters(w);
  if (elastic_) {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    w->exited = true;
  }
  ctrl_cv_.notify_all();
  live_threads_.fetch_sub(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// Elastic control plane.
// ---------------------------------------------------------------------------

void NativeRuntime::CollectLabelDuties(Producer* p,
                                       std::vector<LabelDuty>* duties) {
  for (; p->cmd_cursor < label_cmds_.size(); ++p->cmd_cursor) {
    const LabelCmd& cmd = label_cmds_[p->cmd_cursor];
    for (auto& port : p->ports) {
      if (port.to_op == cmd.op) {
        duties->push_back({&port, cmd.from_worker, cmd.label_id});
        ++labels_routed_;
        break;
      }
    }
  }
}

void NativeRuntime::PushLabel(ProducerPort* port, int from,
                              int64_t label_id) {
  // Flush the partial batch toward the old owner first: the marker must
  // ride *behind* every tuple this producer already routed there.
  TupleBatchStorage*& pending = port->pending[from];
  if (pending != nullptr && !pending->tuples.empty()) {
    TupleBatchStorage* batch = pending;
    pending = nullptr;
    if (!port->channels[from]->Push(batch)) pool_.Release(batch);
  }
  TupleBatchStorage* marker = pool_.Acquire();
  marker->label_id = label_id;
  if (!port->channels[from]->Push(marker)) pool_.Release(marker);
}

void NativeRuntime::PollProducer(Producer* p) {
  if (ctrl_version_.load(std::memory_order_acquire) == p->seen_version) {
    return;  // Fast path: one acquire load per batch while nothing moves.
  }
  std::vector<LabelDuty> duties;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    SyncProducerPorts(p);
    CollectLabelDuties(p, &duties);
    p->seen_version = ctrl_version_.load(std::memory_order_relaxed);
  }
  // Pushes happen outside ctrl_mu_: a Push may block on a full channel
  // whose consumer is itself waiting to acquire ctrl_mu_.
  for (auto& d : duties) PushLabel(d.port, d.from, d.label_id);
}

void NativeRuntime::PollWorkerControl(Worker* w) {
  if (ctrl_version_.load(std::memory_order_acquire) == w->seen_version) {
    return;
  }
  std::vector<LabelDuty> duties;
  std::vector<int64_t> precopies;
  std::vector<int64_t> drains;
  std::vector<int64_t> installs;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    SyncProducerPorts(w);
    CollectLabelDuties(w, &duties);
    for (auto& [id, m] : migrations_) {
      if (m->op != w->op) continue;
      if (m->from == w->index && m->phase == MigPhase::kRequested) {
        m->phase = MigPhase::kPrecopying;  // Claimed; nobody else starts it.
        precopies.push_back(id);
      } else if (m->from == w->index && m->phase == MigPhase::kDrained &&
                 m->barrier_armed) {
        // Unarmed drains wait for the epilogue: the channel backlog is the
        // drain, and this worker is still consuming it.
        drains.push_back(id);
      } else if (m->to == w->index && m->phase == MigPhase::kReady) {
        installs.push_back(id);
      }
    }
    w->seen_version = ctrl_version_.load(std::memory_order_relaxed);
  }
  for (auto& d : duties) PushLabel(d.port, d.from, d.label_id);
  for (int64_t id : precopies) StartPrecopy(w, id);
  for (int64_t id : drains) DrainComplete(w, id);
  for (int64_t id : installs) InstallMigratedShard(w, id);
}

Status NativeRuntime::ReassignShard(OperatorId op, ShardId shard,
                                    int to_worker) {
  if (!elastic_) {
    return Status::FailedPrecondition(
        "ReassignShard requires the elastic paradigm");
  }
  if (!started_) {
    return Status::FailedPrecondition("ReassignShard before Start");
  }
  if (op < 0 || op >= static_cast<OperatorId>(partitions_.size()) ||
      partitions_[op] == nullptr) {
    return Status::InvalidArgument("not a worker operator");
  }
  if (shard < 0 || shard >= partitions_[op]->num_shards()) {
    return Status::InvalidArgument("shard out of range");
  }
  if (to_worker < 0 || to_worker >= num_workers(op)) {
    return Status::InvalidArgument("destination worker out of range");
  }
  Worker* src = nullptr;
  int64_t label_id = -1;
  bool drive_inline = false;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    if (teardown_) return Status::FailedPrecondition("tearing down");
    if (in_transition_.count({op, shard}) > 0) {
      return Status::FailedPrecondition("shard already in transition");
    }
    ElasticOp* eo = elastic_ops_[op].get();
    const int from = eo->owner[shard].load(std::memory_order_relaxed);
    if (from == to_worker) return Status::OK();  // Already there.
    src = worker_at(op, from);
    Worker* dst = worker_at(op, to_worker);
    if (dst->retiring.load(std::memory_order_relaxed)) {
      // Sticky: a retiring/retired worker is being (or has been) evacuated
      // and must never accept a shard again — the balancer and the
      // retirement pump both rely on this rejection.
      return Status::FailedPrecondition("destination worker is retiring");
    }
    if ((src->departing && !src->exited) ||
        (dst->departing && !dst->exited)) {
      // Narrow shutdown window: the endpoint committed to exit but its
      // ports aren't closed yet, so neither the live protocol (it will
      // never poll again) nor the driver-driven path (its ports are still
      // hot) can run. The caller just lost the race with drain-down.
      return Status::FailedPrecondition("endpoint worker is draining");
    }
    auto m = std::make_unique<Migration>();
    label_id = next_label_id_++;
    m->label_id = label_id;
    m->op = op;
    m->shard = shard;
    m->from = from;
    m->to = to_worker;
    m->requested_at = backend_->now();
    drive_inline = src->exited;
    if (drive_inline) m->phase = MigPhase::kPrecopying;
    in_transition_.insert({op, shard});
    migrations_.emplace(label_id, std::move(m));
    ctrl_version_.fetch_add(1, std::memory_order_release);
  }
  ctrl_cv_.notify_all();
  if (drive_inline) {
    // The old owner's thread is gone (post-drain reshuffle): its store is
    // quiescent and its producers all closed, so the caller's thread can
    // run the source-side duties directly — the protocol degenerates to a
    // synchronous handoff (or a paced one driven by the timer wheel).
    StartPrecopy(src, label_id);
  } else {
    src->input->Kick();  // An idle owner must wake up to claim the move.
  }
  return Status::OK();
}

Status NativeRuntime::GrowWorkers(OperatorId op, int n) {
  if (!elastic_) {
    return Status::FailedPrecondition(
        "GrowWorkers requires the elastic paradigm (static routing cannot "
        "address workers that did not exist at Setup)");
  }
  if (!started_) return Status::FailedPrecondition("GrowWorkers before Start");
  if (op < 0 || op >= static_cast<OperatorId>(partitions_.size()) ||
      partitions_[op] == nullptr) {
    return Status::InvalidArgument("not a worker operator");
  }
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  const size_t channel_cap = static_cast<size_t>(
      std::max(1, config_->native.data_path.channel_capacity_batches));
  std::vector<Worker*> grown;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    if (teardown_) return Status::FailedPrecondition("tearing down");
    ElasticOp* eo = elastic_ops_[op].get();
    if (eo->open_producers <= 0) {
      return Status::FailedPrecondition(
          "every producer of the operator already closed (nothing left to "
          "route to a new worker)");
    }
    const int count = worker_count_[op].load(std::memory_order_relaxed);
    if (count + n > static_cast<int>(workers_[op].size())) {
      return Status::FailedPrecondition(
          "worker-slot reservation exhausted (raise "
          "native.max_workers_per_operator)");
    }
    for (int k = 0; k < n; ++k) {
      auto w = std::make_unique<Worker>();
      w->op = op;
      w->index = count + k;
      w->is_sink = topology_->is_sink(op);
      // The channel counts exactly the producers currently open toward
      // this operator: each of them syncs its ports under ctrl_mu_ before
      // its retirement sweep, so each will CloseProducer on it exactly
      // once; producers that already closed never learn of the channel.
      w->input = std::make_unique<MpscChannel>(channel_cap,
                                               eo->open_producers);
      w->origin = next_origin_++;
      // Deterministic in (seed, op, index) regardless of when the growth
      // happens — unlike Setup's sequential root forks, which encode
      // creation order. The 0x97 prefix keeps the stream ids disjoint
      // from Setup's fork salts.
      w->rng = Rng(config_->seed,
                   0x9700000000000000ull +
                       static_cast<uint64_t>(MakeExecutorId(op, w->index)));
      w->cmd_cursor = label_cmds_.size();  // Owes no past label duties.
      w->seen_version = ctrl_version_.load(std::memory_order_relaxed);
      BuildPorts(op, &w->ports);
      // Register as a producer on every downstream channel. Safe while
      // some worker of this op is still active (guaranteed: workers only
      // close after their producers did, and open_producers > 0 above).
      for (auto& port : w->ports) {
        for (MpscChannel* ch : port.channels) ch->AddProducer();
        ++elastic_ops_[port.to_op]->open_producers;
      }
      w->pinned_cpu = NextPinCpu();
      Worker* raw = w.get();
      workers_[op][count + k] = std::move(w);
      live_threads_.fetch_add(1, std::memory_order_relaxed);
      // The release store makes the filled slot (and its channel) visible
      // to every acquire-side reader: EmitTo's routing, the kick-all loop,
      // BuildPorts/SyncProducerPorts of other producers.
      worker_count_[op].store(count + k + 1, std::memory_order_release);
      grown.push_back(raw);
    }
    UpdateSpinWaits();
    ctrl_version_.fetch_add(1, std::memory_order_release);
  }
  ctrl_cv_.notify_all();
  for (Worker* w : grown) {
    w->thread = std::thread([this, w] { WorkerLoop(w); });
    if (w->pinned_cpu >= 0 && !PinThreadToCpu(&w->thread, w->pinned_cpu)) {
      w->pinned_cpu = -1;
    }
  }
  return Status::OK();
}

Status NativeRuntime::ShrinkWorkers(OperatorId op, int n) {
  if (!elastic_) {
    return Status::FailedPrecondition(
        "ShrinkWorkers requires the elastic paradigm (static workers own "
        "their partition for the run)");
  }
  if (!started_) {
    return Status::FailedPrecondition("ShrinkWorkers before Start");
  }
  if (op < 0 || op >= static_cast<OperatorId>(partitions_.size()) ||
      partitions_[op] == nullptr) {
    return Status::InvalidArgument("not a worker operator");
  }
  if (n < 1) return Status::InvalidArgument("n must be >= 1");
  bool arm_pump = false;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    if (teardown_) return Status::FailedPrecondition("tearing down");
    const int count = worker_count_[op].load(std::memory_order_relaxed);
    std::vector<Worker*> active;
    for (int i = 0; i < count; ++i) {
      Worker* w = worker_at(op, i);
      if (!w->retiring.load(std::memory_order_relaxed) && !w->exited) {
        active.push_back(w);
      }
    }
    if (static_cast<int>(active.size()) <= n) {
      return Status::FailedPrecondition(
          "shrink would leave no active worker (the pool never drops to "
          "zero)");
    }
    // Highest-index actives first: mirrors how growth appends, so repeated
    // grow/shrink cycles reuse the low slots.
    for (int k = 0; k < n; ++k) {
      active[active.size() - 1 - k]->retiring.store(
          true, std::memory_order_relaxed);
    }
    if (!retire_pump_armed_) {
      retire_pump_armed_ = true;
      arm_pump = true;
    }
    UpdateSpinWaits();
    ctrl_version_.fetch_add(1, std::memory_order_release);
  }
  ctrl_cv_.notify_all();
  // Kick every worker of the operator: victims wake to notice retirement,
  // the rest wake to claim evacuation duties.
  const int count = worker_count_[op].load(std::memory_order_acquire);
  for (int i = 0; i < count; ++i) worker_at(op, i)->input->Kick();
  (void)PumpRetirement();  // First evacuation pass, synchronously.
  if (arm_pump) {
    // 1 ms replan cadence until every victim exited: stragglers appear
    // when an in-flight move lands a shard on a victim post-mark, or an
    // evacuation move lost a race with another migration of the shard.
    backend_->Periodic(backend_->now() + Millis(1), Millis(1),
                       [this](SimTime) {
                         if (PumpRetirement()) return true;
                         std::lock_guard<std::mutex> lock(ctrl_mu_);
                         retire_pump_armed_ = false;
                         return false;
                       });
  }
  return Status::OK();
}

bool NativeRuntime::PumpRetirement() {
  struct Planned {
    OperatorId op;
    ShardId shard;
    int to;
  };
  std::vector<Planned> planned;
  std::vector<MpscChannel*> kicks;
  bool any_retiring = false;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    if (teardown_) return false;
    for (OperatorId op = 0;
         op < static_cast<OperatorId>(elastic_ops_.size()); ++op) {
      ElasticOp* eo = elastic_ops_[op].get();
      if (eo == nullptr) continue;
      const int count = worker_count_[op].load(std::memory_order_relaxed);
      std::vector<bool> allowed(count, false);
      std::vector<double> slot_load(count, 0.0);
      std::vector<double> capacity(count, 1.0);
      std::vector<Worker*> victims;
      for (int i = 0; i < count; ++i) {
        Worker* w = worker_at(op, i);
        if (w->retiring.load(std::memory_order_relaxed)) {
          if (!w->exited) victims.push_back(w);
          continue;
        }
        if (w->exited) continue;
        allowed[i] = true;
        // Cumulative busy as the tie-breaking running load: relative
        // weights are all the FFD assignment needs.
        slot_load[i] =
            static_cast<double>(w->pub_busy_ns.load(std::memory_order_relaxed));
        if (eo->speed_ewma[i] > 0.0) capacity[i] = eo->speed_ewma[i];
      }
      if (victims.empty()) continue;
      any_retiring = true;
      const int num_shards = static_cast<int>(eo->owner.size());
      std::vector<double> shard_load(num_shards, 0.0);
      for (int s = 0; s < num_shards; ++s) {
        shard_load[s] = 1.0 + static_cast<double>(CycleClock::ToNs(
                                  eo->busy_ticks[s].load(
                                      std::memory_order_relaxed)));
      }
      for (Worker* victim : victims) {
        kicks.push_back(victim->input.get());
        std::vector<int> shards;
        for (int s = 0; s < num_shards; ++s) {
          if (eo->owner[s].load(std::memory_order_relaxed) ==
                  victim->index &&
              in_transition_.count({op, s}) == 0) {
            shards.push_back(s);
          }
        }
        if (shards.empty()) continue;
        // NUMA preference: evacuate onto the victim's own package when any
        // active worker lives there (keeps the shard's consumers near its
        // producers' memory); fall back to the full active set.
        std::vector<bool> dest = allowed;
        const int victim_pkg = PackageOf(victim->pinned_cpu);
        if (victim_pkg >= 0) {
          std::vector<bool> same(count, false);
          bool any_same = false;
          for (int i = 0; i < count; ++i) {
            if (allowed[i] &&
                PackageOf(worker_at(op, i)->pinned_cpu) == victim_pkg) {
              same[i] = true;
              any_same = true;
            }
          }
          if (any_same) dest = std::move(same);
        }
        auto moves = balance::PlanEvacuation(shards, shard_load, &slot_load,
                                             victim->index, dest, &capacity);
        if (!moves.ok()) continue;  // No destination this round; retry.
        for (const auto& mv : moves.value()) {
          planned.push_back({op, mv.shard, mv.to});
        }
      }
    }
  }
  for (const auto& mv : planned) {
    // Losing a race (shard became in-transition meanwhile) just skips a
    // round; the pump replans from live ownership next tick.
    (void)ReassignShard(mv.op, mv.shard, mv.to);
  }
  // Victims may be idle-blocked: every pump wakes them to re-run the
  // retire-ready test.
  for (MpscChannel* ch : kicks) ch->Kick();
  return any_retiring;
}

bool NativeRuntime::RetireReady(Worker* w) {
  std::lock_guard<std::mutex> lock(ctrl_mu_);
  if (teardown_) return true;
  if (!w->hold.empty()) return false;
  ElasticOp* eo = elastic_ops_[w->op].get();
  const int num_shards = static_cast<int>(eo->owner.size());
  for (int s = 0; s < num_shards; ++s) {
    if (eo->owner[s].load(std::memory_order_relaxed) == w->index) {
      return false;
    }
  }
  for (auto& [id, m] : migrations_) {
    if (m->op == w->op && (m->from == w->index || m->to == w->index)) {
      return false;
    }
  }
  return true;
}

void NativeRuntime::StartPrecopy(Worker* w, int64_t label_id) {
  ShardId shard = -1;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    auto it = migrations_.find(label_id);
    if (it == migrations_.end()) return;
    shard = it->second->shard;
  }
  // Same-process move: both "nodes" are 0, so the transfer cost model uses
  // the local copy rate (0 = free handoff, pre-copy completes
  // synchronously; >0 = chunks paced on the backend's timer wheel while
  // this worker keeps processing the shard).
  MigrationEngine::Handle handle = migration_->Begin(
      &w->store, shard, /*from=*/0, /*to=*/0,
      config_->state.migration.strategy,
      config_->native.migration_copy_bytes_per_sec,
      [this, label_id] { BeginLabeling(label_id); });
  bool finalize_now = false;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    auto it = migrations_.find(label_id);
    if (it == migrations_.end()) return;
    Migration* m = it->second.get();
    m->handle = std::move(handle);
    // BeginLabeling may have run synchronously inside Begin (free handoff)
    // and found the drain already satisfied; it could not finalize without
    // the handle, so the baton comes back here. An unarmed drain on a live
    // worker is NOT satisfied yet — its channel backlog stands in for the
    // barrier and the epilogue finalizes once that backlog is consumed.
    finalize_now =
        m->phase == MigPhase::kDrained && (m->barrier_armed || w->exited);
  }
  if (finalize_now) DrainComplete(w, label_id);
}

void NativeRuntime::BeginLabeling(int64_t label_id) {
  Worker* exited_src = nullptr;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    auto it = migrations_.find(label_id);
    if (it == migrations_.end()) return;
    Migration* m = it->second.get();
    ElasticOp* eo = elastic_ops_[m->op].get();
    // The flip: name the destination in held first (relaxed), then
    // publish the new owner with release. Producers acquire-load the
    // owner; the channel mutex then carries the edge to the destination,
    // whose acquire-load of held therefore cannot miss it for any tuple
    // routed post-flip.
    m->flip_at = backend_->now();
    eo->held[m->shard].store(m->to, std::memory_order_relaxed);
    eo->owner[m->shard].store(m->to, std::memory_order_release);
    m->barrier_armed = barrier_.Arm(label_id, eo->open_producers);
    if (m->barrier_armed) {
      m->phase = MigPhase::kLabeling;
      label_cmds_.push_back({m->op, m->from, label_id});
    } else {
      // No open producers: the backlog is whatever already sits in the old
      // owner's channel. If that thread exited the drain is vacuous and
      // runs here; otherwise finalization waits for the worker's epilogue
      // (channel exhausted), so the backlog is consumed before the shard
      // is extracted.
      m->phase = MigPhase::kDrained;
      Worker* src = worker_at(m->op, m->from);
      if (src->exited) exited_src = src;
    }
    ctrl_version_.fetch_add(1, std::memory_order_release);
  }
  ctrl_cv_.notify_all();
  // Every worker is a potential label debtor (it may feed the migrating
  // operator) and the old owner may be idle-blocked: kick them all awake.
  // ForEachWorker acquire-loads the slot counts, so workers grown after
  // this command was published are covered (they owe no duty for it —
  // their cmd_cursor starts past it — but the wake-up is harmless).
  ForEachWorker([](Worker* w) { w->input->Kick(); });
  if (exited_src != nullptr) DrainComplete(exited_src, label_id);
}

void NativeRuntime::OnLabel(Worker* w, int64_t label_id) {
  bool complete = false;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    complete = barrier_.OnLabel(label_id);
    if (complete) {
      auto it = migrations_.find(label_id);
      if (it == migrations_.end()) return;
      it->second->phase = MigPhase::kDrained;
    }
  }
  if (complete) DrainComplete(w, label_id);
}

void NativeRuntime::DrainComplete(Worker* w, int64_t label_id) {
  MigrationEngine::Handle handle;
  ProcessStateStore* staging = nullptr;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    auto it = migrations_.find(label_id);
    if (it == migrations_.end()) return;
    Migration* m = it->second.get();
    if (m->phase != MigPhase::kDrained) return;  // Someone else finalized.
    if (m->handle == nullptr) return;  // Begin still in flight; StartPrecopy
                                       // re-drives once the handle lands.
    m->phase = MigPhase::kFinalizing;
    if (validate_) {
      auto os = w->order_state.find(m->shard);
      if (os != w->order_state.end()) {
        m->order_state = std::move(os->second);
        w->order_state.erase(os);
      }
    }
    handle = m->handle;
    staging = &m->staging;
  }
  // Hand pre-flip emissions downstream before the new owner starts
  // producing for the same keys — bounds how long they linger in partial
  // batches (per-channel FIFO still carries the ordering guarantee).
  FlushPorts(&w->ports);
  migration_->Finalize(handle, staging,
                       [this, label_id](const MigrationStats&) {
                         MigrationReady(label_id);
                       });
}

void NativeRuntime::MigrationReady(int64_t label_id) {
  Worker* exited_dst = nullptr;
  MpscChannel* dst_channel = nullptr;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    auto it = migrations_.find(label_id);
    if (it == migrations_.end()) return;
    Migration* m = it->second.get();
    m->phase = MigPhase::kReady;
    Worker* dst = worker_at(m->op, m->to);
    if (dst->exited) {
      exited_dst = dst;  // Quiescent: no thread of its own to install.
    } else {
      dst_channel = dst->input.get();
    }
    ctrl_version_.fetch_add(1, std::memory_order_release);
  }
  ctrl_cv_.notify_all();
  if (dst_channel != nullptr) dst_channel->Kick();
  if (exited_dst == nullptr) return;
  if (tls_worker_thread) {
    // A live old owner finalized into an exited destination. The driver
    // may be draining or installing another shard of that same worker
    // right now, so the install runs on the driver too (WaitDrained pumps
    // the backend while the migration is pending).
    backend_->After(0, [this, exited_dst, label_id] {
      InstallMigratedShard(exited_dst, label_id);
    });
  } else {
    InstallMigratedShard(exited_dst, label_id);
  }
}

void NativeRuntime::InstallMigratedShard(Worker* w, int64_t label_id) {
  std::unique_ptr<Migration> m;
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    auto it = migrations_.find(label_id);
    if (it == migrations_.end() || it->second->phase != MigPhase::kReady) {
      return;
    }
    m = std::move(it->second);
    migrations_.erase(it);
  }
  Result<ShardState> state = m->staging.ExtractShard(m->shard);
  ELASTICUTOR_CHECK_MSG(state.ok(), "migrated shard missing from staging");
  ELASTICUTOR_CHECK(
      w->store.InstallShard(m->shard, std::move(state.value())).ok());
  if (validate_ && !m->order_state.empty()) {
    w->order_state[m->shard] = std::move(m->order_state);
  }
  std::vector<Tuple> replay;
  auto hold = w->hold.find(m->shard);
  if (hold != w->hold.end()) {
    replay = std::move(hold->second);
    w->hold.erase(hold);
  }
  // Clear held before replaying: ProcessTuple must not re-hold, and new
  // arrivals may interleave behind the replay in channel order.
  elastic_ops_[m->op]->held[m->shard].store(-1, std::memory_order_release);
  const OperatorSpec& spec = topology_->spec(w->op);
  for (const Tuple& t : replay) ProcessTuple(w, spec, t);
  PublishWorkerCounters(w);
  {
    std::lock_guard<std::mutex> lock(ctrl_mu_);
    in_transition_.erase({m->op, m->shard});
    ++reassignments_done_;
    pause_ns_.push_back(backend_->now() - m->flip_at);
  }
  ctrl_cv_.notify_all();  // Epilogue waiters and the driver re-check.
  // A retiring old owner may be idle-blocked in Pop with this migration
  // the last thing referencing it: wake it to re-run its exit test.
  worker_at(m->op, m->from)->input->Kick();
}

void NativeRuntime::WorkerEpilogue(Worker* w) {
  // The channel is exhausted but this worker may still owe protocol steps:
  // label pushes toward other operators, its own finalize as an old owner,
  // or an install as a destination. Stay on duty until no in-flight move
  // references this worker, then commit to departure atomically with that
  // check (ReassignShard refuses departing endpoints).
  for (;;) {
    PollWorkerControl(w);
    std::vector<int64_t> drains;
    {
      std::unique_lock<std::mutex> lock(ctrl_mu_);
      bool pending = false;
      for (auto& [id, m] : migrations_) {
        if (m->op != w->op) continue;
        if (m->from == w->index && m->phase == MigPhase::kDrained) {
          // Deferred (unarmed) drain: the input channel is exhausted now,
          // so the backlog that stood in for the labeling barrier has been
          // consumed and the shard can finally leave this store.
          drains.push_back(id);
        }
        if (m->from == w->index || m->to == w->index) pending = true;
      }
      if (teardown_ || !pending) {
        w->departing = true;
        return;
      }
      if (drains.empty()) {
        ctrl_cv_.wait_for(lock, std::chrono::milliseconds(1));
        continue;
      }
    }
    for (int64_t id : drains) DrainComplete(w, id);
  }
}

void NativeRuntime::UpdateWorkerSpeeds(OperatorId op, ElasticOp* eo) {
  const int count = worker_count_[op].load(std::memory_order_relaxed);
  std::vector<double> observed(count, -1.0);
  double max_observed = 0.0;
  for (int i = 0; i < count; ++i) {
    Worker* w = worker_at(op, i);
    const int64_t busy = w->pub_busy_ns.load(std::memory_order_relaxed);
    const int64_t proc = w->pub_processed.load(std::memory_order_relaxed);
    const int64_t dbusy = busy - eo->prev_worker_busy[i];
    const int64_t dproc = proc - eo->prev_worker_proc[i];
    eo->prev_worker_busy[i] = busy;
    eo->prev_worker_proc[i] = proc;
    if (dbusy >= kSpeedMinBusyNs && dproc > 0) {
      observed[i] =
          static_cast<double>(dproc) / static_cast<double>(dbusy);
      max_observed = std::max(max_observed, observed[i]);
    }
  }
  if (max_observed <= 0.0) return;  // Nothing measured this window.
  for (int i = 0; i < count; ++i) {
    double& ewma = eo->speed_ewma[i];
    if (observed[i] > 0.0) {
      const double rel = observed[i] / max_observed;
      ewma = ewma > 0.0 ? kSpeedAlpha * rel + (1.0 - kSpeedAlpha) * ewma
                        : rel;
      ewma = std::max(1e-3, std::min(1.0, ewma));
    } else if (ewma > 0.0) {
      // Unobserved this window: drift toward nominal rather than trusting
      // a stale straggler verdict forever (idleness is not slowness).
      ewma += kSpeedRecovery * (1.0 - ewma);
    }
  }
}

void NativeRuntime::BalanceTick() {
  const bool wall_busy = config_->native.balance.use_wall_busy;
  for (OperatorId op = 0;
       op < static_cast<OperatorId>(elastic_ops_.size()); ++op) {
    ElasticOp* eo = elastic_ops_[op].get();
    if (eo == nullptr) continue;
    const int slots = worker_count_[op].load(std::memory_order_acquire);
    if (slots <= 1) continue;
    std::vector<double> capacity(slots, 1.0);
    std::vector<bool> frozen(slots, false);
    {
      // Measured capacities + lifecycle flags come from the control board;
      // the shard loads below are plain atomic reads.
      std::lock_guard<std::mutex> lock(ctrl_mu_);
      UpdateWorkerSpeeds(op, eo);
      for (int i = 0; i < slots; ++i) {
        Worker* w = worker_at(op, i);
        frozen[i] =
            w->retiring.load(std::memory_order_relaxed) || w->exited;
        if (eo->speed_ewma[i] > 0.0) capacity[i] = eo->speed_ewma[i];
      }
    }
    const int num_shards = static_cast<int>(eo->owner.size());
    std::vector<double> load(num_shards);
    std::vector<int> assignment(num_shards);
    for (int s = 0; s < num_shards; ++s) {
      assignment[s] = eo->owner[s].load(std::memory_order_relaxed);
      if (wall_busy) {
        // Shard load in speed-independent work units: measured busy time
        // on the owner, scaled by the owner's measured speed (a slow
        // worker needs more wall time for the same work — without the
        // scaling, shards would look heavier merely for sitting on a
        // straggler, double-counting what the capacity vector already
        // models).
        const int64_t cur = CycleClock::ToNs(
            eo->busy_ticks[s].load(std::memory_order_relaxed));
        const double delta =
            static_cast<double>(cur - eo->balance_prev_busy[s]);
        eo->balance_prev_busy[s] = cur;
        const int owner = assignment[s];
        load[s] = delta * (owner >= 0 && owner < slots ? capacity[owner]
                                                       : 1.0);
      } else {
        // Legacy signal: raw processed-count deltas (flat per-tuple cost
        // assumption; native.balance.use_wall_busy=false).
        const int64_t cur =
            eo->processed[s].load(std::memory_order_relaxed);
        load[s] = static_cast<double>(cur - eo->balance_prev[s]);
        eo->balance_prev[s] = cur;
      }
    }
    const auto moves = balance::PlanMoves(
        load, &assignment, slots, config_->native.balance.theta,
        config_->native.balance.max_moves, &frozen, &capacity);
    for (const auto& mv : moves) {
      // Busy shards (already in transition / draining endpoints) just skip
      // a round; the next tick replans from fresh load deltas.
      (void)ReassignShard(op, mv.shard, mv.to);
    }
  }
}

// ---------------------------------------------------------------------------
// Telemetry.
// ---------------------------------------------------------------------------

TelemetrySnapshot NativeRuntime::SampleTelemetry() const {
  TelemetrySnapshot snap;
  snap.sampled_at = backend_->now();
  std::lock_guard<std::mutex> lock(ctrl_mu_);
  for (OperatorId op = 0; op < static_cast<OperatorId>(workers_.size());
       ++op) {
    const int count = worker_count_[op].load(std::memory_order_acquire);
    ElasticOp* eo = elastic_ == false ? nullptr : elastic_ops_[op].get();
    for (int i = 0; i < count; ++i) {
      Worker* w = workers_[op][i].get();
      WorkerTelemetry wt;
      wt.op = op;
      wt.index = i;
      wt.busy_ns = w->pub_busy_ns.load(std::memory_order_relaxed);
      wt.processed = w->pub_processed.load(std::memory_order_relaxed);
      wt.sink_tuples = w->pub_sink.load(std::memory_order_relaxed);
      wt.speed = eo != nullptr ? eo->speed_ewma[i] : 0.0;
      wt.pinned_cpu = w->pinned_cpu;
      wt.retiring = w->retiring.load(std::memory_order_relaxed);
      wt.exited = w->exited;
      snap.total_processed += wt.processed;
      snap.sink_count += wt.sink_tuples;
      snap.total_busy_ns += wt.busy_ns;
      snap.workers.push_back(wt);
    }
    if (eo != nullptr) {
      const int num_shards = static_cast<int>(eo->owner.size());
      for (int s = 0; s < num_shards; ++s) {
        ShardTelemetry st;
        st.op = op;
        st.shard = s;
        st.owner = eo->owner[s].load(std::memory_order_relaxed);
        st.busy_ns = CycleClock::ToNs(
            eo->busy_ticks[s].load(std::memory_order_relaxed));
        st.processed = eo->processed[s].load(std::memory_order_relaxed);
        snap.shards.push_back(st);
      }
    }
  }
  for (const auto& s : sources_) {
    SourceTelemetry st;
    st.op = s->op;
    st.index = s->index;
    st.emitted = s->pub_generated.load(std::memory_order_relaxed);
    st.pinned_cpu = s->pinned_cpu;
    snap.source_emitted += st.emitted;
    snap.sources.push_back(st);
  }
  snap.reassignments_done = reassignments_done_;
  snap.migrations_in_flight = static_cast<int64_t>(migrations_.size());
  return snap;
}

// ---------------------------------------------------------------------------
// Accessors (deprecated forwarders; see the header's liveness contract).
// ---------------------------------------------------------------------------

int NativeRuntime::shard_owner(OperatorId op, ShardId shard) const {
  return elastic_ops_.at(op)->owner.at(shard).load(std::memory_order_acquire);
}

int64_t NativeRuntime::reassignments_done() const {
  std::lock_guard<std::mutex> lock(ctrl_mu_);
  return reassignments_done_;
}

int64_t NativeRuntime::migrations_in_flight() const {
  std::lock_guard<std::mutex> lock(ctrl_mu_);
  return static_cast<int64_t>(migrations_.size());
}

bool NativeRuntime::MigrationsPending() const {
  if (!elastic_) return false;
  std::lock_guard<std::mutex> lock(ctrl_mu_);
  // Emergency teardown abandons in-flight migrations; don't wait on them.
  return !teardown_ && !migrations_.empty();
}

std::vector<SimDuration> NativeRuntime::migration_pauses() const {
  std::lock_guard<std::mutex> lock(ctrl_mu_);
  return pause_ns_;
}

int64_t NativeRuntime::labels_routed() const {
  std::lock_guard<std::mutex> lock(ctrl_mu_);
  return labels_routed_;
}

int64_t NativeRuntime::order_violations() const {
  int64_t total = 0;
  ForEachWorker([&total](Worker* w) { total += w->order_violations; });
  return total;
}

int64_t NativeRuntime::total_processed() const {
  int64_t total = 0;
  ForEachWorker([&total](Worker* w) { total += w->processed; });
  return total;
}

int64_t NativeRuntime::processed(OperatorId op) const {
  int64_t total = 0;
  const int count = worker_count_.at(op).load(std::memory_order_acquire);
  for (int i = 0; i < count; ++i) total += workers_[op][i]->processed;
  return total;
}

int64_t NativeRuntime::sink_count() const {
  int64_t total = 0;
  ForEachWorker([&total](Worker* w) { total += w->sink_tuples; });
  return total;
}

int64_t NativeRuntime::source_emitted() const {
  int64_t total = 0;
  for (const auto& s : sources_) total += s->generated;
  return total;
}

int64_t NativeRuntime::push_blocks() const {
  int64_t total = 0;
  ForEachWorker([&total](Worker* w) { total += w->input->push_blocks(); });
  return total;
}

int64_t NativeRuntime::pop_waits() const {
  int64_t total = 0;
  ForEachWorker([&total](Worker* w) { total += w->input->pop_waits(); });
  return total;
}

int64_t NativeRuntime::batches_pushed() const {
  int64_t total = 0;
  ForEachWorker([&total](Worker* w) { total += w->input->batches_pushed(); });
  return total;
}

int NativeRuntime::num_workers(OperatorId op) const {
  (void)workers_.at(op);  // Bounds check.
  return worker_count_[op].load(std::memory_order_acquire);
}

int NativeRuntime::num_shards(OperatorId op) const {
  return partitions_.at(op)->num_shards();
}

ShardId NativeRuntime::shard_of_key(OperatorId op, uint64_t key) const {
  return partitions_.at(op)->ShardOf(key);
}

int NativeRuntime::worker_of_shard(OperatorId op, ShardId shard) const {
  if (elastic_) {
    return elastic_ops_.at(op)->owner.at(shard).load(
        std::memory_order_acquire);
  }
  return partitions_.at(op)->ExecutorOfShard(shard);
}

ProcessStateStore* NativeRuntime::worker_store(OperatorId op, int worker) {
  ELASTICUTOR_CHECK(worker >= 0 && worker < num_workers(op));
  return &workers_.at(op)[worker]->store;
}

}  // namespace exec
}  // namespace elasticutor

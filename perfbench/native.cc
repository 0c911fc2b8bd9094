// Native workload `uniform`: the micro topology (generator -> calculator) on
// the multithreaded runtime under the default elastic paradigm, with one
// source thread and two calculator workers, Zipf 0.5 over 4096 keys at
// stationary load. Why: the run is almost all data path (channels, batch
// pool, operator logic) and the balancer has nothing to fix, so
// move-protocol changes should show no change in its end-to-end figures.
//
// A pass runs an unmeasured warm-up phase, then kRepetitions pairs of
// phases, each on a fresh Engine:
//  * saturation: the source runs unpaced until a fixed tuple budget is
//    done; tput_tps is that budget over Start -> drained wall time;
//  * open loop: the benchmark's own tuple factory paces the generator at
//    kOpenLoopRate. Every tuple carries its due time on that schedule; a
//    generator that falls behind emits at once, so a stall shows up in the
//    latency of the tuples behind it instead of slowing the schedule.
//    p50_ms / p99_ms run from the due time to the end of the calculator's
//    logic: each repetition's exact percentile over all its timed tuples,
//    then the median over the repetitions. model_tput_tps is the engine's
//    own sink count over its own clock (the achieved rate against the
//    offered one).
// Traced passes add a moving phase: the same open loop while the driver
// reassigns a seeded shard to the other worker every kMoveEverySlices
// balance ticks. It measures the move protocol (ReassignShard, pre-copy,
// the labeling barrier, hold/replay) on a fixed schedule, independent of
// whether the balancer finds anything to move; its figures are per-layer
// only.
//
// The runtime's own trace-mode source is not used for the open loop: it
// draws Poisson gaps on the backend's timer wheel and fell far short of the
// asked rate (9.3k, 19.5k and 44k tuples/s achieved for 20k, 100k and 400k
// asked), which would measure the pacer rather than the data path.
//
// Correctness, every phase: each key's final state in the workers' stores
// must equal a reference fold of the same tuple sequence, and sink and
// source counts must equal the budget.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/random.h"
#include "common/zipf.h"
#include "engine/engine.h"
#include "exec/native_runtime.h"
#include "support.h"
#include "workload/micro.h"

namespace perfbench {
namespace {

using namespace elasticutor;

constexpr int kKeys = 4096;
constexpr double kZipfSkew = 0.5;
constexpr int kWorkers = 2;
constexpr int kShardsPerWorker = 64;
// About 40% of the uniform saturation rate on a 4-CPU x86 host (1.0-1.15 M
// tuples/s), so queues stay short unless something stalls.
constexpr double kOpenLoopRate = 450e3;
constexpr int kRepetitions = 5;
constexpr int kRefThreads = 4;
// setup_s: a round of set-ups before every measured phase (SetupTimer).
constexpr int kSetupSamplesPerRound = 16;
// Open-loop tuples due in the first kWarmupNs (at most a quarter of the
// phase) are checked but not timed.
constexpr int64_t kWarmupNs = 200'000'000;
// Balance settings of bench_native_speed's skew table.
constexpr SimDuration kBalanceTick = Millis(10);
constexpr double kTheta = 1.15;
constexpr int kMaxMoves = 4;
constexpr double kCopyBytesPerSec = 256e6;
// Traced and moving phases drive the engine one balance tick at a time.
constexpr SimDuration kSlice = kBalanceTick;
// Moving phase: one scheduled reassignment every kMoveEverySlices slices.
constexpr int kMoveEverySlices = 2;

enum class Kind { kSaturation, kOpenLoop, kMoving };

/// The deterministic key sequence of one phase: the seed and the phase
/// salt fix every key, so the reference fold replays it.
class KeyStream {
 public:
  KeyStream(uint64_t seed, uint64_t salt,
            std::shared_ptr<const ZipfSampler> zipf,
            std::shared_ptr<const std::vector<uint64_t>> perm)
      : rng_(seed, salt), zipf_(std::move(zipf)), perm_(std::move(perm)) {}

  uint64_t Next() { return (*perm_)[zipf_->Sample(&rng_)]; }

 private:
  Rng rng_;
  std::shared_ptr<const ZipfSampler> zipf_;
  std::shared_ptr<const std::vector<uint64_t>> perm_;
};

/// A phase's key stream: Zipf ranks mapped to keys through a permutation
/// drawn from the seed and the salt, so each phase has its own placement.
KeyStream MakeStream(uint64_t seed, uint64_t salt) {
  auto perm = std::make_shared<std::vector<uint64_t>>(kKeys);
  std::iota(perm->begin(), perm->end(), 0);
  Rng rng(seed, 0x5eed + salt);
  for (int i = kKeys - 1; i > 0; --i) {
    std::swap((*perm)[i], (*perm)[rng.NextBounded(i + 1)]);
  }
  return KeyStream(seed, salt, std::make_shared<ZipfSampler>(kKeys, kZipfSkew),
                   std::move(perm));
}

/// The generator's tuple factory. Called only by the runtime's single
/// source thread; read by the driver after the drain joined that thread.
struct SourceState {
  SourceState(KeyStream s, int64_t b, bool open)
      : stream(std::move(s)), budget(b), open_loop(open) {}

  Tuple Make() {
    const int64_t i = next++;
    int64_t now = 0;
    if (i == 0 || open_loop || i == budget - 1) now = NowNs();
    if (i == 0) t0_ns = now;
    Tuple t;
    t.key = stream.Next();
    t.size_bytes = 64;
    t.payload.i0 = i;
    if (open_loop) {
      const int64_t due =
          t0_ns + static_cast<int64_t>(static_cast<double>(i) * 1e9 /
                                       kOpenLoopRate);
      while (now < due) now = NowNs();
      late.Record(now - due);
      t.payload.i1 = due;
    }
    if (i == budget - 1) last_ns = now;
    return t;
  }

  KeyStream stream;
  int64_t budget;
  bool open_loop;
  int64_t next = 0;
  int64_t t0_ns = 0;
  int64_t last_ns = 0;
  Histogram late;  // Emission minus due time (open loop).
};

/// Due-time latencies recorded by the calculator threads, one buffer per
/// thread (found through a thread_local cache, so recording takes no lock).
/// Kept raw so percentiles are exact.
class SinkRecorder {
 public:
  SinkRecorder() : id_(next_id_.fetch_add(1) + 1) {}

  void Record(int64_t due_ns, int64_t now_ns) {
    if (due_ns < base_ns + warmup_ns) return;
    Local()->push_back(now_ns - due_ns);
  }

  /// Every recorded latency; valid once the recording threads joined.
  std::vector<int64_t> All() const {
    std::vector<int64_t> out;
    for (const auto& s : slots_) out.insert(out.end(), s->begin(), s->end());
    return out;
  }

  // Set before Start; read-only afterwards.
  int64_t base_ns = 0;
  int64_t warmup_ns = 0;  // Tuples due this soon after base_ns are not timed.

 private:
  std::vector<int64_t>* Local() {
    thread_local uint64_t cached_id = 0;
    thread_local std::vector<int64_t>* cached = nullptr;
    if (cached_id != id_) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_.push_back(std::make_unique<std::vector<int64_t>>());
      cached = slots_.back().get();
      cached->reserve(1 << 20);
      cached_id = id_;
    }
    return cached;
  }

  static inline std::atomic<uint64_t> next_id_{0};
  const uint64_t id_;
  std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<int64_t>>> slots_;
};

/// Exact q-quantile (nearest rank) of the values, in ms; 0 for none.
double QuantileMs(std::vector<int64_t>& values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return static_cast<double>(values[rank]) / 1e6;
}

struct Reference {
  std::vector<int64_t> acc = std::vector<int64_t>(kKeys, 0);
  std::vector<int64_t> count = std::vector<int64_t>(kKeys, 0);
  double thread_seconds = 0.0;  // Summed over the fold threads.
};

/// Folds the stream's first `n` keys exactly as the calculator does, split
/// by key over kRefThreads threads (per-key order is all the fold needs).
Reference Fold(const KeyStream& stream, int64_t n) {
  std::vector<Reference> parts(kRefThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kRefThreads; ++t) {
    threads.emplace_back([&stream, &parts, n, t] {
      const int64_t start = NowNs();
      KeyStream s = stream;
      Reference& part = parts[t];
      for (int64_t i = 0; i < n; ++i) {
        const uint64_t key = s.Next();
        if (static_cast<int>(key % kRefThreads) != t) continue;
        part.acc[key] = FoldStep(part.acc[key], key, i);
        ++part.count[key];
      }
      part.thread_seconds = static_cast<double>(NowNs() - start) / 1e9;
    });
  }
  for (auto& th : threads) th.join();
  Reference ref;
  for (int t = 0; t < kRefThreads; ++t) {
    for (int k = t; k < kKeys; k += kRefThreads) {
      ref.acc[k] = parts[t].acc[k];
      ref.count[k] = parts[t].count[k];
    }
    ref.thread_seconds += parts[t].thread_seconds;
  }
  return ref;
}

/// Per-key states gathered from every worker store; a key found in two
/// stores is recorded in `duplicated`.
struct Gathered {
  std::unordered_map<uint64_t, int64_t> state;
  std::vector<uint64_t> duplicated;
};

Gathered GatherStores(exec::NativeRuntime* native, OperatorId op) {
  Gathered g;
  for (int w = 0; w < native->num_workers(op); ++w) {
    native->worker_store(op, w)->ForEachShard(
        [&g](ShardId, const ShardState& shard) {
          for (const auto& [key, value] : shard.entries) {
            const int64_t* v = std::any_cast<int64_t>(&value);
            if (v == nullptr || !g.state.emplace(key, *v).second) {
              g.duplicated.push_back(key);
            }
          }
        });
  }
  return g;
}

/// Tuples of every key whose state differs from the reference (a key the
/// reference never saw counts one tuple).
int64_t MismatchedTuples(const Reference& ref, const Gathered& got) {
  int64_t bad = 0;
  for (int k = 0; k < kKeys; ++k) {
    const auto it = got.state.find(static_cast<uint64_t>(k));
    const bool present = it != got.state.end();
    if (ref.count[k] == 0) {
      if (present) ++bad;
      continue;
    }
    if (!present || it->second != ref.acc[k]) bad += ref.count[k];
  }
  for (const auto& [key, value] : got.state) {
    if (key >= static_cast<uint64_t>(kKeys)) ++bad;
  }
  for (uint64_t key : got.duplicated) {
    bad += key < static_cast<uint64_t>(kKeys) ? ref.count[key] : 1;
  }
  return bad;
}

/// What one phase (one Engine) measured.
struct Phase {
  int64_t tuples = 0;
  int64_t failed = 0;
  double wall_s = 0.0;    // Start -> RunToCompletion returned.
  double drain_ms = 0.0;  // Last tuple generated -> drained.
  double ref_thread_s = 0.0;
  exec::TelemetrySnapshot final;
  int64_t allocs = 0, push_blocks = 0, pop_waits = 0, batches_pushed = 0;
  int64_t labels = 0, moves = 0;
  std::vector<SimDuration> pauses;
  Histogram engine_latency;  // Emission -> sink, the engine's own.
  double engine_tps = 0.0;   // Sink tuples per second of the engine clock.
  int64_t timed = 0;         // Open-loop tuples with a due-time latency.
  double p50_ms = 0.0, p99_ms = 0.0, max_ms = 0.0;  // Due-time latency.
  Histogram late;
  double achieved_emit_tps = 0.0;
  std::vector<double> imbalance;  // Traced: max/mean worker busy per tick.
};

double ImbalanceOf(const exec::TelemetrySnapshot& prev,
                   const exec::TelemetrySnapshot& now, OperatorId op,
                   SimDuration window) {
  std::vector<double> busy;
  for (const auto& w : now.workers) {
    if (w.op != op) continue;
    int64_t before = 0;
    for (const auto& p : prev.workers) {
      if (p.op == op && p.index == w.index) before = p.busy_ns;
    }
    busy.push_back(static_cast<double>(w.busy_ns - before));
  }
  const double total = std::accumulate(busy.begin(), busy.end(), 0.0);
  const double mean = busy.empty() ? 0.0 : total / busy.size();
  // Windows where the workers were mostly idle (start-up, drain) say
  // nothing about balance.
  if (mean < 0.2 * static_cast<double>(window)) return -1.0;
  return *std::max_element(busy.begin(), busy.end()) / mean;
}

/// One phase's engine and the benchmark state its operators call into.
struct Built {
  OperatorId calculator = -1;
  std::shared_ptr<SourceState> source;
  std::shared_ptr<SinkRecorder> sink;
  std::unique_ptr<Engine> engine;
};

/// What setup_s times: builds the workload, constructs the Engine and runs
/// Setup().
Built Build(uint64_t seed, uint64_t salt, bool open_loop, int64_t budget,
            bool validate, Tracer* tr) {
  MicroOptions mo;
  mo.num_keys = kKeys;
  mo.zipf_skew = kZipfSkew;
  mo.generator_executors = 1;
  mo.calculator_executors = kWorkers;
  mo.shards_per_executor = kShardsPerWorker;
  mo.shard_state_bytes = 1 << 10;
  mo.mode = SourceSpec::Mode::kSaturation;
  Result<MicroWorkload> built = BuildMicroWorkload(mo, seed);
  ELASTICUTOR_CHECK(built.ok());
  MicroWorkload wl = std::move(built).value();

  Built b;
  b.calculator = wl.calculator;
  b.source = std::make_shared<SourceState>(MakeStream(seed, salt), budget,
                                           open_loop);
  OperatorSpec& gen = wl.topology.mutable_spec(wl.generator);
  gen.source.max_tuples = budget;
  gen.source.factory = [source = b.source](Rng*, SimTime) {
    return source->Make();
  };
  b.sink = std::make_shared<SinkRecorder>();
  b.sink->warmup_ns = std::min<int64_t>(
      kWarmupNs, static_cast<int64_t>(budget * 1e9 / kOpenLoopRate / 4));
  OperatorSpec& calc = wl.topology.mutable_spec(wl.calculator);
  calc.logic = [sink = b.sink, open_loop](const Tuple& t, StateAccessor& state,
                                          EmitContext*) {
    int64_t* acc = state.GetOrCreate<int64_t>();
    *acc = FoldStep(*acc, t.key, t.payload.i0);
    if (open_loop) sink->Record(t.payload.i1, NowNs());
  };

  EngineConfig config;  // Default paradigm: Paradigm::kElastic.
  config.backend = exec::BackendKind::kNative;
  config.seed = seed;
  config.num_nodes = 1;
  config.validate_key_order = validate;
  config.native.workers_per_operator = kWorkers;
  config.native.data_path.batch_tuples = 64;
  config.native.data_path.channel_capacity_batches = 64;
  config.native.migration_copy_bytes_per_sec = kCopyBytesPerSec;
  config.native.balance.period_ns = kBalanceTick;
  config.native.balance.theta = kTheta;
  config.native.balance.max_moves = kMaxMoves;
  config.native.balance.use_wall_busy = true;
  b.engine = std::make_unique<Engine>(std::move(wl.topology), config);
  {
    auto span = tr->Scope("Setup");
    ELASTICUTOR_CHECK(b.engine->Setup().ok());
  }
  return b;
}

/// Lets the self-test see a phase's replayable stream and final stores.
using Inspector = std::function<void(const KeyStream&, const Gathered&)>;

Phase RunPhase(Kind kind, int64_t budget, uint64_t salt,
               const RunOptions& opt, const Inspector& inspect = nullptr) {
  Tracer* tr = opt.tracer;
  Phase ph;
  ph.tuples = budget;

  Built b = Build(opt.seed, salt, kind != Kind::kSaturation, budget,
                  opt.traced(), tr);
  Engine& engine = *b.engine;
  exec::NativeRuntime* native = engine.native();
  SourceState* source = b.source.get();
  SinkRecorder* sink = b.sink.get();
  const OperatorId calculator = b.calculator;
  const KeyStream replay = source->stream;  // Before the first Next().

  Rng mover(opt.seed, 0x30e + salt);  // Moving phase: which shard moves.
  sink->base_ns = NowNs();
  const SimTime clock0 = engine.exec()->now();
  const int64_t start = NowNs();
  {
    auto span = tr->Scope("Start");
    engine.Start();
  }
  if (opt.traced() || kind == Kind::kMoving) {
    exec::TelemetrySnapshot prev;
    {
      auto span = tr->Scope("SampleTelemetry");
      prev = engine.SampleTelemetry();
    }
    for (int slice = 1;; ++slice) {
      {
        auto span = tr->Scope("RunFor");
        engine.RunFor(kSlice);
      }
      if (kind == Kind::kMoving && slice % kMoveEverySlices == 0) {
        auto span = tr->Scope("ReassignShard");
        const ShardId shard = static_cast<ShardId>(
            mover.NextBounded(native->num_shards(calculator)));
        const int to = 1 - native->worker_of_shard(calculator, shard);
        // Fails, and the shard stays put, when the balancer is moving it
        // right now.
        (void)native->ReassignShard(calculator, shard, to);
      }
      exec::TelemetrySnapshot snap;
      {
        auto span = tr->Scope("SampleTelemetry");
        snap = engine.SampleTelemetry();
      }
      const double imb = ImbalanceOf(prev, snap, calculator, kSlice);
      if (imb > 0.0) ph.imbalance.push_back(imb);
      prev = std::move(snap);
      if (prev.source_emitted >= budget) break;
    }
  }
  {
    auto span = tr->Scope("RunToCompletion");
    engine.RunToCompletion();
  }
  const int64_t end = NowNs();
  const SimTime clock1 = engine.exec()->now();
  ph.wall_s = static_cast<double>(end - start) / 1e9;
  ph.drain_ms = static_cast<double>(end - source->last_ns) / 1e6;

  ph.final = engine.SampleTelemetry();
  ph.allocs = native->batches_allocated();
  ph.push_blocks = native->push_blocks();
  ph.pop_waits = native->pop_waits();
  ph.batches_pushed = native->batches_pushed();
  ph.labels = native->labels_routed();
  ph.moves = native->reassignments_done();
  ph.pauses = native->migration_pauses();
  ph.engine_latency = engine.LatencyHistogram();
  ph.engine_tps = static_cast<double>(engine.metrics()->sink_count()) /
                  std::max(ToSeconds(clock1 - clock0), 1e-9);
  std::vector<int64_t> latency = sink->All();
  ph.timed = static_cast<int64_t>(latency.size());
  ph.p50_ms = QuantileMs(latency, 0.5);
  ph.p99_ms = QuantileMs(latency, 0.99);
  ph.max_ms = QuantileMs(latency, 1.0);
  ph.late = source->late;
  if (source->last_ns > source->t0_ns) {
    ph.achieved_emit_tps = static_cast<double>(budget - 1) * 1e9 /
                           static_cast<double>(source->last_ns -
                                               source->t0_ns);
  }

  // Correctness: per-key state against the reference fold, counts against
  // the budget, and (traced) the runtime's own order validator.
  Reference ref;
  {
    auto span = tr->Scope("ReferenceFold");
    ref = Fold(replay, budget);
  }
  ph.ref_thread_s = ref.thread_seconds;
  const Gathered got = GatherStores(native, calculator);
  ph.failed = MismatchedTuples(ref, got);
  if (inspect) inspect(replay, got);
  ph.failed += std::abs(ph.final.sink_count - budget);
  ph.failed += std::abs(ph.final.source_emitted - budget);
  ph.failed += engine.order_violations();
  return ph;
}

double GenNsPerTuple(uint64_t seed) {
  constexpr int64_t kN = 1'000'000;
  KeyStream s = MakeStream(seed, 0xfeed);
  uint64_t sink = 0;
  const int64_t start = NowNs();
  for (int64_t i = 0; i < kN; ++i) sink += s.Next();
  const int64_t elapsed = NowNs() - start;
  KeepAlive(sink);
  return static_cast<double>(elapsed) / kN;
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string Join(const char* title, const std::vector<double>& values,
                 const char* format) {
  std::string line = title;
  char buf[64];
  for (double v : values) {
    std::snprintf(buf, sizeof(buf), format, v);
    line += " ";
    line += buf;
  }
  return line;
}

}  // namespace

RunResult RunUniform(const RunOptions& opt) {
  // Sized so each half of opt.seconds goes to one phase kind: saturation
  // runs near 1M tuples/s on a 4-CPU host, the open loop at kOpenLoopRate.
  const int64_t sat_budget = int64_t{450'000} * opt.seconds / kRepetitions;
  const int64_t ol_budget = static_cast<int64_t>(
      kOpenLoopRate * 0.5 * opt.seconds / kRepetitions);

  // An unmeasured saturation phase first: thread start-up, the cycle
  // clock's calibration and first-touch page faults land here.
  const Phase warmup = RunPhase(Kind::kSaturation, sat_budget / 4, 0, opt);
  // setup_s. Each engine is kept until after the clock is read, so its
  // teardown is not timed.
  uint64_t setup_salt = 1000;
  SetupTimer setup([&] {
    const int64_t start = NowNs();
    const Built b = Build(opt.seed, setup_salt++, false, sat_budget,
                          opt.traced(), opt.tracer);
    return static_cast<double>(NowNs() - start) / 1e9;
  });
  std::vector<Phase> sat, ol;
  for (int rep = 0; rep < kRepetitions; ++rep) {
    setup.Round(kSetupSamplesPerRound);
    sat.push_back(RunPhase(Kind::kSaturation, sat_budget, 2 * rep + 1, opt));
    setup.Round(kSetupSamplesPerRound);
    ol.push_back(RunPhase(Kind::kOpenLoop, ol_budget, 2 * rep + 2, opt));
  }

  RunResult r;
  std::vector<double> tput, engine_tps, p50, p99, max;
  for (const Phase& p : sat) {
    tput.push_back(static_cast<double>(p.tuples) / p.wall_s);
  }
  int64_t timed = 0;
  for (const Phase& p : ol) {
    engine_tps.push_back(p.engine_tps);
    p50.push_back(p.p50_ms);
    p99.push_back(p.p99_ms);
    max.push_back(p.max_ms);
    timed += p.timed;
  }
  std::vector<const Phase*> all = {&warmup};
  for (const Phase& p : sat) all.push_back(&p);
  for (const Phase& p : ol) all.push_back(&p);
  for (const Phase* p : all) {
    r.attempted += p->tuples;
    r.failed += p->failed;
  }
  r.e2e = {{"tput_tps", Median(tput), "1/s"},
           {"p50_ms", Median(p50), "ms"},
           {"p99_ms", Median(p99), "ms"},
           {"model_tput_tps", Median(engine_tps), "1/s"},
           {"setup_s", setup.Value(), "s"}};

  double achieved = 0.0;
  for (const Phase& p : ol) achieved += p.achieved_emit_tps / ol.size();
  char note[256];
  std::snprintf(note, sizeof(note),
                "open loop: offered %.0f tuples/s, emitted %.0f tuples/s, "
                "engine-measured sink %.0f tuples/s; %lld timed tuples",
                kOpenLoopRate, achieved, Median(engine_tps),
                static_cast<long long>(timed));
  r.notes.push_back(note);
  r.notes.push_back(Join("open-loop p99 per repetition (ms):", p99, "%.3f"));
  r.notes.push_back(Join("open-loop max per repetition (ms):", max, "%.3f"));
  std::snprintf(note, sizeof(note),
                "warm-up + %d repetitions x (saturation %lld tuples + open "
                "loop %lld tuples); balancer moves per phase:",
                kRepetitions, static_cast<long long>(sat_budget),
                static_cast<long long>(ol_budget));
  std::string line = note;
  for (const Phase* p : all) line += " " + std::to_string(p->moves);
  r.notes.push_back(line);
  r.notes.push_back(Join("saturation tuples/s per repetition:", tput, "%.0f"));
  r.notes.push_back(SetupNote(setup));

  if (!opt.traced()) return r;

  const Phase moving =
      RunPhase(Kind::kMoving, ol_budget, 2 * kRepetitions + 1, opt);
  r.attempted += moving.tuples;
  r.failed += moving.failed;
  std::vector<double> pauses;
  for (SimDuration d : moving.pauses) pauses.push_back(Ms(d));

  // Per-layer metrics.
  int64_t busy = 0, processed = 0, sat_tuples = 0, blocks = 0, waits = 0;
  double worker_ns = 0.0;
  for (const Phase& p : sat) {
    for (const auto& w : p.final.workers) {
      busy += w.busy_ns;
      processed += w.processed;
    }
    worker_ns += kWorkers * p.wall_s * 1e9;
    sat_tuples += p.tuples;
    blocks += p.push_blocks;
    waits += p.pop_waits;
  }
  int64_t ol_tuples = 0, ol_batches = 0;
  Histogram late, e2s;
  for (const Phase& p : ol) {
    ol_tuples += p.tuples;
    ol_batches += p.batches_pushed;
    late.Merge(p.late);
    e2s.Merge(p.engine_latency);
  }
  int64_t balancer_moves = 0, allocs = 0;
  std::vector<double> imbalance, drain;
  double ref_s = moving.ref_thread_s;
  for (const Phase* p : all) {
    balancer_moves += p->moves;
    allocs = std::max(allocs, p->allocs);
    imbalance.insert(imbalance.end(), p->imbalance.begin(),
                     p->imbalance.end());
    drain.push_back(p->drain_ms);
    ref_s += p->ref_thread_s;
  }
  const double kt = 1000.0 / static_cast<double>(sat_tuples);
  r.layer = {
      {"exec.worker.busy_ns_per_tuple",
       static_cast<double>(busy) / std::max<int64_t>(processed, 1), "ns"},
      {"exec.worker.busy_frac", static_cast<double>(busy) / worker_ns,
       "ratio"},
      {"exec.channel.push_blocks_per_kt", static_cast<double>(blocks) * kt,
       "1/kt"},
      {"exec.channel.pop_waits_per_kt", static_cast<double>(waits) * kt,
       "1/kt"},
      {"exec.batch_pool.allocs", static_cast<double>(allocs), "count"},
      {"exec.channel.tuples_per_batch",
       static_cast<double>(ol_tuples) / std::max<int64_t>(ol_batches, 1),
       "count"},
      {"exec.source.late_p99_ms", Ms(late.P99()), "ms"},
      {"exec.emit_to_sink_p99_ms", Ms(e2s.P99()), "ms"},
      {"exec.move.count", static_cast<double>(balancer_moves), "count"},
      {"exec.move.scheduled", static_cast<double>(moving.moves), "count"},
      {"exec.move.pause_p50_ms", Quantile(pauses, 0.5), "ms"},
      {"exec.move.pause_p99_ms", Quantile(pauses, 0.99), "ms"},
      {"exec.move.labels_per_move",
       moving.moves > 0 ? static_cast<double>(moving.labels) / moving.moves
                        : 0.0,
       "count"},
      {"exec.move.open_loop_p99_ms", moving.p99_ms, "ms"},
      {"elastic.balance.imbalance_p50", Quantile(imbalance, 0.5), "ratio"},
      {"elastic.balance.imbalance_p99", Quantile(imbalance, 0.99), "ratio"},
      {"workload.ref_tps",
       static_cast<double>(r.attempted) / std::max(ref_s, 1e-9), "1/s"},
      {"workload.gen_ns_per_tuple", GenNsPerTuple(opt.seed), "ns"},
      {"engine.drain_ms", Median(drain), "ms"},
  };
  return r;
}

bool SelfTest() {
  constexpr int64_t kN = 20000;
  Tracer off(false);
  RunOptions opt;
  opt.seed = 7;
  opt.tracer = &off;
  bool ok = true;
  auto expect = [&ok](bool cond, const char* what) {
    std::printf("self-test: %-44s %s\n", what, cond ? "ok" : "FAILED");
    ok = ok && cond;
  };
  const Phase ph = RunPhase(
      Kind::kSaturation, kN, /*salt=*/1, opt,
      [&](const KeyStream& replay, const Gathered& got) {
        const Reference ref = Fold(replay, kN);
        expect(MismatchedTuples(ref, got) == 0, "true reference matches");

        int key = 0;
        while (ref.count[key] == 0) ++key;
        Reference corrupted = ref;
        corrupted.acc[key] ^= 1;
        expect(MismatchedTuples(corrupted, got) == ref.count[key],
               "corrupted reference value is caught");

        // Sequential folds over explicit orders: swap two tuples of one
        // key, then drop one tuple.
        KeyStream s = replay;
        std::vector<uint64_t> keys(kN);
        for (int64_t i = 0; i < kN; ++i) keys[i] = s.Next();
        std::vector<int64_t> order(kN);
        std::iota(order.begin(), order.end(), 0);
        auto fold = [&keys](const std::vector<int64_t>& seqs) {
          Reference r;
          for (int64_t i : seqs) {
            r.acc[keys[i]] = FoldStep(r.acc[keys[i]], keys[i], i);
            ++r.count[keys[i]];
          }
          return r;
        };
        expect(MismatchedTuples(fold(order), got) == 0,
               "sequential fold matches");
        const uint64_t hot = static_cast<uint64_t>(
            std::max_element(ref.count.begin(), ref.count.end()) -
            ref.count.begin());
        const int64_t a = std::find(keys.begin(), keys.end(), hot) -
                          keys.begin();
        const int64_t b = std::find(keys.begin() + a + 1, keys.end(), hot) -
                          keys.begin();
        std::vector<int64_t> swapped = order;
        std::swap(swapped[a], swapped[b]);
        expect(MismatchedTuples(fold(swapped), got) > 0,
               "reordered tuples of one key are caught");
        std::vector<int64_t> dropped(order.begin() + 1, order.end());
        expect(MismatchedTuples(fold(dropped), got) > 0,
               "a lost tuple is caught");
      });
  expect(ph.failed == 0, "phase check passes on a correct run");
  return ok;
}

}  // namespace perfbench

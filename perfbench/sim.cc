// sim-dynamics: the paper's micro benchmark on the deterministic simulator.
// The paper testbed (32 nodes x 8 cores), the micro defaults (32 generator
// and 32 calculator executors, 256 shards each, 1 ms modeled cost per
// tuple) and scn::MicroDynamics(16) key-popularity shuffles, over a fixed
// virtual window. The run is all simulator (event queue, network, elastic
// executors, the DynamicScheduler's Algorithm 1, the MigrationEngine model)
// and no native exec code. At omega = 16 several shuffles land inside the
// window; at omega = 2 none would, and the result would match omega = 0.
//
// tput_tps is simulated sink tuples per wall second of the event loop (the
// simulator's own speed). model_tput_tps, p50_ms and p99_ms are the
// paper's Fig 6 quantities in virtual time (sink throughput and latency)
// and repeat exactly at a fixed seed.
//
// Correctness: after the window the sources stop and the run drains; every
// tuple the sources emitted must have reached the sink. Traced passes also
// turn on validate_key_order and count order violations.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/hash.h"
#include "engine/engine.h"
#include "scenario/library.h"
#include "scenario/scenario_driver.h"
#include "scheduler/scheduler.h"
#include "support.h"
#include "workload/micro.h"

namespace perfbench {
namespace {

using namespace elasticutor;

constexpr double kOmegaPerMinute = 16.0;
constexpr SimDuration kWarmup = Seconds(5);
constexpr SimDuration kMeasure = Seconds(15);
constexpr SimDuration kSlice = Seconds(1);  // Traced telemetry window.
constexpr SimDuration kDrainStep = Seconds(1);
constexpr int kMaxDrainSteps = 60;
constexpr int kSetupSamplesPerRound = 16;

struct Rep {
  double loop_s = 0.0;   // Wall time of the measured window's event loop.
  double drain_ms = 0.0;
  int64_t sink = 0;      // Sink tuples in the measured window.
  double model_tps = 0.0;
  double model_p50_ms = 0.0;
  double model_p99_ms = 0.0;
  PerfCounters perf;
  int64_t cycles = 0;
  double solve_ms_avg = 0.0;
  double cycle_ms_p99 = 0.0;
  int64_t core_moves = 0;
  int64_t ops = 0;
  double pause_ms_avg = 0.0;
  double sync_ms_avg = 0.0;
  double delta_kb_avg = 0.0;
  int64_t emitted = 0;
  int64_t failed = 0;
};

/// A repetition's engine and the scenario driving it. The driver refers to
/// the engine, so it is declared after it and destroyed first.
struct Built {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<ScenarioDriver> driver;
};

/// What setup_s times: builds the workload, constructs the Engine, runs
/// Setup() and installs the scenario.
Built Build(uint64_t seed, bool validate, Tracer* tr) {
  MicroOptions options;  // Paper §5.1 defaults.
  Result<MicroWorkload> built = BuildMicroWorkload(options, seed);
  ELASTICUTOR_CHECK(built.ok());
  EngineConfig config;  // Paper testbed; default paradigm kElastic.
  config.seed = seed;
  config.validate_key_order = validate;
  Built b;
  b.engine = std::make_unique<Engine>(std::move(built->topology), config);
  {
    auto span = tr->Scope("Setup");
    ELASTICUTOR_CHECK(b.engine->Setup().ok());
  }
  b.driver = std::make_unique<ScenarioDriver>(
      scn::MicroDynamics(kOmegaPerMinute), b.engine.get(), built->keys);
  {
    auto span = tr->Scope("ScenarioInstall");
    b.driver->Install();
  }
  return b;
}

Rep RunRep(const RunOptions& opt, uint64_t seed) {
  Tracer* tr = opt.tracer;
  Rep rep;
  const Built b = Build(seed, opt.traced(), tr);
  Engine& engine = *b.engine;

  {
    auto span = tr->Scope("Start");
    engine.Start();
  }
  {
    auto span = tr->Scope("RunFor");
    engine.RunFor(kWarmup);
  }
  const int64_t sink_before = engine.metrics()->sink_count();
  engine.ResetMetricsAfterWarmup();
  const int64_t loop_start = NowNs();
  if (opt.traced()) {
    for (SimDuration t = 0; t < kMeasure; t += kSlice) {
      {
        auto span = tr->Scope("RunFor");
        engine.RunFor(kSlice);
      }
      auto span = tr->Scope("SampleTelemetry");
      (void)engine.SampleTelemetry();
    }
  } else {
    engine.RunFor(kMeasure);
  }
  rep.loop_s = static_cast<double>(NowNs() - loop_start) / 1e9;

  const EngineMetrics& m = *engine.metrics();
  rep.sink = m.sink_count();
  rep.model_tps = engine.MeasuredThroughput();
  rep.model_p50_ms = static_cast<double>(m.latency().P50()) / 1e6;
  rep.model_p99_ms = static_cast<double>(m.latency().P99()) / 1e6;
  rep.perf = engine.Perf();
  const SchedulerTiming& timing = engine.scheduler()->timing();
  rep.cycles = timing.cycles();
  rep.solve_ms_avg = timing.Avg(timing.solve_ms);
  rep.cycle_ms_p99 = timing.P99CycleMs();
  rep.core_moves = engine.scheduler()->core_moves_issued();
  const auto& ops = m.elasticity_ops();
  rep.ops = static_cast<int64_t>(ops.size());
  for (const ElasticityOp& op : ops) {
    rep.pause_ms_avg += ToMillis(op.pause_ns) / ops.size();
    rep.sync_ms_avg += ToMillis(op.sync_ns) / ops.size();
    rep.delta_kb_avg += static_cast<double>(op.delta_bytes) / 1024.0 /
                        ops.size();
  }

  // Drain: stop the sources and run until the sink count stops moving.
  const int64_t drain_start = NowNs();
  {
    auto span = tr->Scope("Drain");
    {
      auto stop = tr->Scope("StopSources");
      engine.StopSources();
    }
    int64_t last = -1;
    for (int i = 0; i < kMaxDrainSteps && m.sink_count() != last; ++i) {
      last = m.sink_count();
      engine.RunFor(kDrainStep);
    }
  }
  rep.drain_ms = static_cast<double>(NowNs() - drain_start) / 1e6;
  rep.emitted = engine.SampleTelemetry().source_emitted;
  rep.failed = std::llabs(rep.emitted - (sink_before + m.sink_count())) +
               engine.order_violations();
  return rep;
}

}  // namespace

RunResult RunSimDynamics(const RunOptions& opt) {
  // One repetition takes 2.5-4 s of wall time. Each models the window
  // under its own seed derived from the run's, so the modeled figures are
  // medians over several key placements and shuffle draws.
  const int reps = std::max(2, opt.seconds / 3);
  const uint64_t base_seed = Mix64(opt.seed);
  // setup_s: a round of set-ups after every repetition, the first of
  // which warms the allocator and the code. Each engine is kept until
  // after the clock is read, so its teardown is not timed.
  uint64_t salt = 1000;
  SetupTimer setup([&] {
    const int64_t start = NowNs();
    const Built b = Build(base_seed + salt++, opt.traced(), opt.tracer);
    return static_cast<double>(NowNs() - start) / 1e9;
  });
  std::vector<Rep> runs;
  for (int i = 0; i < reps; ++i) {
    runs.push_back(RunRep(opt, base_seed + static_cast<uint64_t>(i)));
    setup.Round(kSetupSamplesPerRound);
  }

  RunResult r;
  std::vector<double> tput, model_tps, p50, p99;
  for (const Rep& rep : runs) {
    tput.push_back(static_cast<double>(rep.sink) / rep.loop_s);
    model_tps.push_back(rep.model_tps);
    p50.push_back(rep.model_p50_ms);
    p99.push_back(rep.model_p99_ms);
    r.attempted += rep.emitted;
    r.failed += rep.failed;
  }
  // Host interference only ever slows a run down, so the fastest
  // repetition is the steadiest estimate of the simulator's speed.
  r.e2e = {{"tput_tps", *std::max_element(tput.begin(), tput.end()), "1/s"},
           {"p50_ms", Median(p50), "ms"},
           {"p99_ms", Median(p99), "ms"},
           {"model_tput_tps", Median(model_tps), "1/s"},
           {"setup_s", setup.Value(), "s"}};
  int64_t samples = 0;
  for (const Rep& rep : runs) samples += rep.sink;
  char note[200];
  std::snprintf(note, sizeof(note),
                "%d repetitions of %.0f + %.0f virtual s (warm-up + measured), "
                "omega %.0f/min; %lld modeled latency samples",
                reps, ToSeconds(kWarmup), ToSeconds(kMeasure), kOmegaPerMinute,
                static_cast<long long>(samples));
  r.notes.push_back(note);
  std::string line = "event-loop sink tuples/s per repetition:";
  for (double v : tput) {
    line += " ";
    line += std::to_string(std::lround(v));
  }
  r.notes.push_back(line);
  r.notes.push_back(SetupNote(setup));
  if (!opt.traced()) return r;

  // Per-layer figures: medians over the repetitions.
  auto med = [&runs](auto field) {
    std::vector<double> v;
    for (const Rep& rep : runs) v.push_back(static_cast<double>(field(rep)));
    return Median(std::move(v));
  };
  r.layer = {
      {"sim.events_per_tuple",
       med([](const Rep& x) { return x.perf.events_per_tuple(); }), "count"},
      {"sim.heap_allocs_per_tuple",
       med([](const Rep& x) { return x.perf.heap_allocs_per_tuple(); }),
       "count"},
      {"net.messages_per_tuple",
       med([](const Rep& x) { return x.perf.messages_per_tuple(); }),
       "count"},
      {"sim.ns_per_event",
       med([](const Rep& x) {
         return x.loop_s * 1e9 /
                static_cast<double>(std::max<int64_t>(x.perf.events_fired, 1));
       }),
       "ns"},
      {"scheduler.cycles", med([](const Rep& x) { return x.cycles; }),
       "count"},
      {"scheduler.solve_ms_avg",
       med([](const Rep& x) { return x.solve_ms_avg; }), "ms"},
      {"scheduler.cycle_ms_p99",
       med([](const Rep& x) { return x.cycle_ms_p99; }), "ms"},
      {"scheduler.core_moves", med([](const Rep& x) { return x.core_moves; }),
       "count"},
      {"elastic.ops", med([](const Rep& x) { return x.ops; }), "count"},
      {"elastic.pause_ms_avg",
       med([](const Rep& x) { return x.pause_ms_avg; }), "ms"},
      {"elastic.sync_ms_avg", med([](const Rep& x) { return x.sync_ms_avg; }),
       "ms"},
      {"state.delta_kb_avg", med([](const Rep& x) { return x.delta_kb_avg; }),
       "KiB"},
      {"engine.drain_ms", med([](const Rep& x) { return x.drain_ms; }), "ms"},
  };
  return r;
}

}  // namespace perfbench

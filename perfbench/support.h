// Shared pieces of the repository benchmark: the calculator's per-tuple
// work, span recording (Chrome trace-event output), metric lists and small
// statistics helpers. Everything here is benchmark code; the program under
// test is only reached through its public Engine / NativeRuntime API.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Rounds of integer hashing per tuple: about 1.4 us on a 2020s x86 core,
/// heavy enough that two workers, not the source, bound throughput.
constexpr int kSpinRounds = 600;

inline uint64_t SpinHash(uint64_t x) {
  uint64_t h = x ^ 0x9e3779b97f4a7c15ull;
  for (int i = 0; i < kSpinRounds; ++i) {
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 29;
  }
  return h;
}

/// The calculator's per-key fold: acc = SpinHash(key + acc), mixed with the
/// tuple's sequence number so that a reordered, lost or duplicated tuple
/// changes the key's final state.
inline int64_t FoldStep(int64_t acc, uint64_t key, int64_t seq) {
  return static_cast<int64_t>(SpinHash(key + static_cast<uint64_t>(acc)) ^
                              static_cast<uint64_t>(seq));
}

/// Keeps a computed value live so a timed loop is not optimized away.
inline void KeepAlive(uint64_t value) { asm volatile("" : : "r"(value)); }

/// Spans recorded by the driver thread around each call into the program.
/// Disabled tracers record nothing. Spans stay in memory until
/// WriteChromeTrace.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_ns_(NowNs()) {}

  class Span {
   public:
    Span(Tracer* tracer, const char* name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int index_ = -1;
  };

  /// Opens a span whose parent is the innermost span still open.
  Span Scope(const char* name) { return Span(enabled_ ? this : nullptr, name); }

  bool enabled() const { return enabled_; }
  size_t size() const { return spans_.size(); }

  /// Writes the spans as Chrome trace-event JSON ("X" events; the parent
  /// span's index is in args). Returns false when the file cannot be
  /// written.
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
  };

  bool enabled_;
  int64_t epoch_ns_;
  std::vector<Record> spans_;
  std::vector<int> open_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Result of one pass over a workload.
struct RunResult {
  std::vector<Metric> e2e;    // End-to-end metrics (BENCHMARK.json names).
  std::vector<Metric> layer;  // Per-layer metrics (traced passes only).
  int64_t attempted = 0;      // Tuples emitted (native) / by the sources (sim).
  int64_t failed = 0;         // Tuples lost, duplicated or reordered.
  std::vector<std::string> notes;
};

/// Value of the named metric; aborts when absent (a benchmark bug).
double Find(const std::vector<Metric>& metrics, const std::string& name);

/// Median of the values (0 for none).
double Median(std::vector<double> values);
/// Linear-interpolated quantile q in [0, 1] (0 for none).
double Quantile(std::vector<double> values, double q);

/// Times the workload's set-up in rounds spread over a run. Each round
/// pins the calling thread to the next CPU the process may use, so the
/// samples cover every CPU and the whole run: the CPUs of a shared host
/// differ in speed from one another and over time (a busy hyperthread
/// sibling, another tenant), and a series taken on one CPU at one moment
/// measures that CPU and moment as much as the set-up.
class SetupTimer {
 public:
  /// `once` performs one set-up and returns its wall seconds.
  explicit SetupTimer(std::function<double()> once);

  /// Takes `samples` set-ups on the next CPU in turn.
  void Round(int samples);

  /// The fastest sample: the set-up's own cost with the host out of the
  /// way. Host interference only ever adds time, and one unhindered sample
  /// in a run is enough to show the set-up's cost.
  double Value() const { return Quantile(samples_, 0.0); }
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::function<double()> once_;
  std::vector<int> cpus_;  // CPUs the process may use; empty if unknown.
  size_t next_cpu_ = 0;
  std::vector<double> samples_;
};

/// One report line: sample count, minimum and quartiles of the set-ups.
std::string SetupNote(const SetupTimer& setup);

/// Pointer chase over a buffer larger than the last-level cache: mean ns
/// per dependent load. Taken every run, it shows host memory drift.
double HostMemNs();

struct RunOptions {
  uint64_t seed = 1;
  int seconds = 10;
  Tracer* tracer = nullptr;  // Never null; disabled for untraced passes.

  /// Traced passes also turn on validate_key_order and telemetry windows.
  bool traced() const { return tracer->enabled(); }
};

RunResult RunUniform(const RunOptions& options);
RunResult RunSimDynamics(const RunOptions& options);

/// Proves that the native correctness check catches a corrupted reference
/// and a reordered stream. Returns true when it does.
bool SelfTest();

}  // namespace perfbench

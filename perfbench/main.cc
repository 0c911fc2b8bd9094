// The repository benchmark: one command that runs a workload against the
// public Engine / NativeRuntime API, checks its outputs and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench --workload uniform|sim-dynamics --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --self-test
//
// --trace 0 prints the end-to-end metrics of an untraced pass. --trace 1
// runs the same untraced pass, then a traced pass (spans around every call
// into the program, validate_key_order on, telemetry sampled every
// window), and prints the per-layer metrics of the traced pass plus
// trace.overhead.<metric> = traced minus untraced for every end-to-end
// metric. The spans go to --trace-out as Chrome trace-event JSON.
//
// Exit status is non-zero when any output is wrong.
#include <sched.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "support.h"

namespace perfbench {
namespace {

/// Threads a native run needs at once: one source, two calculator workers
/// and the driver. The simulator runs on the driver thread alone.
constexpr int kNativeThreads = 4;

/// The end-to-end metrics of BENCHMARK.json, which --trace 0 reports. A
/// workload also computes p99_ms; it is not steady enough on a shared host
/// to carry a bound (perfbench/README.md) and is reported per layer, as
/// latency.p99_ms.
const std::vector<const char*> kEndToEnd = {"tput_tps", "p50_ms",
                                            "model_tput_tps", "setup_s"};

/// Every per-layer metric, in BENCHMARK.json order. A metric a workload's
/// layers do not produce (the simulator's counters on a native workload,
/// the native data path on the simulator) reads 0. Figures a workload
/// produces beyond these are printed but not in the JSON line.
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"exec.worker.busy_ns_per_tuple", "ns"},
    {"exec.worker.busy_frac", "ratio"},
    {"exec.channel.push_blocks_per_kt", "1/kt"},
    {"exec.channel.pop_waits_per_kt", "1/kt"},
    {"exec.batch_pool.allocs", "count"},
    {"exec.channel.tuples_per_batch", "count"},
    {"exec.source.late_p99_ms", "ms"},
    {"exec.emit_to_sink_p99_ms", "ms"},
    {"exec.move.count", "count"},
    {"exec.move.scheduled", "count"},
    {"exec.move.pause_p50_ms", "ms"},
    {"exec.move.pause_p99_ms", "ms"},
    {"exec.move.labels_per_move", "count"},
    {"exec.move.open_loop_p99_ms", "ms"},
    {"elastic.balance.imbalance_p50", "ratio"},
    {"elastic.balance.imbalance_p99", "ratio"},
    {"sim.events_per_tuple", "count"},
    {"sim.heap_allocs_per_tuple", "count"},
    {"net.messages_per_tuple", "count"},
    {"sim.ns_per_event", "ns"},
    {"scheduler.cycles", "count"},
    {"scheduler.solve_ms_avg", "ms"},
    {"scheduler.cycle_ms_p99", "ms"},
    {"scheduler.core_moves", "count"},
    {"elastic.ops", "count"},
    {"elastic.pause_ms_avg", "ms"},
    {"elastic.sync_ms_avg", "ms"},
    {"state.delta_kb_avg", "KiB"},
    {"workload.ref_tps", "1/s"},
    {"workload.gen_ns_per_tuple", "ns"},
    {"engine.drain_ms", "ms"},
    {"host.mem_ns", "ns"},
    {"latency.p99_ms", "ms"},
};

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string trace_out;
  bool self_test = false;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "uniform|sim-dynamics --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n       perfbench --self-test\n",
               why);
  std::exit(2);
}

bool ParseInt(const char* s, long long lo, long long hi, long long* out) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

Args Parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) Usage("missing value");
    const char* v = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      if (!ParseInt(v, 0, (1LL << 62), &n)) Usage("bad --seed");
      a.seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds") {
      if (!ParseInt(v, 1, 60, &n)) Usage("bad --seconds (1..60)");
      a.seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (!ParseInt(v, 0, 1, &n)) Usage("bad --trace (0 or 1)");
      a.trace = static_cast<int>(n);
    } else if (flag == "--trace-out") {
      a.trace_out = v;
    } else {
      Usage("unknown flag");
    }
  }
  if (a.self_test) return a;
  if (a.workload != "uniform" && a.workload != "sim-dynamics") {
    Usage("bad --workload");
  }
  if (a.seconds == 0 || a.trace < 0) Usage("--seconds and --trace required");
  return a;
}

RunResult RunWorkload(const Args& a, Tracer* tracer) {
  RunOptions opt;
  opt.seed = a.seed;
  opt.seconds = a.seconds;
  opt.tracer = tracer;
  auto span = tracer->Scope(a.workload.c_str());
  if (a.workload == "uniform") return RunUniform(opt);
  return RunSimDynamics(opt);
}

int AvailableCpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

void PrintMetrics(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string Json(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value);
    out += buf;
    out += "\"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  const Args a = Parse(argc, argv);
  if (a.self_test) {
    const bool ok = SelfTest();
    std::printf("self-test %s\n", ok ? "passed" : "FAILED");
    return ok ? 0 : 1;
  }

  const int cpus = AvailableCpus();
  const int threads = a.workload == "sim-dynamics" ? 1 : kNativeThreads;
  std::printf("perfbench: workload %s, seed %llu, %d s, trace %d; "
              "%d CPUs available, %d threads used%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace, cpus, threads,
              cpus < threads
                  ? " (fewer CPUs than threads: threads share cores and "
                    "wall-clock figures are not comparable)"
                  : "");
  const double host_mem_ns = HostMemNs();

  Tracer untraced(false);
  RunResult base = RunWorkload(a, &untraced);
  RunResult traced;
  Tracer tracer(true);
  if (a.trace == 1) traced = RunWorkload(a, &tracer);

  PrintMetrics("end-to-end (untraced):", base.e2e);
  for (const std::string& n : base.notes) {
    std::printf("  note: %s\n", n.c_str());
  }

  int64_t attempted = base.attempted;
  int64_t failed = base.failed;
  std::vector<Metric> reported;
  for (const char* name : kEndToEnd) {
    for (const Metric& m : base.e2e) {
      if (m.name == name) reported.push_back(m);
    }
  }
  if (a.trace == 1) {
    attempted += traced.attempted;
    failed += traced.failed;
    reported.clear();
    for (const auto& [name, unit] : kLayerMetrics) {
      double value = 0.0;
      for (const Metric& m : traced.layer) {
        if (m.name == name) value = m.value;
      }
      if (std::strcmp(name, "host.mem_ns") == 0) value = host_mem_ns;
      if (std::strcmp(name, "latency.p99_ms") == 0) {
        value = Find(base.e2e, "p99_ms");  // The untraced pass's.
      }
      reported.push_back({name, value, unit});
    }
    for (const Metric& m : base.e2e) {
      reported.push_back({"trace.overhead." + m.name,
                          Find(traced.e2e, m.name) - m.value, m.unit});
    }
    PrintMetrics("end-to-end (traced):", traced.e2e);
    PrintMetrics("per-layer (traced) and tracing overhead:", reported);
    for (const Metric& m : traced.layer) {
      bool listed = false;
      for (const auto& [name, unit] : kLayerMetrics) listed |= m.name == name;
      if (!listed) {
        std::printf("  also: %s %.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
      }
    }
    if (!a.trace_out.empty()) {
      if (!tracer.WriteChromeTrace(a.trace_out)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     a.trace_out.c_str());
        return 1;
      }
      std::printf("  %zu spans written to %s\n", tracer.size(),
                  a.trace_out.c_str());
    }
  } else {
    std::printf("  host.mem_ns %.2f\n", host_mem_ns);
  }

  bool finite = true;
  for (const Metric& m : reported) finite = finite && std::isfinite(m.value);
  const bool correct = failed == 0 && attempted > 0 && finite;
  std::printf("attempted %lld, failed %lld, fail_frac %.6g%s\n",
              static_cast<long long>(attempted),
              static_cast<long long>(failed),
              attempted > 0 ? static_cast<double>(failed) / attempted : 1.0,
              finite ? "" : "; a metric is not finite");
  if (!finite) {
    for (Metric& m : reported) {
      if (!std::isfinite(m.value)) m.value = 0.0;
    }
  }
  std::printf("%s\n", Json(correct, attempted, failed, reported).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

#include "support.h"

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>

#include "common/random.h"

namespace perfbench {

Tracer::Span::Span(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  Record r;
  r.name = name;
  r.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  r.start_ns = NowNs();
  index_ = static_cast<int>(tracer_->spans_.size());
  tracer_->spans_.push_back(std::move(r));
  tracer_->open_.push_back(index_);
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[index_].end_ns = NowNs();
  tracer_->open_.pop_back();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    // Chrome trace timestamps are microseconds.
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%d}}\n",
                 i == 0 ? "" : ",", r.name.c_str(),
                 static_cast<double>(r.start_ns - epoch_ns_) / 1e3,
                 static_cast<double>(r.end_ns - r.start_ns) / 1e3, i,
                 r.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

double Find(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  std::fprintf(stderr, "perfbench: metric %s missing\n", name.c_str());
  std::abort();
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

SetupTimer::SetupTimer(std::function<double()> once)
    : once_(std::move(once)) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
  }
}

void SetupTimer::Round(int samples) {
  cpu_set_t allowed;
  bool pinned = false;
  if (!cpus_.empty() &&
      sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_cpu_++ % cpus_.size()], &one);
    pinned = sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  for (int i = 0; i < samples; ++i) samples_.push_back(once_());
  if (pinned) sched_setaffinity(0, sizeof(allowed), &allowed);
}

std::string SetupNote(const SetupTimer& setup) {
  const std::vector<double>& v = setup.samples();
  char note[160];
  std::snprintf(note, sizeof(note),
                "set-up over %zu samples (ms): min %.4f, p10 %.4f, p25 %.4f, "
                "median %.4f",
                v.size(), 1e3 * Quantile(v, 0.0), 1e3 * Quantile(v, 0.1),
                1e3 * Quantile(v, 0.25), 1e3 * Median(v));
  return note;
}

double HostMemNs() {
  // One 64-byte line per node, 64 MiB in total: larger than the last-level
  // cache of the hosts this runs on, so each step is a DRAM round trip.
  constexpr size_t kLines = size_t{1} << 20;
  constexpr int64_t kSteps = int64_t{1} << 21;
  struct alignas(64) Line {
    uint32_t next;
  };
  std::vector<Line> lines(kLines);
  std::vector<uint32_t> order(kLines);
  std::iota(order.begin(), order.end(), 0u);
  elasticutor::Rng rng(12345);
  for (size_t i = kLines - 1; i > 0; --i) {  // Sattolo: one single cycle.
    std::swap(order[i], order[rng.NextBounded(static_cast<uint32_t>(i))]);
  }
  for (size_t i = 0; i < kLines; ++i) {
    lines[order[i]].next = order[(i + 1) % kLines];
  }
  uint32_t at = order[0];
  const int64_t start = NowNs();
  for (int64_t s = 0; s < kSteps; ++s) at = lines[at].next;
  const int64_t elapsed = NowNs() - start;
  KeepAlive(at);
  return static_cast<double>(elapsed) / static_cast<double>(kSteps);
}

}  // namespace perfbench
